"""Tests for the executor's one pull protocol (batches/iter_batches) and
the markup (text) representation of SQL/XML values behind streaming."""

import pytest

from repro.errors import RewriteError
from repro.rdb import (
    Aggregate,
    Database,
    Filter,
    HashJoin,
    IndexScan,
    Limit,
    NestedLoopJoin,
    Query,
    Scan,
    Sort,
    TopN,
    INT,
    TEXT,
)
from repro.rdb.expressions import ScalarSubquery, col, const, eq, gt
from repro.rdb.plan import (
    DEFAULT_BATCH_SIZE,
    ExecutionStats,
    HashLeftJoin,
    PlanNode,
    PlanProfiler,
)
from repro.rdb.sqlxml import (
    AggCall,
    XMLAgg,
    XMLComment,
    XMLConcat,
    XMLElement,
    XMLForest,
    XMLText,
    Markup,
    render_item,
    row_items,
)


def batched(db, query, batch_size, **kwargs):
    stats = ExecutionStats()
    rows, stats = query.execute(db, stats=stats, batch_size=batch_size,
                                **kwargs)
    return rows, stats


class TestBatchedExecutionEquivalence:
    """batch_size must never change results, only the pull granularity."""

    @pytest.mark.parametrize("batch_size", [1, 2, 3, DEFAULT_BATCH_SIZE])
    def test_scan(self, db, batch_size):
        query = Query(Scan("emp"), [(None, col("ename"))])
        plain, _ = query.execute(db)
        rows, stats = batched(db, query, batch_size)
        assert rows == plain
        assert stats.batches >= 1

    @pytest.mark.parametrize("batch_size", [1, 2, DEFAULT_BATCH_SIZE])
    def test_filter(self, db, batch_size):
        query = Query(
            Filter(Scan("emp"), gt(col("sal"), const(2000))),
            [(None, col("ename"))],
        )
        plain, _ = query.execute(db)
        rows, _ = batched(db, query, batch_size)
        assert rows == plain == [("CLARK",), ("SMITH",)]

    @pytest.mark.parametrize("batch_size", [1, 2, DEFAULT_BATCH_SIZE])
    def test_join(self, db, batch_size):
        query = Query(
            NestedLoopJoin(
                Scan("dept", "d"), Scan("emp", "e"),
                eq(col("deptno", "d"), col("deptno", "e")),
            ),
            [(None, col("dname", "d")), (None, col("ename", "e"))],
        )
        plain, _ = query.execute(db)
        rows, _ = batched(db, query, batch_size)
        assert rows == plain

    @pytest.mark.parametrize("batch_size", [1, 2, DEFAULT_BATCH_SIZE])
    def test_sort(self, db, batch_size):
        query = Query(
            Sort(Scan("emp"), [(col("sal"), True)]),
            [(None, col("ename"))],
        )
        plain, _ = query.execute(db)
        rows, _ = batched(db, query, batch_size)
        assert rows == plain == [("SMITH",), ("CLARK",), ("MILLER",)]

    @pytest.mark.parametrize("batch_size", [1, 2, DEFAULT_BATCH_SIZE])
    def test_limit(self, db, batch_size):
        query = Query(Limit(Scan("emp"), 2), [(None, col("ename"))])
        plain, _ = query.execute(db)
        rows, _ = batched(db, query, batch_size)
        assert rows == plain
        assert len(rows) == 2

    def test_limit_stops_pulling(self, db):
        query = Query(Limit(Scan("emp"), 1), [(None, col("ename"))])
        stats = ExecutionStats()
        rows, stats = query.execute(db, stats=stats, batch_size=1)
        assert len(rows) == 1
        assert stats.rows_scanned == 1

    @pytest.mark.parametrize("batch_size", [1, 2, DEFAULT_BATCH_SIZE])
    def test_aggregate_query(self, db, batch_size):
        agg = XMLAgg(XMLElement("e", col("ename")))
        query = Query(Scan("emp"), [(None, agg)])
        plain, _ = query.execute(db)
        rows, stats = batched(db, query, batch_size)
        assert len(rows) == len(plain) == 1
        from repro.xmlmodel import serialize

        assert [serialize(node) for node in rows[0][0]] == [
            serialize(node) for node in plain[0][0]
        ]

    def test_output_rows_counted_once(self, db):
        query = Query(Scan("emp"), [(None, col("ename"))])
        _, stats = batched(db, query, 2)
        assert stats.output_rows == 3


def _audit_cases():
    """One representative query per physical operator."""
    correlated_count = Query(
        Filter(Scan("emp", "e"), eq(col("deptno", "e"), col("deptno", "d"))),
        [(None, AggCall("COUNT", col("empno", "e")))],
    )
    return [
        ("scan", Query(Scan("emp"), [(None, col("ename"))])),
        ("filter", Query(
            Filter(Scan("emp"), gt(col("sal"), const(2000))),
            [(None, col("ename"))],
        )),
        ("index-scan", Query(
            IndexScan("emp", "idx_emp_sal", ">", const(2000)),
            [(None, col("ename"))],
        )),
        ("nested-loop", Query(
            NestedLoopJoin(
                Scan("dept", "d"), Scan("emp", "e"),
                eq(col("deptno", "d"), col("deptno", "e")),
            ),
            [(None, col("dname", "d")), (None, col("ename", "e"))],
        )),
        ("hash-join", Query(
            HashJoin(
                Scan("dept", "d"), Scan("emp", "e"),
                col("deptno", "d"), col("deptno", "e"),
            ),
            [(None, col("dname", "d")), (None, col("ename", "e"))],
        )),
        ("hash-left-join", Query(
            HashLeftJoin(
                Scan("dept", "d"),
                Aggregate(
                    Scan("emp", "e"),
                    group_by=[("deptno", col("deptno", "e"))],
                    outputs=[("n", AggCall("COUNT", col("empno", "e")))],
                    alias="g",
                ),
                [col("deptno", "d")], [col("deptno", "g")],
            ),
            [(None, col("dname", "d")), (None, col("n", "g"))],
        )),
        ("sort", Query(
            Sort(Scan("emp"), [(col("sal"), True)]),
            [(None, col("ename"))],
        )),
        ("top-n", Query(
            TopN(Scan("emp"), [(col("sal"), True)], 2),
            [(None, col("ename"))],
        )),
        ("limit", Query(Limit(Scan("emp"), 2), [(None, col("ename"))])),
        ("aggregate", Query(
            Aggregate(
                Scan("emp"),
                group_by=[("deptno", col("deptno"))],
                outputs=[("total", AggCall("SUM", col("sal")))],
            ),
            [(None, col("deptno", "agg")), (None, col("total", "agg"))],
        )),
        ("scalar-subquery", Query(
            Scan("dept", "d"),
            [(None, col("dname", "d")),
             (None, ScalarSubquery(correlated_count))],
        )),
    ]


AUDIT_IDS = [name for name, _ in _audit_cases()]
AUDIT_BATCH_SIZES = [1, 2, 3, 7, DEFAULT_BATCH_SIZE]

# What the row-at-a-time executor (``rows()`` / ``Query._iterate``, deleted
# in PR 16) returned for each audit case at the last commit that had it:
# the rows, and every non-zero ``ExecutionStats`` counter.  The one
# executor must do exactly this work at every batch size.
ROW_PATH_ROWS = {
    "scan": [("CLARK",), ("MILLER",), ("SMITH",)],
    "filter": [("CLARK",), ("SMITH",)],
    "index-scan": [("CLARK",), ("SMITH",)],
    "nested-loop": [("ACCOUNTING", "CLARK"), ("ACCOUNTING", "MILLER"),
                    ("OPERATIONS", "SMITH")],
    "hash-join": [("ACCOUNTING", "CLARK"), ("ACCOUNTING", "MILLER"),
                  ("OPERATIONS", "SMITH")],
    "hash-left-join": [("ACCOUNTING", 2.0), ("OPERATIONS", 1.0)],
    "sort": [("SMITH",), ("CLARK",), ("MILLER",)],
    "top-n": [("SMITH",), ("CLARK",)],
    "limit": [("CLARK",), ("MILLER",)],
    "aggregate": [(10, 3750.0), (40, 4900.0)],
    "scalar-subquery": [("ACCOUNTING", 2.0), ("OPERATIONS", 1.0)],
}
ROW_PATH_COUNTERS = {
    "scan": {"rows_scanned": 3, "output_rows": 3},
    "filter": {"rows_scanned": 3, "output_rows": 2},
    "index-scan": {"rows_scanned": 2, "output_rows": 2, "index_probes": 1,
                   "index_entries": 2, "btree_node_visits": 2},
    "nested-loop": {"rows_scanned": 8, "output_rows": 3},
    "hash-join": {"rows_scanned": 5, "output_rows": 3,
                  "hash_build_rows": 3, "hash_probes": 2},
    "hash-left-join": {"rows_scanned": 5, "output_rows": 2,
                       "hash_build_rows": 2, "hash_probes": 2},
    "sort": {"rows_scanned": 3, "output_rows": 3},
    "top-n": {"rows_scanned": 3, "output_rows": 2, "topn_heap_rows": 3},
    # the scan under a limit stops at the limit, at every batch size
    "limit": {"rows_scanned": 2, "output_rows": 2},
    "aggregate": {"rows_scanned": 3, "output_rows": 2},
    # the subquery's rows are not the outer query's output rows
    "scalar-subquery": {"rows_scanned": 8, "output_rows": 2,
                        "subquery_executions": 2},
}
# ``(op, table, estimated_rows, actual_rows, q_error)`` per judged node and
# the plan's max Q-error, as the row path reported them for the optimized,
# analyzed plan of each case.
ROW_PATH_FEEDBACK = {
    "scan": ([("Scan", "emp", 3.0, 3.0, 1.0)], 1.0),
    "filter": ([("IndexScan", "emp", 2.0, 2.0, 1.0)], 1.0),
    "index-scan": ([("IndexScan", "emp", 2.0, 2.0, 1.0)], 1.0),
    "nested-loop": ([("Filter", None, 1.5, 1.5, 1.0),
                     ("NestedLoopJoin", None, 3.0, 3.0, 1.0),
                     ("Scan", "dept", 2.0, 2.0, 1.0),
                     ("Scan", "emp", 3.0, 3.0, 1.0)], 1.0),
    "hash-join": ([("HashJoin", None, 3.0, 3.0, 1.0),
                   ("Scan", "dept", None, 2.0, None),
                   ("Scan", "emp", None, 3.0, None)], 1.0),
    "hash-left-join": ([("Aggregate", None, 2.0, 2.0, 1.0),
                        ("HashLeftJoin", None, 2.0, 2.0, 1.0),
                        ("Scan", "dept", 2.0, 2.0, 1.0),
                        ("Scan", "emp", 3.0, 3.0, 1.0)], 1.0),
    "sort": ([("Scan", "emp", 3.0, 3.0, 1.0),
              ("Sort", None, 3.0, 3.0, 1.0)], 1.0),
    "top-n": ([("Scan", "emp", None, 3.0, None),
               ("TopN", None, 2.0, 2.0, 1.0)], 1.0),
    "limit": ([("Limit", None, 2, 2.0, 1.0),
               ("Scan", "emp", 3.0, 2.0, 1.5)], 1.5),
    "aggregate": ([("Aggregate", None, 1.0, 2.0, 2.0),
                   ("Scan", "emp", 3.0, 3.0, 1.0)], 2.0),
    # decorrelated by the optimizer into the hash-left-join shape
    "scalar-subquery": ([("Aggregate", None, 2.0, 2.0, 1.0),
                         ("HashLeftJoin", None, 2.0, 2.0, 1.0),
                         ("Scan", "dept", 2.0, 2.0, 1.0),
                         ("Scan", "emp", 3.0, 3.0, 1.0)], 1.0),
}


class TestSingleProtocol:
    """``batches()`` is the only way an operator produces rows."""

    @staticmethod
    def _operators():
        found, todo = [], [PlanNode]
        while todo:
            for cls in todo.pop().__subclasses__():
                found.append(cls)
                todo.append(cls)
        return found

    def test_every_operator_defines_batches_and_none_defines_rows(self):
        operators = self._operators()
        assert len(operators) >= 12
        for cls in operators:
            assert "batches" in cls.__dict__, cls.__name__
            assert "iter_rows" not in cls.__dict__, cls.__name__
            assert not hasattr(cls, "rows"), cls.__name__

    def test_one_profiler_wrapper_and_one_drive_loop(self):
        assert not hasattr(PlanProfiler, "wrap")
        assert hasattr(PlanProfiler, "wrap_batches")
        assert not hasattr(Query, "_iterate")


class TestBatchesParityAudit:
    """Regression audit: at every batch size, every physical operator
    returns the rows and reports the work counters (rows_scanned /
    index_probes / index_entries / hash / top-n / ...) that the
    row-at-a-time executor did.  Only ``batches`` and wall-clock time
    depend on the batch size."""

    IGNORED = {"batches", "elapsed_seconds"}

    @pytest.mark.parametrize("name,query", _audit_cases(), ids=AUDIT_IDS)
    @pytest.mark.parametrize("batch_size", AUDIT_BATCH_SIZES)
    def test_rows_and_counters_match_row_path(self, db, name, query,
                                              batch_size):
        db.create_index("emp", "sal")
        rows, stats = batched(db, query, batch_size)
        assert rows == ROW_PATH_ROWS[name]
        expected = ROW_PATH_COUNTERS[name]
        for field in ExecutionStats._FIELDS:
            if field in self.IGNORED:
                continue
            assert getattr(stats, field) == expected.get(field, 0), \
                "%s diverged on %r at batch_size=%d" % (field, name,
                                                        batch_size)

    def test_audit_tables_cover_every_case(self):
        assert set(AUDIT_IDS) == set(ROW_PATH_ROWS) \
            == set(ROW_PATH_COUNTERS) == set(ROW_PATH_FEEDBACK)

    def test_default_batch_size_is_what_none_means(self, db):
        query = Query(Scan("emp"), [(None, col("ename"))])
        _, implicit = query.execute(db)
        _, explicit = batched(db, query, DEFAULT_BATCH_SIZE)
        assert implicit.batches == explicit.batches == 1

    def test_limit_over_scan_reads_exactly_the_limit(self, db):
        """At the default batch size too: the child is opened with
        ``min(batch_size, remaining)``, never a whole batch."""
        query = Query(Limit(Scan("emp"), 2), [(None, col("ename"))])
        stats = ExecutionStats()
        profiler = stats.profiler = PlanProfiler()
        rows, _ = query.execute(db, stats=stats)
        assert len(rows) == 2
        assert stats.rows_scanned == 2
        assert profiler.get(query.plan.child).rows_out == 2
        assert profiler.get(query.plan).rows_out == 2


class TestBatchProfile:
    def test_batches_counted_per_node(self, db):
        query = Query(
            Filter(Scan("emp"), gt(col("sal"), const(0))),
            [(None, col("ename"))],
        )
        stats = ExecutionStats()
        profiler = stats.profiler = PlanProfiler()
        rows, _ = query.execute(db, stats=stats, batch_size=2)
        assert len(rows) == 3
        filter_node = query.plan
        scan_node = filter_node.child
        # 3 rows in batches of 2 -> 2 batches at every node
        assert profiler.get(filter_node).batches == 2
        assert profiler.get(filter_node).rows_out == 3
        assert profiler.get(scan_node).batches == 2
        assert profiler.get(scan_node).rows_out == 3

    def test_no_batch_exceeds_the_batch_size(self, db):
        db.create_index("emp", "sal")
        for name, query in _audit_cases():
            for batch in query.execute_batches(db, batch_size=2):
                assert 1 <= len(batch) <= 2, name


class TestExecutionAccounting:
    """``execute_batches`` charges ``stats`` per produced batch."""

    def test_consumer_time_between_batches_is_not_charged(self, db):
        import time

        query = Query(Scan("emp"), [(None, col("ename"))])
        stats = ExecutionStats()
        pause = 0.05
        for _ in query.execute_batches(db, stats=stats, batch_size=1):
            time.sleep(pause)
        assert stats.batches == 3
        assert 0.0 < stats.elapsed_seconds < pause

    def test_consumer_that_stops_early_is_charged_what_it_received(self, db):
        query = Query(Scan("emp"), [(None, col("ename"))])
        stats = ExecutionStats()
        produced = query.execute_batches(db, stats=stats, batch_size=1)
        assert next(produced) == [("CLARK",)]
        produced.close()
        assert stats.batches == 1
        assert stats.output_rows == 1
        assert stats.rows_scanned == 1
        assert stats.elapsed_seconds > 0.0

    @pytest.mark.parametrize("batch_size,batches", [(1, 2), (2, 1),
                                                    (DEFAULT_BATCH_SIZE, 1)])
    def test_scalar_subquery_is_not_charged_to_the_outer_query(
            self, db, batch_size, batches):
        query = dict(_audit_cases())["scalar-subquery"]
        _, stats = batched(db, query, batch_size)
        assert stats.subquery_executions == 2
        # two dept rows out; the six emp rows the subqueries read and the
        # two rows they returned are not output rows or batches
        assert stats.output_rows == 2
        assert stats.batches == batches


class TestBatchFeedbackParity:
    """The Q-error record does not depend on the pull granularity.

    ``observe_profile`` pairs ``estimated_rows`` with the profiler's
    ``rows_out`` / ``opens``; if those moved with the batch size the same
    plan would earn a different Q-error at every size.
    """

    @staticmethod
    def _feedback(db, query, batch_size):
        from repro.obs.feedback import observe_profile

        optimized = db.optimize(query)
        stats = ExecutionStats()
        stats.profiler = PlanProfiler()
        optimized.execute(db, stats=stats, batch_size=batch_size)
        return observe_profile(stats.profiler)

    @pytest.mark.parametrize("name,query", _audit_cases(), ids=AUDIT_IDS)
    @pytest.mark.parametrize("batch_size", AUDIT_BATCH_SIZES)
    def test_actuals_match_row_path(self, db, name, query, batch_size):
        db.create_index("emp", "sal")
        db.analyze()
        feedback = self._feedback(db, query, batch_size)
        shape, max_q_error = ROW_PATH_FEEDBACK[name]
        assert sorted(
            ((node.op, node.table, node.estimated_rows, node.actual_rows,
              node.q_error) for node in feedback.nodes),
            key=lambda row: row[:2],
        ) == shape
        assert feedback.max_q_error == max_q_error


class TestStreamPieces:
    def make_xml_query(self):
        return Query(
            Sort(Scan("emp"), [(col("empno"), True)]),
            [(None, XMLElement("emp", col("ename"),
                               attributes=[("no", col("empno"))]))],
        )

    def test_concatenation_matches_materialized(self, db):
        from repro.xmlmodel import serialize

        query = self.make_xml_query()
        rows, _ = query.execute(db)
        expected = "".join(serialize(row[0]) for row in rows)
        streamed = "".join(query.stream_pieces(db))
        assert streamed == expected

    def test_stream_counts_rows_and_batches(self, db):
        query = self.make_xml_query()
        stats = ExecutionStats()
        list(query.stream_pieces(db, stats=stats, batch_size=2))
        assert stats.output_rows == 3
        assert stats.batches == 2

    def test_no_outputs_rejected(self, db):
        from repro.errors import PlanError

        with pytest.raises(PlanError):
            list(Query(Scan("emp"), []).stream_pieces(db))

    def test_aggregate_streams_without_materializing(self, db):
        from repro.xmlmodel import serialize

        agg = XMLAgg(XMLElement("e", col("ename")),
                     order_by=[(col("sal"), True)])
        query = Query(Scan("emp"), [(None, agg)])
        rows, _ = query.execute(db)
        expected = "".join(serialize(node) for node in rows[0][0])
        assert "".join(query.stream_pieces(db)) == expected


def markup_stats():
    stats = ExecutionStats()
    stats.markup = True
    return stats


def rendered(value):
    return "".join(render_item(item) for item in row_items(value))


class TestRowItemRendering:
    def test_scalars_print_unescaped(self):
        assert render_item("a<b") == "a<b"
        assert render_item(7.0) == "7"
        assert render_item(None) == ""

    def test_scalars_print_like_xpath_numbers(self):
        """Top-level scalars convert like element content: what the VM
        prints for the same number."""
        assert render_item(2.1e20) == "210000000000000000000"
        assert render_item(float("nan")) == "NaN"
        assert render_item(float("inf")) == "Infinity"
        assert render_item(float("-inf")) == "-Infinity"
        assert render_item(-0.0) == "0"
        assert render_item(True) == "true"

    def test_markup_passes_through(self):
        assert render_item(Markup("<e>a&lt;b</e>")) == "<e>a&lt;b</e>"

    def test_list_flattens(self):
        assert rendered(["a", None, "b"]) == "ab"
        assert row_items(None) == []
        assert row_items("x") == ["x"]


class TestConstructorStreaming:
    """The constructor table: every SQL/XML constructor's markup value
    against the serialization of its DOM value."""

    def roundtrip(self, db, expr, env=None):
        from repro.xmlmodel import serialize

        dom_stats = ExecutionStats()
        value = expr.evaluate(env or {}, db, dom_stats)
        expected = "".join(
            serialize(item) if hasattr(item, "kind") else render_item(item)
            for item in row_items(value)
        )
        text_stats = markup_stats()
        text = expr.evaluate(env or {}, db, text_stats)
        assert all(type(item) is Markup or not hasattr(item, "kind")
                   for item in row_items(text)), "no node may be built"
        assert rendered(text) == expected
        assert text_stats.xml_elements == dom_stats.xml_elements
        return rendered(text)

    def test_element_empty(self, db):
        assert self.roundtrip(db, XMLElement("e")) == "<e/>"

    def test_element_empty_text_self_closes(self, db):
        assert self.roundtrip(db, XMLElement("e", const(""))) == "<e/>"

    def test_element_attrs_escaped(self, db):
        out = self.roundtrip(
            db, XMLElement("e", attributes=[("a", const('x"<&\n'))])
        )
        assert out == '<e a="x&quot;&lt;&amp;&#10;"/>'

    def test_element_content_escaped(self, db):
        out = self.roundtrip(
            db, XMLElement("e", XMLText(const("a<b&c>d")))
        )
        assert out == "<e>a&lt;b&amp;c&gt;d</e>"

    def test_null_attribute_and_content_skipped(self, db):
        out = self.roundtrip(
            db,
            XMLElement("e", const(None), const("x"),
                       attributes=[("a", const(None)), ("b", const(1))]),
        )
        assert out == '<e b="1">x</e>'

    def test_integral_float_prints_as_integer(self, db):
        out = self.roundtrip(
            db, XMLElement("e", const(7.0), attributes=[("n", const(2.0))])
        )
        assert out == '<e n="2">7</e>'
        assert self.roundtrip(db, XMLElement("e", const(2.5))) == "<e>2.5</e>"

    def test_forest_skips_null(self, db):
        out = self.roundtrip(
            db,
            XMLForest([("a", const("x<")), ("b", const(None)),
                       ("c", const("")), ("d", const("y"))]),
        )
        assert out == "<a>x&lt;</a><c/><d>y</d>"

    def test_concat_and_comment(self, db):
        out = self.roundtrip(
            db,
            XMLConcat([XMLComment(const("note")),
                       XMLElement("e")]),
        )
        assert out == "<!--note--><e/>"

    def test_stored_node_child(self, db):
        from repro.xmlmodel import parse_document

        document = parse_document('<s a="1">t&amp;<u/><!--c--></s>')
        stored = document.document_element
        for node in (stored, document):
            out = self.roundtrip(db, XMLElement("e", const(node)))
            assert out == '<e><s a="1">t&amp;<u/><!--c--></s></e>'

    def test_nested_list_content(self, db):
        out = self.roundtrip(
            db,
            XMLElement("e", const(["a<", [None, 2.0, ["b"]], "c"])),
        )
        assert out == "<e>a&lt;2bc</e>"

    def test_sequence_content_stays_in_pieces(self, db):
        """An element over a sequence is a flat list of markup pieces —
        what keeps the stream incremental — and nests without
        re-escaping."""
        inner = XMLElement("in", XMLForest([("a", const("1")),
                                            ("b", const("<"))]))
        value = inner.evaluate({}, db, markup_stats())
        assert value == ["<in>", "<a>1</a>", "<b>&lt;</b>", "</in>"]
        assert all(type(piece) is Markup for piece in value)
        out = self.roundtrip(db, XMLElement("out", inner, const("&")))
        assert out == "<out><in><a>1</a><b>&lt;</b></in>&amp;</out>"

    def test_empty_sequence_self_closes(self, db):
        assert self.roundtrip(db, XMLElement("e", const([]))) == "<e/>"

    def test_top_level_scalar_unescaped(self, db):
        assert self.roundtrip(db, XMLText(const("a<b"))) == "a<b"
        assert self.roundtrip(db, XMLConcat([const("a&"), const(3.0)])) \
            == "a&3"

    def test_attribute_node_in_content_is_an_execute_fallback(self, db):
        from repro.xmlmodel.builder import attr, elem

        attribute = elem("e", attr("a", "v")).attributes[0]
        expr = XMLElement("out", const(attribute))
        # the DOM splices it into the start tag ...
        from repro.xmlmodel import serialize
        assert serialize(expr.evaluate({}, db, None)) == '<out a="v"/>'
        # ... rendered text cannot, so the request must fall back
        with pytest.raises(RewriteError) as raised:
            expr.evaluate({}, db, markup_stats())
        assert raised.value.phase == "execute"

    def test_scalar_subquery_streams(self, db):
        subquery = Query(
            Filter(Scan("emp"), eq(col("empno"), const(7782))),
            [(None, XMLElement("who", col("ename")))],
        )
        expr = XMLElement("out", ScalarSubquery(subquery))
        stats = markup_stats()
        assert rendered(expr.evaluate({}, db, stats)) \
            == "<out><who>CLARK</who></out>"
        assert stats.subquery_executions == 1

    def test_correlated_agg_subquery_streams(self, db):
        inner = Query(
            Filter(Scan("emp", "e"),
                   eq(col("deptno", "e"), col("deptno", "d"))),
            [(None, XMLAgg(XMLElement("n", col("ename", "e")),
                           order_by=[(col("empno", "e"), False)]))],
        )
        outer = Query(
            Sort(Scan("dept", "d"), [(col("deptno", "d"), False)]),
            [(None, XMLElement("dept", ScalarSubquery(inner)))],
        )
        from repro.xmlmodel import serialize

        rows, _ = outer.execute(db)
        expected = "".join(serialize(row[0]) for row in rows)
        assert "".join(outer.stream_pieces(db)) == expected
        assert "<n>CLARK</n><n>MILLER</n>" in expected

    # -- a nest bound as one template: constants folded, row values as leaves

    def test_percent_and_ampersand_in_constants_and_values(self, db):
        expr = XMLElement(
            "e%s", const("100% & "), col("v", "t"),
            XMLElement("i", attributes=[("a%d", const("%s&")),
                                        ("b", col("w", "t"))]),
            attributes=[("c", const("%%"))])
        out = self.roundtrip(db, expr, {"t": {"v": "50%s & %d",
                                              "w": '%%"&'}})
        assert out == ('<e%s c="%%">100% &amp; 50%s &amp; %d'
                       '<i a%d="%s&amp;" b="%%&quot;&amp;"/></e%s>')

    def test_attribute_only_element_nested_self_closes(self, db):
        expr = XMLElement(
            "bars", XMLElement("bar", attributes=[("name", col("n", "t")),
                                                  ("height", col("h", "t"))]),
            col("n", "t"))
        assert self.roundtrip(db, expr, {"t": {"n": "x<", "h": 51}}) \
            == '<bars><bar name="x&lt;" height="51"/>x&lt;</bars>'
        # a NULL attribute is omitted, a NULL content leaf adds nothing
        assert self.roundtrip(db, expr, {"t": {"n": None, "h": 51}}) \
            == '<bars><bar height="51"/></bars>'

    def test_empty_string_leaf(self, db):
        env = {"t": {"v": "", "w": "x"}}
        v, w = col("v", "t"), col("w", "t")
        # the sole body self-closes, beside another leaf it adds nothing
        assert self.roundtrip(db, XMLElement("e", v), env) == "<e/>"
        assert self.roundtrip(db, XMLElement("e", v, w), env) == "<e>x</e>"
        assert self.roundtrip(db, XMLElement("o", XMLElement("e", v), w),
                              env) == "<o><e/>x</o>"
        # an empty attribute value is still written
        assert self.roundtrip(
            db, XMLElement("e", w, attributes=[("a", v)]), env) \
            == '<e a="">x</e>'

    @pytest.mark.parametrize("value, text", [
        (float("nan"), "NaN"), (float("inf"), "Infinity"),
        (float("-inf"), "-Infinity"), (1e20, "100000000000000000000"), (1e-7, "0.0000001"),
        (-0.0, "0"),
        (2.5, "2.5"), (7.0, "7"), (7, "7"), (True, "true"),
        (False, "false"),
    ])
    def test_number_and_bool_leaves(self, db, value, text):
        leaf = col("v", "t")
        expr = XMLElement("e", XMLElement("i", leaf,
                                          attributes=[("a", leaf)]))
        assert self.roundtrip(db, expr, {"t": {"v": value}}) \
            == '<e><i a="%s">%s</i></e>' % (text, text)

    def test_markup_and_list_leaves_inside_a_nest(self, db):
        v = col("v", "t")
        expr = XMLElement(
            "o", XMLElement("p", XMLComment(v), v),
            XMLConcat([XMLElement("q"), v]), XMLForest([("f", v)]))
        value = expr.evaluate({"t": {"v": "x&"}}, db, markup_stats())
        assert type(value) is list  # a sequence leaf keeps the pieces
        assert all(type(piece) is Markup for piece in value)
        assert self.roundtrip(db, expr, {"t": {"v": "x&"}}) == (
            "<o><p><!--x&-->x&amp;</p><q/>x&amp;<f>x&amp;</f></o>")

    @pytest.mark.parametrize("v", ["x", None])
    def test_scalar_subquery_leaf_runs_once(self, db, v):
        """Whether the row stays in the format or leaves it at a NULL
        before or after the subquery, the subquery runs once."""
        who = ScalarSubquery(Query(
            Filter(Scan("emp"), eq(col("empno"), const(7782))),
            [(None, col("ename"))],
        ))
        leaf = col("v", "t")
        for expr in (XMLElement("o", XMLElement("who", who), leaf),
                     XMLElement("o", leaf, XMLElement("who", who))):
            stats = markup_stats()
            expr.evaluate({"t": {"v": v}}, db, stats)
            assert stats.subquery_executions == 1
            assert stats.xml_elements == 2
            out = self.roundtrip(db, expr, {"t": {"v": v}})
            assert "<who>CLARK</who>" in out
