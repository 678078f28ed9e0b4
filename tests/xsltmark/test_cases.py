"""Tests for the benchmark suite: generators, classification, and the
rewrite/functional equivalence of every case."""

import pytest

from repro.schema import schema_from_dtd
from repro.xmlmodel import NodeKind
from repro.xsltmark import ALL_CASES, get_case
from repro.xsltmark import generator as gen
from repro.xsltmark.runner import (
    CLASS_FALLBACK,
    CLASS_INLINE,
    CLASS_NON_INLINE,
    classify_case,
    inline_statistics,
    run_case,
)


class TestGenerators:
    def test_db_document_shape(self):
        document = gen.make_db_document(5)
        table = document.document_element
        assert table.name.local == "table"
        rows = table.findall("row")
        assert len(rows) == 5
        assert rows[0].find("id").string_value() == "1"
        assert rows[4].find("id").string_value() == "5"

    def test_db_document_is_deterministic(self):
        from repro.xmlmodel import serialize

        assert serialize(gen.make_db_document(20)) == serialize(
            gen.make_db_document(20)
        )

    def test_db_document_validates(self):
        schema = schema_from_dtd(gen.DB_DTD)
        assert schema.validate(gen.make_db_document(10)) == []

    def test_sales_document_validates(self):
        schema = schema_from_dtd(gen.SALES_DTD)
        assert schema.validate(gen.make_sales_document(10)) == []

    def test_items_document_validates(self):
        schema = schema_from_dtd(gen.ITEMS_DTD)
        assert schema.validate(gen.make_items_document(10)) == []

    def test_groups_document_validates(self):
        schema = schema_from_dtd(gen.GROUPS_DTD)
        assert schema.validate(gen.make_groups_document(3, 4)) == []

    def test_tree_document_depth(self):
        document = gen.make_tree_document(3, fanout=2)
        node = document.document_element.find("node")
        depth = 0
        while node is not None:
            depth += 1
            node = node.find("node")
        assert depth == 3

    def test_no_whitespace_text(self):
        document = gen.make_db_document(3)
        for node in document.iter_descendants():
            if node.kind == NodeKind.TEXT:
                assert node.value.strip() == node.value


class TestSuiteDefinition:
    def test_exactly_forty_cases(self):
        assert len(ALL_CASES) == 40

    def test_names_unique(self):
        names = [case.name for case in ALL_CASES]
        assert len(set(names)) == 40

    def test_figure_workloads_present(self):
        for name in ("dbonerow", "avts", "chart", "metric", "total"):
            assert get_case(name) is not None

    def test_unknown_case(self):
        with pytest.raises(KeyError):
            get_case("nope")

    def test_all_stylesheets_compile(self):
        from repro.xslt import compile_stylesheet

        for case in ALL_CASES:
            compile_stylesheet(case.stylesheet)

    def test_functional_areas_covered(self):
        areas = {case.area for case in ALL_CASES}
        assert {"db", "output", "compute", "select", "string", "sort",
                "recurse", "axes", "structure"} <= areas


class TestClassification:
    def test_dbonerow_inline(self):
        assert classify_case(get_case("dbonerow")) == (CLASS_INLINE, True)

    def test_figure3_cases_inline_and_merged(self):
        for name in ("avts", "chart", "metric", "total"):
            classification, sql_merged = classify_case(get_case(name))
            assert classification == CLASS_INLINE, name
            assert sql_merged, name

    def test_recursive_cases_non_inline(self):
        for name in ("reverser", "bottles", "tower", "queens"):
            classification, _ = classify_case(get_case(name))
            assert classification == CLASS_NON_INLINE, name

    def test_fallback_cases(self):
        for name in ("identity", "position", "number", "keys", "depth"):
            classification, _ = classify_case(get_case(name))
            assert classification == CLASS_FALLBACK, name

    def test_inline_statistic_matches_paper_claim(self):
        """§5: 'more than 50% of XSLT use cases in the benchmark can
        benefit from inline translation'."""
        classifications, inline_count = inline_statistics()
        assert len(classifications) == 40
        assert inline_count > 20  # the paper measured 23/40
        assert inline_count == 29  # our measured value (see EXPERIMENTS.md)


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda case: case.name)
def test_case_runs_and_strategies_agree(case):
    """Every case must produce identical output with and without rewrite."""
    run = run_case(case, 60)
    assert run.outputs_equal, (
        "%s: rewrite and functional outputs differ" % case.name
    )


class TestCaseExecution:
    def test_dbonerow_uses_index(self):
        run = run_case(get_case("dbonerow"), 200)
        assert run.strategy == "sql-rewrite"
        assert run.rewrite_stats.index_probes == 1
        # the functional path reads every row of the storage
        assert run.functional_stats.rows_scanned >= 200

    def test_dbonerow_rewrite_reads_one_heap_row(self):
        run = run_case(get_case("dbonerow"), 200)
        # 1 probe, 1 matching row + the root-table scan row
        assert run.rewrite_stats.rows_scanned <= 3

    def test_figure2_rewrite_is_flat_while_functional_is_linear(self):
        """Figure 2 as work counters: over an 8x larger document the
        rewrite still makes one B-tree probe and reads the same rows,
        while the functional path reads one more row per document row."""
        sizes = (250, 2000)
        small, large = (run_case(get_case("dbonerow"), size)
                        for size in sizes)
        for run in (small, large):
            assert run.strategy == "sql-rewrite"
            assert run.outputs_equal
            assert run.rewrite_stats.index_probes == 1
            assert run.rewrite_stats.rows_scanned <= 3
        assert (large.functional_stats.rows_scanned
                - small.functional_stats.rows_scanned) == sizes[1] - sizes[0]

    @pytest.mark.parametrize("name", ["avts", "chart", "metric", "total"])
    def test_figure3_rewrite_builds_no_document(self, name):
        """Figure 3 as work counters: no value index applies, so the
        rewrite wins by constructing the result straight from columns —
        it materialises no document, the functional path every one."""
        run = run_case(get_case(name), 120)
        assert run.strategy == "sql-rewrite"
        assert run.outputs_equal
        assert run.rewrite_stats.docs_materialized == 0
        assert run.functional_stats.docs_materialized == 1

    def test_run_case_stays_off_the_deprecated_doors(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run = run_case(get_case("dbonerow"), 60)
        assert run.outputs_equal

    def test_decoy_pruning(self):
        from repro.xslt import compile_stylesheet
        from repro.core.partial_eval import partially_evaluate

        case = get_case("decoy")
        stylesheet = compile_stylesheet(case.stylesheet)
        schema = schema_from_dtd(case.dtd)
        result = partially_evaluate(stylesheet, schema)
        assert len(result.pruned_templates()) == 12

    def test_breadth_compact_query(self):
        from repro.xslt import compile_stylesheet
        from repro.core.partial_eval import partially_evaluate
        from repro.core.xquery_gen import generate_xquery
        from repro.xquery import xquery_to_text

        case = get_case("breadth")
        stylesheet = compile_stylesheet(case.stylesheet)
        result = partially_evaluate(stylesheet, schema_from_dtd(case.dtd))
        module = generate_xquery(result)
        assert "string-join" in xquery_to_text(module)
