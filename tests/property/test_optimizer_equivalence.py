"""Optimizer-equivalence property over the whole xsltmark corpus.

The cost-based planner may pick different physical plans (hash joins,
index probes, Top-N heaps) but must never change results: for every
case, every optimizer level produces byte-identical output and the
same execution strategy.
"""

import pytest

from repro.api import Engine, TransformOptions
from repro.rdb.planner import LEVELS
from repro.xsltmark import ALL_CASES, get_case
from repro.xsltmark.runner import prepare_case

SIZE = 30


def outputs_by_level(case, size=SIZE):
    prepared = prepare_case(case, size)
    engine = Engine(prepared.db)
    results = {}
    for level in LEVELS:
        result = engine.transform(
            prepared.storage, prepared.stylesheet,
            options=TransformOptions(optimizer_level=level),
        )
        results[level] = ("".join(result.serialized_rows()),
                          result.strategy)
    return results


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda case: case.name)
def test_levels_are_byte_identical(case):
    results = outputs_by_level(case)
    baseline_text, baseline_strategy = results["off"]
    for level in LEVELS:
        text, strategy = results[level]
        assert text == baseline_text, (case.name, level)
        assert strategy == baseline_strategy, (case.name, level)


#: every (optimizer level, decorrelate) pair that plans differently —
#: the unnesting pass only exists at the cost level
REPRESENTATION_CONFIGS = [
    (level, True) for level in LEVELS if level != "cost"
] + [("cost", True), ("cost", False)]


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda case: case.name)
def test_execute_stream_and_front_door_agree_with_the_vm(case):
    """The differential gate for the no-DOM rewrite path.  One compiled
    plan, three executions — the front door, ``Query.execute`` and the
    piece stream — against the XSLT VM over the same documents.  Same
    bytes row by row, and the same work counted: no door may skip or
    repeat an element, a scan or a row."""
    from repro.rdb.plan import ExecutionStats
    from repro.rdb.sqlxml import content_markup
    from repro.xmlmodel.nodes import Node

    prepared = prepare_case(case, SIZE)
    engine = Engine(prepared.db)
    vm = engine.transform(
        prepared.storage, prepared.stylesheet,
        options=TransformOptions(strategy="functional"),
    ).serialized_rows()
    for level, decorrelate in REPRESENTATION_CONFIGS:
        compiled = engine.compile(
            prepared.storage, prepared.stylesheet,
            options=TransformOptions(optimizer_level=level,
                                     decorrelate=decorrelate),
        )
        if not compiled.is_rewritten:
            continue
        where = (case.name, level, decorrelate)
        front = engine.execute(prepared.storage, compiled)
        assert not any(isinstance(item, Node)
                       for row in front.rows for item in row), where
        assert front.serialized_rows() == vm, where

        execute_stats = ExecutionStats()
        rows, _ = compiled.query.execute(prepared.db, stats=execute_stats)
        assert [content_markup(row[0]) for row in rows] == vm, where

        stream_stats = ExecutionStats()
        streamed = "".join(compiled.query.stream_pieces(
            prepared.db, stats=stream_stats))
        assert streamed == "".join(vm), where

        for counter in ("xml_elements", "rows_scanned", "output_rows"):
            counts = {getattr(stats, counter)
                      for stats in (front.stats, execute_stats, stream_stats)}
            assert len(counts) == 1, where + (counter, counts)


def test_levels_survive_analyze():
    """Statistics must sharpen estimates, never flip results."""
    case = get_case("chart")
    prepared = prepare_case(case, 120)
    engine = Engine(prepared.db)
    before = engine.transform(prepared.storage, prepared.stylesheet)
    prepared.db.analyze()
    after = engine.transform(
        prepared.storage, prepared.stylesheet,
        options=TransformOptions(optimizer_level="cost"),
    )
    assert "".join(after.serialized_rows()) == \
        "".join(before.serialized_rows())


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda case: case.name)
def test_decorrelation_is_byte_identical(case):
    """Decorrelation on vs. off at the cost level: same bytes, same
    strategy, and on the SQL path the unnesting is ledger-evidenced."""
    prepared = prepare_case(case, SIZE)
    engine = Engine(prepared.db)
    on = engine.transform(
        prepared.storage, prepared.stylesheet,
        options=TransformOptions(optimizer_level="cost"),
    )
    off = engine.transform(
        prepared.storage, prepared.stylesheet,
        options=TransformOptions(optimizer_level="cost", decorrelate=False),
    )
    assert "".join(on.serialized_rows()) == "".join(off.serialized_rows()), \
        case.name
    assert on.strategy == off.strategy, case.name
    if off.ledger is not None:
        # the decorrelate=False compile must not have rewritten anything
        kept_off = [d for d in off.ledger if d.kind == "decorrelate"]
        assert not any(
            d.action != "keep-correlated" for d in kept_off
        ), case.name


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda case: case.name)
def test_descendant_lowering_is_byte_identical(case):
    """Whether ``//name`` becomes child hops in the merged SQL or the
    case falls back, the bytes are the functional path's."""
    prepared = prepare_case(case, SIZE)
    engine = Engine(prepared.db)
    lowered = engine.transform(prepared.storage, prepared.stylesheet)
    functional = engine.transform(
        prepared.storage, prepared.stylesheet,
        options=TransformOptions(strategy="functional"),
    )
    assert "".join(lowered.serialized_rows()) == \
        "".join(functional.serialized_rows()), case.name


def test_xsltmark_probes_are_unnested_with_ledger_evidence():
    """The corpus-wide acceptance check: across the xsltmark cases that
    compile to the SQL strategy, correlated ScalarSubquery probes are
    rewritten — evidenced by ``decorrelate``/``hash-left-join`` ledger
    records — and at least one case carries an XSLT-line provenance."""
    unnested = 0
    with_xslt_line = 0
    sql_cases = 0
    for case in ALL_CASES:
        prepared = prepare_case(case, SIZE)
        engine = Engine(prepared.db)
        result = engine.transform(prepared.storage, prepared.stylesheet)
        if result.strategy != "sql-rewrite" or result.ledger is None:
            continue
        sql_cases += 1
        for decision in result.ledger:
            if decision.kind != "decorrelate":
                continue
            if decision.action == "keep-correlated":
                continue
            unnested += 1
            assert decision.stage == "plan-optimize"
            assert decision.action == "hash-left-join + group-aggregate"
            assert decision.detail["group_alias"].startswith("dcr")
            if decision.provenance.xslt:
                with_xslt_line += 1
    assert sql_cases > 0
    assert unnested > 0, "no xsltmark probe was decorrelated"
    assert with_xslt_line > 0, \
        "no decorrelation decision carries XSLT provenance"
