"""Operators describe themselves, once.

Every :class:`~repro.rdb.plan.PlanNode` subclass states its own facts —
``detail()``, ``render_sql()``, ``alias``, the expressions it holds — and the
EXPLAIN text, the EXPLAIN JSON, ``Query.to_sql`` and the planner's /
decorrelator's walks all read those.  The tests are parametrised over
``PlanNode.__subclasses__()``: a new operator that forgets a method, or
has no sample here, fails.
"""

import json
import re

import pytest

from repro.obs.explain import ExplainReport
from repro.rdb.expressions import SqlExpr, col, const, eq, gt
from repro.rdb.plan import (
    Aggregate,
    Filter,
    HashJoin,
    HashLeftJoin,
    IndexScan,
    Limit,
    NestedLoopJoin,
    PlanNode,
    Query,
    Scan,
    Sort,
    TopN,
    explain,
)
from repro.rdb.sqlxml import XMLAgg

#: what ``ExplainReport._plan_dict`` itself writes into a node record
ENVELOPE = {"op", "id", "est_rows", "est_cost", "actual_rows", "opens",
            "total_ms", "children"}


def _scan(alias):
    return Scan("line", alias)


#: one instance per operator, every optional attribute set
SAMPLES = {
    Scan: lambda: _scan("l"),
    IndexScan: lambda: IndexScan("line", "idx_line_doc", ">=", const(3),
                                 alias="l", column_name="doc"),
    Filter: lambda: Filter(_scan("l"), gt(col("qty", "l"), const(1))),
    NestedLoopJoin: lambda: NestedLoopJoin(
        _scan("l"), _scan("r"), eq(col("doc", "l"), col("doc", "r"))),
    HashJoin: lambda: HashJoin(
        _scan("l"), _scan("r"), col("doc", "l"), col("doc", "r"),
        condition=gt(col("qty", "l"), col("qty", "r"))),
    HashLeftJoin: lambda: HashLeftJoin(
        _scan("l"),
        Aggregate(_scan("r"), [("k0", col("doc", "r")),
                               ("k1", col("qty", "r"))], [], alias="g"),
        [col("doc", "l"), col("qty", "l")], [col("k0", "g"), col("k1", "g")]),
    Sort: lambda: Sort(_scan("l"), [(col("qty", "l"), True),
                                    (col("id", "l"), False)]),
    Aggregate: lambda: Aggregate(
        _scan("l"), [("k0", col("doc", "l")), ("k1", col("id", "l"))],
        [("v", XMLAgg(col("qty", "l")))], alias="g"),
    TopN: lambda: TopN(_scan("l"), [(col("qty", "l"), True)], 7),
    Limit: lambda: Limit(_scan("l"), 5),
}


def operators(cls=PlanNode):
    for sub in cls.__subclasses__():
        yield sub
        yield from operators(sub)


OPERATORS = sorted(set(operators()), key=lambda cls: cls.__name__)


def sample(cls):
    assert cls in SAMPLES, "no sample for %s: add one" % cls.__name__
    return SAMPLES[cls]()


def text_line(node):
    return explain(node).splitlines()[0]


def json_record(node):
    return ExplainReport(query=Query(node, [])).to_dict()["plan"]


def held_expressions(value):
    """Every SqlExpr reachable through a node's attributes (not through
    its child plans or into the expressions themselves)."""
    if isinstance(value, SqlExpr):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from held_expressions(item)


def test_every_operator_has_a_sample():
    assert len(OPERATORS) >= 10
    assert set(SAMPLES) == set(OPERATORS)


@pytest.mark.parametrize("cls", OPERATORS, ids=lambda cls: cls.__name__)
def test_text_facts_are_in_the_json_record(cls):
    """Reads only the two renderings: the record says which operator it
    is, and every value the text line shows is a value of the record."""
    node = sample(cls)
    record = json_record(node)
    assert record["op"] == cls.__name__
    line = text_line(node)
    assert line.startswith(cls.__name__)
    shown = re.split(r" \w+=", line[len(cls.__name__):])[1:]
    atoms = {atom for value in shown
             for atom in re.split(r", |[()\[\]]|(?<=\w),(?=\w)", value)
             if atom and atom != "right"}  # "build=right": a fixed word
    facts = json.dumps({key: value for key, value in record.items()
                        if key not in ENVELOPE})
    for atom in atoms:
        if atom == "outer":
            assert record["outer"] is True
        else:
            assert json.dumps(atom)[1:-1] in facts, (atom, facts)


@pytest.mark.parametrize("cls", OPERATORS, ids=lambda cls: cls.__name__)
def test_operator_implements_the_protocol(cls):
    # a pipelined operator's one execution form is the source it emits
    # into its fused chain; a pipeline breaker's is batches()
    execution = "produce" if cls.pipelined else "batches"
    for method in ("bind", execution, "detail", "render_sql"):
        assert getattr(cls, method) is not getattr(PlanNode, method), \
            "%s does not define %s()" % (cls.__name__, method)
    node = sample(cls)

    # detail(): the text line and the JSON record are both made of it
    record = json_record(node)
    fragments = []
    for key, value, *text in node.detail():
        assert key not in ENVELOPE, key
        assert record[key] == value
        json.dumps(value)
        fragment = text[0] if text else "%s=%s" % (
            key, ", ".join(value) if isinstance(value, list) else value)
        atoms = value if isinstance(value, list) else [value]
        for atom in atoms:  # a worded fragment still shows its value
            assert (key if atom is True else str(atom)) in fragment
        fragments.append(" " + fragment)
    assert text_line(node) == cls.__name__ + "".join(fragments)
    assert set(record) - ENVELOPE == {fact[0] for fact in node.detail()}

    # expressions(): exactly the SqlExprs the operator holds (the base
    # class finds them; an override must not lose one)
    held = [expr for name, value in vars(node).items()
            for expr in held_expressions(value)]
    assert sorted(map(id, node.expressions())) == sorted(map(id, held))
    assert list(node.iter_expressions())[:len(held)] == list(
        node.expressions())

    # alias: bound where the planner and the decorrelator both look
    assert cls.regroupable in (True, False)
    if node.alias is not None:
        assert node.alias in node.bound_aliases()
        assert node.visible_aliases() == {node.alias}
    else:
        assert node.visible_aliases() == set().union(
            *[child.visible_aliases() for child in node.children()])
    for child in node.children():
        assert child.bound_aliases() <= node.bound_aliases()

    # render_sql(): FROM items and WHERE conjuncts, as text
    sources, predicates = [], []
    node.render_sql(sources, predicates)
    assert sources and all(isinstance(item, str)
                           for item in sources + predicates)
    assert Query(node, [("x", const(1))]).to_sql().startswith(
        "SELECT 1 AS x FROM ")


def test_the_drift_this_replaced():
    # EXPLAIN JSON said {"op": "="} for an index probe ...
    record = json_record(sample(IndexScan))
    assert (record["op"], record["compare"]) == ("IndexScan", ">=")
    # an Aggregate re-binds its input: bound below, not visible above
    join = sample(HashLeftJoin)
    assert join.bound_aliases() == {"l", "r", "g"}
    assert join.visible_aliases() == {"l", "g"}
