"""A storage's structure is derived once and only read.

Every compile against an object-relational storage (or a
:class:`~repro.rdb.database.View`) reads the source's one
:class:`~repro.rdb.infer.CompileContext`: the view query, its
:class:`~repro.rdb.infer.ViewStructure` and the annotated sample document.
Pinned here:

* nothing a compile does — merging, numbering plan nodes, costing,
  decorrelating, binding, EXPLAIN — writes into those shared objects;
* every compile sees the same objects, racing first compiles included;
* what a compile produces equals what it produced when every compile
  derived its own view: ``compile_context_goldens.json`` holds, per
  XSLTMark case and optimizer level, the sha256 of the output rows, of
  ``CompiledTransform.query.explain()`` and of the ledger JSON, captured
  at e92370b (the last tree that derived per compile); it cannot be
  recaptured from a later tree;
* the structure and the sample each have one derivation site in ``src/``;
* repeated transforms derive neither again, and a second compile of a
  merged case binds and emits nothing: its plan takes the binding the
  database keeps for that plan form.
"""

import hashlib
import json
import os
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.api import Engine, TransformOptions
from repro.errors import SchemaError
from repro.rdb import binding, infer, plan
from repro.rdb.expressions import ScalarSubquery
from repro.rdb.storage import ObjectRelationalStorage
from repro.xmlmodel.serializer import serialize
from repro.xsltmark import ALL_CASES, get_case
from repro.xsltmark.runner import prepare_case

from tests.core.paper_example import dept_emp_view_query, make_database

GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "compile_context_goldens.json")
SIZE = 10
OPTIONS = {
    "cost": TransformOptions(optimizer_level="cost"),
    "off": TransformOptions(optimizer_level="off"),
    "no-decorrelate": TransformOptions(decorrelate=False),
}
STORED = [case for case in ALL_CASES
          if isinstance(prepare_case(case, 1).storage,
                        ObjectRelationalStorage)]


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def shared_state(context):
    """Everything of ``context`` a compile could write into, as plain
    data: every plan node of the view (its subqueries' too) with the
    stamps a compile leaves, every ScalarSubquery's query, the structure's
    declarations and sources, the sample's text and declaration map."""
    view, structure, sample = (context.view_query, context.structure,
                               context.sample)
    nodes, subqueries = [], []

    def walk_expr(expr):
        for node in expr.iter_tree():
            if isinstance(node, ScalarSubquery):
                subqueries.append((id(node), id(node.query)))
                walk_query(node.query)

    def walk_query(query):
        for node in query.plan.iter_plan():
            nodes.append((id(node), type(node).__name__,
                          getattr(node, "plan_node_id", None),
                          getattr(node, "estimated_rows", None)))
            for expr in node.expressions():
                walk_expr(expr)
        for _, expr in query.outputs:
            walk_expr(expr)

    walk_query(view)
    decls, sources = [], []
    for decl in structure.schema.iter_decls():
        source = structure.source_of(decl)
        decls.append((id(decl), decl.name, decl.group, decl.has_text,
                      tuple(decl.attributes),
                      tuple((id(p.decl), p.occurs) for p in decl.particles)))
        sources.append((id(source.constructor), id(source.text_expr),
                        id(source.subquery),
                        sorted((name, id(expr)) for name, expr
                               in source.attribute_exprs.items())))
        for expr in (source.constructor, source.text_expr,
                     *source.attribute_exprs.values()):
            if expr is not None:
                walk_expr(expr)
    document = sample.document
    return {
        "view": (id(view.plan), [(name, id(expr))
                                 for name, expr in view.outputs]),
        "plan nodes": nodes,
        "subqueries": subqueries,
        "structure": (id(structure.schema.root), decls, sources,
                      structure.copy_on_place),
        "sample": (serialize(document), [
            (node.order, id(sample.decl_for(node)),
             id(sample.particle_for(node)))
            for node in document.iter_subtree()]),
    }


@pytest.mark.parametrize("case", STORED, ids=lambda case: case.name)
def test_compiles_leave_the_shared_structure_untouched(case):
    """Every same-DTD stylesheet compiled, explained and executed at
    ``cost``, ``off`` and without decorrelation against one storage: its
    view, structure and sample read the same after as before."""
    prepared = prepare_case(case, SIZE)
    storage = prepared.storage
    before = shared_state(storage.compile_context)
    engine = Engine(prepared.db)
    for other in ALL_CASES:
        if other.dtd != case.dtd:
            continue
        for options in OPTIONS.values():
            compiled = engine.compile(storage, other.stylesheet,
                                      options=options)
            if compiled.query is not None:
                str(compiled.query.explain())
            engine.execute(storage, compiled).serialized_rows()
    assert shared_state(storage.compile_context) == before


def test_a_catalog_view_is_left_untouched_too():
    db = make_database()
    view = db.create_view("dept_emp", dept_emp_view_query())
    before = shared_state(view.compile_context)
    sheet = ('<xsl:stylesheet version="1.0" xmlns:xsl='
             '"http://www.w3.org/1999/XSL/Transform">'
             '<xsl:template match="dept"><d><xsl:copy-of select="."/>'
             '<xsl:for-each select="employees/emp[sal > 1000]">'
             '<n><xsl:value-of select="ename"/></n></xsl:for-each></d>'
             '</xsl:template></xsl:stylesheet>')
    for options in OPTIONS.values():
        compiled = Engine(db).compile(view, sheet, options=options)
        assert compiled.is_rewritten
        str(compiled.query.explain())
    assert shared_state(view.compile_context) == before


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda case: case.name)
def test_results_equal_those_of_a_private_view(case):
    """Output rows, EXPLAIN text and ledger JSON at ``cost`` and ``off``,
    as when every compile derived its own view (the goldens)."""
    with open(GOLDENS) as handle:
        expected = json.load(handle)[case.name]
    prepared = prepare_case(case, SIZE)
    engine = Engine(prepared.db)
    for level in ("cost", "off"):
        compiled = engine.compile(prepared.storage, case.stylesheet,
                                  options=OPTIONS[level])
        rows = engine.execute(prepared.storage, compiled).serialized_rows()
        assert {
            "strategy": compiled.strategy,
            "output": _sha("\n".join(rows)),
            "explain": (None if compiled.query is None
                        else _sha(str(compiled.query.explain()))),
            "ledger": _sha(compiled.ledger.to_json()),
        } == expected[level], level


def test_compiles_share_one_structure_and_sample():
    prepared = prepare_case(get_case("dbonerow"), SIZE)
    engine = Engine(prepared.db)
    first = engine.compile(prepared.storage, prepared.case.stylesheet)
    second = engine.compile(prepared.storage, prepared.case.stylesheet)
    context = prepared.storage.compile_context
    assert first.outcome.structure is second.outcome.structure \
        is context.structure
    assert first.outcome.partial_evaluation.sample \
        is second.outcome.partial_evaluation.sample is context.sample


def test_transforms_derive_no_structure_or_sample(monkeypatch):
    """A storage derives its view query, structure and sample document
    once; every compile reads them (deriving per compile: 100 of each)."""
    prepared = prepare_case(get_case("dbonerow"), SIZE)
    engine = Engine(prepared.db)
    engine.compile(prepared.storage, prepared.case.stylesheet)
    derived = {"structure": 0, "sample": 0}

    def counting(name, derive):
        def wrapper(*args, **kwargs):
            derived[name] += 1
            return derive(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(infer, "infer_view_structure", counting(
        "structure", infer.infer_view_structure))
    monkeypatch.setattr(infer, "generate_sample",
                        counting("sample", infer.generate_sample))
    for _ in range(100):
        engine.transform(prepared.storage, prepared.case.stylesheet)
    assert derived == {"structure": 0, "sample": 0}, derived


def test_a_second_compile_binds_and_emits_nothing(monkeypatch):
    """Equal plans share the binding their database keeps (DESIGN §9.1):
    no :class:`~repro.rdb.binding.Binding`, no generated function and
    no fused chain is made again (once per compile before)."""
    prepared = prepare_case(get_case("dbonerow"), SIZE)
    engine = Engine(prepared.db)
    first = engine.compile(prepared.storage, prepared.case.stylesheet)
    rows = engine.execute(prepared.storage, first).serialized_rows()
    made = {"bindings": 0, "functions": 0, "chains": 0}

    def counting(owner, name, key):
        original = getattr(owner, name)

        def wrapper(self, *args, **kwargs):
            made[key] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(binding.Binding, "__init__", "bindings")
    counting(binding.Codegen, "function", "functions")
    counting(plan._Emitter, "__init__", "chains")
    second = engine.compile(prepared.storage, prepared.case.stylesheet)
    assert second.query is not first.query
    assert engine.execute(prepared.storage,
                          second).serialized_rows() == rows
    assert made == {"bindings": 0, "functions": 0, "chains": 0}, made


def test_a_storage_that_never_compiles_derives_nothing(monkeypatch):
    calls = []
    monkeypatch.setattr(ObjectRelationalStorage, "make_view_query",
                        lambda self: calls.append(self))
    prepared = prepare_case(get_case("dbonerow"), SIZE)
    prepared.storage.materialize_all()
    prepared.storage.fingerprint()
    assert calls == []


def test_a_failed_derivation_publishes_nothing(monkeypatch):
    prepared = prepare_case(get_case("dbonerow"), SIZE)
    context = prepared.storage.compile_context

    def refuse(schema):
        raise SchemaError("refused")

    monkeypatch.setattr(infer, "generate_sample", refuse)
    for _ in range(2):
        with pytest.raises(SchemaError):
            context.sample
    monkeypatch.undo()
    assert context.sample is context.sample


def test_racing_first_compiles_agree_with_a_serial_run():
    """8 threads race the first compile of all 40 stylesheets, each
    against a fresh storage per case: outputs and EXPLAIN equal a serial
    run's, and every compile saw its storage's one structure and sample."""

    def fresh():
        return {case.name: prepare_case(case, SIZE) for case in ALL_CASES}

    def result(prepared):
        engine = Engine(prepared.db)
        compiled = engine.compile(prepared.storage, prepared.case.stylesheet)
        rows = engine.execute(prepared.storage, compiled).serialized_rows()
        explain = (None if compiled.query is None
                   else str(compiled.query.explain()))
        return compiled, rows, explain

    serial = {name: result(prepared)[1:]
              for name, prepared in fresh().items()}
    racing = fresh()
    barrier = threading.Barrier(8)
    seen = {name: [] for name in racing}
    errors = []

    def worker():
        try:
            barrier.wait(timeout=60)
            for name in racing:  # all in one order: each first compile races
                seen[name].append(result(racing[name]))
        except Exception as exc:  # reported below, not lost with the thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for name, results in seen.items():
        storage = racing[name].storage
        assert len(results) == 8
        for compiled, rows, explain in results:
            assert (rows, explain) == serial[name], name
            outcome = compiled.outcome
            if isinstance(storage, ObjectRelationalStorage) \
                    and outcome is not None:
                context = storage.compile_context
                assert outcome.structure is context.structure, name
                assert outcome.partial_evaluation.sample \
                    is context.sample, name


def test_every_storage_view_constructs_every_stored_path():
    """The projection mask is derived over the structure inferred from
    the view; that is safe because the view builds every element and
    attribute the storage stores."""

    def paths(decl, prefix=""):
        found = {prefix + "@" + name for name in decl.attributes}
        for particle in decl.particles:
            path = prefix + particle.decl.name
            found |= {path} | paths(particle.decl, path + "/")
        return found

    for case in STORED:
        storage = prepare_case(case, 1).storage
        assert paths(storage.compile_context.schema.root) == paths(
            storage.schema.root), case.name


def test_one_derivation_site_each():
    src = Path(repro.__file__).parent
    for name in ("infer_view_structure(", "generate_sample("):
        sites = [
            str(path.relative_to(src))
            for path in sorted(src.rglob("*.py"))
            for line in path.read_text().splitlines()
            if name in line and not line.lstrip().startswith("def ")
        ]
        assert sites == ["rdb/infer.py"], (name, sites)
