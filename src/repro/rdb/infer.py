"""Derive structural information from SQL/XML view definitions (§3.2).

"If the input XMLType is generated from relational or object-relational
data ... we can get the XML structural information from the underlying
relational or object relational schema."  Here the information comes from
the view's XML construction expression itself: an ``XMLElement`` tree with
nested elements (occurs 1), ``XMLForest`` members (occurs ?), and
``XMLAgg`` scalar subqueries (occurs *).

Besides the :class:`~repro.schema.model.StructuralSchema`, the inference
returns a mapping from each element declaration to the construction node
that produces it — the XQuery→SQL rewrite navigates this map instead of
re-deriving it.

A source's structure belongs to the source, not to the request: a
:class:`CompileContext` derives the view query, its structure and the
annotated sample document (§4.2) once, and every compile against that
source reads them.
"""

from __future__ import annotations

import threading

from repro.errors import RewriteError
from repro.rdb.expressions import CaseWhen, Const, ScalarSubquery, SqlExpr
from repro.rdb.sqlxml import XMLAgg, XMLConcat, XMLElement, XMLForest, XMLText
from repro.schema.sample import generate_sample
from repro.schema.model import (
    MANY,
    ONE,
    OPTIONAL,
    SEQUENCE,
    ElementDecl,
    Particle,
    StructuralSchema,
)


class ElementSource:
    """How one element declaration is produced by the view.

    :ivar constructor: the :class:`XMLElement` that builds it;
    :ivar text_expr: for leaves, the scalar expression producing the text;
    :ivar subquery: the :class:`ScalarSubquery` whose ``XMLAgg`` repeats
        this element (None for singly-occurring elements);
    :ivar attribute_exprs: ``{attr_name: expr}``.
    """

    __slots__ = ("constructor", "text_expr", "subquery", "attribute_exprs")

    def __init__(self, constructor, text_expr=None, subquery=None,
                 attribute_exprs=None):
        self.constructor = constructor
        self.text_expr = text_expr
        self.subquery = subquery
        self.attribute_exprs = attribute_exprs or {}


class ViewStructure:
    """Inference result: schema plus declaration→source map.

    ``copy_on_place`` holds the ids of the view's nodes a compile writes
    into, or that lead to one: every plan node (EXPLAIN numbers it, the
    optimizer costs it) and every expression that is or holds a
    :class:`ScalarSubquery` (the optimizer swaps its query).  The SQL
    merge places a private copy of these, never the view's own
    (:meth:`repro.core.sql_rewrite.SqlRewriter._own`); everything else of
    the view is shared read-only."""

    def __init__(self, schema, sources, copy_on_place):
        self.schema = schema
        self._sources = sources  # id(decl) -> ElementSource
        self.copy_on_place = copy_on_place

    def source_of(self, decl):
        return self._sources[id(decl)]


FRAGMENT_ROOT = "#fragment"
_ONE_ROOT = "view output must construct exactly one root element"
_DERIVING = threading.RLock()


def derive_once(owner, name, derive):
    """``owner.<name>``, first set to ``derive()`` when it is None.  The
    derivation runs under one process-wide lock (re-entrant: a derivation
    may need another), so racing first uses all get the one published
    object; one that raises publishes nothing."""
    with _DERIVING:
        value = getattr(owner, name)
        if value is None:
            value = derive()
            setattr(owner, name, value)
    return value


class CompileContext:
    """What every compile against one XMLType source reads and none
    writes: the view :class:`~repro.rdb.plan.Query`, the
    :class:`ViewStructure` inferred from it and the annotated
    :class:`~repro.schema.sample.SampleDocument` of its schema — the
    structural information the paper partially evaluates against (§4.1,
    §4.2).

    The structure and the sample are derived on first use, once.  An
    object-relational storage and a :class:`~repro.rdb.database.View`
    keep one context for life: their structure does not change after
    they are built (what ``fingerprint()`` relies on too), so every
    compile shares these objects.  Racing first uses all see one
    published object (:func:`derive_once`); a derivation that raises (an
    unsupported view, a recursive schema) raises again on the next use.
    Nothing downstream writes into them: the SQL merge places copies of
    the view nodes a compile writes into
    (``ViewStructure.copy_on_place``).

    :param view_query: the XMLType view query;
    :param schema: for a source known only by its structural schema
        (there is no view and no structure then, only the sample).
    """

    __slots__ = ("view_query", "_structure", "_schema", "_sample")

    def __init__(self, view_query=None, schema=None):
        self.view_query = view_query
        self._structure = None
        self._schema = schema
        self._sample = None

    @property
    def structure(self):
        """The view's structure; a multi-rooted construction is wrapped in
        a ``#fragment`` root (see :meth:`rooted`)."""
        structure = self._structure
        if structure is None:
            structure = derive_once(self, "_structure", lambda: (
                infer_view_structure(self.view_query, fragment_ok=True)))
        return structure

    def rooted(self, fragment_ok=False):
        """:attr:`structure`, refusing a multi-rooted view unless
        ``fragment_ok`` — what :func:`infer_view_structure` returns or
        raises for that ``fragment_ok``."""
        structure = self.structure
        if not fragment_ok and structure.schema.root.name == FRAGMENT_ROOT:
            raise RewriteError(_ONE_ROOT)
        return structure

    @property
    def schema(self):
        if self._schema is not None:
            return self._schema
        return self.structure.schema

    @property
    def sample(self):
        """The annotated sample document of :attr:`schema` (raises
        :class:`~repro.errors.SchemaError` for a recursive one)."""
        sample = self._sample
        if sample is None:
            sample = derive_once(self, "_sample",
                                 lambda: generate_sample(self.schema))
        return sample


def infer_view_structure(view_query, fragment_ok=False):
    """Infer structure from an XMLType view query (single XML output).

    With ``fragment_ok`` a multi-rooted construction (e.g. the output of a
    rewritten XSLT view, paper example 2) is wrapped in a synthetic
    ``#fragment`` declaration whose children are the top-level elements —
    this is the "static typing result of the equivalent XQuery" (§3.2).
    """
    if len(view_query.outputs) != 1:
        raise RewriteError(
            "XMLType views must have exactly one output column"
        )
    _, construction = view_query.outputs[0]
    sources = {}
    particles = _infer_content(construction, sources)
    if len(particles) == 1 and particles[0].occurs == ONE:
        root = particles[0].decl
    elif not fragment_ok:
        raise RewriteError(_ONE_ROOT)
    else:
        root = ElementDecl(FRAGMENT_ROOT, group=SEQUENCE,
                           particles=particles)
        sources[id(root)] = ElementSource(None)
    return ViewStructure(StructuralSchema(root), sources,
                         _copy_on_place(view_query, sources))


def _copy_on_place(view_query, sources):
    """The ids of ``ViewStructure.copy_on_place``: every plan node of the
    view (its own and its subqueries') and every expression — in the
    view's outputs, its plans and the declaration sources — that is or
    holds a :class:`ScalarSubquery`."""
    found, seen = set(), set()

    def holds(expr):
        if id(expr) in seen:
            return id(expr) in found
        seen.add(id(expr))
        held = isinstance(expr, ScalarSubquery)
        if held:
            query(expr.query)
        for child in expr.child_exprs():
            held = holds(child) or held
        if held:
            found.add(id(expr))
        return held

    def query(query):
        for node in query.plan.iter_plan():
            found.add(id(node))
            for expr in node.expressions():
                holds(expr)
        for _, expr in query.outputs:
            holds(expr)

    query(view_query)
    for source in sources.values():
        for expr in (source.constructor, source.text_expr,
                     *source.attribute_exprs.values()):
            if expr is not None:
                holds(expr)
    return frozenset(found)


def _infer_content(expr, sources, occurs=ONE):
    """Particles contributed by one content expression."""
    if isinstance(expr, XMLElement):
        return [Particle(_infer_element(expr, sources, None), occurs)]
    if isinstance(expr, XMLForest):
        particles = []
        for name, item_expr in expr.items:
            decl = ElementDecl(name, has_text=True)
            sources[id(decl)] = ElementSource(None, text_expr=item_expr)
            particles.append(Particle(decl, OPTIONAL))
        return particles
    if isinstance(expr, XMLConcat):
        particles = []
        for item in expr.items:
            particles.extend(_infer_content(item, sources, occurs))
        return particles
    if isinstance(expr, ScalarSubquery):
        return _infer_subquery(expr, sources)
    if isinstance(expr, CaseWhen):
        return _infer_case(expr, sources)
    if isinstance(expr, (XMLText, SqlExpr)):
        return []  # scalar content: text, handled by the caller
    raise RewriteError(
        "unsupported construct %r in view definition" % type(expr).__name__
    )


def _infer_element(element_expr, sources, subquery):
    particles = []
    text_exprs = []
    for item in element_expr.content:
        if isinstance(
            item,
            (XMLElement, XMLForest, XMLConcat, ScalarSubquery, CaseWhen),
        ):
            particles.extend(_infer_content(item, sources))
        elif isinstance(item, SqlExpr):
            text_exprs.append(item)
        else:
            raise RewriteError(
                "unsupported content %r in XMLElement" % type(item).__name__
            )
    decl = ElementDecl(
        element_expr.name,
        group=SEQUENCE if particles else None,
        particles=particles,
        has_text=bool(text_exprs),
        attributes=[name for name, _ in element_expr.attributes],
    )
    sources[id(decl)] = ElementSource(
        element_expr,
        text_expr=text_exprs[0] if len(text_exprs) == 1 else None,
        subquery=subquery,
        attribute_exprs=dict(element_expr.attributes),
    )
    return decl


def _infer_case(expr, sources):
    """Conditional construction: every branch's elements become optional.

    The storage reconstruction view guards optional/choice children with
    ``CASE WHEN col IS NOT NULL THEN XMLElement(...) END``; each branch's
    element keeps a per-branch guarded constructor so copy semantics stay
    exact.
    """
    particles = []
    branch_pairs = [(condition, value) for condition, value in expr.whens]
    if expr.otherwise is not None:
        branch_pairs.append((None, expr.otherwise))
    for condition, branch in branch_pairs:
        if isinstance(branch, Const) and branch.value is None:
            continue
        for particle in _infer_content(branch, sources):
            source = sources.get(id(particle.decl))
            if (
                source is not None
                and source.constructor is not None
                and condition is not None
            ):
                source.constructor = CaseWhen(
                    [(condition, source.constructor)], Const(None)
                )
            occurs = OPTIONAL if particle.occurs == ONE else MANY
            particles.append(Particle(particle.decl, occurs))
    return particles


def _infer_subquery(subquery, sources):
    """A scalar subquery inside content: XMLAgg(...) → occurs *; a plain
    XML-producing subquery → occurs ?."""
    outputs = subquery.query.outputs
    if len(outputs) != 1:
        raise RewriteError("XML subquery must have one output")
    _, inner = outputs[0]
    if isinstance(inner, XMLAgg):
        aggregated = inner.expr
        if isinstance(aggregated, XMLElement):
            decl = _infer_element(aggregated, sources, subquery)
            return [Particle(decl, MANY)]
        raise RewriteError("XMLAgg over non-XMLElement is not supported")
    if isinstance(inner, XMLElement):
        decl = _infer_element(inner, sources, subquery)
        return [Particle(decl, OPTIONAL)]
    raise RewriteError(
        "unsupported subquery output %r" % type(inner).__name__
    )
