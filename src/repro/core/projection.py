"""Projection: what of a stored document a functional run can reach.

When a compile ends functional, the VM runs over documents that
:meth:`~repro.rdb.storage.ObjectRelationalStorage.materialize_all`
rebuilds from rows.  A *projection mask* lets it build only what the
stylesheet can touch (DESIGN §16.5): a frozenset of ``(path, content)``
pairs, ``path`` naming an element (``row/state``) or attribute
(``row/@id``) below the document element, ``content`` saying whether the
node's value is read (for an element: its whole subtree) or only the node
— dispatch and ``for-each`` selects, ``count()``, ``position()``,
``last()``, ``generate-id()``, ``name()``, ``xsl:number`` and existence
tests need no text.  A leaf reached at all is read whole: dropping only
its text would save one node.

The mask comes from the partial evaluation the compile already ran
(paper §4.3): the traced run over the sample document records every
template, branch and built-in rule a conforming document can reach and the
sample node each fired on.  Each reached template's location paths —
selects, tests, predicates, AVTs, sort keys, ``xsl:number`` patterns,
keys, parameters, and the global variables from the document node — are
then evaluated over the sample with predicates assumed true, the sibling
axes widened to every sibling and ``following``/``preceding`` to every
node, so each step reaches a superset, by name path, of what it reaches in
any conforming document.

The walk follows the templates the traced run instantiated, so it must not
meet a dispatch the traced run could not have followed: templates applied
or called on nodes a sibling or ``following``/``preceding`` axis reached
(the sample holds one node per name path, so from it such an axis can
select nothing a real document's would), or through ``key()`` (looked up
in sample values).  That, like anything else the analysis does not
model, yields no mask, i.e. the full document: a variable or parameter
that can hold nodes, ``id()``, ``document()``, ``lang()``, the namespace
axis, ``xsl:strip-space`` (it renumbers the document ``generate-id()``
reads), an unknown expression or instruction, a source that is not
object-relational storage, or a partial evaluation that failed.

Only a compile whose artifact is kept for reuse derives a mask: a
one-shot request builds each document once, and the analysis — a whole
partial evaluation when the request attempted no rewrite — is not paid
back by one build.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.obs.decisions import PROJECTION
from repro.rdb.storage import ObjectRelationalStorage
from repro.schema.sample import ANNOTATION_NS
from repro.xmlmodel.nodes import NodeKind
from repro.xpath.ast import (
    BinaryOp,
    ContextItem,
    FilterExpr,
    FunctionCall,
    Literal,
    NumberLiteral,
    PathExpr,
    UnaryMinus,
    UnionExpr,
    VariableRef,
)
from repro.xpath.axes import AXES
from repro.xslt import instructions as instr
from repro.core.partial_eval import partially_evaluate

NODE, CONTENT = False, True

_ELEMENT, _ATTRIBUTE = NodeKind.ELEMENT, NodeKind.ATTRIBUTE
_TEXT, _DOCUMENT = NodeKind.TEXT, NodeKind.DOCUMENT

#: functions whose node-set arguments are only counted, named or tested
_NODE_ARGUMENTS = frozenset([
    "count", "name", "local-name", "namespace-uri", "generate-id",
    "boolean", "not", "exists", "empty"])
#: zero-argument forms that read the context node's value
_CONTEXT_VALUE = frozenset([
    "string", "number", "string-length", "normalize-space"])
#: functions that can return source nodes (what makes a variable node-valued)
_NODE_FUNCTIONS = frozenset(["key", "current", "id", "document"])
_UNMODELLED_FUNCTIONS = frozenset(["id", "document", "lang"])
#: axes whose reach from the sample the analysis widens (_Reach.along)
_WIDENED = frozenset(["following", "preceding", "following-sibling",
                      "preceding-sibling"])


class _Unmodelled(Exception):
    """A construct whose reach the analysis cannot bound."""


def functional_projection(source, stylesheet, ledger, tracer, reused,
                          partial=None, error=None):
    """The projection mask for a functional artifact over ``source``
    (None: build the whole document), recording one ``projection``
    decision in ``ledger`` that names the kept and dropped paths or why
    there is no mask — one is that the artifact is not ``reused`` (a
    one-shot compile).  ``partial`` is the failed rewrite's
    :class:`~repro.core.partial_eval.PartialEvaluation`; without one,
    unless the rewrite failed before partial evaluation (``error``),
    partial evaluation runs here, under ``tracer`` (a reused forced
    functional compile always does).  Both are made against the
    storage's :class:`~repro.rdb.infer.CompileContext`: the structure
    inferred from its view and the sample every compile shares.  That
    view constructs every element and attribute the storage stores, so
    the analysis sees every path a mask could drop."""
    stored = isinstance(source, ObjectRelationalStorage)
    subject = source.schema.root.name if stored else type(source).__name__
    mask = None
    kept = dropped = ()
    if not stored:
        reason = "a %s source has no stored structure to project" % subject
    elif not reused:
        reason = "a one-shot compile builds each document once"
    else:
        if partial is None and error is None:
            try:
                with tracer.span("compile.partial-eval"):
                    partial = partially_evaluate(stylesheet,
                                                 source.compile_context)
            except ReproError as exc:
                error = exc
        if partial is None:
            reason = "partial evaluation did not complete: %s" % error
        else:
            mask, reason, kept, dropped = derive_mask(partial)
    detail = {"kept": list(kept), "dropped": list(dropped)} \
        if mask is not None else None
    ledger.record(PROJECTION, "partial-eval", subject,
                  "project" if mask is not None else "full",
                  reason=reason, detail=detail)
    return mask


def projection_summary(decision):
    """One line for a ``projection`` decision: what the VM's documents
    keep and drop, or why they are whole."""
    if decision.action != "project":
        return "whole document (%s)" % decision.reason
    detail = decision.detail
    return "kept %s; dropped %s" % (
        ", ".join(detail["kept"]) or "the document element",
        ", ".join(detail["dropped"]) or "nothing")


def derive_mask(partial):
    """``(mask, reason, kept, dropped)`` from a partial evaluation: the
    mask (None when it would keep everything or cannot be bounded), why,
    and for a mask the display forms of its paths (``path (node)`` when
    only the node is read) and the topmost paths it drops."""
    try:
        marks = _Reach(partial).run()
    except _Unmodelled as exc:
        return None, "not modelled: %s" % exc, (), ()
    read = {}  # id(element or attribute) -> content
    for node, content in marks.values():
        kind = node.kind
        if kind == _TEXT:  # only leaves carry text: their element's value
            node, content = node.parent, CONTENT
        elif kind == _DOCUMENT:
            if content:
                return None, "the whole document's content is read", (), ()
            continue
        read[id(node)] = read.get(id(node), NODE) or content
    mask, kept, dropped = {}, [], []

    def visit(node, path):
        """Whether anything at or below ``node`` is read; fills the mask
        below it and, when it is kept, lists the children it drops."""
        content = read.get(id(node))
        if content is NODE and not any(child.kind == _ELEMENT
                                       for child in node.children):
            content = CONTENT  # a leaf is built whole, text and attributes
        if path:
            if content is not None:
                kept.append(path if content else path + " (node)")
                mask[path] = content
            if content:
                return True
        prefix = path + "/" if path else ""
        found = content is not None or not path
        unread = []
        for attribute in node.attributes:
            if attribute.name.uri != ANNOTATION_NS:
                name = prefix + "@" + attribute.name.local
                if id(attribute) in read:
                    kept.append(name)
                    mask[name] = CONTENT
                    found = True
                else:
                    unread.append(name)
        for child in node.children:
            if child.kind != _ELEMENT:
                continue
            if visit(child, prefix + child.name.local):
                found = True
            else:
                unread.append(prefix + child.name.local)
        if found:
            dropped.extend(unread)
        return found

    root = partial.sample.document.document_element
    if read.get(id(root)):
        return None, "the whole document's content is read", (), ()
    visit(root, "")
    if not dropped:
        return None, "every path is read", (), ()
    return (frozenset(mask.items()),
            "only the kept paths are built; the rest is counted, not built",
            kept, dropped)


# -- the reach analysis ------------------------------------------------------------


class _Reach:
    """One pass over what a partial evaluation reached: ``run()`` returns
    ``{id(sample node): [node, content]}`` for every sample node some
    reached construct can touch."""

    def __init__(self, partial):
        self.stylesheet = partial.stylesheet
        self.trace = partial.trace
        self.document = partial.sample.document
        self.namespaces = self.stylesheet.namespaces
        self.marks = {}
        self.keys_walked = set()
        #: inside a dispatching select (see :meth:`dispatching`)
        self.dispatch = False
        #: inside a for-each over nodes a widened axis reached (_widens)
        self.unseen = False
        self._node_valued = self._all = None

    def run(self):
        sheet = self.stylesheet
        if sheet.strip_space_names:
            raise _Unmodelled("xsl:strip-space renumbers the document")
        document = [self.document]
        for binding in sheet.global_bindings:
            self.binding(binding, document, document)
        # Every dispatched node has an instantiation of its own, built-in
        # rules included; a text or attribute node reached is its value.
        fired = {}
        for event in self.trace.instantiations:
            template, node = event.template, event.node
            self.mark((node,), NODE)
            if not isinstance(template, str):  # a user template
                fired.setdefault(template, {})[id(node)] = node
        for template, nodes in fired.items():
            nodes = list(nodes.values())
            if template.match is not None:
                self.pattern_predicates(template.match)
            for param in template.params:
                self.binding(param, nodes, nodes)
            self.body(template.body, nodes, nodes)
        return self.marks

    def mark(self, nodes, content):
        marks = self.marks
        for node in nodes:
            entry = marks.get(id(node))
            if entry is None:
                marks[id(node)] = [node, content]
            elif content:
                entry[1] = CONTENT
        return nodes

    # -- instructions -------------------------------------------------------------

    def body(self, instructions, ctx, cur):
        for instruction in instructions:
            handler = _INSTRUCTIONS.get(type(instruction))
            if handler is None:
                raise _Unmodelled("xsl instruction %s"
                                  % type(instruction).__name__)
            handler(self, instruction, ctx, cur)

    def binding(self, binding, ctx, cur):
        """A variable, param or with-param: its select is a value use."""
        if binding.select is not None:
            self.expr(binding.select, ctx, cur, CONTENT)
        else:
            self.body(binding.body, ctx, cur)

    def dispatching(self, select, ctx, cur):
        """A select whose nodes go on to be dispatched or iterated: the
        traced run followed them from the sample node that stands for
        each — unless a ``key()`` looked them up in sample values, or a
        widened axis reached them (:meth:`dispatched_unseen`)."""
        self.dispatch = True
        try:
            return self.expr(select, ctx, cur, NODE)
        finally:
            self.dispatch = False

    def sorted_by(self, sorts, selected):
        for spec in sorts:
            self.expr(spec.select, selected, selected, CONTENT)

    def avt(self, avt, ctx, cur):
        for part in avt.parts:
            if not isinstance(part, str):
                self.expr(part, ctx, cur, CONTENT)

    def dispatched_unseen(self, select=None):
        """Templates applied or called on nodes a sibling or
        following/preceding axis reached — in ``select`` or an enclosing
        ``for-each``: the walk follows the traced run's instantiations,
        and from the one sample node per name path such an axis can
        select nothing where a real document's selects many."""
        if self.unseen or select is not None and _widens(select):
            raise _Unmodelled("templates applied or called on nodes a"
                              " sibling, following or preceding axis reached")

    def i_apply_templates(self, instruction, ctx, cur):
        self.dispatched_unseen(instruction.select)
        if instruction.select is None:
            selected = self.mark(
                [child for node in ctx for child in node.children], NODE)
        else:
            selected = self.dispatching(instruction.select, ctx, cur)
        self.sorted_by(instruction.sorts, selected)
        for param in instruction.with_params:
            self.binding(param, ctx, cur)

    def i_call_template(self, instruction, ctx, cur):
        self.dispatched_unseen()
        for param in instruction.with_params:
            self.binding(param, ctx, cur)

    def i_for_each(self, instruction, ctx, cur):
        selected = self.dispatching(instruction.select, ctx, cur)
        self.sorted_by(instruction.sorts, selected)
        unseen = self.unseen
        self.unseen = unseen or _widens(instruction.select)
        try:
            self.body(instruction.body, selected, selected)
        finally:
            self.unseen = unseen

    def i_if(self, instruction, ctx, cur):
        self.expr(instruction.test, ctx, cur, NODE)
        self.body(instruction.body, ctx, cur)

    def i_choose(self, instruction, ctx, cur):
        for test, body in instruction.whens:
            self.expr(test, ctx, cur, NODE)
            self.body(body, ctx, cur)
        self.body(instruction.otherwise, ctx, cur)

    def i_value(self, instruction, ctx, cur):  # value-of, copy-of
        self.expr(instruction.select, ctx, cur, CONTENT)

    def i_literal(self, instruction, ctx, cur):
        for _, avt in instruction.attributes:
            self.avt(avt, ctx, cur)
        self.body(instruction.body, ctx, cur)

    def i_named(self, instruction, ctx, cur):  # element, attribute, PI
        self.avt(instruction.name_avt, ctx, cur)
        self.body(instruction.body, ctx, cur)

    def i_body(self, instruction, ctx, cur):  # copy, comment, message
        self.body(instruction.body, ctx, cur)

    def i_number(self, instruction, ctx, cur):
        if instruction.format_avt is not None:
            self.avt(instruction.format_avt, ctx, cur)
        if instruction.value is not None:
            self.expr(instruction.value, ctx, cur, CONTENT)
            return
        if instruction.count is None:  # nodes named like the context node
            names = {(node.kind, node.name) for node in ctx}
            self.mark([node for node in self.all_nodes()
                       if (node.kind, node.name) in names], NODE)
        else:
            self.mark(self.pattern_nodes(instruction.count), NODE)
        if instruction.from_ is not None:
            self.mark(self.pattern_nodes(instruction.from_), NODE)

    def i_nothing(self, instruction, ctx, cur):
        pass

    # -- expressions --------------------------------------------------------------

    def expr(self, expr, ctx, cur, use):
        """Walk ``expr`` from the context nodes ``ctx`` (``cur``: what
        ``current()`` is); returns the sample nodes a node-set value can
        hold, each marked as read for ``use``."""
        kind = type(expr)
        if kind is PathExpr:
            return self.path(expr, ctx, cur, use)
        if kind is FunctionCall:
            return self.call(expr, ctx, cur, use)
        if kind is BinaryOp:
            inner = NODE if expr.op in ("and", "or") else CONTENT
            self.expr(expr.left, ctx, cur, inner)
            self.expr(expr.right, ctx, cur, inner)
            return []
        if kind is Literal or kind is NumberLiteral:
            return []
        if kind is VariableRef:
            if self._node_valued is None:
                self._node_valued = _node_valued_names(self.stylesheet)
            if expr.name in self._node_valued:
                raise _Unmodelled("$%s can hold nodes" % expr.name)
            return []
        if kind is ContextItem:
            return self.mark(ctx, use)
        if kind is UnionExpr:
            nodes = []
            for part in expr.parts:
                nodes.extend(self.expr(part, ctx, cur, use))
            return nodes
        if kind is FilterExpr:
            nodes = self.start(expr.primary, ctx, cur)
            self.predicates(expr.predicates, nodes, cur)
            return self.mark(nodes, use)
        if kind is UnaryMinus:
            self.expr(expr.operand, ctx, cur, CONTENT)
            return []
        raise _Unmodelled("%s expressions" % kind.__name__)

    def start(self, primary, ctx, cur):
        if type(primary) is VariableRef:
            raise _Unmodelled("a path from $%s" % primary.name)
        return self.expr(primary, ctx, cur, NODE)

    def path(self, expr, ctx, cur, use):
        if expr.start is not None:
            nodes = self.start(expr.start, ctx, cur)
        elif expr.absolute:
            nodes = [self.document]
        else:
            nodes = ctx
        for step in expr.steps:
            nodes = self.step(step, nodes, cur)
        return self.mark(nodes, use)

    def step(self, step, nodes, cur):
        axis = step.axis
        if axis == "namespace":
            raise _Unmodelled("the namespace axis")
        match = self.test(step.test, _ATTRIBUTE if axis == "attribute"
                          else _ELEMENT)
        found = {}
        for node in nodes:
            for candidate in self.along(axis, node):
                if match is None or match(candidate):
                    found[id(candidate)] = candidate
        nodes = self.mark(list(found.values()), NODE)
        self.predicates(step.predicates, nodes, cur)
        return nodes

    def along(self, axis, node):
        """The sample nodes ``axis`` can reach from ``node`` in some
        conforming document: one sample node stands for every repetition
        of its element, so sibling axes reach every sibling and
        following/preceding every node."""
        if axis == "following-sibling" or axis == "preceding-sibling":
            parent = node.parent
            if parent is None or node.kind == _ATTRIBUTE:
                return ()
            return parent.children
        if axis == "following" or axis == "preceding":
            return self.document.iter_descendants()
        return AXES[axis](node)

    def test(self, test, principal):
        prefix = getattr(test, "prefix", None)
        if prefix is not None and prefix not in self.namespaces:
            raise _Unmodelled("an undeclared prefix %s:" % prefix)
        return test.matcher(principal, self.namespaces.get(prefix))

    def predicates(self, predicates, nodes, cur):
        for predicate in predicates:
            self.expr(predicate, nodes, cur, NODE)

    def call(self, expr, ctx, cur, use):
        name, args = expr.name, expr.args
        if name in _UNMODELLED_FUNCTIONS:
            raise _Unmodelled("%s()" % name)
        if name == "current":
            return self.mark(cur, use)
        if name == "key" and len(args) == 2:
            if self.dispatch:
                raise _Unmodelled("key() in a dispatching select")
            self.expr(args[0], ctx, cur, CONTENT)
            self.expr(args[1], ctx, cur, CONTENT)
            return self.mark(self.key(args[0]), use)
        if not args:
            if name in _CONTEXT_VALUE:
                self.mark(ctx, CONTENT)
            return []
        inner = NODE if name in _NODE_ARGUMENTS else CONTENT
        for arg in args:
            self.expr(arg, ctx, cur, inner)
        return []

    def key(self, name):
        """The nodes ``key(name, ...)`` can return: whatever the key's
        match pattern can match, its ``use`` read from each."""
        keys = self.stylesheet.keys
        names = ([name.value] if type(name) is Literal else list(keys))
        found = []
        for key_name in names:
            key = keys.get(key_name)
            if key is None:
                continue
            nodes = self.pattern_nodes(key.match)
            found.extend(nodes)
            if key_name not in self.keys_walked:
                self.keys_walked.add(key_name)
                self.mark(nodes, NODE)
                self.expr(key.use, nodes, nodes, CONTENT)
        return found

    # -- patterns -----------------------------------------------------------------

    def all_nodes(self):
        """Every sample node a pattern can match, in document order."""
        if self._all is None:
            nodes = [self.document]
            for node in self.document.iter_descendants():
                nodes.append(node)
                if node.kind == _ELEMENT:
                    nodes.extend(attribute for attribute in node.attributes
                                 if attribute.name.uri != ANNOTATION_NS)
            self._all = nodes
        return self._all

    def admitted(self, step):
        """The sample nodes a pattern step's node test admits."""
        match = self.test(step.test, step.principal)
        return [node for node in self.all_nodes()
                if match is None or match(node)]

    def pattern_predicates(self, pattern):
        """Walk a pattern's predicates from every node their step's test
        admits (where the real VM may evaluate them)."""
        for alternative in pattern.alternatives:
            for step in alternative.steps:
                if step.predicates:
                    nodes = self.mark(self.admitted(step), NODE)
                    self.predicates(step.predicates, nodes, nodes)

    def pattern_nodes(self, pattern):
        """The sample nodes ``pattern`` can match — a superset: all its
        last steps admit — with its predicates walked."""
        self.pattern_predicates(pattern)
        found = []
        for alternative in pattern.alternatives:
            if alternative.steps:
                found.extend(self.admitted(alternative.steps[-1]))
            else:  # "/"
                found.append(self.document)
        return found


def _node_valued_names(stylesheet):
    """Names of the variables and parameters some binding or with-param
    can give source nodes, closed over references between them."""
    selects = []

    def collect(instructions):
        for top in instructions:
            for instruction in top.iter_tree():
                if isinstance(instruction, instr.VariableInstr):
                    selects.append((instruction.name, instruction.select))
                for param in getattr(instruction, "with_params", ()):
                    selects.append((param.name, param.select))
                    collect(param.body)

    for template in stylesheet.templates:
        collect(template.params)
        collect(template.body)
    collect(stylesheet.global_bindings)
    names = set()
    grew = True
    while grew:
        grew = False
        for name, select in selects:
            if (select is not None and name not in names
                    and _may_hold_nodes(select, names)):
                names.add(name)
                grew = True
    return names


def _widens(expr):
    """Whether the nodes ``expr`` selects can come through an axis
    :meth:`_Reach.along` widens (its predicates only filter them)."""
    kind = type(expr)
    if kind is PathExpr:
        return (any(step.axis in _WIDENED for step in expr.steps)
                or expr.start is not None and _widens(expr.start))
    if kind is UnionExpr:
        return any(_widens(part) for part in expr.parts)
    return kind is FilterExpr and _widens(expr.primary)


def _may_hold_nodes(expr, names):
    kind = type(expr)
    if kind in (PathExpr, UnionExpr, FilterExpr, ContextItem):
        return True
    if kind is FunctionCall:
        return expr.name in _NODE_FUNCTIONS
    return kind is VariableRef and expr.name in names


_INSTRUCTIONS = {
    instr.TextInstr: _Reach.i_nothing,
    instr.ApplyImportsInstr: _Reach.i_nothing,
    instr.FallbackInstr: _Reach.i_nothing,  # its body never runs
    instr.LiteralElementInstr: _Reach.i_literal,
    instr.ValueOfInstr: _Reach.i_value,
    instr.CopyOfInstr: _Reach.i_value,
    instr.ApplyTemplatesInstr: _Reach.i_apply_templates,
    instr.CallTemplateInstr: _Reach.i_call_template,
    instr.ForEachInstr: _Reach.i_for_each,
    instr.IfInstr: _Reach.i_if,
    instr.ChooseInstr: _Reach.i_choose,
    instr.VariableInstr: _Reach.binding,
    instr.ParamInstr: _Reach.binding,
    instr.CopyInstr: _Reach.i_body,  # a copied text or attribute: reached
    instr.ElementInstr: _Reach.i_named,
    instr.AttributeInstr: _Reach.i_named,
    instr.PiInstr: _Reach.i_named,
    instr.CommentInstr: _Reach.i_body,
    instr.MessageInstr: _Reach.i_body,
    instr.NumberInstr: _Reach.i_number,
}
