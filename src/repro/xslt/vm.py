"""The XSLT virtual machine.

Runs a compiled :class:`~repro.xslt.stylesheet.Stylesheet` against a source
document.  What executes is the stylesheet's bound
:class:`~repro.xslt.program.Program` — closures made once per stylesheet;
an :class:`XsltVM` is the state of one run threaded through them (counters,
messages, key indexes, the current template rule, nesting depth) and the
public face of dispatch.  Constructed with a
:class:`~repro.xslt.trace.TraceRecorder` or ``explore`` it binds a
:class:`~repro.xslt.program.TracingProgram` of its own instead — what
partial evaluation builds on.
"""

from __future__ import annotations

import sys

from repro.errors import XsltRuntimeError
from repro.xmlmodel.builder import TreeBuilder
from repro.xmlmodel.nodes import Node, NodeKind
from repro.xpath.context import XPathContext
from repro.xpath.datamodel import sort_document_order, to_number, to_string
from repro.xpath.functions import CORE_FUNCTIONS
from repro.xslt.instructions import ParamInstr
from repro.xslt.program import TracingProgram
from repro.xslt.stylesheet import INSTRUCTION_NAMES

# A template instantiation costs a handful of Python frames; make sure the
# program's own depth guard (MAX_TEMPLATE_DEPTH, a clean XsltRuntimeError)
# trips before the interpreter's RecursionError would.
sys.setrecursionlimit(max(sys.getrecursionlimit(), 100_000))


class XsltVM:
    """One VM instance per transformation run.

    ``trace`` records every dispatch event.  ``explore`` is the paper's
    §4.3 partial-evaluation stance, whole: predicates are assumed true
    (every dispatching ``select`` and every match pattern runs as its
    ``without_predicates()`` form, so dispatch is driven by structure
    only), *every* conditional branch executes and *every* candidate
    template is instantiated at each dispatch, so the trace covers
    everything that could fire on any conforming document.
    """

    def __init__(self, stylesheet, trace=None, explore=False):
        self.stylesheet = stylesheet
        self.trace = trace
        self.explore = explore
        self.messages = []
        #: observability counters, read by the obs layer / TransformResult
        self.instructions_executed = 0
        self.templates_dispatched = 0
        self._key_indexes = {}
        self._rule = None   # (template, mode) of the current template rule
        self._depth = 0
        if trace is None and not explore:
            self.program = stylesheet.program()
        else:
            self.program = TracingProgram(stylesheet, trace, explore)
            self._template_stack = []
            self._explore_stack = []

    def transform_document(self, document, params=None, output=None):
        """Run the stylesheet into ``output``, a ``TreeBuilder`` unless
        given (a ``MarkupWriter`` writes markup); returns its finish()."""
        stylesheet = self.stylesheet
        if stylesheet.strip_space_names:
            document = strip_space(document, stylesheet.strip_space_names,
                                   stylesheet.preserve_space_names)
        output = TreeBuilder() if output is None else output
        context = XPathContext(
            document,
            variables={},
            namespaces=stylesheet.namespaces,
            functions=XSLT_FUNCTIONS,
            extra={"xslt_vm": self},
        )
        if stylesheet.global_bindings:
            context.variables.update(
                self._resolve_globals(context, params or {}))
        self.program.applier(None)(self, [document], {}, context, output, None)
        return output.finish()

    def find_rule(self, node, mode, context):
        """Best matching rule for ``node`` in ``mode`` (or None)."""
        for rule, matcher, _, _, _ in self.program.rules_for(mode, node):
            if matcher is None or matcher(node, context):
                return rule
        return None

    def find_candidate_rules(self, node, mode, context):
        """All rules that could match ``node`` with predicates assumed true,
        best-first, cut after the first unconditional rule (later rules can
        never fire)."""
        candidates = []
        for rule, matcher, conditional, _, _ in self.program.rules_for(
                mode, node):
            if matcher is None or matcher(node, context):
                candidates.append(rule)
                if not conditional:
                    break
        return candidates

    def _resolve_globals(self, context, params):
        """Evaluate top-level variables/params; forward references are
        resolved by fixed-point iteration."""
        pending = list(self.program.global_values())
        resolved = {}
        while pending:
            progressed = False
            errors = {}
            for entry in list(pending):
                binding, value = entry
                if isinstance(binding, ParamInstr) and binding.name in params:
                    resolved[binding.name] = params[binding.name]
                else:
                    try:
                        resolved[binding.name] = value(
                            self, context.with_variables(resolved))
                    except Exception as exc:  # retry once dependencies resolve
                        errors[binding.name] = exc
                        continue
                pending.remove(entry)
                progressed = True
            if not progressed:
                name, exc = next(iter(errors.items()))
                raise XsltRuntimeError(
                    "cannot resolve global binding $%s: %s" % (name, exc)
                )
        return resolved

    def key_index(self, name, context):
        """``value -> [nodes]`` for ``xsl:key`` ``name`` over the context
        node's document.  Cached by key *name*, holding the document root
        alongside the index: a live reference keeps the root's id from
        being reused after GC (which would alias indexes across documents),
        and moving to the next document simply replaces the entry — the
        index is evicted together with the document it describes."""
        if name not in self.stylesheet.keys:
            raise XsltRuntimeError("no xsl:key named %r" % name)
        root = context.node.root()
        cached = self._key_indexes.get(name)
        if cached is not None and cached[0] is root:
            return cached[1]
        key = self.stylesheet.keys[name]
        match, use = key.match.compile(), key.use.bound()
        focus = context.with_node(root)
        index = {}
        for node in root.iter_subtree():
            for candidate in (node, *node.attributes) \
                    if node.kind == NodeKind.ELEMENT else (node,):
                if match(candidate, context):
                    focus.node = candidate
                    values = use(focus)
                    for value in values if isinstance(values, list) \
                            else (values,):
                        index.setdefault(to_string(value), []).append(candidate)
        self._key_indexes[name] = (root, index)
        return index


# -- XSLT function library: entries overlaid on the core one through
# ``XPathContext.functions``; the run's state is reached through the
# context (``extra["xslt_vm"]``) -----------------------------------------------------


def fn_current(context):
    return [context.current]


def fn_key(context, name, value):
    index = context.extra["xslt_vm"].key_index(to_string(name), context)
    if isinstance(value, list) and value and isinstance(value[0], Node):
        wanted = [node.string_value() for node in value]
    else:
        wanted = [to_string(value)]
    found = []
    for want in wanted:
        found.extend(index.get(want, ()))
    return sort_document_order(found)


def fn_generate_id(context, value=None):
    if value is None:
        node = context.node
    else:
        if not isinstance(value, list):
            raise XsltRuntimeError("generate-id() expects a node-set")
        if not value:
            return ""
        node = value[0]
    # Stable across repeated materialisations of the same stored
    # document: document order is deterministic, object ids are not.
    # An attribute may share its element's order slot, so it is named
    # by its element and its expanded name: unique on the element and,
    # unlike its position among the attributes, the same in a projected
    # materialisation that leaves sibling attributes out.  Hex keeps the
    # id ASCII alphanumeric (XSLT 1.0 §12.4).
    if node.kind == NodeKind.ATTRIBUTE and node.parent is not None:
        name = node.name
        key = name.local if name.uri is None else "{%s}%s" % (
            name.uri, name.local)
        return "id%da%s" % (node.parent.order, key.encode("utf-8").hex())
    return "id%d" % node.order


_SYSTEM_PROPERTIES = {
    "xsl:version": "1.0",
    "xsl:vendor": "repro-xsltvm",
    "xsl:vendor-url": "https://example.invalid/repro",
}


def fn_system_property(context, name):
    return _SYSTEM_PROPERTIES.get(to_string(name), "")


def fn_format_number(context, number, picture, fmt=None):
    return format_decimal(to_number(number), to_string(picture))


def fn_document(context, *args):
    raise XsltRuntimeError("document() is not supported")


def fn_unparsed_entity_uri(context, name):
    return ""


def fn_element_available(context, name):
    return to_string(name).split(":")[-1] in INSTRUCTION_NAMES


def fn_function_available(context, name):
    local = to_string(name)
    if local.startswith("fn:"):
        local = local[3:]
    return local in CORE_FUNCTIONS or local in XSLT_FUNCTIONS


XSLT_FUNCTIONS = {
    "current": (0, 0, fn_current),
    "key": (2, 2, fn_key),
    "generate-id": (0, 1, fn_generate_id),
    "system-property": (1, 1, fn_system_property),
    "format-number": (2, 3, fn_format_number),
    "document": (1, 2, fn_document),
    "unparsed-entity-uri": (1, 1, fn_unparsed_entity_uri),
    "element-available": (1, 1, fn_element_available),
    "function-available": (1, 1, fn_function_available),
}


def strip_space(document, strip_names, preserve_names):
    """Return a copy of ``document`` with whitespace-only text children of
    the named elements removed ('*' strips everywhere)."""
    builder = TreeBuilder()

    def should_strip(element):
        name = element.name.local
        if name in preserve_names:
            return False
        return "*" in strip_names or name in strip_names

    def copy(node, stripping):
        kind = node.kind
        if kind == NodeKind.TEXT:
            if stripping and not node.value.strip():
                return
            builder.text(node.value)
        elif kind == NodeKind.ELEMENT:
            builder.start_element(node.name, namespaces=dict(node.namespaces))
            for attribute in node.attributes:
                builder.attribute(attribute.name, attribute.value)
            strip_children = should_strip(node)
            for child in node.children:
                copy(child, strip_children)
            builder.end_element()
        elif kind == NodeKind.COMMENT:
            builder.comment(node.value)
        elif kind == NodeKind.PI:
            builder.processing_instruction(node.target, node.value)

    for child in document.children:
        copy(child, False)
    return builder.finish()


def format_decimal(value, picture):
    """A pragmatic subset of format-number(): 0/#/,/. pictures."""
    if value != value:
        return "NaN"
    negative = value < 0
    value = abs(value)
    integer_picture, _, fraction_picture = picture.partition(".")
    fraction_digits = len(fraction_picture)
    required_fraction = fraction_picture.count("0")
    text = "%.*f" % (fraction_digits, value)
    integer_text, _, fraction_text = text.partition(".")
    minimum_integers = integer_picture.count("0")
    integer_text = integer_text.zfill(minimum_integers)
    if "," in integer_picture:
        grouped = []
        while len(integer_text) > 3:
            grouped.insert(0, integer_text[-3:])
            integer_text = integer_text[:-3]
        grouped.insert(0, integer_text)
        integer_text = ",".join(grouped)
    if fraction_digits:
        fraction_text = fraction_text.rstrip("0")
        while len(fraction_text) < required_fraction:
            fraction_text += "0"
        result = integer_text + ("." + fraction_text if fraction_text else "")
    else:
        result = integer_text
    return "-" + result if negative else result
