"""Stylesheet model and compiler: stylesheet DOM → instruction tree.

``compile_stylesheet`` accepts markup text or a parsed document and produces
a :class:`Stylesheet`: template rules (match patterns split per union
alternative, with resolved priorities), named templates, keys, globals and
output settings.  Template bodies are compiled into
:mod:`repro.xslt.instructions` trees with stable ``site_id`` stamps.
"""

from __future__ import annotations

import itertools

from repro.errors import XsltCompileError
from repro.xmlmodel.nodes import NodeKind, QName
from repro.xmlmodel.parser import parse_document
from repro.xpath.parser import compile_xpath
from repro.xpath.patterns import compile_pattern
from repro.xslt.avt import compile_avt
from repro.xslt import instructions as instr
from repro.xslt.program import Program

XSL_NS = "http://www.w3.org/1999/XSL/Transform"


class Template:
    """A compiled template (match and/or named)."""

    __slots__ = (
        "match", "name", "mode", "priority", "params", "body", "position",
        "source", "precedence",
    )

    def __init__(self, match, name, mode, priority, params, body, position,
                 source=None, precedence=0):
        self.match = match          # Pattern or None
        self.name = name            # str or None
        self.mode = mode            # str or None
        self.priority = priority    # float or None (use default priorities)
        self.params = params        # list of ParamInstr
        self.body = body            # list of Instruction
        self.position = position    # stylesheet document order
        self.source = source        # original <xsl:template> element
        self.precedence = precedence  # import precedence

    def label(self):
        if self.match is not None:
            text = 'match="%s"' % self.match.source
            if self.mode:
                text += ' mode="%s"' % self.mode
            return text
        return 'name="%s"' % self.name

    @property
    def source_line(self):
        """Line of the ``<xsl:template>`` start tag in the stylesheet
        source, when the stylesheet was parsed from markup."""
        if self.source is not None:
            return getattr(self.source, "source_line", None)
        return None

    def __repr__(self):
        return "<Template %s>" % self.label()


class Rule:
    """One match alternative of a template, with its effective priority
    and import precedence (xsl:import, XSLT 1.0 §2.6.2: precedence trumps
    priority)."""

    __slots__ = ("pattern", "template", "priority", "position", "precedence")

    def __init__(self, pattern, template, priority, position, precedence=0):
        self.pattern = pattern      # PathPattern (single alternative)
        self.template = template
        self.priority = priority
        self.position = position
        self.precedence = precedence

    def sort_key(self):
        return (self.precedence, self.priority, self.position)


class Key:
    """A compiled ``<xsl:key>`` declaration."""

    __slots__ = ("name", "match", "use")

    def __init__(self, name, match, use):
        self.name = name
        self.match = match  # Pattern
        self.use = use      # Expr


class Stylesheet:
    """The compiled stylesheet: plain data, plus the program bound from it
    on first use — a runtime handle like ``Query.runtime``, shared by every
    VM and thread that runs this stylesheet and dropped on pickling."""

    _program = None

    def __init__(self):
        self.templates = []
        self.named_templates = {}
        self.rules_by_mode = {}      # mode (str|None) -> [Rule] best-first
        self.keys = {}
        self.global_bindings = []    # VariableInstr/ParamInstr, document order
        self.output_method = None    # None = decide from first element
        self.output_indent = False
        self.namespaces = {}         # in-scope prefixes for expressions
        self.strip_space_names = set()
        self.preserve_space_names = set()
        self.instruction_count = 0

    def rules_for_mode(self, mode):
        return self.rules_by_mode.get(mode, ())

    def program(self):
        """The bound :class:`~repro.xslt.program.Program` (made once)."""
        program = self._program
        if program is None:
            program = self._program = Program(self)
        return program

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_program", None)
        return state

    def iter_instructions(self):
        """All instructions in all templates and globals, pre-order."""
        for template in self.templates:
            for top in template.params + template.body:
                for instruction in top.iter_tree():
                    yield instruction
        for binding in self.global_bindings:
            for instruction in binding.iter_tree():
                yield instruction

    def finalize(self):
        """Sort rules best-match-first and index named templates."""
        for mode, rules in self.rules_by_mode.items():
            rules.sort(key=Rule.sort_key, reverse=True)


def compile_stylesheet(source, resolver=None):
    """Compile stylesheet markup (or a parsed document) to a Stylesheet.

    :param resolver: optional ``callable(href) -> markup text`` used to
        load ``<xsl:include>`` targets.  Includes are merged at compile
        time (same precedence, per XSLT 1.0 §2.6.1); without a resolver,
        ``xsl:include`` is rejected.
    """
    if isinstance(source, str):
        document = parse_document(source)
    else:
        document = source
    root = document.document_element
    if root is None:
        raise XsltCompileError("stylesheet has no document element")
    compiler = _Compiler(resolver=resolver)
    if root.name.uri == XSL_NS and root.name.local in ("stylesheet", "transform"):
        return compiler.compile_root(root)
    if root.get_attribute("version", uri=XSL_NS) is not None:
        return compiler.compile_simplified(root)
    raise XsltCompileError(
        "document element is not xsl:stylesheet (or a simplified stylesheet)"
    )


class _Compiler:
    """Single-use stylesheet compiler."""

    def __init__(self, resolver=None):
        self.stylesheet = Stylesheet()
        self.resolver = resolver
        self._site_counter = itertools.count()
        self._position_counter = itertools.count()
        self._include_stack = []
        self._precedence_counter = itertools.count()
        self._current_precedence = 0
        # name -> (precedence, binding), highest precedence wins
        self._global_candidates = {}

    # -- top level ----------------------------------------------------------

    def compile_root(self, root):
        stylesheet = self.stylesheet
        stylesheet.namespaces = self._scope_namespaces(root)
        self._compile_sheet(root)
        self._finalize_globals()
        stylesheet.finalize()
        return stylesheet

    def _compile_sheet(self, root):
        """One stylesheet level: resolve its imports first (each gets a
        lower import precedence, XSLT 1.0 §2.6.2), then its own content."""
        element_children = [
            child for child in root.children
            if child.kind == NodeKind.ELEMENT and child.name.uri == XSL_NS
        ]
        own = []
        for child in element_children:
            if child.name.local == "import":
                if own:
                    raise XsltCompileError(
                        "xsl:import must precede other declarations"
                    )
                self._handle_import(child)
            else:
                own.append(child)
        self._current_precedence = next(self._precedence_counter)
        self._compile_top_level(root)

    def _handle_import(self, element):
        href = self._require(element, "href")
        if self.resolver is None:
            raise XsltCompileError(
                "xsl:import requires a resolver (compile_stylesheet(...,"
                " resolver=...))"
            )
        if href in self._include_stack:
            raise XsltCompileError("circular xsl:import of %r" % href)
        imported = parse_document(self.resolver(href))
        root = imported.document_element
        if root is None or root.name.uri != XSL_NS or root.name.local not in (
            "stylesheet", "transform"
        ):
            raise XsltCompileError("imported %r is not an xsl:stylesheet" % href)
        for prefix, uri in self._scope_namespaces(root).items():
            self.stylesheet.namespaces.setdefault(prefix, uri)
        self._include_stack.append(href)
        try:
            self._compile_sheet(root)
        finally:
            self._include_stack.pop()

    def _finalize_globals(self):
        self.stylesheet.global_bindings = [
            binding for _, binding in self._global_candidates.values()
        ]

    def _compile_top_level(self, root):
        for child in root.children:
            if child.kind == NodeKind.TEXT:
                if child.value.strip():
                    raise XsltCompileError("text at stylesheet top level")
                continue
            if child.kind != NodeKind.ELEMENT:
                continue
            if child.name.uri != XSL_NS:
                continue  # top-level data elements are ignored
            if child.name.local == "import":
                continue  # handled by _compile_sheet
            handler = self._TOP_LEVEL.get(child.name.local)
            if handler is None:
                raise XsltCompileError(
                    "unsupported top-level element xsl:%s" % child.name.local
                )
            handler(self, child)

    def compile_simplified(self, root):
        """A literal result element with xsl:version acts as the sole
        template matching '/'."""
        stylesheet = self.stylesheet
        stylesheet.namespaces = self._scope_namespaces(root)
        body = self.compile_body_nodes([root])
        template = Template(
            match=compile_pattern("/"),
            name=None,
            mode=None,
            priority=None,
            params=[],
            body=body,
            position=next(self._position_counter),
            source=root,
        )
        self._register_template(template)
        stylesheet.finalize()
        return stylesheet

    def _top_template(self, element):
        match_text = element.get_attribute("match")
        name = element.get_attribute("name")
        if match_text is None and name is None:
            raise XsltCompileError("xsl:template needs match= or name=")
        mode = element.get_attribute("mode")
        if mode is not None and match_text is None:
            raise XsltCompileError("mode= requires match=")
        priority_text = element.get_attribute("priority")
        priority = float(priority_text) if priority_text is not None else None

        params, body_nodes = self._split_leading_params(element)
        body = self.compile_body_nodes(body_nodes)
        template = Template(
            match=compile_pattern(match_text) if match_text is not None else None,
            name=name,
            mode=mode,
            priority=priority,
            params=params,
            body=body,
            position=next(self._position_counter),
            source=element,
        )
        self._register_template(template)

    def _register_template(self, template):
        stylesheet = self.stylesheet
        template.precedence = self._current_precedence
        stylesheet.templates.append(template)
        if template.name is not None:
            existing = stylesheet.named_templates.get(template.name)
            if existing is not None:
                if existing.precedence == template.precedence:
                    raise XsltCompileError(
                        "duplicate named template %r" % template.name
                    )
                if existing.precedence < template.precedence:
                    stylesheet.named_templates[template.name] = template
            else:
                stylesheet.named_templates[template.name] = template
        if template.match is not None:
            rules = stylesheet.rules_by_mode.setdefault(template.mode, [])
            for alternative in template.match.alternatives:
                priority = (
                    template.priority
                    if template.priority is not None
                    else alternative.default_priority()
                )
                rules.append(
                    Rule(alternative, template, priority, template.position,
                         precedence=template.precedence)
                )

    def _top_variable(self, element):
        self._register_global(self._compile_binding(element, instr.VariableInstr))

    def _top_param(self, element):
        self._register_global(self._compile_binding(element, instr.ParamInstr))

    def _register_global(self, binding):
        existing = self._global_candidates.get(binding.name)
        if existing is not None and existing[0] >= self._current_precedence:
            return  # an equal/higher-precedence definition wins
        self._global_candidates[binding.name] = (
            self._current_precedence, binding
        )

    def _top_output(self, element):
        method = element.get_attribute("method")
        if method is not None:
            if method not in ("xml", "html", "text"):
                raise XsltCompileError("unsupported output method %r" % method)
            self.stylesheet.output_method = method
        indent = element.get_attribute("indent")
        self.stylesheet.output_indent = indent == "yes"

    def _top_key(self, element):
        name = self._require(element, "name")
        match = compile_pattern(self._require(element, "match"))
        use = compile_xpath(self._require(element, "use"))
        self.stylesheet.keys[name] = Key(name, match, use)

    def _top_strip_space(self, element):
        names = self._require(element, "elements").split()
        self.stylesheet.strip_space_names.update(names)

    def _top_preserve_space(self, element):
        names = self._require(element, "elements").split()
        self.stylesheet.preserve_space_names.update(names)

    def _top_include(self, element):
        href = self._require(element, "href")
        if self.resolver is None:
            raise XsltCompileError(
                "xsl:include requires a resolver (compile_stylesheet(...,"
                " resolver=...))"
            )
        if href in self._include_stack:
            raise XsltCompileError("circular xsl:include of %r" % href)
        markup = self.resolver(href)
        included = parse_document(markup)
        root = included.document_element
        if root is None or root.name.uri != XSL_NS or root.name.local not in (
            "stylesheet", "transform"
        ):
            raise XsltCompileError(
                "included %r is not an xsl:stylesheet" % href
            )
        # merge namespaces declared on the included root
        for prefix, uri in self._scope_namespaces(root).items():
            self.stylesheet.namespaces.setdefault(prefix, uri)
        for child in root.children:
            if (
                child.kind == NodeKind.ELEMENT
                and child.name.uri == XSL_NS
                and child.name.local == "import"
            ):
                raise XsltCompileError(
                    "xsl:import inside an included stylesheet is not"
                    " supported"
                )
        self._include_stack.append(href)
        try:
            self._compile_top_level(root)
        finally:
            self._include_stack.pop()

    def _top_unsupported(self, element):
        raise XsltCompileError(
            "xsl:%s is not supported by this processor" % element.name.local
        )

    def _top_ignored(self, element):
        return None

    _TOP_LEVEL = {
        "template": _top_template,
        "variable": _top_variable,
        "param": _top_param,
        "output": _top_output,
        "key": _top_key,
        "strip-space": _top_strip_space,
        "preserve-space": _top_preserve_space,
        "include": _top_include,
        "attribute-set": _top_unsupported,
        "decimal-format": _top_ignored,
        "namespace-alias": _top_unsupported,
    }

    # -- bodies -----------------------------------------------------------------

    def _split_leading_params(self, element):
        """Split <xsl:param> children (which must lead) from the body."""
        params = []
        body_nodes = []
        in_params = True
        for child in element.children:
            is_param = (
                child.kind == NodeKind.ELEMENT
                and child.name.uri == XSL_NS
                and child.name.local == "param"
            )
            if is_param:
                if not in_params:
                    raise XsltCompileError(
                        "xsl:param must precede other template content"
                    )
                params.append(self._compile_binding(child, instr.ParamInstr))
            else:
                if child.kind == NodeKind.ELEMENT or (
                    child.kind == NodeKind.TEXT and child.value.strip()
                ):
                    in_params = False
                body_nodes.append(child)
        return params, body_nodes

    def compile_body(self, element):
        return self.compile_body_nodes(element.children)

    def compile_body_nodes(self, nodes):
        compiled = []
        for node in nodes:
            instruction = self._compile_node(node)
            if instruction is not None:
                compiled.append(instruction)
        return compiled

    def _compile_node(self, node):
        kind = node.kind
        if kind == NodeKind.TEXT:
            if not node.value.strip():
                return None  # whitespace-only text in the stylesheet
            return self._stamp(instr.TextInstr(node.value))
        if kind != NodeKind.ELEMENT:
            return None  # stylesheet comments and PIs are dropped
        if node.name.uri == XSL_NS:
            handler = self._INSTRUCTIONS.get(node.name.local)
            if handler is None:
                raise XsltCompileError(
                    "unsupported instruction xsl:%s" % node.name.local
                )
            return self._stamp(handler(self, node))
        return self._stamp(self._compile_literal_element(node))

    def _stamp(self, instruction):
        instruction.site_id = next(self._site_counter)
        self.stylesheet.instruction_count += 1
        return instruction

    def _compile_literal_element(self, element):
        attributes = []
        for attribute in element.attributes:
            if attribute.name.uri == XSL_NS:
                continue  # xsl:use-attribute-sets etc. are not supported
            attributes.append(
                (
                    QName(
                        attribute.name.local,
                        attribute.name.uri,
                        attribute.name.prefix,
                    ),
                    compile_avt(attribute.value),
                )
            )
        namespaces = {
            prefix: uri
            for prefix, uri in element.namespaces.items()
            if uri != XSL_NS
        }
        name = QName(element.name.local, element.name.uri, element.name.prefix)
        return instr.LiteralElementInstr(
            name, attributes, namespaces, self.compile_body(element)
        )

    # -- instruction handlers ------------------------------------------------------

    def _i_apply_templates(self, element):
        select_text = element.get_attribute("select")
        select = compile_xpath(select_text) if select_text is not None else None
        mode = element.get_attribute("mode")
        sorts, with_params = self._sorts_and_params(element)
        return instr.ApplyTemplatesInstr(select, mode, sorts, with_params)

    def _i_call_template(self, element):
        name = self._require(element, "name")
        _, with_params = self._sorts_and_params(element)
        return instr.CallTemplateInstr(name, with_params)

    def _i_value_of(self, element):
        return instr.ValueOfInstr(compile_xpath(self._require(element, "select")))

    def _i_for_each(self, element):
        select = compile_xpath(self._require(element, "select"))
        sorts = []
        body_nodes = []
        for child in element.children:
            if (
                child.kind == NodeKind.ELEMENT
                and child.name.uri == XSL_NS
                and child.name.local == "sort"
            ):
                sorts.append(self._compile_sort(child))
            else:
                body_nodes.append(child)
        return instr.ForEachInstr(select, sorts, self.compile_body_nodes(body_nodes))

    def _i_if(self, element):
        test = compile_xpath(self._require(element, "test"))
        return instr.IfInstr(test, self.compile_body(element))

    def _i_choose(self, element):
        whens = []
        otherwise = []
        for child in element.children:
            if child.kind == NodeKind.TEXT and not child.value.strip():
                continue
            if child.kind != NodeKind.ELEMENT or child.name.uri != XSL_NS:
                raise XsltCompileError("xsl:choose allows only when/otherwise")
            if child.name.local == "when":
                test = compile_xpath(self._require(child, "test"))
                whens.append((test, self.compile_body(child)))
            elif child.name.local == "otherwise":
                otherwise = self.compile_body(child)
            else:
                raise XsltCompileError(
                    "unexpected xsl:%s inside xsl:choose" % child.name.local
                )
        if not whens:
            raise XsltCompileError("xsl:choose requires at least one xsl:when")
        return instr.ChooseInstr(whens, otherwise)

    def _i_text(self, element):
        value = "".join(
            child.value
            for child in element.children
            if child.kind == NodeKind.TEXT
        )
        return instr.TextInstr(value)

    def _i_variable(self, element):
        return self._compile_binding(element, instr.VariableInstr)

    def _i_param(self, element):
        raise XsltCompileError("xsl:param must precede other template content")

    def _i_copy(self, element):
        return instr.CopyInstr(self.compile_body(element))

    def _i_copy_of(self, element):
        return instr.CopyOfInstr(compile_xpath(self._require(element, "select")))

    def _i_element(self, element):
        name_avt = compile_avt(self._require(element, "name"))
        return instr.ElementInstr(name_avt, self.compile_body(element))

    def _i_attribute(self, element):
        name_avt = compile_avt(self._require(element, "name"))
        return instr.AttributeInstr(name_avt, self.compile_body(element))

    def _i_comment(self, element):
        return instr.CommentInstr(self.compile_body(element))

    def _i_pi(self, element):
        name_avt = compile_avt(self._require(element, "name"))
        return instr.PiInstr(name_avt, self.compile_body(element))

    def _i_number(self, element):
        level = element.get_attribute("level", default="single")
        if level not in ("single", "any"):
            raise XsltCompileError("unsupported xsl:number level %r" % level)
        count_text = element.get_attribute("count")
        from_text = element.get_attribute("from")
        value_text = element.get_attribute("value")
        format_text = element.get_attribute("format")
        return instr.NumberInstr(
            level=level,
            count=compile_pattern(count_text) if count_text else None,
            from_=compile_pattern(from_text) if from_text else None,
            value=compile_xpath(value_text) if value_text else None,
            format_avt=compile_avt(format_text) if format_text else None,
        )

    def _i_message(self, element):
        terminate = element.get_attribute("terminate") == "yes"
        return instr.MessageInstr(self.compile_body(element), terminate)

    def _i_apply_imports(self, element):
        return instr.ApplyImportsInstr()

    def _i_fallback(self, element):
        return instr.FallbackInstr(self.compile_body(element))

    def _i_sort_misplaced(self, element):
        raise XsltCompileError(
            "xsl:sort only allowed in apply-templates/for-each"
        )

    _INSTRUCTIONS = {
        "apply-templates": _i_apply_templates,
        "call-template": _i_call_template,
        "value-of": _i_value_of,
        "for-each": _i_for_each,
        "if": _i_if,
        "choose": _i_choose,
        "text": _i_text,
        "variable": _i_variable,
        "param": _i_param,
        "copy": _i_copy,
        "copy-of": _i_copy_of,
        "element": _i_element,
        "attribute": _i_attribute,
        "comment": _i_comment,
        "processing-instruction": _i_pi,
        "number": _i_number,
        "message": _i_message,
        "apply-imports": _i_apply_imports,
        "sort": _i_sort_misplaced,
        "fallback": _i_fallback,
    }

    # -- shared helpers --------------------------------------------------------------

    def _sorts_and_params(self, element):
        sorts = []
        with_params = []
        for child in element.children:
            if child.kind == NodeKind.TEXT and not child.value.strip():
                continue
            if child.kind != NodeKind.ELEMENT or child.name.uri != XSL_NS:
                raise XsltCompileError(
                    "only xsl:sort/xsl:with-param allowed here"
                )
            if child.name.local == "sort":
                sorts.append(self._compile_sort(child))
            elif child.name.local == "with-param":
                with_params.append(self._compile_with_param(child))
            else:
                raise XsltCompileError(
                    "unexpected xsl:%s child" % child.name.local
                )
        return sorts, with_params

    def _compile_sort(self, element):
        select_text = element.get_attribute("select", default=".")
        data_type = element.get_attribute("data-type", default="text")
        order = element.get_attribute("order", default="ascending")
        if data_type not in ("text", "number"):
            raise XsltCompileError("unsupported sort data-type %r" % data_type)
        if order not in ("ascending", "descending"):
            raise XsltCompileError("unsupported sort order %r" % order)
        return instr.SortSpec(compile_xpath(select_text), data_type, order)

    def _compile_with_param(self, element):
        name = self._require(element, "name")
        select_text = element.get_attribute("select")
        if select_text is not None:
            return instr.WithParam(name, select=compile_xpath(select_text))
        return instr.WithParam(name, body=self.compile_body(element))

    def _compile_binding(self, element, cls):
        name = self._require(element, "name")
        select_text = element.get_attribute("select")
        if select_text is not None:
            binding = cls(name, select=compile_xpath(select_text))
        else:
            binding = cls(name, body=self.compile_body(element))
        return self._stamp(binding)

    def _require(self, element, attribute):
        value = element.get_attribute(attribute)
        if value is None:
            raise XsltCompileError(
                "xsl:%s requires %s=" % (element.name.local, attribute)
            )
        return value

    @staticmethod
    def _scope_namespaces(root):
        namespaces = {
            prefix: uri
            for prefix, uri in root.namespaces.items()
            if uri != XSL_NS and prefix
        }
        return namespaces


#: local names of the instructions this processor implements
INSTRUCTION_NAMES = frozenset(_Compiler._INSTRUCTIONS)
