"""Tests for xsl:include with a resolver."""

import pytest

from repro.errors import XsltCompileError
from repro.xslt import compile_stylesheet, transform_to_string
from repro.xslt.processor import transform

XSL = 'xmlns:xsl="http://www.w3.org/1999/XSL/Transform"'


def sheet(body):
    return '<xsl:stylesheet version="1.0" %s>%s</xsl:stylesheet>' % (XSL, body)


LIBRARY = sheet(
    '<xsl:template match="b"><from-lib/></xsl:template>'
    '<xsl:template name="helper"><helped/></xsl:template>'
    '<xsl:variable name="shared" select="\'lib-value\'"/>'
)

MAIN = sheet(
    '<xsl:include href="lib.xsl"/>'
    '<xsl:template match="a"><xsl:apply-templates/>'
    '<xsl:call-template name="helper"/>'
    "<v><xsl:value-of select='$shared'/></v></xsl:template>"
)


def resolver(href):
    return {"lib.xsl": LIBRARY}[href]


class TestInclude:
    def test_included_templates_available(self):
        compiled = compile_stylesheet(MAIN, resolver=resolver)
        from repro.xmlmodel import parse_document, serialize_children

        result = transform(compiled, parse_document("<a><b/></a>"))
        assert serialize_children(result) == (
            "<from-lib/><helped/><v>lib-value</v>"
        )

    def test_include_without_resolver_rejected(self):
        with pytest.raises(XsltCompileError):
            compile_stylesheet(MAIN)

    def test_unknown_href(self):
        with pytest.raises(KeyError):
            compile_stylesheet(
                sheet('<xsl:include href="missing.xsl"/>'), resolver=resolver
            )

    def test_circular_include_detected(self):
        looping = sheet('<xsl:include href="self.xsl"/>')
        with pytest.raises(XsltCompileError):
            compile_stylesheet(looping, resolver=lambda href: looping)

    def test_nested_includes(self):
        inner = sheet('<xsl:template match="c"><deep/></xsl:template>')
        middle = sheet(
            '<xsl:include href="inner.xsl"/>'
            '<xsl:template match="b"><mid><xsl:apply-templates/></mid>'
            "</xsl:template>"
        )
        main = sheet(
            '<xsl:include href="middle.xsl"/>'
            '<xsl:template match="a"><xsl:apply-templates/></xsl:template>'
        )
        files = {"middle.xsl": middle, "inner.xsl": inner}
        compiled = compile_stylesheet(main, resolver=files.__getitem__)
        from repro.xmlmodel import parse_document, serialize_children

        result = transform(compiled, parse_document("<a><b><c/></b></a>"))
        assert serialize_children(result) == "<mid><deep/></mid>"

    def test_same_precedence_later_definition_wins(self):
        # xsl:include merges at equal precedence: document order decides.
        lib = sheet('<xsl:template match="x"><lib/></xsl:template>')
        main = sheet(
            '<xsl:include href="lib.xsl"/>'
            '<xsl:template match="x"><main/></xsl:template>'
        )
        compiled = compile_stylesheet(main, resolver=lambda _: lib)
        assert transform_to_string(compiled, "<x/>") == "<main/>"

    def test_included_stylesheet_rewrites(self):
        """Included templates flow through the rewrite like local ones."""
        from repro.core.partial_eval import partially_evaluate
        from repro.core.xquery_gen import generate_xquery
        from repro.schema import schema_from_dtd

        dtd = "<!ELEMENT a (b)><!ELEMENT b (#PCDATA)>"
        lib = sheet('<xsl:template match="b"><hit/></xsl:template>')
        main = sheet(
            '<xsl:include href="lib.xsl"/>'
            '<xsl:template match="a"><xsl:apply-templates select="b"/>'
            "</xsl:template>"
        )
        compiled = compile_stylesheet(main, resolver=lambda _: lib)
        partial = partially_evaluate(compiled, schema_from_dtd(dtd))
        module = generate_xquery(partial)
        from repro.xquery import xquery_to_text

        assert "<hit/>" in xquery_to_text(module)


class TestImport:
    def imported(self):
        return sheet(
            '<xsl:template match="x"><low/></xsl:template>'
            '<xsl:template match="y"><y-low/></xsl:template>'
            '<xsl:template name="t"><t-low/></xsl:template>'
            '<xsl:variable name="v" select="\'low\'"/>'
        )

    def test_importer_overrides_regardless_of_priority(self):
        main = sheet(
            '<xsl:import href="base.xsl"/>'
            # lower priority than the imported rule's default, but import
            # precedence trumps priority (XSLT 1.0 2.6.2)
            '<xsl:template match="x" priority="-10"><high/></xsl:template>'
        )
        compiled = compile_stylesheet(main, resolver=lambda _: self.imported())
        assert transform_to_string(compiled, "<x/>") == "<high/>"

    def test_imported_rule_used_when_no_override(self):
        main = sheet('<xsl:import href="base.xsl"/>')
        compiled = compile_stylesheet(main, resolver=lambda _: self.imported())
        assert transform_to_string(compiled, "<y/>") == "<y-low/>"

    def test_named_template_override(self):
        main = sheet(
            '<xsl:import href="base.xsl"/>'
            '<xsl:template name="t"><t-high/></xsl:template>'
            '<xsl:template match="x"><xsl:call-template name="t"/></xsl:template>'
        )
        compiled = compile_stylesheet(main, resolver=lambda _: self.imported())
        assert transform_to_string(compiled, "<x/>") == "<t-high/>"

    def test_global_variable_override(self):
        main = sheet(
            '<xsl:import href="base.xsl"/>'
            '<xsl:variable name="v" select="\'high\'"/>'
            '<xsl:template match="x"><xsl:value-of select="$v"/></xsl:template>'
        )
        compiled = compile_stylesheet(main, resolver=lambda _: self.imported())
        assert transform_to_string(compiled, "<x/>") == "high"

    def test_import_must_precede_other_declarations(self):
        main = sheet(
            '<xsl:template match="x"><a/></xsl:template>'
            '<xsl:import href="base.xsl"/>'
        )
        with pytest.raises(XsltCompileError):
            compile_stylesheet(main, resolver=lambda _: self.imported())

    def test_import_without_resolver_rejected(self):
        main = sheet('<xsl:import href="base.xsl"/>')
        with pytest.raises(XsltCompileError):
            compile_stylesheet(main)

    def test_circular_import_detected(self):
        looping = sheet('<xsl:import href="self.xsl"/>')
        with pytest.raises(XsltCompileError):
            compile_stylesheet(looping, resolver=lambda _: looping)

    def test_transitive_import_precedence(self):
        deepest = sheet('<xsl:template match="x"><deepest/></xsl:template>')
        middle = sheet(
            '<xsl:import href="deep.xsl"/>'
            '<xsl:template match="x"><middle/></xsl:template>'
        )
        main = sheet('<xsl:import href="mid.xsl"/>')
        files = {"mid.xsl": middle, "deep.xsl": deepest}
        compiled = compile_stylesheet(main, resolver=files.__getitem__)
        assert transform_to_string(compiled, "<x/>") == "<middle/>"

    def test_later_sibling_import_wins(self):
        first = sheet('<xsl:template match="x"><first/></xsl:template>')
        second = sheet('<xsl:template match="x"><second/></xsl:template>')
        main = sheet(
            '<xsl:import href="one.xsl"/><xsl:import href="two.xsl"/>'
        )
        files = {"one.xsl": first, "two.xsl": second}
        compiled = compile_stylesheet(main, resolver=files.__getitem__)
        assert transform_to_string(compiled, "<x/>") == "<second/>"

    def test_import_inside_include_rejected(self):
        lib = sheet('<xsl:import href="x.xsl"/>')
        main = sheet('<xsl:include href="lib.xsl"/>')
        with pytest.raises(XsltCompileError):
            compile_stylesheet(main, resolver=lambda _: lib)

    def test_imported_templates_rewrite(self):
        from repro.core.partial_eval import partially_evaluate
        from repro.core.xquery_gen import generate_xquery
        from repro.schema import schema_from_dtd
        from repro.xquery import xquery_to_text

        dtd = "<!ELEMENT a (b)><!ELEMENT b (#PCDATA)>"
        base = sheet('<xsl:template match="b"><imported-hit/></xsl:template>')
        main = sheet(
            '<xsl:import href="base.xsl"/>'
            '<xsl:template match="a"><xsl:apply-templates select="b"/>'
            "</xsl:template>"
        )
        compiled = compile_stylesheet(main, resolver=lambda _: base)
        partial = partially_evaluate(compiled, schema_from_dtd(dtd))
        module = generate_xquery(partial)
        assert "<imported-hit/>" in xquery_to_text(module)


class TestApplyImports:
    def test_apply_imports_runs_lower_precedence_rule(self):
        base = sheet(
            '<xsl:template match="x"><base><xsl:value-of select="."/></base>'
            "</xsl:template>"
        )
        main = sheet(
            '<xsl:import href="base.xsl"/>'
            '<xsl:template match="x"><wrap><xsl:apply-imports/></wrap>'
            "</xsl:template>"
        )
        compiled = compile_stylesheet(main, resolver=lambda _: base)
        assert transform_to_string(compiled, "<x>v</x>") == (
            "<wrap><base>v</base></wrap>"
        )

    def test_apply_imports_without_lower_rule_uses_builtin(self):
        main = sheet(
            '<xsl:template match="x"><w><xsl:apply-imports/></w></xsl:template>'
        )
        compiled = compile_stylesheet(main)
        # built-in rule copies text content
        assert transform_to_string(compiled, "<x>t</x>") == "<w>t</w>"

    def test_apply_imports_two_levels(self):
        deepest = sheet(
            '<xsl:template match="x"><deep/></xsl:template>'
        )
        middle = sheet(
            '<xsl:import href="deep.xsl"/>'
            '<xsl:template match="x"><mid><xsl:apply-imports/></mid>'
            "</xsl:template>"
        )
        main = sheet(
            '<xsl:import href="mid.xsl"/>'
            '<xsl:template match="x"><top><xsl:apply-imports/></top>'
            "</xsl:template>"
        )
        files = {"mid.xsl": middle, "deep.xsl": deepest}
        compiled = compile_stylesheet(main, resolver=files.__getitem__)
        assert transform_to_string(compiled, "<x/>") == (
            "<top><mid><deep/></mid></top>"
        )

    def test_apply_imports_respects_mode(self):
        base = sheet(
            '<xsl:template match="x" mode="m"><base-m/></xsl:template>'
        )
        main = sheet(
            '<xsl:import href="base.xsl"/>'
            '<xsl:template match="r"><xsl:apply-templates mode="m"/>'
            "</xsl:template>"
            '<xsl:template match="x" mode="m"><main-m>'
            "<xsl:apply-imports/></main-m></xsl:template>"
        )
        compiled = compile_stylesheet(main, resolver=lambda _: base)
        assert transform_to_string(compiled, "<r><x/></r>") == (
            "<main-m><base-m/></main-m>"
        )

    CALLED_BASE = sheet('<xsl:template match="a" mode="m"><imp/></xsl:template>')
    CALLED_MAIN = sheet(
        '<xsl:import href="base.xsl"/>'
        '<xsl:template match="/"><xsl:apply-templates select="a" mode="m"/>'
        "</xsl:template>"
        '<xsl:template match="a" mode="m"><main>'
        '<xsl:call-template name="n"/></main></xsl:template>'
        '<xsl:template name="n"><xsl:apply-imports/></xsl:template>'
    )

    def test_call_template_keeps_the_current_template_rule(self):
        # XSLT 1.0 §5.6: xsl:call-template does not change the current
        # template rule, so apply-imports inside the called template still
        # matches in mode "m" below the *calling* rule's precedence —
        # exactly as when it is written inline.
        compiled = compile_stylesheet(
            self.CALLED_MAIN, resolver=lambda _: self.CALLED_BASE)
        assert transform_to_string(compiled, "<a>t</a>") == (
            "<main><imp/></main>"
        )

    def test_explore_dispatch_keeps_the_mode_for_apply_imports(self):
        from repro.xmlmodel import parse_document
        from repro.xslt import TraceRecorder, XsltVM

        compiled = compile_stylesheet(
            self.CALLED_MAIN, resolver=lambda _: self.CALLED_BASE)
        trace = TraceRecorder()
        XsltVM(compiled, trace=trace, explore=True).transform_document(
            parse_document("<a>t</a>"))
        imported = [event for event in trace.apply_events
                    if getattr(event.resolved, "precedence", None) == 0]
        assert [(event.mode, event.resolved.label()) for event in imported] \
            == [("m", 'match="a" mode="m"')]

    def test_apply_imports_stylesheet_falls_back_in_rewrite(self):
        from repro.core import xml_transform
        from repro.rdb import Database, INT
        from repro.rdb.storage import ObjectRelationalStorage
        from repro.schema import schema_from_dtd
        from repro.xmlmodel import parse_document

        base = sheet('<xsl:template match="b"><base/></xsl:template>')
        main = sheet(
            '<xsl:import href="base.xsl"/>'
            '<xsl:template match="b"><m><xsl:apply-imports/></m></xsl:template>'
            '<xsl:template match="a"><xsl:apply-templates select="b"/>'
            "</xsl:template>"
        )
        compiled = compile_stylesheet(main, resolver=lambda _: base)
        db = Database()
        storage = ObjectRelationalStorage(
            db, schema_from_dtd("<!ELEMENT a (b)><!ELEMENT b (#PCDATA)>"),
            "ai",
        )
        storage.load(parse_document("<a><b>t</b></a>"))
        result = xml_transform(db, storage, compiled)
        assert result.strategy == "functional"
        assert result.serialized_rows() == ["<m><base/></m>"]


class TestFallbackElement:
    def test_fallback_is_inert(self):
        main = sheet(
            '<xsl:template match="/"><out><xsl:fallback><never/>'
            "</xsl:fallback></out></xsl:template>"
        )
        assert transform_to_string(compile_stylesheet(main), "<a/>") == "<out/>"
