"""Tests for the richer instruction set: control flow, variables, copy,
sorting, numbering, keys."""

import pytest

from repro.errors import XsltCompileError, XsltRuntimeError
from repro.xmlmodel import parse_document
from repro.xslt import compile_stylesheet, transform, transform_to_string
from repro.xslt.vm import format_decimal

XSL = 'xmlns:xsl="http://www.w3.org/1999/XSL/Transform"'


def sheet(body):
    return '<xsl:stylesheet version="1.0" %s>%s</xsl:stylesheet>' % (XSL, body)


def run(body, source, **kwargs):
    return transform_to_string(sheet(body), source, **kwargs)


class TestForEach:
    def test_iterates_in_order(self):
        body = (
            '<xsl:template match="a">'
            '<xsl:for-each select="b"><i><xsl:value-of select="."/></i></xsl:for-each>'
            "</xsl:template>"
        )
        assert run(body, "<a><b>1</b><b>2</b></a>") == "<i>1</i><i>2</i>"

    def test_position_inside_for_each(self):
        body = (
            '<xsl:template match="a">'
            '<xsl:for-each select="b">'
            '<xsl:value-of select="position()"/>:<xsl:value-of select="."/>;'
            "</xsl:for-each></xsl:template>"
        )
        assert run(body, "<a><b>x</b><b>y</b></a>") == "1:x;2:y;"

    def test_nested_for_each(self):
        body = (
            '<xsl:template match="t">'
            '<xsl:for-each select="r">'
            '<xsl:for-each select="c"><xsl:value-of select="."/></xsl:for-each>|'
            "</xsl:for-each></xsl:template>"
        )
        assert run(body, "<t><r><c>a</c><c>b</c></r><r><c>c</c></r></t>") == "ab|c|"


class TestConditionals:
    def test_if_true(self):
        body = (
            '<xsl:template match="a">'
            '<xsl:if test="@x"><yes/></xsl:if></xsl:template>'
        )
        assert run(body, '<a x="1"/>') == "<yes/>"
        assert run(body, "<a/>") == ""

    def test_choose_first_matching_when(self):
        body = (
            '<xsl:template match="n">'
            "<xsl:choose>"
            '<xsl:when test=". &gt; 10">big</xsl:when>'
            '<xsl:when test=". &gt; 5">medium</xsl:when>'
            "<xsl:otherwise>small</xsl:otherwise>"
            "</xsl:choose></xsl:template>"
        )
        assert run(body, "<n>20</n>") == "big"
        assert run(body, "<n>7</n>") == "medium"
        assert run(body, "<n>1</n>") == "small"

    def test_choose_without_otherwise(self):
        body = (
            '<xsl:template match="n">'
            '<xsl:choose><xsl:when test="false()">x</xsl:when></xsl:choose>'
            "</xsl:template>"
        )
        assert run(body, "<n/>") == ""

    def test_choose_requires_when(self):
        with pytest.raises(XsltCompileError):
            compile_stylesheet(
                sheet('<xsl:template match="/"><xsl:choose/></xsl:template>')
            )


class TestVariablesAndParams:
    def test_variable_select(self):
        body = (
            '<xsl:template match="a">'
            '<xsl:variable name="v" select="count(b)"/>'
            '<xsl:value-of select="$v * 2"/></xsl:template>'
        )
        assert run(body, "<a><b/><b/></a>") == "4"

    def test_variable_content_is_fragment(self):
        body = (
            '<xsl:template match="/">'
            '<xsl:variable name="v"><x>frag</x></xsl:variable>'
            '<xsl:value-of select="$v"/>|<xsl:copy-of select="$v"/>'
            "</xsl:template>"
        )
        assert run(body, "<a/>") == "frag|<x>frag</x>"

    def test_variable_shadowing_in_scope(self):
        body = (
            '<xsl:variable name="v" select="\'global\'"/>'
            '<xsl:template match="/">'
            '<xsl:value-of select="$v"/>,'
            '<xsl:variable name="v" select="\'local\'"/>'
            '<xsl:value-of select="$v"/>'
            "</xsl:template>"
        )
        assert run(body, "<a/>") == "global,local"

    def test_global_variable_forward_reference(self):
        body = (
            '<xsl:variable name="a" select="$b + 1"/>'
            '<xsl:variable name="b" select="2"/>'
            '<xsl:template match="/"><xsl:value-of select="$a"/></xsl:template>'
        )
        assert run(body, "<x/>") == "3"

    def test_template_param_default_and_with_param(self):
        body = (
            '<xsl:template match="/">'
            '<xsl:call-template name="t"/>'
            '<xsl:call-template name="t">'
            '<xsl:with-param name="p" select="\'given\'"/>'
            "</xsl:call-template></xsl:template>"
            '<xsl:template name="t"><xsl:param name="p" select="\'default\'"/>'
            "[<xsl:value-of select='$p'/>]</xsl:template>"
        )
        assert run(body, "<a/>") == "[default][given]"

    def test_with_param_through_apply_templates(self):
        body = (
            '<xsl:template match="a">'
            '<xsl:apply-templates select="b">'
            '<xsl:with-param name="p" select="\'v\'"/>'
            "</xsl:apply-templates></xsl:template>"
            '<xsl:template match="b"><xsl:param name="p"/>'
            "<xsl:value-of select='$p'/></xsl:template>"
        )
        assert run(body, "<a><b/></a>") == "v"

    def test_global_param_override(self):
        body = (
            '<xsl:param name="p" select="\'default\'"/>'
            '<xsl:template match="/"><xsl:value-of select="$p"/></xsl:template>'
        )
        assert run(body, "<a/>") == "default"
        assert run(body, "<a/>", params={"p": "override"}) == "override"


class TestCopy:
    def test_copy_of_deep(self):
        body = (
            '<xsl:template match="/"><xsl:copy-of select="//b"/></xsl:template>'
        )
        assert run(body, '<a><b k="1"><c/>t</b></a>') == '<b k="1"><c/>t</b>'

    def test_copy_shallow_element(self):
        body = (
            '<xsl:template match="b"><xsl:copy><inner/></xsl:copy></xsl:template>'
        )
        assert run(body, '<b k="1">old</b>') == "<b><inner/></b>"

    def test_identity_transform(self):
        body = (
            '<xsl:template match="@* | node()">'
            '<xsl:copy><xsl:apply-templates select="@* | node()"/></xsl:copy>'
            "</xsl:template>"
        )
        source = '<a k="1"><b>text<c x="y"/></b><!--keep--></a>'
        assert run(body, source) == source

    def test_copy_of_string(self):
        body = '<xsl:template match="/"><xsl:copy-of select="\'s\'"/></xsl:template>'
        assert run(body, "<a/>") == "s"


class TestComputedConstructors:
    def test_element_with_avt_name(self):
        body = (
            '<xsl:template match="a">'
            '<xsl:element name="{@n}"><x/></xsl:element></xsl:template>'
        )
        assert run(body, '<a n="made"/>') == "<made><x/></made>"

    def test_attribute_instruction(self):
        body = (
            '<xsl:template match="a"><e>'
            '<xsl:attribute name="k">v<xsl:value-of select="@n"/></xsl:attribute>'
            "</e></xsl:template>"
        )
        assert run(body, '<a n="1"/>') == '<e k="v1"/>'

    def test_comment_instruction(self):
        body = '<xsl:template match="/"><xsl:comment>note</xsl:comment></xsl:template>'
        assert run(body, "<a/>") == "<!--note-->"

    def test_pi_instruction(self):
        body = (
            '<xsl:template match="/">'
            '<xsl:processing-instruction name="t">data</xsl:processing-instruction>'
            "</xsl:template>"
        )
        assert run(body, "<a/>") == "<?t data?>"

    @pytest.mark.parametrize("content, text, value", [
        ("a--b-", "<!--a- -b- -->", "a- -b- "),
        ("-", "<!--- -->", "- "),
        ("x-y", "<!--x-y-->", "x-y"),
    ])
    def test_comment_output_is_well_formed(self, content, text, value):
        """XSLT 1.0 §7.4's recovery: a space after each ``-`` followed by
        ``-`` or ending the comment, so the output parses back."""
        body = ('<xsl:template match="/"><r><xsl:comment>%s</xsl:comment>'
                "</r></xsl:template>" % content)
        out = run(body, "<a/>")
        assert out == "<r>%s</r>" % text
        assert parse_document(out).document_element.children[0].value \
            == value

    def test_pi_output_is_well_formed(self):
        """XSLT 1.0 §7.3's recovery: a space between ``?`` and ``>``."""
        body = (
            '<xsl:template match="/"><r>'
            '<xsl:processing-instruction name="p">x?&gt;y?</xsl:processing-instruction>'
            "</r></xsl:template>"
        )
        out = run(body, "<a/>")
        assert out == "<r><?p x? >y??></r>"
        (pi,) = parse_document(out).document_element.children
        assert (pi.target, pi.value) == ("p", "x? >y?")


class TestSorting:
    SOURCE = (
        "<l>"
        "<i><n>banana</n><v>2</v></i>"
        "<i><n>apple</n><v>10</v></i>"
        "<i><n>cherry</n><v>1</v></i>"
        "</l>"
    )

    def test_text_sort(self):
        body = (
            '<xsl:template match="l">'
            '<xsl:for-each select="i"><xsl:sort select="n"/>'
            '<xsl:value-of select="n"/>,</xsl:for-each></xsl:template>'
        )
        assert run(body, self.SOURCE) == "apple,banana,cherry,"

    def test_numeric_sort(self):
        body = (
            '<xsl:template match="l">'
            '<xsl:for-each select="i"><xsl:sort select="v" data-type="number"/>'
            '<xsl:value-of select="v"/>,</xsl:for-each></xsl:template>'
        )
        assert run(body, self.SOURCE) == "1,2,10,"

    def test_text_sort_of_numbers_is_lexicographic(self):
        body = (
            '<xsl:template match="l">'
            '<xsl:for-each select="i"><xsl:sort select="v"/>'
            '<xsl:value-of select="v"/>,</xsl:for-each></xsl:template>'
        )
        assert run(body, self.SOURCE) == "1,10,2,"

    def test_descending(self):
        body = (
            '<xsl:template match="l">'
            '<xsl:for-each select="i">'
            '<xsl:sort select="v" data-type="number" order="descending"/>'
            '<xsl:value-of select="v"/>,</xsl:for-each></xsl:template>'
        )
        assert run(body, self.SOURCE) == "10,2,1,"

    def test_sort_in_apply_templates(self):
        body = (
            '<xsl:template match="l">'
            '<xsl:apply-templates select="i"><xsl:sort select="n"/>'
            "</xsl:apply-templates></xsl:template>"
            '<xsl:template match="i"><xsl:value-of select="n"/>;</xsl:template>'
        )
        assert run(body, self.SOURCE) == "apple;banana;cherry;"

    def test_secondary_sort_key(self):
        source = "<l><i><a>x</a><b>2</b></i><i><a>x</a><b>1</b></i></l>"
        body = (
            '<xsl:template match="l">'
            '<xsl:for-each select="i"><xsl:sort select="a"/><xsl:sort select="b"/>'
            '<xsl:value-of select="b"/>,</xsl:for-each></xsl:template>'
        )
        assert run(body, source) == "1,2,"


class TestNumber:
    def test_level_single(self):
        body = (
            '<xsl:template match="list"><xsl:apply-templates select="item"/></xsl:template>'
            '<xsl:template match="item"><xsl:number/>.<xsl:value-of select="."/>'
            "<xsl:text> </xsl:text></xsl:template>"
        )
        assert run(body, "<list><item>a</item><item>b</item></list>") == "1.a 2.b "

    def test_format_alpha(self):
        body = (
            '<xsl:template match="item"><xsl:number format="a"/>,</xsl:template>'
            '<xsl:template match="list"><xsl:apply-templates select="item"/></xsl:template>'
        )
        assert run(body, "<list><item/><item/><item/></list>") == "a,b,c,"

    def test_format_roman(self):
        body = '<xsl:template match="i"><xsl:number value="4" format="I"/></xsl:template>'
        assert run(body, "<i/>") == "IV"

    def test_value_attribute(self):
        body = '<xsl:template match="/"><xsl:number value="42"/></xsl:template>'
        assert run(body, "<a/>") == "42"

    def test_level_any(self):
        body = (
            '<xsl:template match="/">'
            '<xsl:for-each select="//x"><xsl:number level="any"/>;</xsl:for-each>'
            "</xsl:template>"
        )
        assert run(body, "<a><x/><b><x/></b><x/></a>") == "1;2;3;"


class TestKeys:
    def test_key_lookup(self):
        body = (
            '<xsl:key name="by-id" match="item" use="@id"/>'
            '<xsl:template match="/">'
            "<xsl:value-of select=\"key('by-id', 'b')\"/>"
            "</xsl:template>"
        )
        source = '<l><item id="a">A</item><item id="b">B</item></l>'
        assert run(body, source) == "B"

    def test_key_multiple_hits(self):
        body = (
            '<xsl:key name="k" match="item" use="@g"/>'
            '<xsl:template match="/">'
            "<xsl:for-each select=\"key('k', 'x')\">"
            '<xsl:value-of select="."/>,</xsl:for-each></xsl:template>'
        )
        source = '<l><item g="x">1</item><item g="y">2</item><item g="x">3</item></l>'
        assert run(body, source) == "1,3,"

    def test_unknown_key_errors(self):
        body = '<xsl:template match="/"><xsl:value-of select="key(\'no\', 1)"/></xsl:template>'
        with pytest.raises(XsltRuntimeError):
            run(body, "<a/>")


class TestFunctionsInXslt:
    def test_current_in_predicate(self):
        body = (
            '<xsl:template match="o">'
            '<xsl:for-each select="emp">'
            '<xsl:value-of select="count(//emp[sal = current()/sal])"/>,'
            "</xsl:for-each></xsl:template>"
        )
        source = "<o><emp><sal>1</sal></emp><emp><sal>1</sal></emp></o>"
        assert run(body, source) == "2,2,"

    def test_generate_id_is_stable_and_distinct(self):
        body = (
            '<xsl:template match="a">'
            '<xsl:value-of select="generate-id(b[1]) = generate-id(b[1])"/>,'
            '<xsl:value-of select="generate-id(b[1]) = generate-id(b[2])"/>'
            "</xsl:template>"
        )
        assert run(body, "<a><b/><b/></a>") == "true,false"

    def test_system_property(self):
        body = (
            "<xsl:template match='/'>"
            "<xsl:value-of select=\"system-property('xsl:version')\"/>"
            "</xsl:template>"
        )
        assert run(body, "<a/>") == "1.0"

    def test_format_number(self):
        body = (
            "<xsl:template match='/'>"
            "<xsl:value-of select=\"format-number(1234.5, '#,##0.00')\"/>"
            "</xsl:template>"
        )
        assert run(body, "<a/>") == "1,234.50"

    def test_document_unsupported(self):
        body = "<xsl:template match='/'><xsl:value-of select=\"document('x')\"/></xsl:template>"
        with pytest.raises(XsltRuntimeError):
            run(body, "<a/>")


class TestFormatDecimal:
    @pytest.mark.parametrize(
        "value, picture, expected",
        [
            (1234.5, "#,##0.00", "1,234.50"),
            (0.5, "0.0", "0.5"),
            (42.0, "#", "42"),
            (-3.25, "0.00", "-3.25"),
            (1234567.0, "#,###", "1,234,567"),
            (3.0, "00", "03"),
            (2.5, "0.###", "2.5"),
            (float("nan"), "0", "NaN"),
        ],
    )
    def test_pictures(self, value, picture, expected):
        assert format_decimal(value, picture) == expected


class TestStripSpace:
    def test_strip_space_all(self):
        body = (
            '<xsl:strip-space elements="*"/>'
            '<xsl:template match="/"><xsl:copy-of select="."/></xsl:template>'
        )
        assert run(body, "<a>\n  <b>x</b>\n</a>") == "<a><b>x</b></a>"

    def test_preserve_space_overrides(self):
        body = (
            '<xsl:strip-space elements="*"/>'
            '<xsl:preserve-space elements="keep"/>'
            '<xsl:template match="/"><xsl:copy-of select="."/></xsl:template>'
        )
        assert run(body, "<a> <keep> x </keep> </a>") == "<a><keep> x </keep></a>"

    def test_original_document_not_mutated(self):
        from repro.xmlmodel import parse_document

        document = parse_document("<a>\n<b/></a>")
        body = (
            '<xsl:strip-space elements="*"/>'
            '<xsl:template match="/"><xsl:copy-of select="."/></xsl:template>'
        )
        transform(sheet(body), document)
        assert document.document_element.children[0].kind == "text"


class TestMessages:
    def test_message_collected(self):
        from repro.xslt import XsltVM, compile_stylesheet
        from repro.xmlmodel import parse_document

        compiled = compile_stylesheet(
            sheet(
                '<xsl:template match="/">'
                "<xsl:message>hello</xsl:message><out/></xsl:template>"
            )
        )
        vm = XsltVM(compiled)
        vm.transform_document(parse_document("<a/>"))
        assert vm.messages == ["hello"]

    def test_message_terminate(self):
        body = (
            '<xsl:template match="/">'
            '<xsl:message terminate="yes">stop</xsl:message></xsl:template>'
        )
        with pytest.raises(XsltRuntimeError):
            run(body, "<a/>")
