"""Behavioural tests for XPath evaluation: axes, predicates, operators."""

import math

import pytest

from repro.errors import XPathEvaluationError, XPathSyntaxError, XPathTypeError
from repro.xmlmodel import parse_document
from repro.xpath import XPathContext, evaluate_xpath
from repro.xpath.parser import compile_xpath, parse_xpath

DOC = parse_document(
    "<dept deptno=\"10\">"
    "<dname>ACCOUNTING</dname>"
    "<loc>NEW YORK</loc>"
    "<employees>"
    "<emp grade=\"a\"><empno>7782</empno><ename>CLARK</ename><sal>2450</sal></emp>"
    "<emp grade=\"b\"><empno>7934</empno><ename>MILLER</ename><sal>1300</sal></emp>"
    "<emp grade=\"a\"><empno>7954</empno><ename>SMITH</ename><sal>4900</sal></emp>"
    "</employees>"
    "</dept>"
)


def names(value):
    return [node.name.local for node in value]


def strings(value):
    return [node.string_value() for node in value]


def ev(expr, node=None):
    return evaluate_xpath(expr, node if node is not None else DOC)


class TestLocationPaths:
    def test_absolute_child_path(self):
        assert strings(ev("/dept/dname")) == ["ACCOUNTING"]

    def test_relative_path_from_element(self):
        dept = DOC.document_element
        assert strings(ev("employees/emp/ename", dept)) == [
            "CLARK", "MILLER", "SMITH",
        ]

    def test_descendant_or_self_abbreviation(self):
        assert strings(ev("//sal")) == ["2450", "1300", "4900"]

    def test_descendant_in_middle(self):
        assert strings(ev("/dept//ename")) == ["CLARK", "MILLER", "SMITH"]

    def test_wildcard(self):
        assert names(ev("/dept/*")) == ["dname", "loc", "employees"]

    def test_attribute_axis(self):
        assert ev("/dept/@deptno")[0].value == "10"

    def test_attribute_abbreviation_in_predicate(self):
        assert strings(ev("//emp[@grade = 'a']/ename")) == ["CLARK", "SMITH"]

    def test_parent_abbreviation(self):
        emp = ev("//emp[1]")[0]
        assert names(ev("../..", emp)) == ["dept"]

    def test_self_abbreviation(self):
        dept = DOC.document_element
        assert ev(".", dept) == [dept]

    def test_root_only(self):
        assert ev("/") == [DOC]

    def test_result_in_document_order_and_deduped(self):
        result = ev("//emp/ename | //emp[1]/ename | //ename")
        assert strings(result) == ["CLARK", "MILLER", "SMITH"]

    def test_path_from_filter_expr(self):
        result = ev("(//employees)[1]/emp[1]/empno")
        assert strings(result) == ["7782"]


class TestAxes:
    def test_ancestor(self):
        empno = ev("//empno[1]")[0]
        assert names(ev("ancestor::*", empno)) == ["dept", "employees", "emp"]

    def test_ancestor_or_self(self):
        empno = ev("//empno[1]")[0]
        assert names(ev("ancestor-or-self::*", empno)) == [
            "dept", "employees", "emp", "empno",
        ]

    def test_following_sibling(self):
        assert names(ev("/dept/dname/following-sibling::*")) == [
            "loc", "employees",
        ]

    def test_preceding_sibling(self):
        assert names(ev("/dept/employees/preceding-sibling::*")) == [
            "dname", "loc",
        ]

    def test_following(self):
        first_sal = ev("//sal[1]")[0]
        assert "MILLER" in strings(ev("following::ename", first_sal))

    def test_preceding(self):
        last_emp = ev("//emp[3]", DOC)[0]
        result = ev("preceding::sal", last_emp)
        assert strings(result) == ["2450", "1300"]

    def test_preceding_excludes_ancestors(self):
        empno = ev("//emp[2]/empno")[0]
        assert "employees" not in names(ev("preceding::*", empno))

    def test_descendant_axis_explicit(self):
        assert len(ev("descendant::emp")) == 3

    def test_self_axis_with_name_test(self):
        emp = ev("//emp[1]")[0]
        assert ev("self::emp", emp) == [emp]
        assert ev("self::dept", emp) == []

    def test_parent_axis_named(self):
        sal = ev("//sal[1]")[0]
        assert names(ev("parent::emp", sal)) == ["emp"]


class TestPredicates:
    def test_numeric_predicate(self):
        assert strings(ev("//emp[2]/ename")) == ["MILLER"]

    def test_last_function(self):
        assert strings(ev("//emp[last()]/ename")) == ["SMITH"]

    def test_position_function(self):
        assert strings(ev("//emp[position() > 1]/ename")) == ["MILLER", "SMITH"]

    def test_value_predicate_paper_example(self):
        # The paper's canonical predicate: emp[sal > 2000]
        assert strings(ev("//emp[sal > 2000]/ename")) == ["CLARK", "SMITH"]

    def test_chained_predicates_reindex(self):
        # First filter by salary, then take the first of the survivors.
        assert strings(ev("//emp[sal > 2000][1]/ename")) == ["CLARK"]

    def test_predicate_on_reverse_axis_counts_reverse(self):
        last_emp = ev("//emp[3]")[0]
        result = ev("preceding-sibling::emp[1]/ename", last_emp)
        assert strings(result) == ["MILLER"]

    def test_existence_predicate(self):
        assert len(ev("//emp[empno]")) == 3
        assert ev("//emp[missing]") == []

    def test_predicate_with_attribute(self):
        assert strings(ev("//emp[@grade='b']/empno")) == ["7934"]


class TestKindTests:
    def test_text_nodes(self):
        assert strings(ev("/dept/dname/text()")) == ["ACCOUNTING"]

    def test_node_test_selects_all_children(self):
        assert len(ev("/dept/node()")) == 3

    def test_comment_test(self):
        doc = parse_document("<a><!--x--><b/></a>")
        result = evaluate_xpath("/a/comment()", doc)
        assert len(result) == 1

    def test_pi_test_with_target(self):
        doc = parse_document("<a><?one x?><?two y?></a>")
        assert len(evaluate_xpath("/a/processing-instruction()", doc)) == 2
        result = evaluate_xpath('/a/processing-instruction("two")', doc)
        assert len(result) == 1
        assert result[0].target == "two"


class TestOperators:
    @pytest.mark.parametrize(
        "expr, expected",
        [
            ("1 + 2", 3.0),
            ("10 - 4", 6.0),
            ("3 * 4", 12.0),
            ("10 div 4", 2.5),
            ("10 mod 3", 1.0),
            ("-5 mod 2", -1.0),
            ("2 + 3 * 4", 14.0),
            ("(2 + 3) * 4", 20.0),
            ("- 3", -3.0),
            ("--3", 3.0),
        ],
    )
    def test_arithmetic(self, expr, expected):
        assert ev(expr) == expected

    def test_div_by_zero_is_infinity(self):
        assert ev("1 div 0") == math.inf
        assert ev("-1 div 0") == -math.inf

    def test_zero_div_zero_is_nan(self):
        assert math.isnan(ev("0 div 0"))

    @pytest.mark.parametrize(
        "expr, expected",
        [
            ("1 = 1", True),
            ("1 = 2", False),
            ("1 != 2", True),
            ("'a' = 'a'", True),
            ("1 < 2", True),
            ("2 <= 2", True),
            ("3 > 2 and 1 < 2", True),
            ("false() or true()", True),
            ("'1' = 1", True),
            ("true() = 1", True),
        ],
    )
    def test_comparisons(self, expr, expected):
        assert ev(expr) is expected

    @pytest.mark.parametrize(
        "expr, expected",
        [
            # IEEE 754 / XPath 1.0 §3.4: against NaN only != holds, and
            # it holds whichever way the NaN was reached
            ("//ename != 10", True),
            ("string(//ename) != 10", True),
            ("'abc' != 10", True),
            ("10 != //ename", True),
            ("number('abc') != number('abc')", True),
            ("//ename = 10", False),
            ("//ename < 10", False),
            ("//ename >= 10", False),
            ("(0 div 0) = (0 div 0)", False),
            ("//missing != 10", False),  # no node, no pair
            ("//sal != 2450", True),
            ("//dname != 'ACCOUNTING'", False),
        ],
    )
    def test_nan_compares_false_except_not_equal(self, expr, expected):
        assert ev(expr) is expected

    def test_nodeset_number_comparison_existential(self):
        assert ev("//sal > 4000") is True
        assert ev("//sal > 5000") is False

    def test_nodeset_string_equality(self):
        assert ev("//ename = 'MILLER'") is True
        assert ev("//ename = 'NOBODY'") is False

    def test_nodeset_vs_nodeset_equality(self):
        # exists a pair with equal string values? empno never equals sal
        assert ev("//empno = //sal") is False
        assert ev("//ename = //ename") is True

    def test_nodeset_vs_boolean(self):
        assert ev("//emp = true()") is True
        assert ev("//missing = false()") is True

    def test_and_short_circuits(self):
        # The right side would error (undefined function) if evaluated.
        assert ev("false() and nonexistent()") is False

    def test_union_operator(self):
        assert names(ev("/dept/dname | /dept/loc")) == ["dname", "loc"]

    def test_union_requires_node_sets(self):
        with pytest.raises(XPathTypeError):
            ev("1 | 2")


class TestVariables:
    def test_variable_reference(self):
        value = evaluate_xpath("$x + 1", DOC, variables={"x": 2.0})
        assert value == 3.0

    def test_variable_node_set(self):
        emps = ev("//emp")
        value = evaluate_xpath("$emps[sal > 2000]", DOC, variables={"emps": emps})
        assert len(value) == 2

    def test_path_from_variable(self):
        dept = [DOC.document_element]
        value = evaluate_xpath("$d/dname", DOC, variables={"d": dept})
        assert strings(value) == ["ACCOUNTING"]

    def test_undefined_variable(self):
        with pytest.raises(XPathEvaluationError):
            ev("$nope")


class TestNamespaceResolution:
    def test_prefixed_name_test(self):
        doc = parse_document('<r xmlns:p="urn:p"><p:x>1</p:x><x>2</x></r>')
        result = evaluate_xpath("/r/p:x", doc, namespaces={"p": "urn:p"})
        assert strings(result) == ["1"]

    def test_unprefixed_matches_no_namespace(self):
        doc = parse_document('<r xmlns:p="urn:p"><p:x>1</p:x><x>2</x></r>')
        result = evaluate_xpath("/r/x", doc, namespaces={"p": "urn:p"})
        assert strings(result) == ["2"]

    def test_prefix_wildcard(self):
        doc = parse_document('<r xmlns:p="urn:p"><p:x/><p:y/><z/></r>')
        result = evaluate_xpath("/r/p:*", doc, namespaces={"p": "urn:p"})
        assert names(result) == ["x", "y"]

    def test_unknown_prefix_errors(self):
        with pytest.raises(XPathEvaluationError):
            ev("/q:x")


class TestParserErrors:
    @pytest.mark.parametrize(
        "expr",
        ["", "/dept/", "a[", "a]", "fn(", "1 +", "..3", "a b", "@", "()"],
    )
    def test_syntax_errors(self, expr):
        with pytest.raises(XPathSyntaxError):
            parse_xpath(expr)

    def test_unknown_function_at_runtime(self):
        with pytest.raises(XPathEvaluationError):
            ev("frobnicate(1)")

    def test_wrong_arity(self):
        with pytest.raises(XPathEvaluationError):
            ev("concat('only-one')")


class TestToText:
    @pytest.mark.parametrize(
        "expr",
        [
            "/dept/employees/emp[sal > 2000]",
            "//emp[position() = last()]",
            "count(//emp) + 1",
            "$x/dname | $x/loc",
            "ancestor::dept/@deptno",
            'concat("a", string(//sal))',
            "not(//emp[3])",
        ],
    )
    def test_roundtrips_through_parser(self, expr):
        first = parse_xpath(expr).to_text()
        second = parse_xpath(first).to_text()
        assert first == second

    def test_roundtrip_preserves_semantics(self):
        expr = "//emp[sal > 2000]/ename"
        again = parse_xpath(parse_xpath(expr).to_text())
        context = XPathContext(DOC)
        assert strings(again.evaluate(context)) == ["CLARK", "SMITH"]

    def test_compile_cache_returns_same_object(self):
        assert compile_xpath("//emp") is compile_xpath("//emp")
