"""Tests for the XPath core function library."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.xmlmodel import parse_document
from repro.xpath import evaluate_xpath
from repro.xpath.datamodel import number_to_string, string_to_number

DOC = parse_document(
    '<r a="  spaced  out  ">'
    "<n>12</n><n>3</n><n>0.5</n>"
    "<s>hello world</s>"
    "<empty/>"
    "</r>"
)


def ev(expr, node=None):
    return evaluate_xpath(expr, node if node is not None else DOC)


class TestNodeSetFunctions:
    def test_count(self):
        assert ev("count(//n)") == 3.0

    def test_count_empty(self):
        assert ev("count(//zzz)") == 0.0

    def test_last_and_position(self):
        assert ev("string(//n[last()])") == "0.5"
        assert ev("count(//n[position() >= 2])") == 2.0

    def test_local_name_and_name(self):
        assert ev("local-name(/r/s)") == "s"
        assert ev("name(/r/s)") == "s"

    def test_local_name_of_empty_set(self):
        assert ev("local-name(//zzz)") == ""

    def test_name_with_prefix(self):
        doc = parse_document('<p:a xmlns:p="urn:p"/>')
        assert evaluate_xpath("name(/*)", doc) == "p:a"
        assert evaluate_xpath("local-name(/*)", doc) == "a"
        assert evaluate_xpath("namespace-uri(/*)", doc) == "urn:p"

    def test_id_selects_nothing(self):
        assert ev("id('x')") == []


class TestStringFunctions:
    def test_string_of_number(self):
        assert ev("string(12)") == "12"
        assert ev("string(3.5)") == "3.5"

    def test_string_of_number_has_no_exponent(self):
        assert ev("string(100000000000000000000)") \
            == "100000000000000000000"
        # the shortest digits, not the float's exact binary value
        assert number_to_string(1e23) == "100000000000000000000000"
        assert number_to_string(-2.0 ** 60) == "-1152921504606847000"
        assert number_to_string(2.0 ** 53) == "9007199254740992"
        assert ev("string(1 div 10000000)") == "0.0000001"
        assert ev("string(-25 div 100000000)") == "-0.00000025"
        assert ev("number(string(1 div 10000000)) * 10000000") == 1.0

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_number_string_round_trip(self, value):
        text = number_to_string(value)
        assert "e" not in text
        assert string_to_number(text) == value

    def test_string_of_context(self):
        s = ev("//s")[0]
        assert ev("string()", s) == "hello world"

    def test_concat(self):
        assert ev("concat('a', 'b', 'c')") == "abc"

    def test_starts_with_and_contains(self):
        assert ev("starts-with(//s, 'hello')") is True
        assert ev("contains(//s, 'o w')") is True
        assert ev("contains(//s, 'xyz')") is False

    def test_substring_before_after(self):
        assert ev("substring-before(//s, ' ')") == "hello"
        assert ev("substring-after(//s, ' ')") == "world"
        assert ev("substring-before(//s, 'zz')") == ""

    @pytest.mark.parametrize(
        "expr, expected",
        [
            ("substring('12345', 2, 3)", "234"),
            ("substring('12345', 2)", "2345"),
            ("substring('12345', 1.5, 2.6)", "234"),
            ("substring('12345', 0, 3)", "12"),
            ("substring('12345', 0 div 0, 3)", ""),
            ("substring('12345', 1, 0 div 0)", ""),
            ("substring('12345', -42, 1 div 0)", "12345"),
        ],
    )
    def test_substring_spec_cases(self, expr, expected):
        assert ev(expr) == expected

    def test_string_length(self):
        assert ev("string-length('abc')") == 3.0
        s = ev("//s")[0]
        assert ev("string-length()", s) == 11.0

    def test_normalize_space(self):
        assert ev("normalize-space(/r/@a)") == "spaced out"

    def test_translate(self):
        assert ev("translate('bar', 'abc', 'ABC')") == "BAr"
        assert ev("translate('--aaa--', 'a-', 'A')") == "AAA"


class TestBooleanFunctions:
    def test_boolean_conversions(self):
        assert ev("boolean(1)") is True
        assert ev("boolean(0)") is False
        assert ev("boolean('')") is False
        assert ev("boolean('x')") is True
        assert ev("boolean(//n)") is True
        assert ev("boolean(//zzz)") is False

    def test_boolean_of_nan(self):
        assert ev("boolean(0 div 0)") is False

    def test_not(self):
        assert ev("not(//zzz)") is True

    def test_true_false(self):
        assert ev("true()") is True
        assert ev("false()") is False

    def test_lang(self):
        doc = parse_document('<a xml:lang="en-US"><b/></a>')
        b = evaluate_xpath("/a/b", doc)[0]
        assert evaluate_xpath("lang('en')", b) is True
        assert evaluate_xpath("lang('de')", b) is False


class TestNumberFunctions:
    def test_number_conversion(self):
        assert ev("number('12')") == 12.0
        assert ev("number(' 3.5 ')") == 3.5
        assert math.isnan(ev("number('abc')"))
        assert math.isnan(ev("number('')"))
        assert ev("number('-4')") == -4.0
        assert math.isnan(ev("number('1e3')"))  # exponents are not XPath numbers

    def test_number_of_boolean(self):
        assert ev("number(true())") == 1.0

    def test_number_of_context(self):
        n = ev("//n[1]")[0]
        assert ev("number()", n) == 12.0

    def test_sum(self):
        assert ev("sum(//n)") == 15.5

    def test_sum_with_non_numeric_is_nan(self):
        assert math.isnan(ev("sum(//s)"))

    def test_floor_ceiling(self):
        assert ev("floor(2.7)") == 2.0
        assert ev("floor(-2.1)") == -3.0
        assert ev("ceiling(2.1)") == 3.0
        assert ev("ceiling(-2.7)") == -2.0

    @pytest.mark.parametrize(
        "expr, expected",
        [
            ("round(2.5)", 3.0),
            ("round(-2.5)", -2.0),  # half towards +inf
            ("round(2.4)", 2.0),
        ],
    )
    def test_round(self, expr, expected):
        assert ev(expr) == expected

    def test_round_nan(self):
        assert math.isnan(ev("round(0 div 0)"))


class TestXQueryAdditions:
    def test_exists_and_empty(self):
        assert ev("exists(//n)") is True
        assert ev("exists(//zzz)") is False
        assert ev("empty(//zzz)") is True

    def test_fn_prefix_is_stripped(self):
        assert ev("fn:count(//n)") == 3.0
        assert ev("fn:string(//n[1])") == "12"

    def test_string_join(self):
        assert ev("string-join(//n, ',')") == "12,3,0.5"
        assert ev("string-join(//n)") == "1230.5"

    def test_distinct_values(self):
        doc = parse_document("<r><x>a</x><x>b</x><x>a</x></r>")
        assert evaluate_xpath("distinct-values(//x)", doc) == ["a", "b"]

    def test_avg_min_max(self):
        doc = parse_document("<r><x>2</x><x>4</x><x>6</x></r>")
        assert evaluate_xpath("avg(//x)", doc) == 4.0
        assert evaluate_xpath("min(//x)", doc) == 2.0
        assert evaluate_xpath("max(//x)", doc) == 6.0

    def test_avg_of_empty_is_empty(self):
        assert ev("avg(//zzz)") == []
