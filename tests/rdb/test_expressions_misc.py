"""Remaining expression-layer corners: SQL rendering, scalar functions,
NULL handling."""

import pytest

from repro.errors import DatabaseError
from repro.rdb.expressions import (
    BinOp,
    CaseWhen,
    ColumnRef,
    Const,
    FuncCall,
    IsNull,
    Not,
    col,
    const,
)


def ev(expr, env=None):
    return expr.evaluate(env or {}, None, None)


class TestConstRendering:
    def test_string_quoting(self):
        assert Const("o'brien").to_sql() == "'o''brien'"

    def test_null(self):
        assert Const(None).to_sql() == "NULL"

    def test_booleans(self):
        assert Const(True).to_sql() == "TRUE"
        assert Const(False).to_sql() == "FALSE"

    def test_integral_float(self):
        assert Const(4.0).to_sql() == "4"

    def test_fractional(self):
        assert Const(4.5).to_sql() == "4.5"


class TestNullSemantics:
    def test_arithmetic_with_null_is_null(self):
        assert ev(BinOp("+", Const(None), Const(1))) is None

    def test_comparison_with_null_is_false(self):
        assert ev(BinOp("=", Const(None), Const(1))) is False

    def test_concat_treats_null_as_empty(self):
        assert ev(BinOp("||", Const(None), Const("x"))) == "x"

    def test_division_by_zero(self):
        with pytest.raises(DatabaseError):
            ev(BinOp("/", Const(1), Const(0)))

    def test_is_null(self):
        assert ev(IsNull(Const(None))) is True
        assert ev(IsNull(Const(1), negated=True)) is True


class TestScalarFunctions:
    def test_coalesce(self):
        assert ev(FuncCall("COALESCE", [Const(None), Const(None), Const(3)])) == 3
        assert ev(FuncCall("COALESCE", [Const(None)])) is None

    def test_mod(self):
        assert ev(FuncCall("MOD", [Const(7), Const(3)])) == 1

    def test_to_char(self):
        assert ev(FuncCall("TO_CHAR", [Const(42)])) == "42"

    def test_substr_without_length(self):
        assert ev(FuncCall("SUBSTR", [Const("hello"), Const(3)])) == "llo"

    def test_round_with_digits(self):
        assert ev(FuncCall("ROUND", [Const(3.14159), Const(2)])) == 3.14

    @pytest.mark.parametrize("args, expected", [
        ((2.5,), 3.0), ((-2.5,), -3.0), ((0.5,), 1.0), ((1.25, 1), 1.3),
        ((2.675, 2), 2.68), ((-1.005, 2), -1.01), ((1250.0, -2), 1300.0),
        ((7,), 7), ((15, -1), 20),
    ])
    def test_round_half_away_from_zero_on_the_decimal_value(
            self, args, expected):
        """Oracle's NUMBER rounding, not Python's half-to-even on the
        binary value (``round(2.5)`` is 2, ``round(2.675, 2)`` 2.67)."""
        result = ev(FuncCall("ROUND", [Const(arg) for arg in args]))
        assert result == expected
        assert type(result) is type(args[0])

    def test_round_keeps_nan_and_infinity(self):
        assert ev(FuncCall("ROUND", [Const(float("inf"))])) == float("inf")
        nan = ev(FuncCall("ROUND", [Const(float("nan")), Const(1)]))
        assert nan != nan

    @pytest.mark.parametrize("args", [
        (None,), (None, 1), (2.5, None)])
    def test_round_of_null_is_null(self, args):
        assert ev(FuncCall("ROUND", [Const(arg) for arg in args])) is None

    def test_abs(self):
        assert ev(FuncCall("ABS", [Const(-2.5)])) == 2.5
        assert ev(FuncCall("ABS", [Const(None)])) is None

    def test_null_through_a_plan_is_null_not_a_type_error(self):
        from repro.rdb import Database

        db = Database()
        db.sql("CREATE TABLE t (x FLOAT)")
        db.sql("INSERT INTO t VALUES (NULL)")
        db.sql("INSERT INTO t VALUES (2.5)")
        rows, _ = db.sql("SELECT ROUND(x), ABS(x) FROM t")
        assert rows == [(None, None), (3.0, 2.5)]

    def test_unknown_function(self):
        with pytest.raises(DatabaseError):
            ev(FuncCall("FROBNICATE", [Const(1)]))


class TestCaseWhen:
    def test_no_match_no_else_is_null(self):
        expr = CaseWhen([(Const(False), Const(1))])
        assert ev(expr) is None

    def test_first_matching_branch(self):
        expr = CaseWhen(
            [(Const(False), Const(1)), (Const(True), Const(2)),
             (Const(True), Const(3))],
            Const(9),
        )
        assert ev(expr) == 2

    def test_to_sql(self):
        expr = CaseWhen([(IsNull(col("a")), Const(0))], col("a"))
        assert expr.to_sql() == (
            'CASE WHEN "A" IS NULL THEN 0 ELSE "A" END'
        )


class TestColumnRefErrors:
    def test_ambiguous_unqualified(self):
        env = {"t1": {"x": 1}, "t2": {"x": 2}}
        with pytest.raises(DatabaseError):
            ColumnRef("x").evaluate(env, None, None)

    def test_unknown_alias(self):
        with pytest.raises(DatabaseError):
            ColumnRef("x", "missing").evaluate({}, None, None)

    def test_unknown_column_in_alias(self):
        with pytest.raises(DatabaseError):
            ColumnRef("nope", "t").evaluate({"t": {"x": 1}}, None, None)

    def test_not_negation(self):
        assert ev(Not(Const(False))) is True
