"""Each SQL type's XPath 1.0 value: the one rule for how the engine
compares.  A stored value compares as XPath reads its serialized text:

=====  ===============================================================
INT    a number, exact only within ±2^53: a value converted to INT (an
       XML leaf's text, a string or float inserted) is refused beyond
       (:func:`check_ints`); a Python int inserted is SQL's, exact
FLOAT  a number; ±inf serializes as ``Infinity``, read back as NaN;
       −0.0 reads as 0
TEXT   a string; ``to_number`` of it in a numeric context
NULL   no comparison holds, not even ``<>``
=====  ===============================================================

Between two static types (``SqlExpr.value_type``: ``int``, ``float``,
``str``, or None where only the row can tell), the six comparisons take
two texts as text and anything else as numbers (:func:`native`, emitted
inline; per row, :func:`binary`).  ``=`` is a hash equality between known
types (:func:`key_normal`); beside an unknown one it is none — ``'1.0' =
1`` and ``1 = '1'``, but ``'1.0' != '1'`` — so that pair never
hash-joins.  An ordered index holds the :func:`orderable` keys; a
numeric column meets any probe key as a number, a text column (in text
order) a text key only (:func:`probe_normal`).  A bind reads this once;
only the functions it names run per row.  The VM's ``compare_values``
is not derived from it: ``tests/property/test_value_model.py`` holds the
rewrite to the VM.
"""

from __future__ import annotations

from math import inf, nan
from operator import ne

from repro.errors import DatabaseError, PlanError
from repro.xpath.datamodel import number_to_string, to_number

_INFINITIES = (inf, -inf)
#: every integer up to this magnitude is exact as a double
_INT_LIMIT = 2 ** 53


def check_ints(values):
    """Refuse one column's ``values`` converted to INT (NULLs among them)
    beyond ±2^53, where XPath would read their text as another number."""
    if None in values:
        values = [value for value in values if value is not None] or [0]
    low, high = min(values), max(values)
    if low < -_INT_LIMIT or high > _INT_LIMIT:
        raise DatabaseError("INT value %d is beyond ±2^53, where XPath "
                            "reads another number"
                            % (high if high > _INT_LIMIT else low))


def binary(apply, comparing, a, b):
    """``apply`` to two values only the row types: NULL satisfies no
    comparison (arithmetic: NULL); two texts (or a text and a bool)
    compare as text; else numbers, a text through ``to_number`` and,
    compared, a ±inf as NaN."""
    if a is None or b is None:
        return False if comparing else None
    if comparing and (a in _INFINITIES or b in _INFINITIES):
        return apply(nan, nan)
    if isinstance(a, str) or isinstance(b, str):
        if comparing and type(a) not in (int, float) \
                and type(b) not in (int, float):  # bools: as text
            return apply(text(a), text(b))
        return apply(to_number(a), to_number(b))
    return apply(a, b)


def text(value):
    """A value's text, as XPath's ``string()`` reads it ('' for NULL)."""
    if type(value) is str:
        return value
    if value is None:
        return ""
    if isinstance(value, float):
        return number_to_string(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def native(op, left, right, cg):
    """Source, in ``cg``, of ``left op right`` over two non-NULL operands
    ``(source, type, constant value or None)``; None where a type is
    unknown.  A constant is read at bind; any other FLOAT is tested
    finite inline, so a ±inf satisfies only ``<>``."""
    if left[1] is None or right[1] is None:
        return None
    texts = left[1] is right[1] is str
    sources, finite = [], []
    for source, kind, constant in (left, right):
        if kind is str and not texts:
            source = (cg.ref(to_number(constant)) if constant is not None
                      else "%s(%s)" % (cg.helper("to_number", to_number),
                                       source))
        elif kind is float and constant is None:
            finite.append("-%s < %s < _inf" % (cg.helper("_inf", inf),
                                                source))
        elif kind is float and constant in _INFINITIES:
            source = cg.ref(nan)
        sources.append(source)
    test = "%s %s %s" % (sources[0], {"=": "==", "<>": "!="}.get(op, op),
                         sources[1])
    if not finite:
        return test
    return ("(%s or not (%s))" if op == "<>" else "%s and %s") % (
        test, " and ".join(finite))


def number_key(value):
    """``value`` as it meets a number (a text through ``to_number``), or
    None where nothing holds of it: NULL, NaN, ±inf, not a scalar."""
    if isinstance(value, str):
        value = to_number(value)
        return None if value != value else value
    if type(value) is float:
        return value if -inf < value < inf else None
    return value if type(value) in (int, bool) else None


def hashable(kind, other):
    """Whether ``=`` between keys of these static types is a hash
    equality: both known."""
    return kind is not None and other is not None


def key_normal(kind, other):
    """What a hash key of static type ``kind`` goes through to meet keys
    of type ``other`` as ``=`` does: a function, or None for itself (an
    INT, or a text meeting a text; ``hash(1) == hash(1.0)``)."""
    if not hashable(kind, other):
        raise PlanError("= between %s and %s keys is no hash equality"
                        % (_name(kind), _name(other)))
    return None if kind is int or kind is other is str else number_key


def servable(key_kind, column_kind):
    """Whether an ordered index over a column of ``column_kind`` answers
    a probe key of ``key_kind``."""
    return column_kind in (int, float) or key_kind is str


def probe_normal(key_kind, column_kind):
    """What a probe key goes through to find the index keys it compares
    with (None: itself); :func:`servable` pairs only."""
    if not servable(key_kind, column_kind):
        raise PlanError("a %s index cannot answer a %s key"
                        % (_name(column_kind), _name(key_kind)))
    return number_key if column_kind in (int, float) \
        and key_kind is not int else None


def orderable(key):
    """Whether an ordered index holds ``key``: not NULL, NaN or ±inf,
    which no comparison holds of (one NaN breaks ``bisect`` nearby)."""
    return key is not None and (type(key) is not float or -inf < key < inf)


def all_orderable(keys):
    """Whether all of one column's ``keys`` are :func:`orderable`."""
    return None not in keys and (
        not keys or type(keys[-1]) is not float
        or not any(map(ne, keys, keys)) and -inf < min(keys)
        and max(keys) < inf)


def _name(kind):
    return getattr(kind, "__name__", "unknown")
