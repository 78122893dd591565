"""Exact eps-linear area arithmetic and its order."""

import pathlib
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from strategies import area_values
from symsum.areas import AreaError, AreaValue, area, exact_str
from symsum.script import _Parser

o = area


def test_componentwise_addition():
    assert o(1) + o(0, 3) == o(1, 3)


def test_section_area_bookkeeping_shape():
    # area + (k+1) eps with a = 5, k = 2
    assert o(5) + o(0, 3) == o(5, 3)


def test_additive_inverse():
    assert o(2, -1) + o(-2, 1) == o(0, 0)


def test_constant_term_dominates():
    assert o(1, 100) < o(2, -100)


def test_eps_breaks_ties():
    assert o(1, 1) < o(1, 2)


def test_proper_transform_shrinks():
    a = Fraction(7, 3)
    assert o(a, -1) < o(a, 0)


def test_positivity():
    assert o(0, 1).is_positive
    assert not o(0, 0).is_positive
    assert not o(-1, 100).is_positive


def test_scale():
    assert o(1, 2).scale(Fraction(3, 2)) == o(Fraction(3, 2), 3)


@given(area_values, area_values, area_values)
def test_addition_associative_commutative(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x


@given(area_values, area_values)
def test_strict_total_order(x, y):
    assert (x < y) + (y < x) + (x == y) == 1


@given(area_values, area_values, area_values)
def test_order_transitive(x, y, z):
    if x < y and y < z:
        assert x < z


@given(area_values)
def test_round_trip_compact_form(x):
    assert _Parser(x.compact()).parse_area() == x


def unlimited_str(x) -> str:
    """str(x) with int()'s digit limit lifted for the call."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(x)
    finally:
        sys.set_int_max_str_digits(limit)


_HUGE = [
    10**600 - 1, 10**600, 10**600 + 1, 10**1200, 7 * 10**5000 + 3, -(10**4300), 10**4300 - 1,
    int("7" * 2200) * int("3" * 2200 + "1"),
]


@pytest.mark.parametrize(
    "n", _HUGE + [-n for n in _HUGE] + [0, 1, -1, 10**4299],
    ids=lambda n: f"{'-' * (n < 0)}{n.bit_length()} bits",  # str(n) may raise
)
def test_exact_str_writes_every_digit_of_an_int(n):
    assert exact_str(n) == unlimited_str(n)


@pytest.mark.parametrize(
    "x",
    [Fraction(1, 3), Fraction(-10**5000, 7), Fraction(3, 10**5000 + 1), Fraction(10**4400, 1)],
    ids=["1/3", "-10^5000/7", "3/(10^5000+1)", "10^4400"],
)
def test_exact_str_writes_a_fraction_as_str_does(x):
    assert exact_str(x) == unlimited_str(x)


def test_an_area_past_the_digit_limit_prints_in_both_forms():
    d = 10**4400 + 1
    a = AreaValue(Fraction(1, d), Fraction(-2, d))
    assert str(a) == f"1/{unlimited_str(d)} - 2/{unlimited_str(d)}*eps"
    assert a.compact() == f"1/{unlimited_str(d)}-2/{unlimited_str(d)}e"
    assert area(10**4400).compact() == unlimited_str(10**4400)


# -- against the model of an area as a pair of Fractions ----------------------

# denominators far beyond those of `strategies.py`, and integers of any size
wide = st.one_of(
    st.fractions(max_denominator=10**15),
    st.integers().map(Fraction),
    st.builds(Fraction, st.integers(), st.integers(min_value=1)),
)


def _pair(x: AreaValue) -> tuple:
    return (x.const, x.eps_coeff)


def _model_str(c: Fraction, e: Fraction) -> str:
    return f"{c} - {-e}*eps" if e < 0 else f"{c} + {e}*eps"


def _model_compact(c: Fraction, e: Fraction) -> str:
    if e == 0:
        return f"{c}"
    return f"{c}{'+' if e >= 0 else '-'}{abs(e)}e"


def _assert_canonical(x: AreaValue) -> None:
    c, e, d = x._c, x._e, x._d
    assert type(c) is int and type(e) is int and type(d) is int
    assert d > 0 and gcd(c, e, d) == 1


@given(wide, wide, wide, wide, wide)
def test_area_value_agrees_with_the_fraction_pair_model(a, b, c, d, f):
    x, y = AreaValue(a, b), AreaValue(c, d)
    p, q = (a, b), (c, d)
    results = {
        "+": (x + y, (a + c, b + d)),
        "-": (x - y, (a - c, b - d)),
        "neg": (-x, (-a, -b)),
        "scale": (x.scale(f), (a * f, b * f)),
        "replace": (x.replace(const=c), (c, b)),
        "x": (x, p),
    }
    for name, (value, model) in results.items():
        assert _pair(value) == model, name
        _assert_canonical(value)
    assert (x < y, x <= y, x > y, x >= y) == (p < q, p <= q, p > q, p >= q)
    assert ((x == y), (x != y)) == ((p == q), (p != q))
    assert x.is_positive == (p > (0, 0))
    assert str(x) == _model_str(a, b)
    assert x.compact() == _model_compact(a, b)
    assert repr(x) == f"AreaValue(const={a!r}, eps_coeff={b!r})"
    # equal values built by different routes hash alike
    back = x + y - y
    assert back == x and hash(back) == hash(x)
    assert AreaValue(str(a), str(b)) == x and hash(AreaValue(str(a), str(b))) == hash(x)
    if x == y:
        assert hash(x) == hash(y)


@given(st.integers(), st.integers())
def test_int_coefficients_make_the_area_of_their_fractions(a, b):
    x, model = AreaValue(a, b), AreaValue(Fraction(a), Fraction(b))
    assert x == model and repr(x) == repr(model)
    _assert_canonical(x)


@pytest.mark.parametrize(
    "make",
    [
        lambda: area("1/0"),
        lambda: AreaValue("1/0"),
        lambda: AreaValue(1, "0/0"),
        lambda: area("three"),
        lambda: AreaValue(0, "1/2e"),
        lambda: area(1).scale("1/0"),
    ],
    ids=["area 1/0", "AreaValue 1/0", "eps 0/0", "three", "eps 1/2e", "scale 1/0"],
)
def test_a_string_that_is_no_rational_is_an_area_error(make):
    with pytest.raises(AreaError, match="not a rational coefficient: '"):
        make()


def test_floats_are_refused():
    with pytest.raises(AreaError, match="not a rational coefficient: 0.5"):
        AreaValue(0.5)
    with pytest.raises(AreaError):
        area(1).scale(0.5)


def test_tracer_counts_each_area_value_once():
    """perfbench's tracer counts `AreaValue.__post_init__`: an arithmetic
    result passes through it once, as a constructed value does."""
    root = str(pathlib.Path(__file__).resolve().parent.parent)
    if root not in sys.path:
        sys.path.insert(0, root)
    from perfbench.tracer import Tracer

    import symsum.invariants  # noqa: F401  (the tracer wraps its walks)
    import symsum.sums  # noqa: F401

    tracer = Tracer()
    tracer.install()
    try:
        area(1, 2) + area(3, 4)
    finally:
        tracer.uninstall()
    assert tracer.counts["areas.AreaValue.created"] == 3
