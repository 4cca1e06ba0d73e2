"""Ring laws, bar, degree bookkeeping and text round-trips for coefficients."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from planalg.laurent import (
    DELTA,
    Laurent,
    ONE,
    QSqrt2,
    SQRT2,
    V,
    V_INV,
    ZERO,
    dot,
    lincomb,
    vneg_congruent,
)

laurents = st.dictionaries(
    st.integers(-6, 6), st.integers(-9, 9), max_size=5
).map(Laurent)

rationals = st.fractions(
    min_value=-9, max_value=9, max_denominator=7
)
qsqrt2s = st.tuples(rationals, rationals).map(lambda ab: QSqrt2(*ab))


def test_pinned_text_form():
    text = "2v^3 - 1 + v^-2"
    assert str(Laurent.parse(text)) == text
    assert str(ZERO) == "0"
    assert str(DELTA) == "v + v^-1"
    assert str(-V) == "-v"


@given(laurents)
def test_parse_round_trip(x):
    assert Laurent.parse(str(x)) == x


@given(laurents, laurents, laurents)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@given(laurents, laurents)
def test_bar_is_a_ring_involution(a, b):
    assert a.bar().bar() == a
    assert (a * b).bar() == a.bar() * b.bar()
    assert (a + b).bar() == a.bar() + b.bar()


def test_bar_swaps_v():
    assert V.bar() == V_INV
    assert DELTA.bar() == DELTA


@given(laurents, laurents)
def test_degree_of_product_adds(a, b):
    if a and b:
        assert (a * b).degree() == a.degree() + b.degree()


def test_degree_of_zero_is_none():
    assert ZERO.degree() is None
    assert (V ** 3 + ONE).degree() == 3


def test_vneg_congruence():
    assert vneg_congruent(ONE + V_INV, 1)
    assert vneg_congruent(V_INV, 0)
    assert not vneg_congruent(V, 0)
    assert not vneg_congruent(ONE + V, 1)


negative_parts = st.dictionaries(
    st.integers(-6, -1), st.integers(-9, 9), max_size=3
).map(Laurent)


@given(laurents, negative_parts, st.one_of(laurents, st.integers(-3, 3)),
       st.booleans())
def test_vneg_congruence_reads_the_degree_of_the_difference(a, neg, other, near):
    b = a + neg if near else other
    d = (a - b).degree()
    assert vneg_congruent(a, b) == (d is None or d < 0)
    assert vneg_congruent(b, a) == vneg_congruent(a, b)


@pytest.mark.parametrize("a,b", [(1.5, 1), (ONE, 0.5), ("v", V), (None, 0)])
def test_vneg_congruence_refuses_non_integer_input(a, b):
    with pytest.raises(TypeError):
        vneg_congruent(a, b)


@given(laurents)
def test_negative_part_splits(x):
    neg = x.negative_part()
    assert not neg or neg.degree() < 0
    assert all(e >= 0 for e, _ in (x - neg).items())


@given(laurents, st.integers(0, 4))
def test_pow_matches_repeated_product(x, k):
    expect = ONE
    for _ in range(k):
        expect = expect * x
    assert x ** k == expect


def test_sqrt2_field():
    assert SQRT2 * SQRT2 == QSqrt2(2)
    assert (QSqrt2(1) + SQRT2) * (QSqrt2(-1) + SQRT2) == QSqrt2(1)
    half_rt2 = SQRT2 / QSqrt2(2)
    assert half_rt2 * SQRT2 == QSqrt2(1)


@given(qsqrt2s, qsqrt2s)
def test_sqrt2_ring_laws(a, b):
    assert a + b == b + a
    assert a * b == b * a
    assert a - a == QSqrt2(0)
    if b:
        assert (a / b) * b == a
        assert b * b.inverse() == QSqrt2(1)


@given(qsqrt2s)
def test_sqrt2_hash_consistent(x):
    assert hash(x + x) == hash(x * QSqrt2(2))


def test_non_integers_are_refused_not_truncated():
    for data in ({0: 1.5}, {0: 2.0}, {0.5: 1}, {0: Fraction(1, 2)}, {"1": 1}, 1.5):
        with pytest.raises(TypeError):
            Laurent(data)
    with pytest.raises(TypeError):
        Laurent.v_power(1.5)


# -- lincomb and dot ------------------------------------------------------------

operands = st.one_of(laurents, st.sampled_from([ZERO, ONE, V, DELTA]))


def _clean(x):
    """No zero coefficient, and == / hash agree with a fresh copy."""
    fresh = Laurent(dict(x._c))
    return all(x._c.values()) and x == fresh and hash(x) == hash(fresh)


monomials = st.builds(lambda a, e: Laurent({e: a}),
                      st.sampled_from([1, -1, 2, -3]), st.integers(-3, 3))
coefficients = st.one_of(st.integers(-3, 3), operands)
# Vector values may be plain ints (tabular's tuple_mul rows), and the
# wider key set leaves most keys hit by one pair only.
values = st.one_of(operands, st.integers(-3, 3))
vectors = st.dictionaries(st.sampled_from("abcdefgh"), values, max_size=3)
combinations = st.lists(
    st.tuples(st.one_of(coefficients, monomials, st.just(1)), vectors), max_size=6)


def _naive_lincomb(pairs):
    out = {}
    for c, vec in pairs:
        for key, x in vec.items():
            out[key] = out.get(key, ZERO) + c * x
    return {k: c for k, c in out.items() if c}


@given(combinations, st.booleans())
def test_lincomb_matches_naive_sums(pairs, cancel):
    if cancel:  # append every pair with its coefficient negated: all keys cancel
        pairs = pairs + [(-c, vec) for c, vec in pairs]

    def copy(x):
        return x._c.copy() if isinstance(x, Laurent) else x

    def snapshot():
        return [(copy(c), {k: copy(x) for k, x in vec.items()}) for c, vec in pairs]

    before = snapshot()
    got = lincomb(pair for pair in pairs)
    assert got == _naive_lincomb(pairs)
    assert all(type(c) is Laurent and _clean(c) for c in got.values())
    if cancel:
        assert got == {}
    assert lincomb(pairs) == got
    assert snapshot() == before
    assert (ZERO._c, ONE._c, V._c, DELTA._c) == ({}, {0: 1}, {1: 1}, {1: 1, -1: 1})


def test_lincomb_edge_cases():
    assert lincomb([]) == {}
    assert lincomb(iter(())) == {}
    assert lincomb([(0, {"a": DELTA}), (DELTA, {"b": ZERO})]) == {}
    got = lincomb([(1, {"a": ONE}), (V, {"a": V_INV})])
    assert got == {"a": Laurent(2)} and got["a"] is not ONE
    assert lincomb([(V, {"a": 2, "b": 0}), (-1, {"c": 3})]) == {
        "a": 2 * V, "c": Laurent(-3)}
    # Keys come in order of first touch, a zero coefficient included.
    assert list(lincomb([(0, {"a": ONE}), (1, {"b": ONE, "a": ONE})])) == ["a", "b"]


def test_lincomb_shares_a_value_met_once_safely():
    p, q = V + 2, DELTA
    got = lincomb([(1, {"x": p, "y": q}), (V, {"y": ONE})])
    assert got["x"] is p and got["y"] is not q
    x = got["x"]
    assert (x * x, x + x, -x, x.shift(2)) == (p * p, 2 * p, -p, p.shift(2))
    again = lincomb([(1, got), (-1, {"x": p})])
    assert again == {"y": DELTA + V}
    assert (p, got["x"], q) == (V + 2, V + 2, DELTA)
    assert p._c == {1: 1, 0: 2} and DELTA._c == {1: 1, -1: 1}


@given(st.lists(st.tuples(coefficients, coefficients), max_size=6), st.booleans())
def test_dot_matches_naive_sums(pairs, cancel):
    if cancel:  # append every pair with its first factor negated: the sum cancels
        pairs = pairs + [(-a, b) for a, b in pairs]

    def snapshot():
        return [tuple(x._c.copy() if isinstance(x, Laurent) else x for x in pair)
                for pair in pairs]

    before = snapshot()
    want = ZERO
    for a, b in pairs:
        want = want + a * b
    got = dot(pair for pair in pairs)
    assert got == want and _clean(got)
    if cancel:
        assert got == ZERO
    assert snapshot() == before
    assert (ZERO._c, ONE._c, V._c, DELTA._c) == ({}, {0: 1}, {1: 1}, {1: 1, -1: 1})


def test_dot_edge_cases():
    assert dot([]) == dot(iter(())) == ZERO
    # An empty sum and an all-cancelling sum are both a clean zero.
    for zero in (dot([]), dot([(V, DELTA), (-1, V * DELTA)]), dot([(2, V), (V, -2)])):
        assert zero == ZERO and zero._c == {} and _clean(zero)
    got = dot([(ONE, 1)])
    assert got == ONE and got is not ONE

