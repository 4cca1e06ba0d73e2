"""Cell structure on diagram contexts: axioms, degree bound, form, Gram."""

import itertools
import random

import pytest

from planalg.laurent import DELTA, Laurent, ONE, V_INV, vneg_congruent
from planalg.planar import Context
from planalg.tabular import EXHAUSTIVE_CAP, datum_build
from planalg.verlinde import make_verlinde

V_INV2 = Laurent.v_power(-2)


@pytest.fixture(scope="module")
def d22():
    return datum_build(Context(2, make_verlinde(2)))


@pytest.fixture(scope="module")
def d32():
    return datum_build(Context(3, make_verlinde(2)))


def test_layer_sizes(d22):
    assert d22.lambdas == (0, 2)
    assert [len(d22.m_sets[lam]) for lam in d22.lambdas] == [2, 1]
    assert len(d22.basis) == 8


def test_layer_sizes_odd(d32):
    assert d32.lambdas == (1, 3)
    # one arc on three points: two placements, each with two labels
    assert [len(d32.m_sets[lam]) for lam in d32.lambdas] == [4, 1]
    assert len(d32.basis) == 5 * 2 ** 3


def test_split_join_is_a_bijection(d22):
    for d in d22.basis:
        s, b, t = d22.split(d)
        assert d22.c(s, b, t) == d


def test_a_function_counts_arcs(d22):
    values = sorted(d22.a_value(d) for d in d22.basis)
    assert values == [0, 0, 0, 0, 1, 1, 1, 1]


@pytest.mark.parametrize("n,r", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_axioms_pass_exhaustively(n, r):
    datum = datum_build(Context(n, make_verlinde(r)))
    rep = datum.axioms_check()
    assert rep.ok, rep.witnesses[:3]
    assert rep.a_function_ok
    assert rep.exhaustive
    assert not rep.witnesses


def test_sampled_mode_when_capped():
    # P(4, 2) has 14 * 2^4 = 224 diagrams, over EXHAUSTIVE_CAP
    datum = datum_build(Context(4, make_verlinde(2)))
    assert len(datum.basis) > EXHAUSTIVE_CAP
    rep = datum.axioms_check()
    assert rep.ok and rep.a_function_ok
    assert not rep.exhaustive


def test_pinned_form_values(d22):
    one = d22.ctx.one()
    e = d22.ctx.e_element(1, 0)
    assert d22.form(one, one) == (ONE + V_INV2) ** 2
    assert d22.form(e, one) == V_INV + Laurent.v_power(-3)


def test_form_is_symmetric_and_adjoint(d32):
    rng = random.Random(6)
    els = [d32.ctx.basis_element(d) for d in d32.basis]
    for _ in range(15):
        x, y, z = (rng.choice(els) for _ in range(3))
        assert d32.form(x, y) == d32.form(y, x)
        assert d32.form(x * y, z) == d32.form(y, x.star() * z)


@pytest.mark.parametrize("n,r", [(2, 2), (2, 3), (3, 2)])
def test_basis_is_almost_orthonormal_and_gram_regular(n, r):
    datum = datum_build(Context(n, make_verlinde(r)))
    assert datum.almost_orthonormal()
    assert datum.gram_nondegenerate()
    size = len(datum.basis)
    for i, j in itertools.product(range(size), repeat=2):
        want = 1 if i == j else 0
        assert vneg_congruent(datum.form_basis(i, j), want)


def test_degree_bound_attained_with_unit_gamma(d22):
    # the top coefficient of C_{S,T} C_{T,U} at C_{S,U} is exactly 1
    # when all arcs carry the identity label
    for i, (s, b, t) in enumerate(d22.splits):
        if any(lbl != d22.ctx.alg.identity for lbl in b):
            continue
        j = d22.trip_index[(t, b, s)]
        k = d22.trip_index[(s, b, s)]
        g = d22.g_constant(i, j, k)
        assert g.degree() == d22.a_vals[k]
        assert g.coeff(d22.a_vals[k]) == 1


def test_doubling_identity(d22):
    # C_{S,S}^1 C_{S,T}^b = delta^{a} C_{S,T}^b at the bottom layer
    for i, (s, b, t) in enumerate(d22.splits):
        if d22.a_vals[i] != 1:
            continue
        k = d22.trip_index[(s, b, s)]
        prod = d22.product(k, i)
        want = {i: DELTA ** d22.a_vals[i]}
        assert prod == want
