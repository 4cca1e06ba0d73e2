"""Cell structure on diagram contexts: axioms, degree bound, form, Gram."""

import itertools
import random

import pytest

from planalg.laurent import DELTA, Laurent, ONE, V, V_INV, ZERO, vneg_congruent
from planalg.planar import Context, diagram_product
from planalg import table_algebra
from planalg.table_algebra import (
    cyclic_group_algebra,
    permutation_group_algebra,
    tensor,
    tuple_index,
)
from planalg.selftest import _form_fixture
from planalg.tabular import EXHAUSTIVE_CAP, TabularDatum, datum_build, prop434_test
from planalg.verlinde import make_verlinde

V_INV2 = Laurent.v_power(-2)

#: Label algebras besides V_r: group algebras and tensor products.
LABELS = {
    "S3": lambda: permutation_group_algebra(3),
    "Z3": lambda: cyclic_group_algebra(3),
    "Z4": lambda: cyclic_group_algebra(4),
    "V2xZ2": lambda: tensor(make_verlinde(2), cyclic_group_algebra(2)),
    "V3xV2": lambda: tensor(make_verlinde(3), make_verlinde(2)),
}


def labels_for(r):
    return LABELS[r]() if isinstance(r, str) else make_verlinde(r)


@pytest.fixture(scope="module")
def d22():
    return datum_build(Context(2, make_verlinde(2)))


@pytest.fixture(scope="module")
def d32():
    return datum_build(Context(3, make_verlinde(2)))


@pytest.fixture(scope="module")
def d42():
    return datum_build(Context(4, make_verlinde(2)))


@pytest.fixture(scope="module")
def ds3():
    # S3 labels do not commute
    return datum_build(Context(2, permutation_group_algebra(3)))


def test_layer_sizes(d22):
    assert d22.lambdas == (0, 2)
    assert [len(d22.m_sets[lam]) for lam in d22.lambdas] == [2, 1]
    assert len(d22.basis) == 8


def test_layer_sizes_odd(d32):
    assert d32.lambdas == (1, 3)
    # one arc on three points: two placements, each with two labels
    assert [len(d32.m_sets[lam]) for lam in d32.lambdas] == [4, 1]
    assert len(d32.basis) == 5 * 2 ** 3


def test_split_join_is_a_bijection(d22, d32, d42, ds3):
    # split inverts C on every basis diagram, at n = 2, 3 and 4
    for datum in (d22, d32, d42, ds3):
        n = datum.ctx.n
        for k, d in enumerate(datum.basis):
            s, b, t = datum.split(d)
            assert datum.c(s, b, t) == d
            assert s.n == t.n == n and s.lam == t.lam == len(b)
            assert datum.cell_pos[datum.cells[k]] == k
        assert len(datum.cell_pos) == len(datum.basis)


def test_a_function_counts_arcs(d22):
    values = sorted(d22.a_vals)
    assert values == [0, 0, 0, 0, 1, 1, 1, 1]


@pytest.mark.parametrize("n,r", [
    (2, 2), (2, 3), (3, 2), (3, 3), (1, "S3"), (2, "S3"),
    (2, "Z3"), (2, "Z4"), (2, "V2xZ2"), (2, "V3xV2"), (3, "Z3"),
])
def test_axioms_pass_exhaustively(n, r):
    # S3 labels do not commute, so a swapped order in A3 would show
    datum = datum_build(Context(n, labels_for(r)))
    rep = datum.axioms_check()
    assert rep.ok, rep.witnesses[:3]
    assert rep.a_function_ok
    assert rep.exhaustive
    assert not rep.witnesses


@pytest.mark.parametrize("r", ["Z4", "V2xZ2", "V3xV2", "S3"])
def test_axioms_pass_sampled_at_three_strands(r):
    datum = datum_build(Context(3, labels_for(r)))
    assert len(datum.basis) > EXHAUSTIVE_CAP
    rep = datum.axioms_check()
    assert rep.ok, rep.witnesses[:3]
    assert rep.a_function_ok
    assert not rep.exhaustive


def test_axioms_build_no_tensor_power_table(monkeypatch):
    # tensor labels multiply factor by factor; no r^(2 lambda) table
    def refuse(*args):
        raise AssertionError("a tensor-power table was built")

    monkeypatch.setattr(table_algebra, "tensor", refuse)
    for labels in (make_verlinde(3), permutation_group_algebra(3)):
        rep = datum_build(Context(2, labels)).axioms_check()
        assert rep.ok, rep.witnesses[:3]


def test_sampled_mode_when_capped():
    # P(4, 2) has 14 * 2^4 = 224 diagrams, over EXHAUSTIVE_CAP
    datum = datum_build(Context(4, make_verlinde(2)))
    assert len(datum.basis) > EXHAUSTIVE_CAP
    rep = datum.axioms_check()
    assert rep.ok and rep.a_function_ok
    assert not rep.exhaustive


@pytest.mark.parametrize("n", [2, 3])
def test_exhaustive_pair_pass_forms_no_product_twice(monkeypatch, n):
    # tau(yx) is read off the pass, which over all pairs reads (j, i) too
    datum = datum_build(Context(n, make_verlinde(2)))
    calls = []
    real = TabularDatum._tau_product

    def counted(self, i, j):
        calls.append((i, j))
        return real(self, i, j)

    monkeypatch.setattr(TabularDatum, "_tau_product", counted)
    rep = datum.axioms_check()
    assert rep.ok and rep.exhaustive
    assert calls == []


def test_sampled_report_leaves_out_the_a_function(d22, d42):
    sampled, exhaustive = d42.axioms_check(), d22.axioms_check()
    assert not sampled.exhaustive and exhaustive.exhaustive
    assert "a_function" not in sampled.flags()
    for machine in (False, True):
        assert not [line for line in sampled.lines(machine)
                    if line.startswith("a_function")]
    assert exhaustive.flags()["a_function"] is True
    assert "a_function: ok" in exhaustive.lines()
    assert "a_function=True" in exhaustive.lines(machine=True)


@pytest.mark.parametrize("fam,rank,m", [("A", 3, 0), ("B", 3, 0), ("H", 3, 0), ("I", 2, 5)])
def test_trichotomy_classifies_canonical_elements(fam, rank, m):
    _, _, q, form = _form_fixture(fam, fam, rank, m)
    cws = [q.canonical_t(w) for w in q.wc]
    for cw in cws:
        assert prop434_test(q, form, cw) == "is_plus_canonical"
        assert prop434_test(q, form, q.scale(cw, -1)) == "is_minus_canonical"
        assert prop434_test(q, form, q.scale(cw, 2)) == "neither"
    for x, y in zip(cws, cws[1:]):
        assert prop434_test(q, form, q.add(x, y)) == "neither"
    for w in q.wc[1:]:
        assert prop434_test(q, form, q.t(w)) == "neither"


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
    # Gram = identity + v^-1 Z[v^-1] entries, so det(Gram) = 1 + lower terms != 0
    datum = datum_build(Context(n, make_verlinde(r)))
    size = len(datum.basis)
    for i, j in itertools.product(range(size), repeat=2):
        want = 1 if i == j else 0
        assert vneg_congruent(datum.form_basis(i, j), want)


def test_degree_bound_attained_with_unit_gamma(d22):
    # the top coefficient of C_{S,T} C_{T,U} at C_{S,U} is exactly 1
    # when all arcs carry the identity label
    unit = d22.ctx.alg.identity
    for i, (lam, s, b, t) in enumerate(d22.cells):
        if b != tuple_index(d22.ctx.alg, (unit,) * lam):
            continue
        j = d22.cell_pos[(lam, t, b, s)]
        k = d22.cell_pos[(lam, s, b, s)]
        g = d22.product(i, j).get(k, ZERO)
        assert g.degree() == d22.a_vals[k]
        assert g.coeff(d22.a_vals[k]) == 1


def test_doubling_identity(d22):
    # C_{S,S}^1 C_{S,T}^b = delta^{a} C_{S,T}^b at the bottom layer
    for i, (lam, s, b, t) in enumerate(d22.cells):
        if d22.a_vals[i] != 1:
            continue
        k = d22.cell_pos[(lam, s, b, s)]
        prod = d22.product(k, i)
        want = {i: DELTA ** d22.a_vals[i]}
        assert prod == want


# -- corrupted data must fail the axiom checks ------------------------------


def _add_to_product(datum, i, j, extra):
    prod = dict(diagram_product(datum.ctx, i, j))
    k = min(prod)
    prod[k] = prod[k] + extra
    datum.ctx._prod[(i, j)] = prod


def _raise_coefficient(datum):
    _add_to_product(datum, 1, 3, V)


def _move_to_other_bottom_half(datum):
    prod = dict(diagram_product(datum.ctx, 1, 3))
    k = min(prod)
    s, b, t = datum.split(datum.basis[k])
    (other,) = [u for u in datum.m_sets[len(b)] if u != t]
    prod[datum.index[datum.c(s, b, other)]] = prod.pop(k)
    datum.ctx._prod[(1, 3)] = prod


def _bump_trace(datum):
    datum.tau_vector()[2] += 1


def _break_unit(datum):
    (one,) = datum.ctx.one().terms
    datum.ctx._prod[(one, 0)] = {0: ONE + ONE}


@pytest.mark.parametrize("corrupt,failing,witness", [
    (_raise_coefficient, ["A3", "A4"],
     "('A3', 'r_a depends on T or g', 1, HalfDiagram(n=2, arcs=((1, 2),), "
     "labels=(1,)), HalfDiagram(n=2, arcs=((1, 2),), labels=(1,)), ())"),
    (_move_to_other_bottom_half, ["A3", "A4", "A5"],
     "('A3', 'bottom half changed', 1, 3, 0)"),
    (_bump_trace, ["A5"],
     "('A5', 'tau(x) != tau(x*)', "
     "LabeledDiagram(matching=((1, 2), (3, 4)), labels=(0, 1)))"),
    (_break_unit, ["A1", "A3", "A5"],
     "('A1', 'identity fails as unit', "
     "LabeledDiagram(matching=((1, 2), (3, 4)), labels=(0, 0)))"),
])
def test_corrupted_datum_fails_with_a_witness(corrupt, failing, witness):
    # on P(2, 2): a wrong product or trace must flip its flag
    datum = datum_build(Context(2, make_verlinde(2)))
    corrupt(datum)
    rep = datum.axioms_check()
    assert [name for name, ok in rep.flags().items() if not ok] == failing
    assert f"witness: {witness}" in rep.lines()
    assert not rep.ok


@pytest.mark.parametrize("n,pair,extra,failing,witnesses", [
    # sampled: (130, 125) is a pair drawn with seed 0, and 130 is one of
    # the sampled a rows, so A3 reads the corrupted product too
    (4, (130, 125), V, ["A3", "A4", "A5"], [
        "('A3', 'r_a depends on T or g', 130, "
        "HalfDiagram(n=4, arcs=((2, 3),), labels=(1,)), "
        "HalfDiagram(n=4, arcs=((1, 2),), labels=(1,)), (1, 0))",
        "('A4', 'gamma support mismatch', 130, 125, 131)",
        "('A5', 'tau(xy) != tau(yx)', 130, 125)",
    ]),
    # exhaustive: a cap times a through diagram lands a layer below the
    # through diagram, which A3 skips; v^2 lifts the degree past a(Z) = 1
    (2, (1, 5), V * V, ["A4", "A5", "a_function"], [
        "('A4', 'degree exceeds a(Z)', 1, 5, 0)",
        "('A5', 'tau(xy) != tau(yx)', 1, 5)",
        "('A5', 'tau(xy) != tau(yx)', 5, 1)",
        "('a', 'max degree != (n - lambda)/2', 0, 2)",
    ]),
    # exhaustive: v^-1 leaves every degree and top coefficient alone, so
    # only the trace of the product moves
    (2, (1, 5), V_INV, ["A5"], [
        "('A5', 'tau(xy) != tau(yx)', 1, 5)",
        "('A5', 'tau(xy) != tau(yx)', 5, 1)",
    ]),
], ids=["sampled", "a_function", "tau_xy"])
def test_corrupted_product_report_is_pinned(n, pair, extra, failing, witnesses):
    datum = datum_build(Context(n, make_verlinde(2)))
    _add_to_product(datum, *pair, extra)
    rep = datum.axioms_check(seed=0)
    assert rep.exhaustive == (len(datum.basis) <= EXHAUSTIVE_CAP)
    assert [name for name, ok in rep.flags().items() if not ok] == failing
    assert [repr(w) for w in rep.witnesses] == witnesses
