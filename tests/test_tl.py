"""Quotient algebras: ideal descent, generator relations, canonical basis."""

import importlib
import random
from types import SimpleNamespace

import pytest

from planalg.coxeter import coxeter_group, wc_classify
from planalg.hecke import Hecke, hecke, ic_solve
from planalg.laurent import DELTA, Laurent, ONE, V_INV, lincomb
from planalg.tl import tl

# The module itself: the package re-exports the function ``tl`` under
# the same name.
TL_MODULE = importlib.import_module("planalg.tl")

ALL_TYPES = [("A", 1, 0), ("A", 2, 0), ("A", 3, 0), ("A", 4, 0),
             ("B", 2, 0), ("B", 3, 0), ("H", 3, 0)] + [
    ("I", 2, m) for m in range(3, 9)
]

#: Every group that coxeter_group accepts.
ACCEPTED_TYPES = ALL_TYPES + [("H", 4, 0)] + [("I", 2, m) for m in range(9, 13)]

#: The groups whose corrupted builds must fail.
CORRUPTED_TYPES = [("A", 3, 0), ("B", 3, 0), ("H", 3, 0), ("I", 2, 5)]

WC_COUNTS = {"A1": 2, "A2": 5, "A3": 14, "A4": 42, "B2": 7, "B3": 24,
             "H3": 44, "I2(3)": 5, "I2(4)": 7, "I2(5)": 9, "I2(6)": 11,
             "I2(7)": 13, "I2(8)": 15}


@pytest.mark.parametrize("family,rank,m", ALL_TYPES)
def test_construction_and_rank(family, rank, m):
    q = tl(coxeter_group(family, rank, m))
    assert q.rank == WC_COUNTS[q.g.name]
    assert q.wc[0] == 0  # identity comes first


# C'_w and theta(T_w) = t_1 T_w (the product row of t_1) built by the
# oracle theta(C'_w) = c_w, out of |W| (120, 48, 120, 14400): the lower
# Bruhat ideal of W_c and its prefixes.
ORACLE_READS = {"A4": (42, 63), "B3": (25, 29), "H3": (46, 76), "H4": (269, 840)}


@pytest.mark.parametrize("family,rank,m", ALL_TYPES + [("H", 4, 0)])
def test_cross_oracle(family, rank, m):
    # A fresh quotient and Hecke algebra, so no other test has filled
    # their tables: the oracle's C'_w come from the C'_s recursion, not
    # from a bar table, and only the ones it reads are built.
    g = coxeter_group(family, rank, m)
    q = TL_MODULE.TL(g)
    q.h = Hecke(g)
    assert q.cross_check_canonical()
    assert "_bar_table" not in vars(q.h)
    if g.name in ORACLE_READS:
        assert (len(q.h._canonical_table), len(q._rows[0])) == ORACLE_READS[g.name]


@pytest.mark.parametrize("family,rank,m", ALL_TYPES)
def test_complex_cprime_lies_in_the_kernel(family, rank, m):
    # The Kazhdan-Lusztig solve over all of W against theta, which is
    # built from the generators of J alone.
    g = coxeter_group(family, rank, m)
    h, q = hecke(g), tl(g)
    for y in range(g.order):
        if y not in q.pos:
            assert q.theta(h.cprime(y)) == {}, g.rwords[y]


@pytest.mark.parametrize("family,rank,m", ALL_TYPES)
def test_action_table_matches_hecke(family, rank, m):
    # The table t_y T_s, built on W_c alone, against theta of the Hecke
    # product T_y T_s.
    g = coxeter_group(family, rank, m)
    h, q = hecke(g), tl(g)
    for k, y in enumerate(q.wc):
        for s in range(g.rank):
            assert q.mul_gen({k: 1}, s) == q.theta(h.mul_gen(h.t(y), s)), (y, s)


def test_h4_canonical_basis_on_wc_alone():
    # A fresh quotient, so no other test has read its bar table: the
    # canonical basis reads none, and its table holds W_c alone.
    g = coxeter_group("H", 4)
    q = TL_MODULE.TL(g)
    assert q.rank == 195
    for w in q.wc:
        q.canonical_t(w)
    assert "_bar_table" not in vars(q)
    assert len(q._canonical_table) == 195
    for k, w in enumerate(q.wc):
        cw, unit = q.canonical_t(w), q.canonical_unit(w)
        assert q.bar(cw) == cw
        assert unit[k] == ONE
        assert all(z < k and c.degree() < 0 for z, c in unit.items() if z != k)
        assert q.star(cw) == q.canonical_t(g.inverse[w])
    # Neither table over all of W was needed: no product row was read
    # outside W_c.
    assert all(w in q.pos for row in q._rows for w in row)
    assert "_bar_table" not in vars(hecke(g))


@pytest.mark.parametrize("family,rank,m", ACCEPTED_TYPES)
def test_recursion_matches_bar_table_inversion(family, rank, m):
    """c_us = c_u b_s - sum of mu(z) c_z against ic_solve over the bar table."""
    g = coxeter_group(family, rank, m)
    q = TL_MODULE.TL(g)
    for w in q.wc:
        q.canonical_t(w)
    assert "_bar_table" not in vars(q)
    assert len(q._canonical_table) == q.rank
    assert [q.canonical_unit(w) for w in q.wc] == ic_solve(q._bar_table, q.lengths)


@pytest.mark.parametrize("rank", range(1, 5))
def test_type_a_canonical_basis_is_monomial(rank):
    """In type A the recursion makes no correction: c_w = b_{s1} ... b_{sk}.

    So a dropped or doubled correction changes nothing there (Fan and
    Green, "Monomials and Temperley-Lieb algebras", 1997), and the test
    below corrupts corrections in the other types only.
    """
    q = tl(coxeter_group("A", rank))
    for w in q.wc:
        x = q.one()
        for s in q.g.rwords[w]:
            x = q.mul(x, q.b(s))
        assert x == q.canonical_t(w)


@pytest.mark.parametrize("mutation", ["correction dropped", "correction doubled"])
@pytest.mark.parametrize("family,rank,m", CORRUPTED_TYPES[1:])  # not A3, see above
def test_corrupted_recursion_is_refused(monkeypatch, family, rank, m, mutation):
    # The correction mu(z) is read as a coefficient of c_u at z, and
    # nothing else in the quotient's recursion reads a coefficient.
    g = coxeter_group(family, rank, m)
    q = TL_MODULE.TL(g)
    factor = 0 if mutation == "correction dropped" else 2
    coeff = Laurent.coeff
    monkeypatch.setattr(Laurent, "coeff", lambda self, k: factor * coeff(self, k))
    with pytest.raises(ArithmeticError, match="Kazhdan-Lusztig"):
        for w in q.wc:
            q.canonical_t(w)


@pytest.mark.parametrize("family,rank,m", CORRUPTED_TYPES)
def test_negated_b_s_term_fails_the_oracle_and_bar(monkeypatch, family, rank, m):
    """Negating the v^-1 t_1 term of b_s, so that the step forms
    v^-1 (c_u T_s - c_u) in place of c_u b_s.

    The results would still have the degree shape of a canonical basis,
    so the step alone does not refuse them; the oracle theta(C'_w) = c_w,
    whose C'_w come from the unaltered Hecke recursion, does.  With the
    oracle bypassed, ic_solve over the bar table and bar itself, both
    built apart from the recursion, show the results are wrong.
    """
    step = TL_MODULE.canonical_step

    def negated(algebra, *args):
        def mul_gen(x, s):
            return lincomb(((1, algebra.mul_gen(x, s)), (-2, x)))
        return step(SimpleNamespace(mul_gen=mul_gen), *args)

    monkeypatch.setattr(TL_MODULE, "canonical_step", negated)
    q = TL_MODULE.TL(coxeter_group(family, rank, m))
    with pytest.raises(AssertionError, match="differs"):
        q.cross_check_canonical()
    table = [q.canonical_unit(w) for w in q.wc]
    assert table != ic_solve(q._bar_table, q.lengths)
    assert any(q.bar(q.canonical_t(w)) != q.canonical_t(w) for w in q.wc)


@pytest.mark.parametrize("family,rank,m", ACCEPTED_TYPES)
def test_b_s_table_passes_its_check_and_matches_products(family, rank, m):
    """The rows t_y b_s = v^-1 (t_y T_s + t_y) that the recursion forms
    through mul_gen, none of them stored, satisfy b_s^2 = delta b_s and
    match the product with b(s) through the product rows."""
    q = TL_MODULE.TL(coxeter_group(family, rank, m))
    for k in range(q.rank):
        for s in range(q.g.rank):
            row = lincomb(((V_INV, q.mul_gen({k: ONE}, s)), (V_INV, {k: ONE})))
            assert row == q.mul({k: ONE}, q.b(s))
            assert lincomb(((V_INV, q.mul_gen(row, s)), (V_INV, row))) == lincomb(((DELTA, row),))


@pytest.mark.parametrize("family,rank,m", ACCEPTED_TYPES)
def test_canonical_t_is_kept_and_matches_the_unit_table(family, rank, m):
    q = TL_MODULE.TL(coxeter_group(family, rank, m))
    for _ in range(2):
        for k, w in enumerate(q.wc):
            got = q.canonical_t(w)
            assert got is q.canonical_t(w)
            unit = q.canonical_unit(w)
            assert unit[k] == ONE
            assert all(c.degree() < 0 for z, c in unit.items() if z != k)
            assert {z: c.shift(-q.lengths[z]) for z, c in unit.items()} == got
    assert len(q._canonical_table) == q.rank


def test_h4_products_on_wc_alone():
    g = coxeter_group("H", 4)
    q = tl(g)
    b0, b1 = q.b(0), q.b(1)
    assert q.mul(b0, b0) == q.scale(b0, DELTA)
    b01 = q.mul(b0, b1)
    assert q.star(b01) == q.mul(b1, b0)
    for k in (0, 5, 57, q.rank - 1):
        assert q.t_mul(k, 0) == q.t_mul(0, k) == {k: ONE}
    for k in (5, 57, q.rank - 1):
        x, s = g.prefix(q.wc[k])  # t_x t_s = t_w for w = xs
        assert q.t_mul(q.pos[x], q.pos[g.right[0][s]]) == {k: ONE}
    for ku, kw in ((5, 7), (7, 5), (12, 30), (q.rank - 1, 1)):
        assert q.star(q.t_mul(ku, kw)) == q.mul(q.star({kw: ONE}), q.star({ku: ONE}))
    # The products filled rows, and along W_c alone.
    assert sum(map(len, q._rows)) > q.rank
    assert all(w in q.pos for row in q._rows for w in row)
    assert "_bar_table" not in vars(hecke(g))


def test_generator_square():
    for family, rank, m in ALL_TYPES:
        q = tl(coxeter_group(family, rank, m))
        for s in range(q.g.rank):
            b = q.b(s)
            assert q.mul(b, b) == q.scale(b, DELTA)


def test_ideal_generators_die():
    for family, rank, m in (("A", 2, 0), ("B", 2, 0), ("B", 3, 0), ("I", 2, 6)):
        q = tl(coxeter_group(family, rank, m))
        for s, t in q.g.bond_pairs():
            total = {}
            for w in q.g.dihedral_members(s, t):
                total = q.add(total, q.theta(q.h.t(w)))
            assert total == {}


def test_canonical_equals_generator_at_length_one():
    for family, rank, m in ALL_TYPES:
        q = tl(coxeter_group(family, rank, m))
        for s in range(q.g.rank):
            ts = q.g.right[0][s]
            assert q.canonical_t(ts) == q.b(s)


def test_braid_length_products():
    # m = 3: b_s b_t b_s = b_s; m >= 4: b_s b_t b_s = c_{sts} + c_s
    q3 = tl(coxeter_group("A", 2))
    s, t = q3.g.right[0][0], q3.g.right[0][1]
    bs, bt = q3.b(0), q3.b(1)
    assert q3.mul(q3.mul(bs, bt), bs) == bs
    q4 = tl(coxeter_group("I", 2, 4))
    s = q4.g.right[0][0]
    sts = q4.g.mult(q4.g.mult(s, q4.g.right[0][1]), s)
    bs, bt = q4.b(0), q4.b(1)
    got = q4.mul(q4.mul(bs, bt), bs)
    assert got == q4.add(q4.canonical_t(sts), q4.canonical_t(s))
    # m = 4 extra: (b_s b_t)^2 = 2 b_s b_t
    bst = q4.mul(bs, bt)
    assert q4.mul(bst, bst) == q4.scale(bst, Laurent(2))


@pytest.mark.parametrize("m", range(3, 9))
def test_dihedral_recursion(m):
    """b_s c_w through the cell: doubling, absorption, and the top drop."""
    q = tl(coxeter_group("I", 2, m))
    g = q.g
    two = DELTA
    for s in (0, 1):
        bs = q.b(s)
        for w in q.wc:
            got = q.mul(bs, q.canonical_t(w))
            lw = g.lengths[w]
            sw = g.mult(g.right[0][s], w)
            if g.lengths[sw] < lw:
                want = q.scale(q.canonical_t(w), two)
            elif lw == 0:
                want = q.canonical_t(g.right[0][s])
            elif lw == 1:
                want = q.canonical_t(sw)
            elif lw <= m - 2:
                drop = g.mult(g.right[0][g.rwords[w][0]], w)
                want = q.add(q.canonical_t(sw), q.canonical_t(drop))
            else:  # lw == m - 1: the longest element's image vanishes
                drop = g.mult(g.right[0][g.rwords[w][0]], w)
                want = q.canonical_t(drop)
            assert got == want, (m, s, g.rwords[w])


def test_rank_two_canonical_oracle():
    q = tl(coxeter_group("A", 2))
    g = q.g
    st = g.mult(g.right[0][0], g.right[0][1])
    v2 = Laurent.v_power(-2)
    want = {q.pos[w]: v2 for w in (0, g.right[0][0], g.right[0][1], st)}
    assert q.canonical_t(st) == want


def test_bar_fixes_canonical_basis():
    for family, rank, m in (("A", 3, 0), ("B", 3, 0), ("I", 2, 6)):
        q = tl(coxeter_group(family, rank, m))
        for w in q.wc:
            cw = q.canonical_t(w)
            assert q.bar(cw) == cw


def test_bar_is_an_involution_and_multiplicative():
    q = tl(coxeter_group("B", 2))
    for ku in range(q.rank):
        x = {ku: ONE}
        assert q.bar(q.bar(x)) == x
        for kw in range(q.rank):
            y = {kw: ONE}
            assert q.bar(q.mul(x, y)) == q.mul(q.bar(x), q.bar(y))


def test_star_fixes_generators_and_reverses_products():
    q = tl(coxeter_group("A", 3))
    for s in range(q.g.rank):
        assert q.star(q.b(s)) == q.b(s)
    for ku in range(q.rank):
        for kw in range(q.rank):
            x, y = {ku: ONE}, {kw: ONE}
            assert q.star(q.mul(x, y)) == q.mul(q.star(y), q.star(x))


def test_to_canonical_round_trip():
    q = tl(coxeter_group("B", 3))
    for w in q.wc:
        x = q.mul(q.b(0), q.canonical_t(w))
        coords = q.to_canonical(x)
        back = {}
        for k, c in coords.items():
            for z, d in q.canonical_t(q.wc[k]).items():
                back[z] = back.get(z, Laurent(0)) + c * d
        assert {z: c for z, c in back.items() if c} == x


@pytest.mark.parametrize("family,rank,m", ACCEPTED_TYPES)
def test_canonical_elements_have_unit_coordinates(family, rank, m):
    q = tl(coxeter_group(family, rank, m))
    for w in q.wc:
        assert q.to_canonical(q.canonical_t(w)) == {q.pos[w]: ONE}


def _move_a_term(rows, lengths):
    """(y, a copy of rows) with one term of the first row y that has a
    term off y moved onto another element of y's length."""
    rows = list(rows)
    for y, row in enumerate(rows):
        same = [k for k, ly in enumerate(lengths) if ly == lengths[y] and k != y]
        off = [z for z in row if z != y]
        if same and off:
            rows[y] = {k: c for k, c in row.items() if k != off[0]}
            rows[y][same[0]] = row[off[0]]
            return y, rows
    raise AssertionError("no row to alter")


@pytest.mark.parametrize("family,rank,m", CORRUPTED_TYPES)
def test_a_term_on_the_same_length_is_refused(family, rank, m):
    """c_y is e_y plus terms on shorter elements, and bar(b_y) is b_y plus
    terms on shorter elements: the inverse rows and ic_solve refuse a
    term moved onto an element of y's own length."""
    g = coxeter_group(family, rank, m)
    q, h = TL_MODULE.TL(g), Hecke(g)
    y, rows = _move_a_term([q.canonical_t(w) for w in q.wc], q.lengths)
    q._canonical_table[q.wc[y]] = rows[y]
    with pytest.raises(ArithmeticError, match="not shorter"):
        q.to_canonical({y: ONE})
    y, rows = _move_a_term([h.cprime(w) for w in range(g.order)], g.lengths)
    h._canonical_table[y] = rows[y]
    with pytest.raises(ArithmeticError, match="not shorter"):
        h.to_cprime({y: ONE})
    for table, lengths in ((q._bar_table, q.lengths),
                           ([h.bar_t(w) for w in range(g.order)], g.lengths)):
        with pytest.raises(ArithmeticError, match="feeds its own length"):
            ic_solve(_move_a_term(table, lengths)[1], lengths)


@pytest.mark.parametrize("family,rank,m", [
    ("A", 3, 0), ("B", 3, 0), ("H", 3, 0), ("I", 2, 5),
])
def test_canonical_coordinates_descend_through_theta(family, rank, m):
    # theta(C'_y) = c_y for fully commutative y and 0 for complex y, so
    # the quotient's canonical coordinates of theta(x) are the Hecke
    # C'-coordinates of x restricted to W_c.
    g = coxeter_group(family, rank, m)
    h, q = hecke(g), tl(g)
    rng = random.Random(rank * 100 + m)
    for _ in range(6):
        x = {}
        for _ in range(rng.randint(1, 4)):
            x[rng.randrange(g.order)] = (
                Laurent.v_power(rng.randint(-3, 3)) * rng.choice((1, 2, -1, -3)))
        want = {q.pos[y]: c for y, c in h.to_cprime(x).items() if y in q.pos}
        assert q.to_canonical(q.theta(x)) == want


@pytest.mark.parametrize("family,rank,m", [
    ("B", 2, 0), ("A", 3, 0), ("I", 2, 5), ("I", 2, 8),
])
def test_theta_is_an_algebra_map(family, rank, m):
    g = coxeter_group(family, rank, m)
    h, q = hecke(g), tl(g)
    for u in range(g.order):
        for w in range(g.order):
            lhs = q.theta(h.mul(h.t(u), h.t(w)))
            rhs = q.mul(q.theta(h.t(u)), q.theta(h.t(w)))
            assert lhs == rhs


def test_element_str_is_deterministic():
    q = tl(coxeter_group("A", 2))
    assert q.element_str(q.b(0)) == "(v^-1) t[e] + (v^-1) t[1]"
    assert q.element_str({}) == "0"


@pytest.mark.parametrize("end", ["shortest", "longest", "second", "last"])
@pytest.mark.parametrize("family,rank,m", [
    ("A", 3, 0), ("B", 3, 0), ("H", 3, 0), ("I", 2, 5),
])
def test_complex_element_moved_into_wc_is_refused(monkeypatch, family, rank, m, end):
    """A wrong split of W into W_c and complex elements fails the build.

    Elements are numbered by length.  "shortest" and "longest" move the
    first or the last complex element into W_c; in I2(5) both are w0,
    the only complex element.  "second" and "last" move a fully
    commutative element out of W_c: a generator, or the last one.
    """
    g = coxeter_group(family, rank, m)
    wc, complex_part = wc_classify(g)
    if end in ("shortest", "longest"):
        moved = complex_part[0 if end == "shortest" else -1]
        split = (tuple(sorted(wc + (moved,))),
                 tuple(w for w in complex_part if w != moved))
    else:
        moved = wc[1 if end == "second" else -1]
        split = (tuple(w for w in wc if w != moved),
                 tuple(sorted(complex_part + (moved,))))
    monkeypatch.setattr(TL_MODULE, "wc_classify", lambda _: split)
    with pytest.raises(AssertionError):
        TL_MODULE.TL(g)


@pytest.mark.parametrize("family,rank,m", [
    ("A", 3, 0), ("B", 3, 0), ("H", 3, 0), ("I", 2, 5),
])
def test_negated_boundary_row_is_refused(family, rank, m):
    """Negating t_y T_s at any one rise into a complex element fails the build.

    Later rows are read from the negated one, so the table stays
    consistent with it; only the certificate can refuse it.
    """
    g = coxeter_group(family, rank, m)
    q = tl(g)
    boundary = [(y, s) for y in q.wc for s in range(g.rank)
                if g.right[y][s] not in q.pos]
    assert boundary
    for target in boundary:
        class Negated(TL_MODULE.TL):
            def _complex_rise(self, y, s, braids):
                got = super()._complex_rise(y, s, braids)
                return self.scale(got, -1) if (y, s) == target else got

        with pytest.raises(AssertionError):
            Negated(g)


@pytest.mark.parametrize("family,rank,m", [
    ("A", 1, 0), ("A", 3, 0), ("B", 2, 0), ("I", 2, 5), ("B", 3, 0), ("H", 3, 0),
])
def test_negated_row_of_the_finished_table_is_refused(family, rank, m):
    # Rise, drop and boundary rows alike; in A1 only the quadratic
    # relation sees a negated drop row.  Check (1) visits one triple of
    # each pair (y, s, r), (y^-1, r, s), so every row must still be seen.
    g = coxeter_group(family, rank, m)
    for k in range(tl(g).rank):
        for s in range(g.rank):
            class Negated(TL_MODULE.TL):
                def _build_act(self):
                    super()._build_act()
                    self._act[k][s] = self.scale(self._act[k][s], -1)

            with pytest.raises(AssertionError):
                Negated(g)


@pytest.mark.parametrize("family,rank,m,products", [
    ("A", 3, 0, 144), ("B", 3, 0, 246), ("H", 3, 0, 432), ("I", 2, 5, 46), ("A", 4, 0, 712),
])
def test_commutation_check_forms_one_product_pair_per_orbit(family, rank, m, products):
    """Check (1) makes N + F products: N = |W_c| rank^2, F = rank times
    the number of involutions in W_c; two per triple would be 2N.

    Its calls are those made before check (2) squares t_1 T_s, whose
    first product reads the finished row act[0][0] itself.
    """
    class Counting(TL_MODULE.TL):
        def _certify(self):
            self.calls = []
            super()._certify()

        def mul_gen(self, x, s):
            if hasattr(self, "calls"):
                self.calls.append(x)
            return super().mul_gen(x, s)

    g = coxeter_group(family, rank, m)
    q = Counting(g)
    check_one = next(i for i, x in enumerate(q.calls) if x is q._act[0][0])
    involutions = sum(g.inverse[w] == w for w in q.wc)
    assert check_one == q.rank * g.rank ** 2 + g.rank * involutions == products


def test_inverse_table_leaving_wc_is_refused(monkeypatch):
    g = coxeter_group("A", 2)
    inverse = list(g.inverse)
    inverse[g.right[0][0]] = g.order - 1  # the complex longest element
    monkeypatch.setattr(g, "inverse", tuple(inverse))
    with pytest.raises(AssertionError, match="closed under inverses"):
        TL_MODULE.TL(g)


def test_inverse_table_that_is_no_involution_is_refused(monkeypatch):
    # Check (1) visits one triple of each pair that star exchanges, which
    # is sound only when star is an involution.
    g = coxeter_group("A", 3)
    s1, s2, s3 = (g.right[0][s] for s in range(3))
    inverse = list(g.inverse)
    inverse[s1], inverse[s2], inverse[s3] = s2, s3, s1
    monkeypatch.setattr(g, "inverse", tuple(inverse))
    with pytest.raises(AssertionError, match="closed under inverses"):
        TL_MODULE.TL(g)


def test_theta_must_commute_with_star(monkeypatch):
    """An inverse table that swaps two generators fails the star check.

    The action table itself is unchanged, so only the check that the
    left action star R_s star commutes with every right generator can
    see it.
    """
    g = coxeter_group("A", 3)
    s1, s2 = g.right[0][0], g.right[0][1]
    inverse = list(g.inverse)
    inverse[s1], inverse[s2] = s2, s1
    monkeypatch.setattr(g, "inverse", tuple(inverse))
    with pytest.raises(AssertionError, match="star"):
        TL_MODULE.TL(g)
