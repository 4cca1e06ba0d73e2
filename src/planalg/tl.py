"""Generalized Temperley-Lieb quotients of Hecke algebras.

TL(X) is the quotient of the Hecke algebra H(X) by the two-sided ideal
J(X) generated, for each joined generator pair (s, t), by the sum of
T_w over the dihedral parabolic <s, t>.  The quotient is realized
concretely on the fully commutative basis: the kernel is the span of
the Kazhdan-Lusztig elements C'_w with w complex.  Construction-time
checks make this rigorous rather than assumed:

* each defining generator equals v^m C'_{w_st} exactly, so it lies in
  the span (and the span therefore contains J);
* the span is closed under left and right multiplication by every
  C'_s, checked exhaustively, so it is a two-sided ideal;
* both quotients are free of rank |W_c|, and a surjection between free
  modules of equal finite rank over a commutative ring is an
  isomorphism, so the projection modulo the span is the projection
  modulo J.

Elements of the quotient are sparse dicts over positions in the W_c
tuple with Laurent coefficients in the t-basis t_w = theta(T_w).  The
bar involution descends through theta (the kernel is spanned by
bar-invariant elements), and the canonical basis c_w is the
bar-invariant triangular basis produced by the same solver as the
Kazhdan-Lusztig basis, with theta(C'_w) = c_w as a cross-check.

>>> ctx = tl(coxeter_group("A", 2))
>>> bs, bt = ctx.b(0), ctx.b(1)
>>> ctx.mul(ctx.mul(bs, bt), bs) == bs
True
>>> ctx.canonical_t(3) == {0: Laurent("v^-2"), 1: Laurent("v^-2"), 2: Laurent("v^-2"), 3: Laurent("v^-2")}
True
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from .coxeter import CoxeterGroup, coxeter_group, wc_classify
from .hecke import (
    Hecke, bar_apply, canonical_coords, canonical_solve, from_unit, hecke,
)
from .laurent import Laurent, ONE, V_INV, addmul, collect


class TL:
    """The Temperley-Lieb quotient of the Hecke algebra of g."""

    def __init__(self, g: CoxeterGroup):
        self.g = g
        self.h: Hecke = hecke(g)
        self.wc, self.complex = wc_classify(g)
        self.rank = len(self.wc)
        self.pos = {w: k for k, w in enumerate(self.wc)}
        self.lengths = [g.lengths[w] for w in self.wc]
        if any(g.inverse[w] not in self.pos for w in self.wc):
            raise AssertionError("fully commutative set not closed under inverse")
        self._theta_t = self._build_theta()
        self._verify_quotient()
        self._t_mul: dict = {}

    # -- construction ------------------------------------------------------

    def _build_theta(self) -> list:
        """theta(T_y) for every y, by increasing length.

        For fully commutative y this is t_y.  Otherwise C'_y lies in
        the kernel, so T_y = v^{l(y)} C'_y - sum of shorter T_z terms
        maps to the image of the shorter terms alone.
        """
        g = self.g
        table: list = []
        for y in range(g.order):
            if y in self.pos:
                table.append({self.pos[y]: ONE})
                continue
            rows: dict = {}
            for z, p in self.h.cprime_unit(y).items():
                if z == y:
                    continue
                c = -p.shift(g.lengths[y] - g.lengths[z])
                for k, d in table[z].items():
                    addmul(rows, k, c, d)
            table.append(collect(rows))
        return table

    def _verify_quotient(self) -> None:
        """Check the kernel span really contains J and is an ideal."""
        g, h = self.g, self.h
        complex_set = set(self.complex)
        for s, t in g.bond_pairs():
            m = g.bonds[s][t]
            members = self.dihedral_members(s, t)
            if len(members) != 2 * m:
                raise AssertionError("dihedral parabolic has wrong size")
            top = g.dihedral_longest(s, t)
            want = {y: Laurent.v_power(m) * c for y, c in h.cprime(top).items()}
            if want != {y: ONE for y in members}:
                raise AssertionError(
                    f"quotient generator for bond ({s},{t}) is not v^m C'_top"
                )
        for w in self.complex:
            cw = h.cprime(w)
            for s in range(g.rank):
                cs = h.cprime(g.right[0][s])
                for prod in (h.mul(cs, cw), h.mul(cw, cs)):
                    coords = h.to_cprime(prod)
                    if any(y not in complex_set for y in coords):
                        raise AssertionError(
                            f"kernel span not an ideal at C'_{s} * C'_{w}"
                        )

    def dihedral_members(self, s: int, t: int) -> set:
        """Group indices of the parabolic subgroup generated by s and t."""
        members = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for w in frontier:
                for u in (self.g.right[w][s], self.g.right[w][t]):
                    if u not in members:
                        members.add(u)
                        nxt.append(u)
            frontier = nxt
        return members

    # -- linear structure ----------------------------------------------------

    def t(self, w: int) -> dict:
        """The basis element t_w for a fully commutative group index w."""
        return {self.pos[w]: ONE}

    def one(self) -> dict:
        return {0: ONE}

    def b(self, s: int) -> dict:
        """The generator b_s = v^-1 t_1 + v^-1 t_s."""
        return {0: V_INV, self.pos[self.g.right[0][s]]: V_INV}

    def theta(self, x: dict) -> dict:
        """Image in the quotient of a Hecke element in the T-basis."""
        rows: dict = {}
        for y, c in x.items():
            for k, d in self._theta_t[y].items():
                addmul(rows, k, d, c)
        return collect(rows)

    def add(self, x: dict, y: dict) -> dict:
        rows: dict = {}
        for z in (x, y):
            for k, c in z.items():
                addmul(rows, k, c)
        return collect(rows)

    def scale(self, x: dict, c) -> dict:
        rows: dict = {}
        for k, d in x.items():
            addmul(rows, k, d, c)
        return collect(rows)

    # -- multiplication ------------------------------------------------------

    def t_mul(self, ku: int, kw: int) -> dict:
        """Product t_u t_w of basis elements, by position, memoized."""
        key = (ku, kw)
        got = self._t_mul.get(key)
        if got is None:
            u, w = self.wc[ku], self.wc[kw]
            got = self.theta(self.h.mul_t(self.h.t(u), w))
            self._t_mul[key] = got
        return got

    def mul(self, x: dict, y: dict) -> dict:
        rows: dict = {}
        for ku, c in x.items():
            for kw, d in y.items():
                cd = c * d
                for k, e in self.t_mul(ku, kw).items():
                    addmul(rows, k, e, cd)
        return collect(rows)

    # -- bar and star ----------------------------------------------------------

    @cached_property
    def _bar_table(self) -> list:
        return [self.theta(self.h.bar_t(w)) for w in self.wc]

    def bar(self, x: dict) -> dict:
        """The bar involution, descended from the Hecke algebra."""
        return bar_apply(self._bar_table, x)

    def star(self, x: dict) -> dict:
        """The anti-automorphism sending t_w to t_{w inverse}."""
        return {self.pos[self.g.inverse[self.wc[k]]]: c for k, c in x.items()}

    # -- canonical basis ----------------------------------------------------------

    @cached_property
    def _canonical_table(self) -> list:
        return canonical_solve(self._bar_table, self.lengths)

    def canonical_unit(self, w: int) -> dict:
        """c_w in the rescaled basis v^{-l(y)} t_y, keyed by position."""
        return self._canonical_table[self.pos[w]]

    def canonical_t(self, w: int) -> dict:
        """c_w in the t-basis, keyed by position.

        >>> ctx = tl(coxeter_group("I", 2, 4))
        >>> ctx.canonical_t(ctx.wc[1]) == ctx.b(0)
        True
        """
        return from_unit(self.canonical_unit(w), self.lengths)

    def to_canonical(self, x: dict) -> dict:
        """Coordinates of x in the canonical basis, keyed by position."""
        return canonical_coords(x, self.lengths, self._canonical_table)

    def cross_check_canonical(self) -> bool:
        """theta(C'_w) equals c_w for every fully commutative w."""
        for w in self.wc:
            if self.theta(self.h.cprime(w)) != self.canonical_t(w):
                raise AssertionError(f"theta(C'_{w}) differs from c_{w}")
        return True

    def element_str(self, x: dict) -> str:
        """Deterministic rendering in the t-basis, sorted by position."""
        if not x:
            return "0"
        parts = []
        for k in sorted(x):
            word = "".join(str(s + 1) for s in self.g.rwords[self.wc[k]])
            parts.append(f"({x[k]}) t[{word or 'e'}]")
        return " + ".join(parts)


@lru_cache(maxsize=None)
def tl(g: CoxeterGroup) -> TL:
    """The cached, construction-verified TL quotient for the group."""
    return TL(g)
