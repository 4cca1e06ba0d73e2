"""Generalized Temperley-Lieb quotients of Hecke algebras.

TL(X) is the quotient of the Hecke algebra H(X) by the two-sided ideal
J(X) generated, for each joined generator pair (s, t), by the sum of
T_w over the dihedral parabolic <s, t>.  H/J is free on the images
t_w of T_w for w fully commutative (Graham), and the projection theta
is built from J's generators and the T-basis alone, by increasing
length (:meth:`TL._build_theta`):

* theta(T_y) = t_y for y fully commutative;
* a complex y either ends in a braid, y = x w_st with every xz reduced
  for z in <s, t>, and then T_x times the generator of J gives
  theta(T_y) = -(sum of theta(T_{xz}) over z other than w_st); or it
  has a right descent s with ys complex (Stembridge), and then
  theta(T_y) = theta(T_{ys}) T_s.

Three checks on the finished table make this rigorous rather than
assumed: every generator of J maps to 0; theta(T_{y^-1}) is star of
theta(T_y); and theta(T_y) T_s = theta(T_y T_s) for every complex y
and generator s.  The last makes the kernel a right ideal and star
makes it two-sided, so it contains J; theta is onto a free module of
the rank of H/J, and a surjection between free modules of equal finite
rank over a commutative ring is an isomorphism, so the kernel is J.
A wrong split of W into fully commutative and complex elements fails
the build.

Elements of the quotient are sparse dicts over positions in the W_c
tuple with Laurent coefficients in the t-basis t_w = theta(T_w).  The
bar involution descends through theta (each generator of J is v^m
times the bar-invariant C'_{w_st}), and the canonical basis c_w is the
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
from .laurent import Laurent, ONE, V_INV, lincomb


class TL:
    """The Temperley-Lieb quotient of the Hecke algebra of g."""

    def __init__(self, g: CoxeterGroup):
        self.g = g
        self.h: Hecke = hecke(g)
        self.wc = wc_classify(g)[0]
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
        """theta(T_y) for every y, by increasing length, from J's generators.

        Each complex y is written as a combination of shorter T_z equal
        to T_y modulo J: minus the rest of x times the generator of J
        when y = x w_st, else theta(T_{ys}) T_s for a complex ys.  A
        complex y with neither is misplaced by the split of W.
        """
        g, h = self.g, self.h
        braids = []
        for s, t in g.bond_pairs():
            top = g.dihedral_longest(s, t)
            others = [z for z in g.dihedral_members(s, t) if z != top]
            for a, b in ((s, t), (t, s)):
                braids.append(([(a, b)[k % 2] for k in range(g.bonds[s][t])], others))
        table: list = []
        for y in range(g.order):
            if y in self.pos:
                table.append({self.pos[y]: ONE})
                continue
            for word, others in braids:
                x = y
                for r in word:
                    if g.lengths[g.right[x][r]] > g.lengths[x]:
                        break
                    x = g.right[x][r]
                else:
                    equal = {g.mult(x, z): -1 for z in others}
                    break
            else:
                s = next((s for s in g.right_descents(y)
                          if g.right[y][s] not in self.pos), None)
                if s is None:
                    raise AssertionError(
                        f"complex element {g.word(y)} ends in no braid and "
                        "has no complex prefix"
                    )
                equal = h.mul_gen(self._lift(table[g.right[y][s]]), s)
            table.append(lincomb((c, table[z]) for z, c in equal.items()))
        return table

    def _lift(self, x: dict) -> dict:
        """The Hecke element sum of c T_w for a quotient element sum of c t_w."""
        return {self.wc[k]: c for k, c in x.items()}

    def _verify_quotient(self) -> None:
        """The three checks that make theta the projection modulo J."""
        g, h, table = self.g, self.h, self._theta_t
        for s, t in g.bond_pairs():
            if self.theta({z: ONE for z in g.dihedral_members(s, t)}):
                raise AssertionError(f"generator of J for bond ({s},{t}) survives")
        for y in range(g.order):
            if table[g.inverse[y]] != self.star(table[y]):
                raise AssertionError(f"theta does not commute with star at {g.word(y)}")
            if y in self.pos:
                continue  # theta(T_y) T_s = theta(T_y T_s) by definition
            lift = self._lift(table[y])
            for s in range(g.rank):
                if self.theta(h.mul_gen(lift, s)) != self.theta(h.mul_gen(h.t(y), s)):
                    raise AssertionError(
                        f"theta(T_y) T_s differs from theta(T_y T_s) at "
                        f"y = {g.word(y)}, s = {s + 1}"
                    )

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
        return lincomb((c, self._theta_t[y]) for y, c in x.items())

    def add(self, x: dict, y: dict) -> dict:
        return lincomb(((1, x), (1, y)))

    def scale(self, x: dict, c) -> dict:
        return lincomb(((c, x),))

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
        return lincomb(
            (c * d, self.t_mul(ku, kw))
            for ku, c in x.items()
            for kw, d in y.items()
        )

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
        return " + ".join(
            f"({x[k]}) t[{self.g.word(self.wc[k])}]" for k in sorted(x)
        )


@lru_cache(maxsize=None)
def tl(g: CoxeterGroup) -> TL:
    """The cached, construction-verified TL quotient for the group."""
    return TL(g)
