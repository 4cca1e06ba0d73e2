"""Generalized Temperley-Lieb quotients of Hecke algebras.

TL(X) is the quotient of the Hecke algebra H(X) by the two-sided ideal
J(X) generated, for each joined generator pair (s, t), by the sum of
T_z over the dihedral parabolic <s, t>.  H/J is free on the images t_w
of T_w for w fully commutative (Graham), so the quotient is built on
W_c alone, as one table act[k][s] = t_y T_s (y = wc[k]) filled by
increasing length (:meth:`TL._build_act`):

* t_ys when ys rises into W_c, q t_ys + (q-1) t_y when it drops;
* on a rise into a complex ys that ends in a braid, ys = x w_st with
  every xz reduced for z in <s, t>, T_x times the generator of J gives
  -(sum of t_x T_z over z in <s, t> other than w_st);
* otherwise (Stembridge) ys has a right descent r with ysr complex, r
  commutes with s, and the value is (t_yr T_s) T_r.

Every value reads rows of strictly shorter elements.  The proof that
act is the right action of H on H/J (:meth:`TL._certify`): W_c is
closed under inverses and prefixes, so with R_s = act[.][s], star(t_y)
= t_{y^-1} and L_s = star R_s star, every t_y is t_1 R_y and L_y t_1.
(1) Every L_s commutes with every R_r on every t_y, so a polynomial in
the R_s that kills t_1 kills all t_y.  The equation at (y, s, r) is
the star of the one at (y^-1, r, s), and star is an involution (the
constructor checks that inverse is one on W_c), so one triple of each
such pair is checked.  (2) The quadratic relations and
the generator of J, with T_{w_st} along both of its reduced words (so
the braid relation too), kill t_1.  So T_w -> t_1 T_w makes the free
module on W_c a quotient of H/J, free of the same rank, hence H/J
itself; star is the descent of T_w -> T_{w^-1}, which preserves J.
A wrong split of W into fully commutative and complex elements fails
the build.

Elements are sparse dicts over positions in W_c, in the t-basis.  Bar
descends from H (each generator of J is v^m times the bar-invariant
C'_{w_st}) and is folded inside the quotient, bar(t_us) = bar(t_u)
(q^-1 T_s + q^-1 - 1), by the fold that serves H
(:func:`planalg.hecke.bar_table`, :meth:`TL.bar`).  Products fold the action
table too, one row per basis element: row k holds t_y T_us = (t_y
T_u) T_s (y = wc[k]), filled along g.prefix on first read
(:class:`PrefixTable`).  The product t_u t_w is row u read at w in W_c
(:meth:`TL.t_mul`), and the projection theta(T_w) = t_1 T_w is row 0
read at any w in W (:meth:`TL.theta`), so the cross-check theta(C'_w)
= c_w touches only the lower Bruhat ideal of W_c, where C'_w lives.
The rows follow the rule for every long-lived table: it stores one
object per distinct coefficient, and a ``Laurent`` is never mutated, so
sharing one is safe.  Each new row entry passes through a per-instance
table keyed by the set of the coefficient's terms, which determines its
value (:meth:`TL._share`).

The canonical basis c_w, the bar-invariant element that is v^{-l(w)}
t_w plus, at each other z, terms of degree below -l(z), comes from the
recursion that gives the Kazhdan-Lusztig basis of H (Green and
Losonczy, "Canonical bases for Hecke algebra quotients", 1999): c_us =
c_u b_s - sum of mu(z) c_z along g.prefix, with c_u b_s = v^-1 (c_u T_s
+ c_u) through :meth:`TL.mul_gen`, as in H
(:func:`planalg.hecke.canonical_step`).  No table of b_s is derived, so
none needs a check of its own: b_s acts through act itself, which
:meth:`TL._certify` proves to be the action of H.

Why the result is c_us: C'_s is bar-invariant and bar descends to H/J,
so b_s is bar-invariant in the quotient, whose action
:meth:`TL._certify` proves to be that of H.  By induction c_u b_s is
bar-invariant, and so is c_us, since the mu(z) are integers.  In unit
coordinates e_y = v^{-l(y)} t_y the step checks that c_us is e_us plus
terms in v^-1 Z[v^-1]; two bar-invariant elements of that shape differ
by a bar-invariant element with every coefficient in v^-1 Z[v^-1],
which is 0 because bar is unitriangular.  So a step that returns gives
the unique canonical element, whatever integers it subtracted.  It
returns because the constant term of c_u b_s at z is mu(z), as in H: a
complex ys adds theta(e_ys), and theta(C'_x) = 0 for complex x puts
theta(e_x) in v^-1 times the Z[v^-1]-span of the e_z.  A wrong
correction raises ArithmeticError.

The recursion reads neither the bar table nor the Hecke algebra, so
theta(C'_w) = c_w compares recursions over two different algebras,
and :func:`planalg.hecke.ic_solve` over the bar table is a test oracle
only.  W_c is closed under prefixes and every c_z a step corrects by
is in W_c, so the canonical table holds W_c alone.  It is kept per
instance in the t-basis (:meth:`TL.canonical_t`); its values are
shared and must not be mutated.

>>> ctx = tl(coxeter_group("A", 2))
>>> bs, bt = ctx.b(0), ctx.b(1)
>>> ctx.mul(ctx.mul(bs, bt), bs) == bs
True
>>> ctx.element_str(ctx.canonical_t(3))
'(v^-2) t[e] + (v^-2) t[1] + (v^-2) t[2] + (v^-2) t[12]'
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from .coxeter import CoxeterGroup, PrefixTable, coxeter_group, wc_classify
from .hecke import (
    _Q, CanonicalInverse, Hecke, bar_apply, bar_table, canonical_coords, canonical_step,
    hecke, mul_word, to_unit,
)
from .laurent import ONE, V_INV, lincomb


class TL:
    """The Temperley-Lieb quotient of the Hecke algebra of g."""

    def __init__(self, g: CoxeterGroup):
        self.g = g
        self.h: Hecke = hecke(g)
        self.wc = wc_classify(g)[0]
        self.rank = len(self.wc)
        self.pos = {w: k for k, w in enumerate(self.wc)}
        self.lengths = [g.lengths[w] for w in self.wc]
        if any(g.inverse[w] not in self.pos or g.inverse[g.inverse[w]] != w
               or g.prefix(w)[0] not in self.pos for w in self.wc[1:]):
            raise AssertionError(
                "fully commutative set not closed under inverses and prefixes")
        self._build_act()
        self._certify()
        # Row k holds t_y T_w (y = wc[k]) for the w read so far; every
        # coefficient in the rows is the one object _coeffs keeps for its value.
        self._coeffs: dict = {}
        self._rows = [PrefixTable(g, self._share({k: ONE}),
                                  lambda x, u, s: self._share(self.mul_gen(x, s)))
                      for k in range(self.rank)]

    # -- construction ------------------------------------------------------

    def _braids(self) -> list:
        """(word, others) per ordered bond pair (a, b): the reduced word
        ``g.braid_word(a, b)`` of w_ab and the other members of <a, b>."""
        g = self.g
        return [(g.braid_word(a, b),
                 [z for z in g.dihedral_members(a, b) if z != g.dihedral_longest(a, b)])
                for s, t in g.bond_pairs() for a, b in ((s, t), (t, s))]

    def _build_act(self) -> None:
        """act[k][s] = t_y T_s for y = wc[k], by increasing length."""
        g, pos, braids = self.g, self.pos, self._braids()
        self._act = []
        for k, y in enumerate(self.wc):
            self._act.append([
                self._complex_rise(y, s, braids) if ys not in pos
                else {pos[ys]: ONE} if g.lengths[ys] > g.lengths[y]
                else {pos[ys]: _Q, k: _Q - ONE}
                for s, ys in enumerate(g.right[y])])

    def _complex_rise(self, y: int, s: int, braids: list) -> dict:
        """t_y T_s = theta(T_ys) for a complex ys, from shorter rows."""
        g, pos = self.g, self.pos
        ys = g.right[y][s]
        for word, others in braids:
            x = ys
            for r in word:
                if g.lengths[g.right[x][r]] > g.lengths[x]:
                    break
                x = g.right[x][r]
            else:
                if x in pos:
                    return lincomb((-1, mul_word(self, {pos[x]: ONE}, g.rwords[z]))
                                   for z in others)
        for r in g.right_descents(ys):
            y_r = g.right[y][r]
            if r != s and g.right[ys][r] not in pos and y_r in pos:
                return self.mul_gen(self._act[pos[y_r]][s], r)
        raise AssertionError(
            f"complex element {g.word(ys)} ends in no braid and has no complex prefix")

    def _certify(self) -> None:
        """Checks (1) and (2) of the module docstring.

        Check (1) at (k, s, r), y = wc[k], reads M[k][s][r] = (T_s t_y) T_r
        = mul_gen(star(act[inv k][s]), r) and asks star(M[inv k][r][s]) =
        M[k][s][r].  At (inv k, r, s) it asks the star of that equation,
        and star is an involution (``__init__`` checks that inverse is one
        on W_c), so one triple per orbit {(k, s, r), (inv k, r, s)} is
        checked and both its products are formed on the spot: |W_c|
        rank^2 products, plus rank per involution y, not two per triple.
        """
        g, act, one, rank = self.g, self._act, self.one(), self.g.rank
        for k, y in enumerate(self.wc):
            ik = self.pos[g.inverse[y]]
            if ik < k:
                continue
            rights = [self.star(row) for row in act[k]]  # T_r t_{y^-1}
            for s in range(rank):
                left = self.star(act[ik][s])  # T_s t_y
                for r in range(s if ik == k else 0, rank):
                    if self.star(self.mul_gen(rights[r], s)) != self.mul_gen(left, r):
                        raise AssertionError(
                            f"left action through star does not commute with "
                            f"T_{r + 1} at y = {g.word(y)}, s = {s + 1}")
        for s in range(g.rank):
            if self.mul_gen(act[0][s], s) != lincomb(((_Q - ONE, act[0][s]), (_Q, one))):
                raise AssertionError(f"quadratic relation fails at T_{s + 1}")
        for word, others in self._braids():
            words = [word] + [g.rwords[z] for z in others]
            if lincomb((1, mul_word(self, one, z)) for z in words):
                raise AssertionError(
                    f"generator of J along {''.join(str(r + 1) for r in word)} survives")

    def _share(self, row: dict) -> dict:
        """The fresh dict row, each value replaced in place by the object
        ``_coeffs`` keeps for its value (stored on first sight).

        The key is the frozenset of the terms: equal clean ``Laurent``
        values have equal term sets, whatever order their dicts hold, and
        it hashes without the sort that ``Laurent.__hash__`` makes.
        """
        coeffs = self._coeffs
        for k, c in row.items():
            key = frozenset(c._c.items())
            hit = coeffs.get(key)
            if hit is None:
                coeffs[key] = c
            else:
                row[k] = hit
        return row

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
        """Image in the quotient of a Hecke element in the T-basis.

        theta(T_w) = t_1 T_w is read from the product row of t_1.
        """
        return lincomb((c, self._rows[0][y]) for y, c in x.items())

    def add(self, x: dict, y: dict) -> dict:
        return lincomb(((1, x), (1, y)))

    def scale(self, x: dict, c) -> dict:
        return lincomb(((c, x),))

    # -- multiplication ------------------------------------------------------

    def mul_gen(self, x: dict, s: int) -> dict:
        """Right multiplication x T_s through the action table."""
        return lincomb((c, self._act[k][s]) for k, c in x.items())

    def t_mul(self, ku: int, kw: int) -> dict:
        """Product t_u t_w of basis elements, by position.

        Row ku holds t_u T_w = (t_u T_x) T_s for w = xs, filled along
        g.prefix on first read; t_u t_w = t_u T_w for w in W_c, which is
        closed under prefixes, so a row read this way holds W_c alone.
        """
        return self._rows[ku][self.wc[kw]]

    def mul(self, x: dict, y: dict) -> dict:
        return lincomb(
            (c * d, self.t_mul(ku, kw))
            for ku, c in x.items()
            for kw, d in y.items()
        )

    # -- bar and star ----------------------------------------------------------

    @cached_property
    def _bar_table(self) -> list:
        """bar(t_w) = bar(t_u) (q^-1 T_s + q^-1 - 1) for w = us, by position."""
        table = bar_table(self)
        return [table[w] for w in self.wc]

    def bar(self, x: dict) -> dict:
        """The bar involution, descended from the Hecke algebra."""
        return bar_apply(self._bar_table, x)

    def star(self, x: dict) -> dict:
        """The anti-automorphism sending t_w to t_{w inverse}."""
        return {self.pos[self.g.inverse[self.wc[k]]]: c for k, c in x.items()}

    # -- canonical basis ----------------------------------------------------------

    @cached_property
    def _canonical_table(self) -> PrefixTable:
        """c_us = c_u b_s - sum of mu(z) c_z along g.prefix (module docstring)."""
        g, pos, wc = self.g, self.pos, self.wc
        table = PrefixTable(g, self.one(), lambda cu, u, s: canonical_step(
            self, table, cu, s, pos[g.right[u][s]], wc))
        return table

    def canonical_unit(self, w: int) -> dict:
        """c_w in the rescaled basis v^{-l(y)} t_y, keyed by position."""
        return to_unit(self._canonical_table[w], self.lengths)

    def canonical_t(self, w: int) -> dict:
        """c_w in the t-basis, keyed by position, kept on first read; the
        value is shared, and callers must not mutate it.

        >>> ctx = tl(coxeter_group("I", 2, 4))
        >>> ctx.canonical_t(ctx.wc[1]) == ctx.b(0)
        True
        """
        return self._canonical_table[w]

    @cached_property
    def _inverse(self) -> CanonicalInverse:
        """t_y in the canonical basis, by position, on first read."""
        return CanonicalInverse(self.lengths, self._canonical_table, self.wc)

    def to_canonical(self, x: dict) -> dict:
        """Coordinates of x in the canonical basis, keyed by position."""
        return canonical_coords(x, self._inverse)

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
