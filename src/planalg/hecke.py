"""Hecke algebras over Z[v, v^-1] and their Kazhdan-Lusztig bases.

Elements are sparse dicts mapping group-element indices to Laurent
coefficients in the T-basis, with q = v^2 and the defining recursion
T_s T_w = T_{sw} when the length goes up and q T_{sw} + (q-1) T_w when
it goes down.  :func:`mul_word` folds the algebra's ``mul_gen`` along a
word, for H and the quotient alike.  The bar involution sends v to v^-1
and T_w to the inverse of T_{w^-1}; it is built incrementally along
reduced words.

The Kazhdan-Lusztig basis C'_w of H and the canonical basis c_w of its
Temperley-Lieb quotient come from one recursion (Kazhdan and Lusztig,
"Representations of Coxeter groups and Hecke algebras", 1979; Green
and Losonczy, "Canonical bases for Hecke algebra quotients", 1999):
for w = us with us > u,

    c_w = c_u C'_s - sum of mu(z) c_z over z with zs < z,

in the algebra's own basis T_y (or t_y), along g.prefix, where mu(z)
is the coefficient of v^{-l(z)-1} of c_u at z (in H, the top
coefficient of P_{z,u}), read by :func:`mu_terms`, which the diagram
embedding's image recursion calls too.  :func:`canonical_step` forms
c_u C'_s = v^-1 (c_u T_s + c_u) through the algebra's ``mul_gen``, the
same call for H and the quotient, and does the rest for both.  Each c_w is
bar-invariant by construction, since C'_s is and the mu(z) are
integers, and in the unit coordinates e_y = v^{-l(y)} T_y of
:func:`to_unit` must be e_w plus terms in v^-1 Z[v^-1], which makes it
the unique canonical element; a wrong mu, or a step that moves a
constant term, breaks this and raises ArithmeticError.  A step that is
wrong elsewhere can pass, so the tests also hold every c_w to bar and
to :func:`ic_solve`.  In H the coefficient at y is v^{-l(w)} P_{y,w},
and the Hecke table also checks P_{y,w}(0) = 1.  Both the bar table
(:func:`bar_table`, shared with the quotient) and the C'_w table fill
on first read (:class:`PrefixTable`); C'_w never reads bar.

:func:`ic_solve` finds the same basis the other way, by inverting a
bar table one length at a time.  No library path calls it: it is the
oracle the tests hold the recursion to.  :func:`bar_apply` applies bar
through a table.  Since c_y is v^{-l(y)} b_y plus terms on shorter
elements, each b_y has a finite canonical expansion, one lincomb over
those of shorter elements (:class:`CanonicalInverse`), and
:func:`canonical_coords` is one lincomb over these rows.

>>> h = hecke(coxeter_group("A", 2))
>>> h.mul(h.t(1), h.t(1)) == {0: Laurent("v^2"), 1: Laurent("v^2 - 1")}
True
>>> h.cprime(1) == {0: Laurent("v^-1"), 1: Laurent("v^-1")}
True
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from .coxeter import CoxeterGroup, PrefixTable, coxeter_group
from .laurent import Laurent, ONE, V_INV, ZERO, lincomb

_Q = Laurent.v_power(2)
_QINV = Laurent.v_power(-2)


def bar_table(algebra) -> PrefixTable:
    """bar(T_us) = bar(T_u) T_s^-1, T_s^-1 = q^-1 T_s + q^-1 - 1, on first read.

    ``algebra`` is a :class:`Hecke` or a Temperley-Lieb quotient: only its
    group, ``one`` and ``mul_gen`` are read.
    """
    return PrefixTable(algebra.g, algebra.one(), lambda x, u, s: lincomb(
        ((_QINV, algebra.mul_gen(x, s)), (_QINV - ONE, x))))


def mul_word(algebra, x: dict, word) -> dict:
    """x T_{s1} ... T_{sk} for word = (s1, ..., sk), by ``algebra.mul_gen``
    (a :class:`Hecke` or a Temperley-Lieb quotient)."""
    for s in word:
        x = algebra.mul_gen(x, s)
    return x


def mu_terms(g: CoxeterGroup, cu: dict, s: int, basis):
    """(mu(z), basis[z]) for each coordinate z of c_u with zs < z and
    mu(z) != 0, where mu(z) is the coefficient of v^{-l(z)-1} of c_u at z:
    the corrections of the step c_us = c_u C'_s - sum of mu(z) c_z."""
    right, lengths = g.right, g.lengths
    for z, c in cu.items():
        y = basis[z]
        if lengths[right[y][s]] < lengths[y] and (mu := c.coeff(-lengths[y] - 1)):
            yield mu, y


def canonical_step(algebra, table: PrefixTable, cu: dict, s: int, w: int, basis) -> dict:
    """c_w = c_u C'_s - sum of mu(z) c_z for w = us, c_u C'_s = v^-1 (c_u T_s + c_u).

    In the algebra's own basis, through ``algebra.mul_gen``: w is the
    coordinate of us, basis[z] the group element of coordinate z, and
    table[basis[z]] is c_z, read on demand, and the mu(z) come from
    :func:`mu_terms`.  A z with zs < z gets v c_u[z] from its own drop,
    so the coefficient of v^{-l(z)} at z is mu(z) when the step is
    right, and one pass reads every correction off c_u.
    Raises ArithmeticError unless the result is v^{-l(w)} at w and of
    degree below -l(z) at every other z (e_w plus terms in v^-1 Z[v^-1]
    in unit coordinates), which checks each mu(z) against the product: a
    step that moves a v^{-l(z)} term is refused, not absorbed.
    """
    lengths = table.g.lengths
    x = lincomb([(V_INV, algebra.mul_gen(cu, s)), (V_INV, cu), *(
        (-mu, table[y]) for mu, y in mu_terms(table.g, cu, s, basis))])
    if (x.get(w) != Laurent.v_power(-lengths[basis[w]])
            or any(c.degree() >= -lengths[basis[z]] for z, c in x.items() if z != w)):
        raise ArithmeticError(
            f"c_{table.g.word(basis[w])} is not a Kazhdan-Lusztig element: {x}")
    return x


def ic_solve(bar_table: list, lengths) -> list:
    """The canonical basis by inverting a bar table: the oracle for the recursion.

    bar_table[y] is bar(b_y) in the b-basis over 0..len(bar_table)-1,
    lengths[y] is l(y), and bar mixes b_y only with strictly shorter b_z.
    In unit coordinates e_y = v^{-l(y)} b_y, bar(e_y) = e_y + sum over
    z != y of R[y][z] e_z with R[y][z] = v^{l(y)+l(z)} bar_table[y][z].
    For each w the solver returns the coordinates p of the unique
    c_w = sum_y p[y] e_y with bar(c_w) = c_w, p[w] = 1, and all other
    p[y] in v^-1 Z[v^-1].  At each z, p[z] - bar(p[z]) = k[z], the sum
    of bar(p[y]) R[y][z] over longer y, so p is found one length at a
    time from l(w) down: one lincomb per length adds the rows of the
    level above into k, and p[z] is the negative part of k[z].  Raises
    ArithmeticError if a row has a term not shorter than its own element,
    so that a level would feed its own length, or if some k[z] is not
    bar-antisymmetric, which would falsify unitriangularity.
    """
    rows = [{z: c.shift(ly + lengths[z]) for z, c in row.items() if z != y}
            for y, (row, ly) in enumerate(zip(bar_table, lengths))]
    levels = [[] for _ in range(max(lengths, default=-1) + 1)]
    for y, row in enumerate(rows):
        if any(lengths[z] >= lengths[y] for z in row):
            raise ArithmeticError(f"bar(b_{y}) feeds its own length: {bar_table[y]}")
        levels[lengths[y]].append(y)
    table = []
    for w, lw in enumerate(lengths):
        p, fed, k = {w: ONE}, [w], {}
        for level in reversed(levels[:lw]):
            k = lincomb([(1, k), *((p[y].bar(), rows[y]) for y in fed)])
            fed = []
            for z in level:
                kz = k.get(z)
                if kz is None:
                    continue
                if not kz.is_bar_antisymmetric():
                    raise ArithmeticError(
                        f"correction at ({w}, {z}) is not bar-antisymmetric: {kz}")
                if pz := kz.negative_part():
                    p[z] = pz
                    fed.append(z)
        table.append(p)
    return table


def bar_apply(bar_table: list, x: dict) -> dict:
    """bar(x), semilinear over the coefficients, through the bar table."""
    return lincomb(
        (c.bar() if isinstance(c, Laurent) else c, bar_table[y])
        for y, c in x.items()
    )


class CanonicalInverse(dict):
    """b_y in the canonical basis, by coordinate y, filled on first read.

    table[basis[y]] is c_y in the b-basis, v^{-l(y)} b_y plus terms on
    strictly shorter z (Green and Losonczy), so

        b_y = v^{l(y)} c_y - sum over z != y of v^{l(y)} c_y[z] b_z

    is one lincomb over the rows of shorter elements, read on demand.
    Raises ArithmeticError on a term of c_y at z != y that is not
    shorter than y.  Rows are shared, like the table's values, and
    must not be mutated.
    """

    def __init__(self, lengths, table: PrefixTable, basis):
        super().__init__()
        self.lengths, self.table, self.basis = lengths, table, basis

    def __missing__(self, y: int) -> dict:
        lengths, ly, cy = self.lengths, self.lengths[y], self.table[self.basis[y]]
        if any(lengths[z] >= ly for z in cy if z != y):
            raise ArithmeticError(
                f"c_{self.table.g.word(self.basis[y])} has a term not shorter than it: {cy}")
        got = self[y] = lincomb([(Laurent.v_power(ly), {y: ONE}), *(
            (-c.shift(ly), self[z]) for z, c in cy.items() if z != y)])
        return got


def canonical_coords(x: dict, inverse: CanonicalInverse) -> dict:
    """Coordinates of x (in the b-basis) in the canonical basis."""
    return lincomb((c, inverse[y]) for y, c in x.items())


def to_unit(x: dict, lengths) -> dict:
    """x, given in the b-basis, in unit coordinates e_y = v^{-l(y)} b_y."""
    return {y: c.shift(lengths[y]) for y, c in x.items()}


class Hecke:
    """The Hecke algebra of a finite Coxeter group, in the T-basis."""

    def __init__(self, g: CoxeterGroup):
        self.g = g

    # -- T-basis arithmetic ---------------------------------------------

    def t(self, w: int) -> dict:
        """The basis element T_w."""
        return {w: ONE}

    def one(self) -> dict:
        return {0: ONE}

    def mul_gen(self, x: dict, s: int) -> dict:
        """Right multiplication x * T_s: T_w T_s is T_ws on a length rise
        and q T_ws + (q-1) T_w on a drop, the rows of the TL action table."""
        right, lengths, q1 = self.g.right, self.g.lengths, _Q - ONE
        return lincomb((c, {ws: ONE} if lengths[ws := right[w][s]] > lengths[w]
                        else {ws: _Q, w: q1}) for w, c in x.items())

    def mul(self, x: dict, y: dict) -> dict:
        """The product x * y, one :func:`mul_word` along rwords[w] per T_w in y."""
        return lincomb((c, mul_word(self, x, self.g.rwords[w])) for w, c in y.items())

    # -- bar involution ---------------------------------------------------

    _bar_table = cached_property(bar_table)

    def bar_t(self, w: int) -> dict:
        """bar(T_w) in the T-basis."""
        return self._bar_table[w]

    def bar(self, x: dict) -> dict:
        return bar_apply(self._bar_table, x)

    # -- Kazhdan-Lusztig basis ---------------------------------------------

    @cached_property
    def _canonical_table(self) -> PrefixTable:
        """C'_w = C'_u C'_s - sum of mu(z) C'_z for w = us (module docstring).

        On top of :func:`canonical_step`, every P_{y,w}(0) (at v^{-l(w)})
        must be 1, or the step raises ArithmeticError: a negated v^-1 C'_u
        term makes P_{u,w}(0) = -1.
        """
        g = self.g
        lengths, right, basis = g.lengths, g.right, range(g.order)
        def step(cu, u, s):
            w = right[u][s]
            x = canonical_step(self, table, cu, s, w, basis)
            if any(c.coeff(-lengths[w]) != 1 for c in x.values()):
                raise ArithmeticError(f"C'_{g.word(w)} is not a Kazhdan-Lusztig element: {x}")
            return x
        table = PrefixTable(g, self.one(), step)
        return table

    def cprime_unit(self, w: int) -> dict:
        """C'_w in the rescaled basis e_y = v^{-len(y)} T_y."""
        return to_unit(self._canonical_table[w], self.g.lengths)

    def cprime(self, w: int) -> dict:
        """C'_w in the T-basis, shared with the table: do not mutate it.

        >>> h = hecke(coxeter_group("I", 2, 5))
        >>> top = h.g.order - 1
        >>> h.cprime(top) == {y: Laurent.v_power(-5) for y in range(10)}
        True
        """
        return self._canonical_table[w]

    @cached_property
    def _inverse(self) -> CanonicalInverse:
        """T_y in the C'-basis, by group element, on first read."""
        return CanonicalInverse(self.g.lengths, self._canonical_table, range(self.g.order))

    def to_cprime(self, x: dict) -> dict:
        """Coordinates of x in the C'-basis."""
        return canonical_coords(x, self._inverse)

    def kl_polynomial(self, y: int, w: int) -> Laurent:
        """P_{y,w} in q = v^2, v^{l(w)} C'_w[y] (zero when y is not below w)."""
        return self._canonical_table[w].get(y, ZERO).shift(self.g.lengths[w])


@lru_cache(maxsize=None)
def hecke(g: CoxeterGroup) -> Hecke:
    """The cached Hecke algebra of a group built by :func:`coxeter_group`."""
    return Hecke(g)
