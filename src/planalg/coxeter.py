"""Finite Coxeter groups of types A, B, H and I_2(m) with exact tables.

Each group is enumerated once by breadth-first search over a faithful
right action on hashable states: one-line permutations for type A,
signed permutations for type B (the sign flip is generator 0), the
orbit of one regular vector over Z[phi] for type H, and the dihedral
action on Z/m for I_2(m).  Elements are the integers 0..order-1 ordered by
(length, lexicographically least reduced word); index 0 is the
identity.  The tables give right multiplication by generators,
inverses, lengths and reduced words, which is everything the
Hecke-algebra layer consumes.  There is no left table: left products
come from right ones through the inverse, s w = (w^-1 s)^-1.

Generators are numbered along the chain with the strong bond first:
m(0,1) is 4 for type B, 5 for type H and m for I_2(m); all other
adjacent bonds are 3.

>>> a2 = coxeter_group("A", 2)
>>> a2.order, a2.rwords
(6, ((), (0,), (1,), (0, 1), (1, 0), (0, 1, 0)))
>>> wc_classify(a2)
((0, 1, 2, 3, 4), (5,))
>>> g = coxeter_group("I", 2, 7)
>>> g.order, len(wc_classify(g)[0])
(14, 13)
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache, reduce

# 2cos(pi/m) for the joined bond strengths of type H, exact in Z[phi]
# as (integer, phi-coefficient) pairs.
_TWO_COS = {3: (1, 0), 5: (0, 1)}

# Start vectors for type H, in simple-root coordinates, strictly inside
# the fundamental chamber: every coordinate of B c is positive, where B
# is the Gram matrix (B_ii = 1, B_ij = -cos(pi/m_ij)).  Such a vector is
# regular, so its orbit under W is faithful.
_H_REGULAR = {3: (10, 12, 7), 4: (188, 231, 156, 79)}


def _zphi_mul(x: tuple, y: tuple) -> tuple:
    a, b = x
    c, d = y
    return (a * c + b * d, a * d + b * c + b * d)


class CoxeterGroup:
    """A finite Coxeter group backed by a dense right generator-action table."""

    def __init__(self, name: str, bonds: tuple, right: list):
        self.name = name
        self.bonds = bonds
        self.rank = len(bonds)
        self.order = len(right)
        self.right = tuple(tuple(row) for row in right)
        lengths = [0] * self.order
        rwords: list = [()] * self.order
        seen = [False] * self.order
        seen[0] = True
        for i in range(self.order):
            for s, j in enumerate(self.right[i]):
                if not seen[j]:
                    seen[j] = True
                    lengths[j] = lengths[i] + 1
                    rwords[j] = rwords[i] + (s,)
        self.lengths = tuple(lengths)
        self.rwords = tuple(rwords)
        self.inverse = tuple(
            reduce(lambda a, s: self.right[a][s], reversed(w), 0) for w in rwords
        )

    def __repr__(self):
        return f"<CoxeterGroup {self.name} order={self.order}>"

    def bond(self, s: int, t: int) -> int:
        return self.bonds[s][t]

    def bond_pairs(self) -> tuple:
        """Generator pairs (s, t), s < t, joined in the Coxeter graph."""
        return tuple(
            (s, t)
            for s, t in itertools.combinations(range(self.rank), 2)
            if self.bonds[s][t] >= 3
        )

    def mult(self, i: int, j: int) -> int:
        """Group product w_i w_j by folding a reduced word of w_j."""
        return reduce(lambda a, s: self.right[a][s], self.rwords[j], i)

    def prefix(self, w: int) -> tuple:
        """Split w = u s by the last letter s of its reduced word; returns (u, s).

        u = w s is one shorter, and rwords[u] is rwords[w] without its
        last letter.  w must not be the identity.

        >>> coxeter_group("A", 2).prefix(5)
        (3, 0)
        """
        s = self.rwords[w][-1]
        return self.right[w][s], s

    def right_descents(self, i: int) -> frozenset:
        return frozenset(
            s for s in range(self.rank) if self.lengths[self.right[i][s]] < self.lengths[i]
        )

    def left_descents(self, i: int) -> frozenset:
        return self.right_descents(self.inverse[i])

    def word(self, w: int) -> str:
        """A reduced word of w, generators numbered from 1; "e" for the identity.

        >>> coxeter_group("A", 2).word(3)
        '12'
        """
        return "".join(str(s + 1) for s in self.rwords[w]) or "e"

    def dihedral_members(self, s: int, t: int) -> set:
        """Group indices of the parabolic subgroup generated by s and t."""
        return set(_bfs(2, 0, lambda w, k: self.right[w][(s, t)[k]])[0])

    def dihedral_longest(self, s: int, t: int) -> int:
        """The longest element of the parabolic subgroup <s, t>."""
        word = [s if k % 2 == 0 else t for k in range(self.bonds[s][t])]
        return reduce(lambda a, g: self.right[a][g], word, 0)


class PrefixTable(dict):
    """A table over the elements of g, filled along g.prefix on first read.

    table[0] is first; reading a missing w stores step(table[u], u, s)
    for (u, s) = g.prefix(w), so only w, its prefixes and what step
    reads are built.  A step that raises stores nothing.

    >>> words = PrefixTable(coxeter_group("A", 2), "", lambda x, u, s: x + str(s + 1))
    >>> words[5], sorted(words)
    ('121', [0, 1, 3, 5])
    """

    def __init__(self, g: CoxeterGroup, first, step):
        super().__init__({0: first})
        self.g = g
        self.step = step

    def __missing__(self, w: int):
        u, s = self.g.prefix(w)
        got = self[w] = self.step(self[u], u, s)
        return got


def _bfs(num_gens: int, start, act) -> tuple:
    index = {start: 0}
    states = [start]
    right = []
    i = 0
    while i < len(states):
        row = []
        for s in range(num_gens):
            t = act(states[i], s)
            j = index.get(t)
            if j is None:
                j = len(states)
                index[t] = j
                states.append(t)
            row.append(j)
        right.append(row)
        i += 1
    return states, right


def _chain_bonds(rank: int, first: int) -> tuple:
    bonds = [[2] * rank for _ in range(rank)]
    for s in range(rank):
        bonds[s][s] = 1
    for s in range(rank - 1):
        bonds[s][s + 1] = bonds[s + 1][s] = first if s == 0 else 3
    return tuple(tuple(row) for row in bonds)


def _root_action(bonds: tuple):
    """The reflection action on a vector in simple-root coordinates.

    s_i changes only coordinate i: c_i' = -c_i + sum over j != i of
    2cos(pi/m_ij) c_j.  The state of w is w^-1 applied to the start
    vector, so the action is a right action on the group.
    """
    rank = len(bonds)
    coef = [
        [(j, _TWO_COS[bonds[s][j]]) for j in range(rank) if j != s and bonds[s][j] >= 3]
        for s in range(rank)
    ]

    def act(state: tuple, s: int) -> tuple:
        a, b = state[s]
        a, b = -a, -b
        for j, c in coef[s]:
            x, y = _zphi_mul(c, state[j])
            a += x
            b += y
        new = list(state)
        new[s] = (a, b)
        return tuple(new)

    return act


@lru_cache(maxsize=None)
def coxeter_group(family: str, rank: int, m: int = 0) -> CoxeterGroup:
    """Build (and cache) the Coxeter group of the given type.

    Supported: A_1..A_4, B_2..B_3, H_3, H_4, I_2(m) for 3 <= m <= 12.
    H_4 has 14400 elements; tables over a group fill on first read
    (:class:`PrefixTable`), so a computation builds only what it reads.

    >>> coxeter_group("B", 3).order
    48
    >>> coxeter_group("H", 3).order
    120
    """
    family = family.upper()
    if family == "A":
        if not 1 <= rank <= 4:
            raise ValueError("type A supports ranks 1..4")
        bonds = _chain_bonds(rank, 3)

        def act(state, s):
            lst = list(state)
            lst[s], lst[s + 1] = lst[s + 1], lst[s]
            return tuple(lst)

        states, right = _bfs(rank, tuple(range(rank + 1)), act)
        expect = math.factorial(rank + 1)
        name = f"A{rank}"
    elif family == "B":
        if not 2 <= rank <= 3:
            raise ValueError("type B supports ranks 2..3")
        bonds = _chain_bonds(rank, 4)

        def act(state, s):
            lst = list(state)
            if s == 0:
                lst[0] = -lst[0]
            else:
                lst[s - 1], lst[s] = lst[s], lst[s - 1]
            return tuple(lst)

        states, right = _bfs(rank, tuple(range(1, rank + 1)), act)
        expect = 2 ** rank * math.factorial(rank)
        name = f"B{rank}"
    elif family == "H":
        if rank not in (3, 4):
            raise ValueError("type H supports ranks 3 and 4")
        bonds = _chain_bonds(rank, 5)
        start = tuple((c, 0) for c in _H_REGULAR[rank])
        states, right = _bfs(rank, start, _root_action(bonds))
        expect = 120 if rank == 3 else 14400
        name = f"H{rank}"
    elif family == "I":
        if rank != 2:
            raise ValueError("type I has rank 2")
        if not 3 <= m <= 12:
            raise ValueError("I_2(m) supports 3 <= m <= 12")
        bonds = ((1, m), (m, 1))
        maps = (
            tuple((-p) % m for p in range(m)),
            tuple((1 - p) % m for p in range(m)),
        )

        def act(state, s):
            sigma = maps[s]
            return tuple(state[sigma[p]] for p in range(m))

        states, right = _bfs(2, tuple(range(m)), act)
        expect = 2 * m
        name = f"I2({m})"
    else:
        raise ValueError(f"unknown family {family!r}")
    if len(states) != expect:
        raise AssertionError(f"{name}: enumerated {len(states)}, expected {expect}")
    return CoxeterGroup(name, bonds, right)


@lru_cache(maxsize=None)
def wc_classify(g: CoxeterGroup) -> tuple:
    """Split the group into (fully commutative, complex) index tuples.

    An element is complex when it can be written as a reduced product
    x1 * w_st * x2 with w_st the longest element of a dihedral parabolic
    on a bond of strength >= 3.  The rule is read from the right, on
    g.right alone, working up by length: w is complex exactly when some
    alternating word s,t,s,... of length m(s,t) can be stripped from
    the right with every step a descent, or some right descent s of w
    has ws complex.  (Read from the left it gives the same set, since
    w is complex exactly when w^-1 is.)

    >>> len(wc_classify(coxeter_group("A", 3))[0])
    14
    >>> len(wc_classify(coxeter_group("B", 2))[0])
    7
    """
    is_complex = [False] * g.order
    pairs = g.bond_pairs()
    for i in range(g.order):
        found = False
        for s, t in pairs:
            x = i
            for k in range(g.bonds[s][t]):
                y = g.right[x][s if k % 2 == 0 else t]
                if g.lengths[y] >= g.lengths[x]:
                    break
                x = y
            else:
                found = True
                break
        if not found:
            found = any(is_complex[g.right[i][s]] for s in g.right_descents(i))
        is_complex[i] = found
    wc = tuple(i for i in range(g.order) if not is_complex[i])
    cx = tuple(i for i in range(g.order) if is_complex[i])
    return wc, cx
