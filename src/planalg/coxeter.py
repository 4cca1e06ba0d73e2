"""Finite Coxeter groups of types A, B, H and I_2(m) with exact tables.

Each group is enumerated once by breadth-first search over a faithful
right action on hashable states: one-line permutations for type A,
signed permutations for type B (the sign flip is generator 0), images
of the simple roots over Z[phi] for type H, and the dihedral action on
Z/m for I_2(m).  Elements are the integers 0..order-1 ordered by
(length, lexicographically least reduced word); index 0 is the
identity.  The tables give right and left multiplication by
generators, inverses, lengths and reduced words, which is everything
the Hecke-algebra layer consumes.

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

# 2cos(pi/m) for the bond strengths appearing in types A, B-as-I, H;
# exact values in Z[phi] as (integer, phi-coefficient) pairs.
_TWO_COS = {2: (0, 0), 3: (1, 0), 5: (0, 1)}


def _zphi_mul(x: tuple, y: tuple) -> tuple:
    a, b = x
    c, d = y
    return (a * c + b * d, a * d + b * c + b * d)


class CoxeterGroup:
    """A finite Coxeter group backed by dense generator-action tables."""

    def __init__(self, name: str, bonds: tuple, states: list, right: list):
        self.name = name
        self.bonds = bonds
        self.rank = len(bonds)
        self.order = len(states)
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
        self.left = tuple(
            tuple(self.inverse[self.right[self.inverse[i]][s]] for s in range(self.rank))
            for i in range(self.order)
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

    def right_descents(self, i: int) -> frozenset:
        return frozenset(
            s for s in range(self.rank) if self.lengths[self.right[i][s]] < self.lengths[i]
        )

    def left_descents(self, i: int) -> frozenset:
        return frozenset(
            s for s in range(self.rank) if self.lengths[self.left[i][s]] < self.lengths[i]
        )

    def dihedral_longest(self, s: int, t: int) -> int:
        """The longest element of the parabolic subgroup <s, t>."""
        word = [s if k % 2 == 0 else t for k in range(self.bonds[s][t])]
        return reduce(lambda a, g: self.right[a][g], word, 0)


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
    rank = len(bonds)
    coef = [
        [_TWO_COS[bonds[s][j]] if j != s else None for j in range(rank)]
        for s in range(rank)
    ]

    def act(state: tuple, s: int) -> tuple:
        new = []
        for j in range(rank):
            if j == s:
                new.append(tuple((-a, -b) for a, b in state[s]))
            else:
                c = coef[s][j]
                new.append(
                    tuple(
                        (va + ca, vb + cb)
                        for (va, vb), (ca, cb) in zip(
                            state[j], (_zphi_mul(c, w) for w in state[s])
                        )
                    )
                )
        return tuple(new)

    start = tuple(
        tuple((1, 0) if i == j else (0, 0) for j in range(rank)) for i in range(rank)
    )
    return start, act


@lru_cache(maxsize=None)
def coxeter_group(family: str, rank: int, m: int = 0) -> CoxeterGroup:
    """Build (and cache) the Coxeter group of the given type.

    Supported: A_1..A_4, B_2..B_3, H_3, H_4, I_2(m) for 3 <= m <= 12.
    H_4 has 14400 elements and is meant for opt-in use only.

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
        start, act = _root_action(bonds)
        states, right = _bfs(rank, start, act)
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
    return CoxeterGroup(name, bonds, states, right)


@lru_cache(maxsize=None)
def wc_classify(g: CoxeterGroup) -> tuple:
    """Split the group into (fully commutative, complex) index tuples.

    An element is complex when it can be written as a reduced product
    x1 * w_st * x2 with w_st the longest element of a dihedral parabolic
    on a bond of strength >= 3.  Working up by length: w is complex
    exactly when some alternating word s,t,s,... of length m(s,t) can
    be stripped from the left with every step a descent, or some left
    descent s of w has s*w complex.

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
                letter = s if k % 2 == 0 else t
                y = g.left[x][letter]
                if g.lengths[y] >= g.lengths[x]:
                    break
                x = y
            else:
                found = True
            if found:
                break
        if not found:
            for s in g.left_descents(i):
                if is_complex[g.left[i][s]]:
                    found = True
                    break
        is_complex[i] = found
    wc = tuple(i for i in range(g.order) if not is_complex[i])
    cx = tuple(i for i in range(g.order) if is_complex[i])
    return wc, cx
