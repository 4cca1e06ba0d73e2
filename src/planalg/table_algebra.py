"""Finite based rings with nonnegative integer structure constants.

A *table algebra* here is a free Z-module on a finite basis b_0..b_{k-1}
with a bilinear product b_i b_j = sum_m kappa(i,j,m) b_m, a distinguished
identity basis element, and an anti-involution ``inv`` permuting the
basis.  These are the label sets for the diagram calculus: every strand
of a diagram carries a basis index of a fixed table algebra.

Elements are sparse dicts {basis index: Laurent or int coefficient}.
The axioms (identity, nonnegativity, associativity, compatibility of the
anti-involution, and the support condition linking inv to the structure
constants) are checked by :func:`check_algebra` which reports witnesses
rather than silently trusting input tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from numbers import Integral


class TableAlgebra:
    """A based Z-algebra with nonnegative integer structure constants.

    ``rows`` maps a pair of basis indices (i, j) to the sparse product
    row {m: kappa(i,j,m)}; absent pairs multiply to zero, and an index
    outside 0..rank-1 raises ``ValueError``.  ``inv`` is
    the basis permutation of the anti-involution; ``labels`` are display
    names for basis elements.

    >>> z3 = cyclic_group_algebra(3)
    >>> z3.mul_basis(1, 2)
    {0: 1}
    >>> z3.inv[1]
    2
    >>> check_algebra(z3).ok
    True
    """

    __slots__ = ("rank", "identity", "inv", "labels", "rows")

    def __init__(self, rank, identity, inv, rows, labels=None):
        inv = tuple(inv)
        if not all(isinstance(k, Integral) for k in (rank, identity, *inv)):
            raise TypeError("rank, identity and inv must be integers: "
                            f"{rank}, {identity}, {inv}")
        self.rank = int(rank)
        self.identity = int(identity)
        self.inv = inv
        if len(self.inv) != self.rank or sorted(self.inv) != list(range(self.rank)):
            raise ValueError("inv must be a permutation of the basis indices")
        if not 0 <= self.identity < self.rank:
            raise ValueError("identity index out of range")
        self.rows = {}
        for (i, j), row in rows.items():
            bad = [k for k in (i, j, *row)
                   if not (isinstance(k, Integral) and 0 <= k < self.rank)]
            if bad:
                raise ValueError(
                    f"structure constant of b{i} b{j} names index {bad[0]} "
                    f"outside 0..{self.rank - 1}"
                )
            if not all(isinstance(c, Integral) for c in row.values()):
                raise TypeError(f"structure constants of b{i} b{j} must be integers: {row}")
            row = {m: int(c) for m, c in row.items() if c}
            if row:
                self.rows[(i, j)] = row
        if labels is None:
            labels = tuple(f"b{i}" for i in range(self.rank))
        self.labels = tuple(labels)
        if len(self.labels) != self.rank:
            raise ValueError("need one label per basis element")

    # -- products -------------------------------------------------------

    def kappa(self, i: int, j: int, m: int) -> int:
        """The structure constant of b_m in b_i b_j."""
        return self.rows.get((i, j), {}).get(m, 0)

    def mul_basis(self, i: int, j: int) -> dict:
        """The product b_i b_j as a sparse {index: int} dict."""
        return dict(self.rows.get((i, j), {}))

    def mul(self, x: dict, y: dict) -> dict:
        """Product of two sparse elements; coefficients may be Laurent or QSqrt2."""
        out: dict = {}
        for i, cx in x.items():
            for j, cy in y.items():
                c = cx * cy
                for m, k in self.rows.get((i, j), {}).items():
                    acc = out.get(m, 0) + c * k
                    if acc:
                        out[m] = acc
                    else:
                        out.pop(m, None)
        return out

    # -- text form ----------------------------------------------------------

    def element_str(self, x: dict) -> str:
        if not x:
            return "0"
        parts = []
        for i in sorted(x):
            c = x[i]
            if c == 1:
                parts.append(self.labels[i])
            else:
                parts.append(f"({c})*{self.labels[i]}")
        return " + ".join(parts)

    def to_text(self) -> str:
        """Serialize as a line-based table; see :func:`from_text`."""
        lines = [f"rank {self.rank} identity {self.identity}"]
        lines.append("inv: " + " ".join(str(i) for i in self.inv))
        lines.append("labels: " + " ".join(self.labels))
        for i, j in sorted(self.rows):
            row = self.rows[(i, j)]
            for m in sorted(row):
                lines.append(f"{i} {j} {m} {row[m]}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "TableAlgebra":
        """Parse the format written by :meth:`to_text`.

        Each header line and each (i, j, m) may be given once; a
        repeated line raises ValueError naming it.

        >>> a = cyclic_group_algebra(4)
        >>> TableAlgebra.from_text(a.to_text()).rows == a.rows
        True
        """
        rank = identity = None
        inv = labels = None
        rows: dict = {}
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("rank "):
                fields = line.split()
                if len(fields) != 4 or fields[2] != "identity":
                    raise ValueError(f"bad header line: {raw!r}")
                _refuse_repeat(rank, raw)
                rank, identity = int(fields[1]), int(fields[3])
            elif line.startswith("inv:"):
                _refuse_repeat(inv, raw)
                inv = tuple(int(t) for t in line[4:].split())
            elif line.startswith("labels:"):
                _refuse_repeat(labels, raw)
                labels = tuple(line[7:].split())
            else:
                fields = line.split()
                if len(fields) != 4:
                    raise ValueError(f"bad structure-constant line: {raw!r}")
                i, j, m, c = (int(t) for t in fields)
                row = rows.setdefault((i, j), {})
                _refuse_repeat(row.get(m), raw)
                row[m] = c
        if rank is None or inv is None:
            raise ValueError("missing 'rank ... identity ...' or 'inv:' line")
        return cls(rank, identity, inv, rows, labels)

    def __repr__(self):
        return f"<TableAlgebra rank={self.rank} labels={'/'.join(self.labels)}>"

    def __eq__(self, other):
        if not isinstance(other, TableAlgebra):
            return NotImplemented
        return (
            self.rank == other.rank
            and self.identity == other.identity
            and self.inv == other.inv
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.rank, self.identity, self.inv))


def _refuse_repeat(previous, raw: str) -> None:
    """A table line may set each value once; a second setting is refused."""
    if previous is not None:
        raise ValueError(f"repeated line: {raw!r}")


@dataclass
class AlgebraCheck:
    """Result of the table-algebra axiom scan, with failure witnesses."""

    identity: bool = True
    t1: bool = True
    t2: bool = True
    t3_normalized: bool = True
    associativity: bool = True
    witnesses: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(self.flags().values())

    def flags(self) -> dict:
        return {
            "identity": self.identity,
            "t1": self.t1,
            "t2": self.t2,
            "t3_normalized": self.t3_normalized,
            "associativity": self.associativity,
        }


def check_algebra(alg: TableAlgebra) -> AlgebraCheck:
    """Scan all axioms of a candidate table algebra.

    Flags: ``identity`` (b_e is a two-sided identity), ``t1`` (all
    kappa(i,j,m) are nonnegative integers), ``t2`` (inv is a
    self-inverse basis permutation fixing the identity that reverses
    products: kappa(i,j,m) == kappa(j*,i*,m*)), ``t3_normalized``
    (kappa(b_m, b_i b_j) == kappa(b_i, b_m b_{j*}) for all i, j, m),
    and ``associativity``.  Each failure records a witness.
    """
    res = AlgebraCheck()
    e = alg.identity
    r = alg.rank
    for i in range(r):
        if alg.mul_basis(e, i) != {i: 1} or alg.mul_basis(i, e) != {i: 1}:
            res.identity = False
            res.witnesses.append(f"identity fails at basis index {i}")
            break
    for (i, j), row in alg.rows.items():
        bad = [m for m, c in row.items() if not isinstance(c, int) or c < 0]
        if bad:
            res.t1 = False
            res.witnesses.append(f"kappa({i},{j},{bad[0]}) = {row[bad[0]]}")
            break
    if sorted(alg.inv) != list(range(r)) or any(alg.inv[alg.inv[i]] != i for i in range(r)):
        res.t2 = False
        res.witnesses.append("inv is not a self-inverse basis permutation")
    elif alg.inv[e] != e:
        res.t2 = False
        res.witnesses.append("anti-involution moves the identity")
    else:
        for i, j in itertools.product(range(r), repeat=2):
            lhs = alg.mul_basis(i, j)
            rhs = {alg.inv[m]: c for m, c in alg.mul_basis(alg.inv[j], alg.inv[i]).items()}
            if lhs != rhs:
                res.t2 = False
                res.witnesses.append(f"(b{i} b{j})* != b{j}* b{i}*")
                break
    for i, j, m in itertools.product(range(r), repeat=3):
        if alg.kappa(i, j, m) != alg.kappa(m, alg.inv[j], i):
            res.t3_normalized = False
            res.witnesses.append(
                f"kappa(b{m}, b{i} b{j}) != kappa(b{i}, b{m} b{alg.inv[j]})"
            )
            break
    for i, j, k in itertools.product(range(r), repeat=3):
        left = alg.mul({i: 1}, alg.mul_basis(j, k))
        right = alg.mul(alg.mul_basis(i, j), {k: 1})
        if left != right:
            res.associativity = False
            res.witnesses.append(f"(b{i} b{j}) b{k} != b{i} (b{j} b{k})")
            break
    return res


# -- constructions ---------------------------------------------------------


def cyclic_group_algebra(n: int) -> TableAlgebra:
    """Group algebra of Z/n with basis the group elements.

    >>> cyclic_group_algebra(2).mul_basis(1, 1)
    {0: 1}
    """
    rows = {(i, j): {(i + j) % n: 1} for i in range(n) for j in range(n)}
    inv = tuple((-i) % n for i in range(n))
    labels = tuple("1" if i == 0 else f"g{i}" for i in range(n))
    return TableAlgebra(n, 0, inv, rows, labels)


def permutation_group_algebra(n: int) -> TableAlgebra:
    """Group algebra of the symmetric group S_n (noncommutative for n >= 3).

    Basis elements are indexed by the permutations of range(n) in
    lexicographic order; the anti-involution is group inversion.
    """
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    rows = {}
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            pq = tuple(p[q[k]] for k in range(n))
            rows[(i, j)] = {index[pq]: 1}
    inv = []
    for p in perms:
        pinv = [0] * n
        for a, b in enumerate(p):
            pinv[b] = a
        inv.append(index[tuple(pinv)])
    labels = tuple("".join(str(x) for x in p) for p in perms)
    return TableAlgebra(len(perms), index[tuple(range(n))], tuple(inv), rows, labels)


def tensor(a: TableAlgebra, b: TableAlgebra) -> TableAlgebra:
    """Tensor product with basis b_i (x) b'_j, flattened row-major.

    Index (i, j) becomes i * b.rank + j, matching the flattening of
    label tuples by :func:`tuple_index`.

    >>> t = tensor(cyclic_group_algebra(2), cyclic_group_algebra(3))
    >>> t.rank, check_algebra(t).ok
    (6, True)
    """
    rb = b.rank

    def flat(i, j):
        return i * rb + j

    rows = {}
    for (i1, j1), row1 in a.rows.items():
        for (i2, j2), row2 in b.rows.items():
            row = {}
            for m1, c1 in row1.items():
                for m2, c2 in row2.items():
                    row[flat(m1, m2)] = c1 * c2
            rows[(flat(i1, i2), flat(j1, j2))] = row
    inv = tuple(
        flat(a.inv[i], b.inv[j]) for i in range(a.rank) for j in range(rb)
    )
    labels = tuple(
        f"{a.labels[i]}(x){b.labels[j]}" for i in range(a.rank) for j in range(rb)
    )
    return TableAlgebra(a.rank * rb, flat(a.identity, b.identity), inv, rows, labels)


def tuple_index(alg: TableAlgebra, tup) -> int:
    """Flat basis index of a label tuple in the len(tup)-fold tensor power
    of alg: the base-``alg.rank`` integer with the tuple as its digits."""
    idx = 0
    for t in tup:
        idx = idx * alg.rank + t
    return idx


def index_tuple(alg: TableAlgebra, idx: int, k: int) -> tuple:
    """Inverse of :func:`tuple_index` for k-tuples."""
    out = []
    for _ in range(k):
        idx, rem = divmod(idx, alg.rank)
        out.append(rem)
    return tuple(reversed(out))


def tuple_mul(alg: TableAlgebra, x: int, y: int, k: int) -> dict:
    """Product of the label k-tuples with flat indices x and y in the
    k-fold tensor power of alg, factor by factor, as {flat index: int}.

    No tensor-power table is built: each factor's row is read from
    ``alg.rows``, so the cost is the size of the product, not r^(2k).
    Terms come in the row order of tensor(tensor(alg, alg), ..).

    >>> z2 = cyclic_group_algebra(2)
    >>> tuple_mul(z2, tuple_index(z2, (1, 0, 1)), tuple_index(z2, (1, 1, 0)), 3)
    {3: 1}
    >>> tuple_mul(z2, 0, 0, 0)
    {0: 1}
    """
    out = {0: 1}
    for i, j in zip(index_tuple(alg, x, k), index_tuple(alg, y, k)):
        row = alg.rows.get((i, j), {})
        out = {
            idx * alg.rank + m: c * cm for idx, c in out.items() for m, cm in row.items()
        }
    return out
