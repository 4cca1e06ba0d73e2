"""Truncated Clebsch-Gordan fusion algebras V_r.

V_r is the table algebra on basis u_0, .., u_{r-1} with

    u_a u_b = u_{|a-b|} + u_{|a-b|+2} + .. + u_{min(a+b, 2(r-1)-a-b)},

the identity u_0, and the trivial anti-involution.  Two independent
constructions are provided: the closed-form truncated Clebsch-Gordan
rule (:func:`make_verlinde`) and reduction of products of monic
second-kind Chebyshev polynomials modulo the r-th one
(:func:`reduction_structure_constants`); tests pin one against the
other.

The top basis element w = u_{r-1} is group-like: w^2 = u_0 and
w u_k = u_{r-1-k} (:func:`w_identities`), which is what powers the
fusion twist on diagrams.  For r = 3 there is a field extension
homomorphism into V_2 defined over Q(sqrt 2) (:func:`phi_v3_to_v2`).

>>> v3 = make_verlinde(3)
>>> v3.mul_basis(1, 1) == {0: 1, 2: 1} and v3.mul_basis(2, 2) == {0: 1}
True
>>> w_identities(v3)
True
"""

from __future__ import annotations

from fractions import Fraction

from .laurent import QSqrt2, SQRT2
from .table_algebra import TableAlgebra


def make_verlinde(r: int) -> TableAlgebra:
    """The fusion algebra V_r on basis u_0 .. u_{r-1}.

    >>> make_verlinde(5).mul_basis(2, 3)
    {1: 1, 3: 1}
    """
    if r < 1:
        raise ValueError("fusion rank must be at least 1")
    rows = {}
    for a in range(r):
        for b in range(r):
            lo, hi = min(a, b), max(a, b)
            top = min(a + b, 2 * (r - 1) - a - b)
            rows[(a, b)] = {c: 1 for c in range(hi - lo, top + 1, 2)}
    labels = tuple(f"u{k}" for k in range(r))
    return TableAlgebra(r, 0, tuple(range(r)), rows, labels)


# -- independent oracle: Chebyshev reduction --------------------------------


def cheb(k: int) -> list:
    """Dense coefficients (ascending) of the monic Chebyshev-like S_k.

    S_0 = 1, S_1 = x, S_{k+1} = x S_k - S_{k-1}; S_k has degree k.

    >>> cheb(3)
    [0, -2, 0, 1]
    """
    if k == 0:
        return [1]
    prev, cur = [1], [0, 1]
    for _ in range(k - 1):
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return cur


def _poly_mul(p: list, q: list) -> list:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def _poly_mod(p: list, m: list) -> list:
    """Remainder of p modulo the monic polynomial m (integer arithmetic)."""
    p = list(p)
    dm = len(m) - 1
    for i in range(len(p) - 1, dm - 1, -1):
        c = p[i]
        if c:
            for j, b in enumerate(m):
                p[i - dm + j] -= c * b
    while len(p) > dm:
        p.pop()
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def reduction_structure_constants(r: int) -> dict:
    """Structure constants of V_r computed by polynomial reduction.

    Multiplies S_a S_b in Z[x], reduces modulo S_r, and expands the
    remainder in the triangular basis S_0 .. S_{r-1}.  Independent of
    the closed-form rule in :func:`make_verlinde`.

    >>> reduction_structure_constants(4) == make_verlinde(4).rows
    True
    """
    basis = [cheb(k) for k in range(r)]
    modulus = cheb(r)
    rows = {}
    for a in range(r):
        for b in range(r):
            rem = _poly_mod(_poly_mul(basis[a], basis[b]), modulus)
            coeffs = {}
            # triangular back-substitution: S_k is monic of degree k
            for k in range(r - 1, -1, -1):
                if len(rem) > k and rem[k]:
                    c = rem[k]
                    coeffs[k] = c
                    for j, x in enumerate(basis[k]):
                        rem[j] -= c * x
            if any(rem):
                raise ArithmeticError("reduction failed to terminate in basis")
            rows[(a, b)] = {k: c for k, c in sorted(coeffs.items()) if c}
    return {key: row for key, row in rows.items() if row}


# -- the group-like top element ---------------------------------------------


def w_identities(alg: TableAlgebra) -> bool:
    """Check w = u_{r-1} satisfies w^2 = u_0 and w u_k = u_{r-1-k}.

    Raises ValueError with a witness if the table does not satisfy the
    identities (so a failure cannot be mistaken for False).
    """
    r = alg.rank
    w = r - 1
    if alg.mul_basis(w, w) != {alg.identity: 1}:
        raise ValueError(f"w^2 = {alg.mul_basis(w, w)} is not the identity")
    for k in range(r):
        expect = {r - 1 - k: 1}
        if alg.mul_basis(w, k) != expect or alg.mul_basis(k, w) != expect:
            raise ValueError(f"w u_{k} != u_{r - 1 - k}")
    return True


def w_multiply(alg: TableAlgebra, i: int) -> int:
    """The basis index of w b_i where w is the top basis element.

    Requires the product to be a single basis element (w group-like);
    this is the relabeling step of the fusion twist.
    """
    row = alg.mul_basis(alg.rank - 1, i)
    if len(row) != 1 or set(row.values()) != {1}:
        raise ValueError(
            f"top basis element is not group-like: w*b{i} = {row}"
        )
    return next(iter(row))


# -- the rank-3 to rank-2 homomorphism over Q(sqrt 2) ------------------------


def phi_v3_to_v2(x: dict) -> dict:
    """Apply phi: V_3 -> V_2 (x) Q(sqrt 2) to a sparse element.

    phi(u_0) = u_0, phi(u_1) = (u_0 + u_1) / sqrt(2), phi(u_2) = u_1.

    >>> phi_v3_to_v2({2: 1})
    {1: QSqrt2('1')}
    >>> list(phi_v3_to_v2({1: 2}).values()) == [SQRT2, SQRT2]
    True
    """
    half_rt2 = QSqrt2(0, Fraction(1, 2))
    images = {0: {0: QSqrt2(1)}, 1: {0: half_rt2, 1: half_rt2}, 2: {1: QSqrt2(1)}}
    out: dict = {}
    for i, c in x.items():
        for j, w in images[i].items():
            acc = out.get(j, QSqrt2(0)) + c * w
            if acc:
                out[j] = acc
            else:
                out.pop(j, None)
    return out


def phi_is_homomorphism() -> bool:
    """Verify multiplicativity of phi on all basis pairs of V_3.

    With y = u_1 and z = u_2 this covers the three defining relations
    y^2 = 1 + z, yz = zy = y and z^2 = 1.

    >>> phi_is_homomorphism()
    True
    """
    v3, v2 = make_verlinde(3), make_verlinde(2)
    for i in range(3):
        for j in range(3):
            lhs = phi_v3_to_v2(v3.mul_basis(i, j))
            rhs = v2.mul(phi_v3_to_v2({i: 1}), phi_v3_to_v2({j: 1}))
            if lhs != rhs:
                return False
    one = QSqrt2(1)
    phi_y, phi_z = phi_v3_to_v2({1: 1}), phi_v3_to_v2({2: 1})
    relations = (
        (v2.mul(phi_y, phi_y), {0: one, 1: one}),   # y^2 = 1 + z
        (v2.mul(phi_y, phi_z), phi_y),              # yz = y
        (v2.mul(phi_z, phi_y), phi_y),              # zy = y
        (v2.mul(phi_z, phi_z), {0: one}),           # z^2 = 1
    )
    if any(got != want for got, want in relations):
        return False
    return phi_v3_to_v2({0: 1}) == {0: one}

