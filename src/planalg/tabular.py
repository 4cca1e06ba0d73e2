"""Tabular structure of the diagram algebras.

The diagram basis of P_n decomposes by the number lambda of propagating
edges.  Each basis element is assembled as C(S, b, T) from a labeled
top half S, a labeled bottom half T (mirrored with involuted labels),
and a lambda-fold tensor label b on the propagating strands.  The datum
records, per lambda, the finite set M(lambda) of labeled half-diagrams,
together with the bijection C, which it keeps and checks in integer
cell coordinates.  The tensor-power label algebra A^(x lambda) is never
tabulated: a tensor label is its flat index (``tuple_index``), and two
labels multiply factor by factor (``tuple_mul``).

``TabularDatum.axioms_check`` runs the five defining conditions of a
tabular algebra with trace, each executably and with witnesses on
failure:

  A1  C is a bijection onto the diagram basis, and the identity diagram
      is an idempotent unit.
  A2  star(C(S, b, T)) = C(T, bbar, S), with bbar the factorwise
      involution of the tensor label.
  A3  modulo diagrams with fewer propagating edges, a . C(S, b, T)
      expands as sum over S' of C(S', b', T) with label coefficients
      r_a(S', S) that are independent of T and act by left
      multiplication on the tensor label.
  A4  deg g_{X,Y,Z} <= a(Z), attained exactly when the halves chain
      (X = C(S,b,T), Y = C(T,b',V), Z = C(S,b'',V) with b'' in the
      support of bb'), with top coefficient 1 in the all-identity case.
  A5  the normalized trace satisfies tau(v^{a(X)} X) = [S = T and b
      identity] modulo v^-1 Z[v^-1]; tau(x) = tau(x*), tau(xy) = tau(yx).

The a-function is a(D) = (n - lambda)/2, half the number of
non-propagating edges.  The checks are grouped by what they read.  One
pass over the cells, with one star each, checks A2 and the per-cell half
of A5 (the congruence and tau(x) = tau(x*)); A1 and A3 read the products
a . X for the sampled rows a; one pass over the sampled pairs reads each
product xy once for A4, for tau(xy) and for the largest degree at each
Z.  tau(yx) is read off that pass, and formed anew only when the pass
did not read (j, i), which over all pairs (exhaustive mode) never
happens.  Only over all pairs is the largest degree checked to be a(Z),
so a sampled report leaves the a-function out of its flags.  An axiom
holds when it records no witness.

>>> from .verlinde import make_verlinde
>>> from .planar import Context
>>> datum = datum_build(Context(2, make_verlinde(2)))
>>> [len(datum.m_sets[lam]) for lam in datum.lambdas]
[2, 1]
>>> len(datum.basis)
8
>>> datum.axioms_check().ok
True
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .diagram import HalfDiagram, half_arcs, half_join
from .laurent import Laurent, ONE, ZERO, dot, lincomb, vneg_congruent
from .planar import Context, Element, diagram_product, trace_of_diagram
from .table_algebra import index_tuple, tuple_index, tuple_mul

#: Largest basis checked exhaustively; larger ones use SAMPLES seeded pairs.
EXHAUSTIVE_CAP = 200
SAMPLES = 2500


@dataclass
class AxiomReport:
    """Outcome of the five axiom checks and the a-function check, with
    failure witnesses; ``ok`` is the whole verdict.  Sampled mode does
    not check the a-function, so there ``a_function_ok`` is True and
    :meth:`flags` leaves it out."""

    a1: bool
    a2: bool
    a3: bool
    a4: bool
    a5: bool
    a_function_ok: bool
    exhaustive: bool
    witnesses: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(self.flags().values())

    def flags(self) -> dict:
        """The checks that ran, by name, and whether each passed."""
        out = {"A1": self.a1, "A2": self.a2, "A3": self.a3, "A4": self.a4, "A5": self.a5}
        if self.exhaustive:
            out["a_function"] = self.a_function_ok
        return out

    def lines(self, machine: bool = False) -> list:
        if machine:
            out = [f"{k}={v}" for k, v in self.flags().items()]
            out.append(f"exhaustive={self.exhaustive}")
            return out + [f"witness={w}" for w in self.witnesses[:10]]
        out = [f"{k}: {'ok' if v else 'FAIL'}" for k, v in self.flags().items()]
        out.append(f"mode: {'exhaustive' if self.exhaustive else 'sampled'}")
        return out + [f"witness: {w}" for w in self.witnesses[:10]]


class TabularDatum:
    """The decomposition datum (Lambda, Gamma, M, C, *) for a context.

    ``cells[k] = (lam, s, b, t)``, with s and t indexing ``m_sets[lam]``
    and b the flat index of a lambda-tuple of labels, a basis index of
    the tensor-power label algebra, and its inverse ``cell_pos`` are C
    by integers; half-diagrams appear only in :meth:`c`, :meth:`split`
    and witnesses.
    """

    def __init__(self, ctx: Context):
        self.ctx = ctx
        n, alg = ctx.n, ctx.alg
        self.lambdas = tuple(range(n % 2, n + 1, 2))
        self.m_sets = {
            lam: tuple(
                HalfDiagram(n, arcs, labels)
                for arcs in half_arcs(n, lam)
                for labels in itertools.product(range(alg.rank), repeat=len(arcs))
            )
            for lam in self.lambdas
        }
        self.basis = ctx.basis()
        self.index = {d: k for k, d in enumerate(self.basis)}
        self.cells = [None] * len(self.basis)
        self.cell_pos = {}
        for lam in self.lambdas:
            halves = self.m_sets[lam]
            for s, hs in enumerate(halves):
                for b in range(alg.rank**lam):
                    word = index_tuple(alg, b, lam)
                    for t, ht in enumerate(halves):
                        d = self.c(hs, word, ht)
                        k = ctx.index(d)
                        if self.cells[k] is not None:
                            raise AssertionError(f"C not injective at {d}")
                        self.cells[k] = (lam, s, b, t)
                        self.cell_pos[(lam, s, b, t)] = k
        if None in self.cells:
            raise AssertionError("image of C is not the diagram basis")
        self.a_vals = [(n - lam) // 2 for lam, _, _, _ in self.cells]
        self._unit_label = {
            lam: tuple_index(alg, (alg.identity,) * lam) for lam in self.lambdas
        }
        self._tau = None

    # -- the map C and its inverse ------------------------------------------

    def c(self, s: HalfDiagram, b: tuple, t: HalfDiagram):
        """Assemble the basis diagram C(S, b, T)."""
        return half_join(s, b, t, self.ctx.alg.inv)

    def split(self, d) -> tuple:
        """The unique triple (S, b, T) with C(S, b, T) = d."""
        return self._triple(*self.cells[self.index[d]])

    def _triple(self, lam: int, s: int, b: int, t: int) -> tuple:
        """(S, b, T) as half-diagrams and a label tuple, for a cell."""
        halves = self.m_sets[lam]
        return halves[s], index_tuple(self.ctx.alg, b, lam), halves[t]

    # -- products and trace -------------------------------------------

    def product(self, i: int, j: int) -> dict:
        """Structure constants of basis[i] . basis[j], keyed by index."""
        return diagram_product(self.ctx, i, j)

    def _tau_product(self, i: int, j: int) -> Laurent:
        """tau(basis[i] . basis[j]) through the product table."""
        tau = self.tau_vector()
        return dot((g, tau[k]) for k, g in self.product(i, j).items())

    def tau_vector(self) -> list:
        """tau of every basis diagram, by index; one shared value per
        distinct trace."""
        if self._tau is None:
            n, shared = self.ctx.n, {}
            self._tau = []
            for k in range(len(self.basis)):
                tr = trace_of_diagram(self.ctx, k)
                tau = shared.get(tr)
                if tau is None:
                    tau = shared[tr] = tr.shift(-n)
                self._tau.append(tau)
        return self._tau

    # -- bilinear form -----------------------------------------------------------

    def form(self, x: Element, y: Element) -> Laurent:
        """The trace form (x, y) = tau(x y*)."""
        return (x * y.star()).tau()

    def form_basis(self, i: int, j: int) -> Laurent:
        """(basis[i], basis[j]) computed through the product table."""
        return self._tau_product(i, self.ctx.star_position(j))

    # -- axiom checks -------------------------------------------------------------

    def axioms_check(self, seed: int = 0) -> AxiomReport:
        size = len(self.basis)
        exhaustive = size <= EXHAUSTIVE_CAP
        if exhaustive:
            a_list = list(range(size))
            pairs = list(itertools.product(range(size), repeat=2))
        else:
            rng = random.Random(seed)
            a_list = [rng.randrange(size) for _ in range(max(2, SAMPLES // size))]
            pairs = [
                (rng.randrange(size), rng.randrange(size)) for _ in range(SAMPLES)
            ]
        found: dict = {name: [] for name in ("A1", "A2", "A3", "A4", "A5", "a")}

        def fail(name, *detail):
            found[name].append((name, *detail))

        self._check_a1(a_list, fail)
        self._check_cells(fail)
        for ia in a_list:
            for lam in self.lambdas:
                self._check_a3_layer(ia, lam, fail)
        best = self._check_pairs(pairs, fail)
        if exhaustive:
            for k, deg in enumerate(best):
                if deg != self.a_vals[k]:
                    fail("a", "max degree != (n - lambda)/2", k, deg)
        flags = [not witnesses for witnesses in found.values()]
        return AxiomReport(*flags, exhaustive, sum(found.values(), []))

    def _check_a1(self, a_list, fail) -> None:
        (one,) = self.ctx.one().terms
        n = self.ctx.n
        if self.cells[one] != (n, 0, self._unit_label[n], 0):
            fail("A1", "identity diagram is not C(0, 1, 0)")
        for k in a_list:
            if self.product(one, k) != {k: ONE} or self.product(k, one) != {k: ONE}:
                fail("A1", "identity fails as unit", self.basis[k])

    def _check_cells(self, fail) -> None:
        """A2 and the per-cell half of A5, with one star per cell."""
        tau, alg = self.tau_vector(), self.ctx.alg
        for k, (lam, s, b, t) in enumerate(self.cells):
            star = self.ctx.star_position(k)
            bbar = tuple_index(alg, (alg.inv[x] for x in index_tuple(alg, b, lam)))
            if star != self.cell_pos[(lam, t, bbar, s)]:
                fail("A2", self.basis[k])
            want = int(s == t and b == self._unit_label[lam])
            if not vneg_congruent(tau[k].shift(self.a_vals[k]), want):
                fail("A5", "trace congruence", self.basis[k])
            if tau[k] != tau[star]:
                fail("A5", "tau(x) != tau(x*)", self.basis[k])

    def _check_a3_layer(self, ia, lam, fail) -> None:
        """r_a(S', S) exists, independent of T and of the tensor label;
        stops at the first witness in the layer."""
        alg = self.ctx.alg
        labels = range(alg.rank**lam)
        halves = range(len(self.m_sets[lam]))
        acc: dict = {}  # (s, t, b) -> {s': {b': coefficient}}
        for s in halves:
            for t in halves:
                for b in labels:
                    k = self.cell_pos[(lam, s, b, t)]
                    decomp: dict = {}
                    for kz, c in self.product(ia, k).items():
                        lz, sz, bz, tz = self.cells[kz]
                        if lz > lam:
                            return fail("A3", "propagating count grew", kz)
                        if lz < lam:
                            continue
                        if tz != t:
                            return fail("A3", "bottom half changed", ia, k, kz)
                        decomp.setdefault(sz, {})[bz] = c
                    acc[(s, t, b)] = decomp
        for s in halves:
            ref = acc[(s, 0, self._unit_label[lam])]
            wants = []  # the reference expansion for each b, shared by every T
            for b in labels:
                want = {
                    sz: lincomb((c, tuple_mul(alg, bz, b, lam)) for bz, c in r.items())
                    for sz, r in ref.items()
                }
                wants.append({sz: r for sz, r in want.items() if r})
            for t in halves:
                for b, want in enumerate(wants):
                    if acc[(s, t, b)] != want:
                        hs, word, ht = self._triple(lam, s, b, t)
                        return fail("A3", "r_a depends on T or g", ia, hs, ht, word)

    def _check_pairs(self, pairs, fail) -> list:
        """A4 and tau(xy) = tau(yx) on each pair, reading product(i, j)
        once and tau(yx) from the pair (j, i) when the pass read it;
        returns the largest degree seen at each basis index, which over
        all pairs is the brute-force a-function."""
        tau, alg = self.tau_vector(), self.ctx.alg
        best, taus = [None] * len(self.basis), {}
        for i, j in pairs:
            lam, s, b, t = self.cells[i]
            lam2, u, b2, vv = self.cells[j]
            gid, expected = self._unit_label[lam], {}
            if lam == lam2 and t == u:
                for b3 in tuple_mul(alg, b, b2, lam):
                    expected[self.cell_pos[(lam, s, b3, vv)]] = b3
            prod = self.product(i, j)
            for k in set(prod) | set(expected):
                g = prod.get(k, ZERO)
                a_k = self.a_vals[k]
                deg = g.degree()
                if deg is not None:
                    if deg > a_k:
                        fail("A4", "degree exceeds a(Z)", i, j, k)
                    if best[k] is None or deg > best[k]:
                        best[k] = deg
                gam_c = g.coeff(a_k)
                if (gam_c != 0) != (k in expected):
                    fail("A4", "gamma support mismatch", i, j, k)
                elif k in expected and gam_c != 1 and b == b2 == expected[k] == gid:
                    fail("A4", "gamma != 1 at identity", i, j)
            taus[i, j] = dot((g, tau[k]) for k, g in prod.items())
        for i, j in pairs:
            yx = taus[j, i] if (j, i) in taus else self._tau_product(j, i)
            if taus[i, j] != yx:
                fail("A5", "tau(xy) != tau(yx)", i, j)
        return best


# -- module-level interface -------------------------------------------------


def datum_build(ctx: Context) -> TabularDatum:
    """Build and constructively verify the datum for a context."""
    return TabularDatum(ctx)


def prop434_test(tl_ctx, form, x) -> str:
    """Trichotomy for the form hypotheses on a quotient element.

    Given a bilinear form on the quotient algebra, an element x that is
    bar-invariant with (x, x) = 1 modulo v^-1 Z[v^-1] must be plus or
    minus a canonical basis element; anything else is 'neither'.
    Returns 'is_plus_canonical', 'is_minus_canonical' or 'neither'.
    """
    if tl_ctx.bar(x) != x:
        return "neither"
    if not vneg_congruent(form(x, x), 1):
        return "neither"
    coords = tl_ctx.to_canonical(x)
    if len(coords) == 1:
        (c,) = coords.values()
        if c == 1:
            return "is_plus_canonical"
        if c == -1:
            return "is_minus_canonical"
    return "neither"
