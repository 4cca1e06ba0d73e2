"""Embeddings of Temperley-Lieb quotients into labeled diagram algebras.

Each supported Coxeter type maps its quotient algebra into a diagram
context: rank-n types A/B/H land in P(n+1, r) with r = 2, 3, 4, the
dihedral type I_2(m) lands in P(3, m-1), and the uniform variant sends
any of them into P(n+1, m-1) for m the highest bond label.  The
generator b_1 goes to E_1 decorated by u_1 (u_0 for plain type A, u_2
for type H) and every other b_i goes to the plain E_i.

The map is built on the Hecke algebra first, sending T_s to
v E_s - 1, and three families of identities are verified at
construction time before anything else is allowed to use it: the
quadratic relation for each generator, the braid relation for each
pair, and the vanishing of every defining generator of the quotient
ideal.  Those checks make the descent to the quotient rigorous, and
:meth:`DiagramEmbedding.verify_multiplicative` is an independent
certificate that rho(t_u t_w) = rho(t_u) rho(t_w) on every basis pair,
from products with a generator.

The image of the canonical basis is built by the recursion that builds
c_w in the quotient (:mod:`planalg.tl`), carried into the target:
rho(c_us) = rho(c_u) E_s - sum of mu(z) rho(c_z) along g.prefix, with
mu(z) read off c_u by :func:`planalg.hecke.mu_terms`, as the quotient's
own step reads it.  Each step multiplies one image by E_s and subtracts
a few images.  It is exact: the relation checks make rho an algebra map
on the quotient, rho(b_s) = v^-1 (rho(T_s) + 1) = E_s, and c_us = c_u
b_s - sum of mu(z) c_z holds in the quotient, so rho of both sides is
the step.  The step does not test the shape of its result;
:func:`rho_build` checks that each image is one diagram with
coefficient 1, the paper's statement.  The expansion over the images of
t_w (:meth:`DiagramEmbedding.rho`) serves
:meth:`~DiagramEmbedding.verify_multiplicative`,
:func:`conjecture_436_check` and the tests that hold the recursion to it.

The admissible sets single out which labeled diagrams appear as images
of the canonical basis: the three predicates match labels (read as
decoration indices) against edge shape, and the canonical images are
verified to biject onto them.

>>> ctx = Context(3, make_verlinde(3))
>>> len(admissible("I", ctx).members)
7
>>> rep = rho_build("A", "A", 2)
>>> rho_verify_bijection(rep)
True
>>> sorted(d.to_text() for d in rep.images.values())[0]
'n=3 | 1-2:0 3-4:0 5-6:0'
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import reduce

from .coxeter import CoxeterGroup, PrefixTable, coxeter_group
from .diagram import LabeledDiagram, edge_kinds, partner_map
from .hecke import _Q, hecke, mu_terms
from .laurent import ONE, V, lincomb
from .planar import Context, Element, fusion_twist, is_exposed
from .table_algebra import TableAlgebra
from .tl import TL, tl
from .verlinde import make_verlinde


# -- admissible sets ---------------------------------------------------------


@dataclass(frozen=True)
class AdmissibleSet:
    flavor: str
    ctx: Context
    members: tuple


def is_b_admissible(d: LabeledDiagram, alg: TableAlgebra) -> bool:
    """Corner edge 0-decorated, or 2-decorated with an arc present, or
    the two corners carry the only two 1-decorated edges."""
    if not is_exposed(d, alg):
        return False
    n2 = 2 * d.n
    lm = d.label_map()
    kinds = edge_kinds(d.matching)
    corner = lm.get((1, n2))
    if corner is not None:
        if corner == 0:
            return True
        has_arc = any(not k.propagating for k in kinds.values())
        return corner == 2 and has_arc
    ones = [p for p, l in lm.items() if l == 1]
    pm = partner_map(d.matching)
    first = tuple(sorted((1, pm[1])))
    last = tuple(sorted((n2, pm[n2])))
    return lm[first] == 1 and lm[last] == 1 and set(ones) == {first, last}


def is_h_admissible(d: LabeledDiagram, alg: TableAlgebra) -> bool:
    """All-propagating diagrams must be plain; otherwise labels lie in
    {0, 2} and each end of the diagram shows the expected arc."""
    if not is_exposed(d, alg):
        return False
    n, n2 = d.n, 2 * d.n
    lm = d.label_map()
    kinds = edge_kinds(d.matching)
    if all(k.propagating for k in kinds.values()):
        return all(l == 0 for l in d.labels)
    if any(l not in (0, 2) for l in d.labels):
        return False
    top = lm.get((1, 2)) == 2 or any(
        lm.get((i, i + 1)) == 0 for i in range(2, n)
    )
    bot = lm.get((n2 - 1, n2)) == 2 or any(
        lm.get((n2 - i, n2 + 1 - i)) == 0 for i in range(2, n)
    )
    return top and bot


def is_i_admissible(d: LabeledDiagram, alg: TableAlgebra) -> bool:
    """Arcs are 1-decorated exactly when transitional; propagating
    labels have the parity of their transitionality."""
    if not is_exposed(d, alg):
        return False
    kinds = edge_kinds(d.matching)
    if all(k.propagating for k in kinds.values()):
        return all(l == 0 for l in d.labels)
    for p, l in zip(d.matching, d.labels):
        k = kinds[p]
        if not k.propagating:
            if l != (1 if k.transitional else 0):
                return False
        elif l % 2 != (1 if k.transitional else 0):
            return False
    return True


_PREDICATES = {"B": is_b_admissible, "H": is_h_admissible, "I": is_i_admissible}


def admissible(flavor: str, ctx: Context) -> AdmissibleSet:
    """All admissible basis diagrams of the context, in basis order."""
    if flavor == "B" and ctx.alg.rank != 3:
        raise ValueError("B-admissibility needs label rank 3")
    if flavor == "H" and ctx.alg.rank != 4:
        raise ValueError("H-admissibility needs label rank 4")
    if flavor == "I" and ctx.n != 3:
        raise ValueError("I-admissibility needs 3 strands")
    pred = _PREDICATES.get(flavor)
    if pred is None:
        raise ValueError(f"unknown admissibility flavor {flavor!r}")
    members = tuple(d for d in ctx.basis() if pred(d, ctx.alg))
    return AdmissibleSet(flavor, ctx, members)


def admissible_closed_under_mul(adm: AdmissibleSet) -> bool:
    """The admissible diagrams span a subalgebra: every product of two
    members is supported on members."""
    ctx = adm.ctx
    members = set(adm.members)
    for d1, d2 in itertools.product(adm.members, repeat=2):
        prod = ctx.basis_element(d1) * ctx.basis_element(d2)
        if any(d not in members for d in prod.support()):
            return False
    return True


# -- the embedding -----------------------------------------------------------

_GEN_LABELS = {"A": (0, 0), "B": (1, 0), "H": (2, 0), "I": (1, 0), "uniform": (1, 0)}
_TARGET_RANK = {"A": 2, "B": 3, "H": 4}


class DiagramEmbedding:
    """rho from the quotient algebra of g into a diagram context.

    T_s maps to v E_s - 1; the quadratic, braid and ideal-vanishing
    identities are verified in the target before the instance is
    returned, so images of t_w (by folding a reduced word) are
    well defined.
    """

    def __init__(self, g: CoxeterGroup, variant: str):
        family = g.name[0]
        if variant == "uniform":
            if g.rank < 2:
                raise ValueError("uniform embedding needs rank at least 2")
        elif variant != family:
            raise ValueError(f"variant {variant!r} does not fit group {g.name}")
        m = max((g.bond(s, t) for s, t in g.bond_pairs()), default=3)
        r = _TARGET_RANK.get(variant, m - 1)
        if r < 2:
            raise ValueError("target label rank must be at least 2")
        self.g = g
        self.variant = variant
        self.tl: TL = tl(g)
        self.h = hecke(g)
        self.ctx = Context(g.rank + 1, make_verlinde(r))
        first, rest = _GEN_LABELS[variant]
        self.gen_labels = (first,) + (rest,) * (g.rank - 1)
        self.gen_e = [
            self.ctx.e_element(s + 1, self.gen_labels[s]) for s in range(g.rank)
        ]
        self._that = [e.scale(V) - self.ctx.one() for e in self.gen_e]
        self._timage = PrefixTable(g, self.ctx.one(), lambda x, u, s: x * self._that[s])
        self._rho_canonical = PrefixTable(g, self.ctx.one(), self._canonical_step)
        self._verify_relations()

    def _verify_relations(self) -> None:
        one = self.ctx.one()
        for s, im in enumerate(self._that):
            if im * im != im.scale(_Q - 1) + one.scale(_Q):
                raise AssertionError(f"quadratic relation fails at generator {s}")
        def braid(s, t):  # the image of T_s T_t T_s ..., m(s, t) factors
            return reduce(lambda x, r: x * self._that[r], self.g.braid_word(s, t), one)
        for s, t in itertools.combinations(range(self.g.rank), 2):
            if braid(s, t) != braid(t, s):
                raise AssertionError(f"braid relation fails at pair ({s},{t})")
        for s, t in self.g.bond_pairs():
            total = self.rho_hecke(dict.fromkeys(self.g.dihedral_members(s, t), 1))
            if not total.is_zero():
                raise AssertionError(f"ideal generator for ({s},{t}) does not vanish")

    # -- images ---------------------------------------------------------------

    def t_image(self, w: int) -> Element:
        """Image of T_w = T_u T_s, w = us along g.prefix, built on first read."""
        return self._timage[w]

    def rho_hecke(self, x: dict) -> Element:
        """Image of a Hecke element in the T-basis (group-indexed)."""
        return Element._raw(
            self.ctx, lincomb((c, self.t_image(w).terms) for w, c in x.items())
        )

    def rho(self, x: dict) -> Element:
        """Image of a quotient element in the t-basis (position-keyed)."""
        wc = self.tl.wc
        return self.rho_hecke({wc[k]: c for k, c in x.items()})

    def _canonical_step(self, x: Element, u: int, s: int) -> Element:
        """rho(c_us) = rho(c_u) E_s - sum of mu(z) rho(c_z) (module docstring)."""
        q = self.tl
        return Element._raw(self.ctx, lincomb([(1, (x * self.gen_e[s]).terms), *(
            (-mu, self._rho_canonical[z].terms)
            for mu, z in mu_terms(self.g, q.canonical_t(u), s, q.wc))]))

    def rho_canonical(self, w: int) -> Element:
        """Image of c_w for w in W_c, by the recursion along g.prefix, kept
        on first read; shared, like :meth:`t_image`, so callers must not
        mutate it."""
        return self._rho_canonical[w]

    def verify_multiplicative(self) -> bool:
        """Certify rho(t_u t_w) = rho(t_u) rho(t_w) for all u, w in W_c
        from rank * |W_c| products with a generator.

        Checked: rho(t_u T_s) = rho(t_u) rho(T_s) for every u in W_c and
        every s, with t_u T_s read off the action table.  As rho and
        x -> x T_s are linear, rho(x T_s) = rho(x) rho(T_s) follows for
        every x in the quotient.  Induction on l(w): t_u t_1 = t_u, and
        for w = xs along g.prefix, x is in W_c, t_u t_w = (t_u t_x) T_s
        (the fold of :meth:`TL.t_mul`) and rho(t_w) = rho(t_x) rho(T_s)
        (the fold of :meth:`t_image`), so rho(t_u t_w) = rho(t_u t_x)
        rho(T_s) = rho(t_u) rho(t_x) rho(T_s) = rho(t_u) rho(t_w).
        """
        q = self.tl
        for ku, u in enumerate(q.wc):
            left = self.t_image(u)
            for s, ts in enumerate(self._that):
                if left * ts != self.rho(q.mul_gen({ku: ONE}, s)):
                    raise AssertionError(f"rho not multiplicative at ({ku}, T_{s + 1})")
        return True


@dataclass
class EmbeddingReport:
    variant: str
    group: str
    embedding: DiagramEmbedding
    images: dict
    single_unit: bool
    injective: bool
    image_matches: bool = None
    witnesses: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """False until :func:`rho_verify_bijection` has matched the images."""
        return self.single_unit and self.injective and self.image_matches is True

    def lines(self, machine: bool = False) -> list:
        """key=value lines in both modes, ending with the verdict."""
        ctx = self.embedding.ctx
        out = [
            f"variant={self.variant}",
            f"group={self.group}",
            f"target=P({ctx.n},{ctx.alg.rank})",
            f"canonical_images={len(self.images)}",
            f"single_unit={self.single_unit}",
            f"injective={self.injective}",
        ]
        if self.image_matches is not None:
            out.append(f"image_matches={self.image_matches}")
        for w in self.witnesses[:10]:
            out.append(f"witness: {w}")
        out.append(f"bijection={self.ok}")
        return out


def rho_build(variant: str, family: str, rank: int, m: int = 0) -> EmbeddingReport:
    """Construct the embedding for a group and compute canonical images."""
    g = coxeter_group(family, rank, m)
    emb = DiagramEmbedding(g, variant)
    for s in range(g.rank):
        if emb.rho(emb.tl.b(s)) != emb.gen_e[s]:
            raise AssertionError(f"generator image differs from E_{s + 1}")
    images, witnesses = {}, []
    for w in emb.tl.wc:
        el = emb.rho_canonical(w)
        terms = el.terms
        if len(terms) == 1 and next(iter(terms.values())) == ONE:
            (images[w],) = el.support()
        else:
            witnesses.append(f"rho(c_{g.word(w)}) is not one unit diagram")
            break
    single = not witnesses
    injective = single and len(set(images.values())) == len(images)
    return EmbeddingReport(variant, g.name, emb, images, single, injective,
                           witnesses=witnesses)


def rho_verify_bijection(report: EmbeddingReport) -> bool:
    """Check the canonical images form the expected diagram set.

    Type A images are the plain (all identity-labeled) diagrams; B, H
    and I images are the admissible sets; the uniform images must land
    inside the exposed basis.  Type I images additionally satisfy the
    explicit descent correspondence.  Records the outcome in
    ``report.image_matches`` and returns ``report.ok``.
    """
    emb = report.embedding
    if not (report.single_unit and report.injective):
        report.witnesses.append("images are not distinct unit diagrams")
        report.image_matches = False
        return False
    got = set(report.images.values())
    ctx = emb.ctx
    if report.variant in _PREDICATES:
        want = set(admissible(report.variant, ctx).members)
    elif report.variant == "A":
        want = {d for d in ctx.basis() if all(l == 0 for l in d.labels)}
    else:
        want = None
    if want is not None:
        ok = got == want
        if not ok:
            report.witnesses.append(
                f"image set mismatch: extra={len(got - want)} missing={len(want - got)}"
            )
    else:
        ok = all(is_exposed(d, ctx.alg) for d in got)
        if not ok:
            report.witnesses.append("image leaves the exposed basis")
    if ok and report.variant == "I":
        ok = _i_descent_ok(emb, report.images, report.witnesses)
    report.image_matches = ok
    return report.ok


def _i_descent_ok(emb: DiagramEmbedding, images: dict, witnesses: list) -> bool:
    """The dihedral correspondence: descents match corner arcs and the
    propagating decoration index is one less than the length."""
    g = emb.g
    for w, d in images.items():
        pm = partner_map(d.matching)
        checks = (
            (0 in g.left_descents(w)) == (pm[1] == 2),
            (1 in g.left_descents(w)) == (pm[2] == 3),
            (0 in g.right_descents(w)) == (pm[5] == 6),
            (1 in g.right_descents(w)) == (pm[4] == 5),
        )
        if not all(checks):
            witnesses.append(f"descent/arc mismatch at element {w}")
            return False
        if w != 0:
            props = [
                l
                for (a, b), l in zip(d.matching, d.labels)
                if a <= d.n < b
            ]
            if len(props) != 1 or g.lengths[w] != props[0] + 1:
                witnesses.append(f"length/decoration mismatch at element {w}")
                return False
    return True


# -- the twist and the conjecture ---------------------------------------------


def omega_rho_check(emb: DiagramEmbedding) -> tuple:
    """Whether the fusion twist fixes the image of rho pointwise.

    Returns (ok, witnesses); a witness names the first basis element
    whose image moves, with both values rendered.
    """
    witnesses = []
    for w in emb.tl.wc:
        im = emb.t_image(w)
        twisted = fusion_twist(im)
        if twisted != im:
            witnesses.append(
                (w, im.to_text().replace("\n", "; "),
                 twisted.to_text().replace("\n", "; "))
            )
            return False, witnesses
    return True, witnesses


@dataclass
class ConjectureReport:
    group: str
    target: str
    total: int
    zero_count: int
    nonzero_count: int
    wc_count: int
    all_single_unit: bool
    all_exposed: bool
    injective: bool
    zero_exactly_complex: bool
    witnesses: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.all_single_unit
            and self.all_exposed
            and self.injective
            and self.zero_exactly_complex
        )

    def lines(self, machine: bool = False) -> list:
        """key=value lines in both modes."""
        return [
            f"group={self.group}",
            f"target={self.target}",
            f"elements={self.total}",
            f"zero_images={self.zero_count}",
            f"nonzero_images={self.nonzero_count}",
            f"fully_commutative={self.wc_count}",
            f"single_unit={self.all_single_unit}",
            f"exposed={self.all_exposed}",
            f"injective={self.injective}",
            f"zero_exactly_complex={self.zero_exactly_complex}",
            f"ok={self.ok}",
        ] + [f"witness: {w}" for w in self.witnesses[:10]]


def conjecture_436_check(family: str, rank: int, m: int = 0) -> ConjectureReport:
    """Images of all Kazhdan-Lusztig elements under the uniform map.

    Every C'_w maps to zero or to a single exposed diagram with unit
    coefficient, injectively on the nonzero set, and the zero set is
    exactly the complex elements.  The images are computed directly
    from the Hecke expansion of C'_w, not through the quotient, so this
    also certifies that the kernel of the projection is killed.
    """
    g = coxeter_group(family, rank, m)
    emb = DiagramEmbedding(g, "uniform")
    wc_set = set(emb.tl.wc)
    seen = {}
    zero_count = 0
    all_single = all_exposed = zero_matches = True
    witnesses = []
    for w in range(g.order):
        el = emb.rho_hecke(emb.h.cprime(w))
        if el.is_zero():
            zero_count += 1
            if w in wc_set:
                zero_matches = False
                witnesses.append(f"zero image at fully commutative element {w}")
            continue
        if w not in wc_set:
            zero_matches = False
            witnesses.append(f"nonzero image at complex element {w}")
        terms = el.terms
        if len(terms) != 1 or next(iter(terms.values())) != ONE:
            all_single = False
            witnesses.append(f"image of element {w} is not a unit diagram")
            continue
        (d,) = el.support()
        if not is_exposed(d, emb.ctx.alg):
            all_exposed = False
            witnesses.append(f"image of element {w} is not exposed")
        seen.setdefault(d, []).append(w)
    dupes = {d: ws for d, ws in seen.items() if len(ws) > 1}
    if dupes:
        witnesses.append(f"image collisions: {sorted(dupes.values())[:3]}")
    return ConjectureReport(
        group=g.name,
        target=f"P({emb.ctx.n},{emb.ctx.alg.rank})",
        total=g.order,
        zero_count=zero_count,
        nonzero_count=g.order - zero_count,
        wc_count=len(emb.tl.wc),
        all_single_unit=all_single,
        all_exposed=all_exposed,
        injective=not dupes,
        zero_exactly_complex=zero_matches,
        witnesses=witnesses,
    )


def drank_sequence(r: int, n_max: int) -> list:
    """Number of exposed basis diagrams of P(n, r) for n = 1 .. n_max."""
    return [
        len(Context(n, make_verlinde(r)).d_basis()) for n in range(1, n_max + 1)
    ]
