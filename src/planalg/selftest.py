"""End-to-end verification battery for the whole package.

Each check rebuilds the objects it needs from scratch and tests exact
statements: fusion-ring axioms, duality identities, the sqrt(2)
homomorphism, stacking associativity, the cell axioms, traces, rank
counts, admissible counts, canonical bases, the diagram embeddings,
twist compatibility, the bilinear form, the canonical image map and the
tensor embedding.  :func:`run_check` runs one numbered check; the
``planalg selftest`` command prints one line per check and exits 0 only
when every check passes inside its budget.

Check 11 contains one identity that is genuinely false: the fusion
twist does not fix the dihedral embedding for m = 6, because the twist
multiplies transitional labels by the duality label and u_4 u_1 = u_3
in V_5.  The check reports FAIL with the witness rather than weakening
the statement.
"""

import random
import time
from dataclasses import dataclass

from .coxeter import coxeter_group
from .embed import (
    admissible,
    admissible_closed_under_mul,
    conjecture_436_check,
    drank_sequence,
    omega_rho_check,
    rho_build,
    rho_verify_bijection,
)
from .laurent import (
    DELTA, Laurent, ONE, QSqrt2, SQRT2, dot, vneg_congruent,
)
from .planar import Context, is_exposed, verify_tensor_iso
from .table_algebra import check_algebra
from .tabular import datum_build, prop434_test
from .tl import tl
from .verlinde import (
    make_verlinde,
    phi_is_homomorphism,
    phi_v3_to_v2,
    reduction_structure_constants,
    w_identities,
)

V_INV2 = Laurent.v_power(-2)

# Groups whose quotients embed into diagram algebras, with the expected
# number of fully commutative elements.
EMBED_TYPES = (
    ("A", "A", 2, 0, 5),
    ("A", "A", 3, 0, 14),
    ("B", "B", 3, 0, 24),
    ("H", "H", 3, 0, 44),
    ("I", "I", 2, 3, 5),
    ("I", "I", 2, 4, 7),
    ("I", "I", 2, 5, 9),
    ("I", "I", 2, 6, 11),
    ("I", "I", 2, 7, 13),
    ("I", "I", 2, 8, 15),
)


@dataclass
class CheckResult:
    number: int
    name: str
    passed: bool
    seconds: float
    budget: float
    detail: str = ""

    @property
    def ok(self) -> bool:
        """Passed, and inside the time budget."""
        return self.passed and self.seconds <= self.budget

    def lines(self, machine: bool = False) -> list:
        if machine:
            return [
                f"check={self.number:02d} name={self.name} "
                f"result={'pass' if self.ok else 'fail'} seconds={self.seconds:.2f}"
            ]
        word = "PASS" if self.ok else "FAIL"
        out = [
            f"check {self.number:02d} {self.name}: {word} "
            f"in {self.seconds:.2f}s (budget {self.budget:g}s) - {self.detail}"
        ]
        if not self.passed and self.number in KNOWN_FAILURES:
            out.append(_KNOWN_FAILURE_NOTE)
        return out


def _check_fusion_rings():
    for r in range(1, 9):
        alg = make_verlinde(r)
        res = check_algebra(alg)
        if not res.ok:
            return False, f"axiom scan fails at r={r}: {res.witnesses[:1]}"
        if reduction_structure_constants(r) != alg.rows:
            return False, f"polynomial reduction disagrees at r={r}"
    return True, "r = 1..8: all axiom flags, full associativity, reduction agrees"


def _check_duality_identities():
    for r in range(1, 9):
        alg = make_verlinde(r)
        if not w_identities(alg):
            return False, f"duality identities fail at r={r}"
        for i in range(r):
            if alg.mul_basis(i, r - 1) != {r - 1 - i: 1}:
                return False, f"u_{i} u_{r - 1} != u_{r - 1 - i} at r={r}"
        if alg.mul_basis(r - 1, r - 1) != {0: 1}:
            return False, f"w^2 != 1 at r={r}"
    return True, "u_i u_(r-1) = u_(r-1-i) and w^2 = 1 for r = 1..8"


def _check_sqrt2_homomorphism():
    if not phi_is_homomorphism():
        return False, "phi is not multiplicative on V_3"
    half_rt2 = SQRT2 / QSqrt2(2)
    pinned = {
        0: {0: QSqrt2(1)},
        1: {0: half_rt2, 1: half_rt2},
        2: {1: QSqrt2(1)},
    }
    for i, want in pinned.items():
        if phi_v3_to_v2({i: 1}) != want:
            return False, f"phi(u_{i}) is not the pinned image"
    return True, "phi multiplicative on V_3; images 1, (1'+z')/sqrt2, z' pinned"


def _check_stacking_associativity():
    for n in (1, 2):
        for r in range(1, 5):
            ctx = Context(n, make_verlinde(r))
            els = [ctx.basis_element(d) for d in ctx.basis()]
            size = len(els)
            prods = [[els[i] * els[j] for j in range(size)] for i in range(size)]
            for i in range(size):
                for j in range(size):
                    for k in range(size):
                        if prods[i][j] * els[k] != els[i] * prods[j][k]:
                            return False, f"exhaustive failure at n={n} r={r}"
    rng = random.Random(20260815)
    triples = 0
    for n in (3, 4):
        for r in range(1, 4):
            ctx = Context(n, make_verlinde(r))
            els = [ctx.basis_element(d) for d in ctx.basis()]
            for _ in range(200):
                a, b, c = (rng.choice(els) for _ in range(3))
                if (a * b) * c != a * (b * c):
                    return False, f"random failure at n={n} r={r}"
                triples += 1
    return True, f"exhaustive n<=2 r<=4; {triples} seeded random triples n in 3..4"


def _check_cell_axioms():
    for n, r in ((2, 2), (2, 3), (3, 2), (3, 3)):
        datum = datum_build(Context(n, make_verlinde(r)))
        rep = datum.axioms_check()
        if not rep.ok:
            bad = [k for k, v in rep.flags().items() if not v]
            return False, f"(n,r)=({n},{r}) fails {bad}: {rep.witnesses[:1]}"
        if not rep.exhaustive:
            return False, f"(n,r)=({n},{r}) was not checked exhaustively"
    return True, "A1-A5 + degree bound exhaustive at (2,2), (2,3), (3,2), (3,3)"


def _check_unit_traces():
    for r in (2, 3):
        for n in range(1, 6):
            one = Context(n, make_verlinde(r)).one()
            tau_want = ONE
            tr_want = ONE
            for _ in range(n):
                tau_want = tau_want * (ONE + V_INV2)
                tr_want = tr_want * DELTA
            if one.tau() != tau_want or one.trace() != tr_want:
                return False, f"unit trace wrong at n={n} r={r}"
    return True, "tau(1) = (1 + v^-2)^n and tr(1) = delta^n for n <= 5, r in 2..3"


def _check_diagram_ranks():
    if drank_sequence(1, 5) != [1, 2, 5, 14, 42]:
        return False, "r=1 ranks differ from 1, 2, 5, 14, 42"
    if drank_sequence(2, 4) != [2, 6, 20, 70]:
        return False, "r=2 ranks differ from 2, 6, 20, 70"
    extra = drank_sequence(3, 5)
    return True, f"r=1 Catalan, r=2 central binomial; r=3 gives {extra}"


def _check_admissible_counts():
    counts = [
        len(admissible("I", Context(3, make_verlinde(r))).members)
        for r in range(1, 9)
    ]
    for r in range(2, 9):
        if counts[r - 1] != 2 * r + 1:
            return False, f"count at r={r} is {counts[r - 1]}, want {2 * r + 1}"
    # r = 1 has no odd label at all, so the two conditions that force a
    # 1-decorated arc are unsatisfiable and only 2 diagrams qualify.
    if counts[0] != 2:
        return False, f"count at r=1 is {counts[0]}, want 2"
    return True, f"counts r=1..8 are {counts}: 2r+1 for r >= 2, and 2 at r=1"


def _check_canonical_bases():
    jobs = [("A", 1, 0), ("A", 2, 0), ("A", 3, 0), ("A", 4, 0),
            ("B", 2, 0), ("B", 3, 0), ("H", 3, 0)]
    jobs += [("I", 2, m) for m in range(3, 9)]
    total = 0
    for fam, rank, m in jobs:
        q = tl(coxeter_group(fam, rank, m))
        q.cross_check_canonical()
        for w in q.wc:
            cw = q.canonical_t(w)
            if q.bar(cw) != cw:
                return False, f"c_w not bar-invariant in {q.g.name}"
            unit = q.canonical_unit(w)
            for k, c in unit.items():
                if k == q.pos[w]:
                    if c != ONE:
                        return False, f"diagonal != 1 in {q.g.name}"
                elif not vneg_congruent(c, 0):
                    return False, f"off-diagonal not in v^-1 Z[v^-1] in {q.g.name}"
            total += 1
    return True, f"{total} canonical elements: bar-invariant, unitriangular, oracle"


def _check_diagram_embeddings():
    for variant, fam, rank, m, count in EMBED_TYPES:
        rep = rho_build(variant, fam, rank, m=m)
        if len(rep.images) != count:
            return False, f"{rep.group}: {len(rep.images)} images, want {count}"
        if not rho_verify_bijection(rep):
            return False, f"{rep.group}: image is not the admissible set"
        rep.embedding.verify_multiplicative()
        if variant in "BHI":
            adm = admissible(variant, rep.embedding.ctx)
            if not admissible_closed_under_mul(adm):
                return False, f"{rep.group}: admissible set not closed"
    return True, "relations, bijections and multiplicativity at all ten types"


def _check_twist_compatibility():
    details = []
    passed = True
    for variant, fam, rank, m, want in (
        ("B", "B", 3, 0, True),
        ("I", "I", 2, 4, True),
        ("I", "I", 2, 6, True),
    ):
        rep = rho_build(variant, fam, rank, m=m)
        ok, _ = omega_rho_check(rep.embedding)
        details.append(f"{rep.group}: {'fixed' if ok else 'MOVED'}")
        if ok != want:
            passed = False
    rep = rho_build("A", "A", 2)
    ok, wit = omega_rho_check(rep.embedding)
    details.append(f"A2: {'fixed' if ok else 'moved as required'}")
    if ok or not wit:
        passed = False
    return passed, "; ".join(details)


def _form_fixture(variant, fam, rank, m):
    rep = rho_build(variant, fam, rank, m=m)
    emb, q = rep.embedding, rep.embedding.tl
    tau_rho = [emb.t_image(w).tau() for w in q.wc]

    def form(x, y):
        return dot((c, tau_rho[k]) for k, c in q.mul(x, q.star(y)).items())

    return rep, emb, q, form


def _check_form_properties():
    rng = random.Random(20260815)
    for variant, fam, rank, m, _ in EMBED_TYPES:
        rep, emb, q, form = _form_fixture(variant, fam, rank, m)
        for w in q.wc:
            if emb.rho_canonical(w).star() != emb.rho_canonical(q.g.inverse[w]):
                return False, f"{rep.group}: star does not commute with the map"
        for _ in range(5):
            x, y = rng.choice(q.wc), rng.choice(q.wc)
            direct = (emb.t_image(x) * emb.t_image(q.g.inverse[y])).tau()
            if form(q.t(x), q.t(y)) != direct:
                return False, f"{rep.group}: form disagrees with the closure trace"

        def rand_el():
            out = q.t(rng.choice(q.wc))
            out = q.scale(out, Laurent.v_power(rng.randint(-2, 2)))
            extra = q.scale(q.t(rng.choice(q.wc)), Laurent(rng.choice((1, 2, -1))))
            return q.add(out, extra)

        for _ in range(8):
            x, y, z = rand_el(), rand_el(), rand_el()
            if form(q.mul(x, y), z) != form(y, q.mul(q.star(x), z)):
                return False, f"{rep.group}: adjunction fails"

        def tnorm(w):
            return {q.pos[w]: Laurent.v_power(-q.g.lengths[w])}

        for x in q.wc:
            for y in q.wc:
                want = 1 if x == y else 0
                if not vneg_congruent(form(q.canonical_t(x), q.canonical_t(y)), want):
                    return False, f"{rep.group}: canonical pair ({x},{y}) not unital"
                if not vneg_congruent(form(tnorm(x), tnorm(y)), want):
                    return False, f"{rep.group}: rescaled-t pair ({x},{y}) not unital"
        for w in q.wc:
            cw = q.canonical_t(w)
            if prop434_test(q, form, cw) != "is_plus_canonical":
                return False, f"{rep.group}: c_w not classified as +canonical"
            if prop434_test(q, form, q.scale(cw, -1)) != "is_minus_canonical":
                return False, f"{rep.group}: -c_w not classified as -canonical"
        for x, y in ((q.wc[0], q.wc[1]), (q.wc[1], q.wc[-1])):
            mix = q.add(q.canonical_t(x), q.canonical_t(y))
            if prop434_test(q, form, mix) != "neither":
                return False, f"{rep.group}: c_x + c_y not rejected"
    return True, "adjunction, almost-orthonormality and trichotomy at all ten types"


def _check_canonical_image_map():
    jobs = [("A", 2, 0), ("A", 3, 0), ("B", 2, 0), ("B", 3, 0),
            ("I", 2, 3), ("I", 2, 4), ("I", 2, 5), ("I", 2, 6), ("H", 3, 0)]
    for fam, rank, m in jobs:
        rep = conjecture_436_check(fam, rank, m=m)
        if not rep.ok:
            return False, f"{rep.group}: {rep.witnesses[:1]}"
    return True, "images are single canonical diagrams, zero exactly off the cell"


def _check_tensor_embedding():
    for n in range(1, 4):
        for r in range(1, 4):
            ctx = Context(n, make_verlinde(r))
            verify_tensor_iso(ctx)
            dbase = ctx.d_basis()
            for a in dbase:
                for b in dbase:
                    prod = ctx.basis_element(a) * ctx.basis_element(b)
                    for d in prod.support():
                        if not is_exposed(d, ctx.alg):
                            return False, f"exposure lost at n={n} r={r}"
    return True, "structure constants match the tensor power; exposure is closed"


CHECKS = (
    (1, "fusion-rings", 1.0, _check_fusion_rings),
    (2, "duality-identities", 1.0, _check_duality_identities),
    (3, "sqrt2-homomorphism", 1.0, _check_sqrt2_homomorphism),
    (4, "stacking-associativity", 60.0, _check_stacking_associativity),
    (5, "cell-axioms", 120.0, _check_cell_axioms),
    (6, "unit-traces", 1.0, _check_unit_traces),
    (7, "diagram-ranks", 30.0, _check_diagram_ranks),
    (8, "admissible-counts", 5.0, _check_admissible_counts),
    (9, "canonical-bases", 120.0, _check_canonical_bases),
    (10, "diagram-embeddings", 120.0, _check_diagram_embeddings),
    (11, "twist-compatibility", 10.0, _check_twist_compatibility),
    (12, "form-properties", 60.0, _check_form_properties),
    (13, "canonical-image-map", 120.0, _check_canonical_image_map),
    (14, "tensor-embedding", 60.0, _check_tensor_embedding),
)

KNOWN_FAILURES = {11}
_KNOWN_FAILURE_NOTE = (
    "  (known failure: the twist moves the m = 6 dihedral image;"
    " u_4 u_1 = u_3 in V_5)"
)


def run_check(number: int) -> CheckResult:
    """Run a single numbered check and return its result."""
    for num, name, budget, fn in CHECKS:
        if num != number:
            continue
        start = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # noqa: BLE001 - report, don't crash the battery
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        return CheckResult(
            num, name, passed, time.perf_counter() - start, budget, detail
        )
    raise ValueError(f"no check numbered {number}")

