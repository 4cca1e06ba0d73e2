"""The four benchmark workloads: inputs, build phase and query ops.

Every workload has three parts:

- ``inputs(seed, tiny)`` makes the seeded inputs with plain Python (no
  planalg call), so set-up time is the import plus this generation;
- ``build(inputs, gate)`` constructs the workload's structures from
  empty caches and checks each one against known answers and pinned
  digests;
- ``op(state, spec)`` runs one query operation and returns the names of
  the identities it broke (an empty list when the op is correct).

Every planalg call goes through the ``planalg`` package namespace or a
method, so the traced run sees it once the tracer has replaced those
attributes.  ``tiny`` keeps the first entries of each list and a few
ops, for the smoke test.
"""

import hashlib
import json
import random
import time
from math import comb
from pathlib import Path

import planalg as pa

DIGESTS = json.loads((Path(__file__).with_name("digests.json")).read_text())

#: Ops per build-and-query round, full size and tiny.
OPS = {"embed": 1200, "kl": 1530, "cells": 18000, "session": 480}
TINY_OPS = 12


class Gate:
    """Counts and times verifications; a failure is recorded, never raised."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.seconds = []  # time of each attempt on the clock, in order

    def attempt(self, label, fn, *args):
        """Run fn(*args) -> (result, broken names); count it once."""
        self.attempted += 1
        start = self.clock()
        try:
            result, broken = fn(*args)
        except Exception as exc:  # noqa: BLE001 - a failed op is data
            result, broken = None, [f"raised {type(exc).__name__}: {exc}"]
        self.seconds.append(self.clock() - start)
        if broken:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{label}: {'; '.join(broken)}")
        return result


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _broken(checks):
    return [name for name, ok in checks if not ok]


class Deck:
    """Seeded draws that cover a sequence evenly.

    The items are shuffled and dealt in order, and reshuffled when the
    deck runs out, so every seed draws each item about equally often
    and the cost of an op stream varies little from seed to seed.
    """

    def __init__(self, rng, items):
        self.rng, self.items, self.left = rng, list(items), []

    def draw(self):
        if not self.left:
            self.left = self.items[:]
            self.rng.shuffle(self.left)
        return self.left.pop()


def _rand_terms(rng, deck, terms):
    """Distinct positions from the deck, each with a small v^e * c."""
    picks = []
    while len(picks) < min(terms, len(deck.items)):
        k = deck.draw()
        if k not in picks:
            picks.append(k)
    return [(k, rng.randint(-2, 2), rng.choice((1, 2, -1, -3))) for k in picks]


def _quotient_element(spec):
    return {k: pa.Laurent.v_power(e) * c for k, e, c in spec}


# -- embed: checks 10 and 12 ------------------------------------------------

#: (variant, family, rank, m, canonical images = |W_c|, target n, target r)
EMBED_TYPES = (
    ("A", "A", 2, 0, 5, 3, 2),
    ("A", "A", 3, 0, 14, 4, 2),
    ("B", "B", 3, 0, 24, 4, 3),
    ("H", "H", 3, 0, 44, 4, 4),
    ("I", "I", 2, 3, 5, 3, 2),
    ("I", "I", 2, 4, 7, 3, 3),
    ("I", "I", 2, 5, 9, 3, 4),
    ("I", "I", 2, 6, 11, 3, 5),
    ("I", "I", 2, 7, 13, 3, 6),
    ("I", "I", 2, 8, 15, 3, 7),
)


def embed_inputs(seed, tiny):
    rng = random.Random(f"embed:{seed}")
    types = EMBED_TYPES[:2] if tiny else EMBED_TYPES
    decks = [Deck(rng, range(t[4])) for t in types]
    ops = []
    for i in range(TINY_OPS if tiny else OPS["embed"]):
        t = i % len(types)
        if (i // len(types)) % 4 == 3:
            specs = [_rand_terms(rng, decks[t], 2) for _ in range(3)]
            ops.append(("adjoint", t, specs))
        else:
            ops.append(("pair", t, (decks[t].draw(), decks[t].draw())))
    return {"types": types, "ops": ops}


def _embed_item(spec):
    variant, fam, rank, m, count, n, r = spec
    rep = pa.rho_build(variant, fam, rank, m=m)
    emb, q = rep.embedding, rep.embedding.tl
    ctx = emb.ctx
    images = sorted(d.to_text() for d in rep.images.values())
    checks = [
        ("|W_c|", q.rank == count),
        ("image count", len(rep.images) == count),
        ("bijection", pa.rho_verify_bijection(rep)),
        ("target", (ctx.n, ctx.alg.rank) == (n, r)),
        ("Catalan rank", len(ctx.basis()) == catalan(n) * r**n),
        ("image digest", digest(images) == DIGESTS["embed"][rep.group]),
    ]
    if variant == "I":
        adm = pa.admissible("I", ctx)
        checks.append(("2r+1 admissible", len(adm.members) == 2 * r + 1))
    tau_rho = [emb.t_image(w).tau() for w in q.wc]
    return (emb, q, tau_rho), _broken(checks)


def embed_build(inputs, gate):
    return [gate.attempt(f"build {t[1]}{t[2]}({t[3]})", _embed_item, t)
            for t in inputs["types"]]


def _form(q, tau_rho, x, y):
    """The check-12 trace form tau(rho(x y*)) on quotient elements."""
    ystar = {q.pos[q.g.inverse[q.wc[k]]]: c for k, c in y.items()}
    acc = pa.ZERO
    for k, c in q.mul(x, ystar).items():
        acc = acc + c * tau_rho[k]
    return acc


def embed_op(state, spec):
    kind, t, args = spec
    emb, q, tau_rho = state[t]
    inv = q.g.inverse
    if kind == "pair":
        ku, kw = args
        u, w = q.wc[ku], q.wc[kw]
        left = emb.t_image(u) * emb.t_image(w)
        one = emb.ctx.one()
        cu, cw = emb.rho_canonical(u), emb.rho_canonical(w)
        checks = [
            ("rho multiplicative", left == emb.rho(q.t_mul(ku, kw))),
            ("unit law", not left.is_zero() and one * left == left == left * one),
            ("star anti-multiplicative",
             (cu * cw).star() == emb.rho_canonical(inv[w]) * emb.rho_canonical(inv[u])),
        ]
        return None, _broken(checks)
    x, y, z = (_quotient_element(s) for s in args)
    kx, ky = args[0][0][0], args[1][0][0]
    direct = (emb.t_image(q.wc[kx]) * emb.t_image(inv[q.wc[ky]])).tau()
    checks = [
        ("form adjunction",
         _form(q, tau_rho, q.mul(x, y), z) == _form(q, tau_rho, y, q.mul(q.star(x), z))),
        ("form = closure trace", _form(q, tau_rho, q.t(q.wc[kx]), q.t(q.wc[ky])) == direct),
        ("unit law", bool(x) and q.mul(q.one(), x) == x == q.mul(x, q.one())),
    ]
    return None, _broken(checks)


# -- kl: Hecke, TL and Coxeter work, no diagrams -------------------------------

#: (family, rank, m, |W|, |W_c|)
KL_QUOTIENTS = (
    ("A", 1, 0, 2, 2),
    ("A", 2, 0, 6, 5),
    ("A", 3, 0, 24, 14),
    ("A", 4, 0, 120, 42),
    ("B", 2, 0, 8, 7),
    ("B", 3, 0, 48, 24),
    ("H", 3, 0, 120, 44),
) + tuple(("I", 2, m, 2 * m, 2 * m - 1) for m in range(3, 13))

#: The H4 group is built and classified, without its quotient.
H4 = ("H", 4, 0, 14400, 195)


def kl_inputs(seed, tiny):
    rng = random.Random(f"kl:{seed}")
    quotients = KL_QUOTIENTS[:2] if tiny else KL_QUOTIENTS
    decks = [Deck(rng, range(q[4])) for q in quotients]
    ops = []
    for i in range(TINY_OPS if tiny else OPS["kl"]):
        t = i % len(quotients)
        ops.append((t, _rand_terms(rng, decks[t], 3), _rand_terms(rng, decks[t], 3)))
    return {"quotients": quotients, "h4": not tiny, "ops": ops}


def _kl_item(spec):
    fam, rank, m, order, count = spec
    g = pa.coxeter_group(fam, rank, m)
    q = pa.tl(g)
    canon = [q.element_str(q.canonical_t(w)) for w in q.wc]
    checks = [
        ("|W|", g.order == order),
        ("|W_c|", q.rank == count),
        ("theta(C'_w) = c_w", q.cross_check_canonical()),
        ("canonical digest", digest(canon) == DIGESTS["kl"][g.name]),
    ]
    return q, _broken(checks)


def _h4_item():
    fam, rank, m, order, count = H4
    g = pa.coxeter_group(fam, rank, m)
    wc, _ = pa.wc_classify(g)
    return g, _broken([("|W|", g.order == order), ("|W_c|", len(wc) == count)])


def kl_build(inputs, gate):
    state = [gate.attempt(f"build {q[0]}{q[1]}({q[2]})", _kl_item, q)
             for q in inputs["quotients"]]
    if inputs["h4"]:
        gate.attempt("build H4", _h4_item)
    return state


def kl_op(state, spec):
    t, xs, ys = spec
    q = state[t]
    x, y = _quotient_element(xs), _quotient_element(ys)
    xy = q.mul(x, y)
    coords = q.to_canonical(x)
    rebuilt = {}
    for k, c in coords.items():
        rebuilt = q.add(rebuilt, q.scale(q.canonical_t(q.wc[k]), c))
    checks = [
        ("star anti-multiplicative", q.star(xy) == q.mul(q.star(y), q.star(x))),
        ("unit law", bool(x) and q.mul(q.one(), x) == x == q.mul(x, q.one())),
        ("canonical coordinates", rebuilt == x),
        ("bar-equivariant coordinates",
         q.to_canonical(q.bar(x)) == {k: c.bar() for k, c in coords.items()}),
    ]
    return None, _broken(checks)


# -- cells: the tabular datum, cold diagram products ----------------------------

#: (n, r); P(3,3) is checked exhaustively, the others by seeded samples.
CELL_CONTEXTS = ((3, 3), (4, 2), (3, 4))
EXHAUSTIVE_CAP = 200


def cells_inputs(seed, tiny):
    rng = random.Random(f"cells:{seed}")
    contexts = CELL_CONTEXTS[:1] if tiny else CELL_CONTEXTS
    decks = [Deck(rng, range(catalan(n) * r**n)) for n, r in contexts]
    ops = []
    for i in range(TINY_OPS if tiny else OPS["cells"]):
        t = i % len(contexts)
        ops.append((t, decks[t].draw(), decks[t].draw()))
    return {"contexts": contexts, "seed": seed, "ops": ops}


def _cells_item(n, r, seed):
    datum = pa.datum_build(pa.Context(n, pa.make_verlinde(r)))
    rep = datum.axioms_check(seed=seed)
    size = len(datum.basis)
    inv = datum.ctx.alg.inv
    star_index = [datum.index[pa.star_diagram(d, inv)] for d in datum.basis]
    one = datum.index[datum.ctx.one().support()[0]]
    checks = [
        ("Catalan rank", size == catalan(n) * r**n),
        ("axioms A1-A5", rep.ok and rep.a_function_ok),
        ("exhaustive mode", rep.exhaustive == (size <= EXHAUSTIVE_CAP)),
        ("tau digest",
         digest(str(t) for t in datum.tau_vector()) == DIGESTS["cells"][f"P({n},{r})"]),
    ]
    return (datum, star_index, one), _broken(checks)


def cells_build(inputs, gate):
    return [gate.attempt(f"build P({n},{r})", _cells_item, n, r, inputs["seed"])
            for n, r in inputs["contexts"]]


def cells_op(state, spec):
    t, i, j = spec
    datum, star_index, one = state[t]
    prod = datum.product(i, j)
    starred = {star_index[k]: c.bar() for k, c in prod.items()}
    checks = [
        ("almost orthonormal", pa.vneg_congruent(datum.form_basis(i, j), int(i == j))),
        ("star anti-multiplicative",
         starred == datum.product(star_index[j], star_index[i])),
        ("unit law", datum.product(one, i) == {i: pa.ONE} == datum.product(i, one)),
    ]
    return None, _broken(checks)


# -- session: the text boundary --------------------------------------------------

SESSION_CONTEXTS = ((4, 3), (5, 2), (3, 4))


def _random_matching(rng, points):
    """A non-crossing perfect matching of consecutive points."""
    if not points:
        return []
    j = rng.randrange(1, len(points), 2)
    return ([(points[0], points[j])] + _random_matching(rng, points[1:j])
            + _random_matching(rng, points[j + 1:]))


def _laurent_text(rng):
    exps = sorted(rng.sample(range(-3, 4), rng.randint(1, 2)), reverse=True)
    parts = []
    for e in exps:
        c = rng.choice((1, 2, 3, -1, -2))
        var = "" if e == 0 else ("v" if e == 1 else f"v^{e}")
        body = f"{abs(c) if abs(c) != 1 or not var else ''}{var}"
        sign = ("-" if c < 0 else "") if not parts else ("- " if c < 0 else "+ ")
        parts.append(f"{sign}{body}")
    return " ".join(parts)


def _element_text(rng, n, r, terms):
    lines = []
    for _ in range(terms):
        pairs = _random_matching(rng, list(range(1, 2 * n + 1)))
        body = " ".join(f"{a}-{b}:{rng.randrange(r)}" for a, b in pairs)
        lines.append(f"{_laurent_text(rng)} * n={n} | {body}")
    return "\n".join(lines)


def session_inputs(seed, tiny):
    rng = random.Random(f"session:{seed}")
    contexts = SESSION_CONTEXTS[:1] if tiny else SESSION_CONTEXTS
    sizes = Deck(rng, (2, 3, 4))
    ops = []
    for i in range(TINY_OPS if tiny else OPS["session"]):
        t = i % len(contexts)
        n, r = contexts[t]
        ops.append((t, _element_text(rng, n, r, sizes.draw()),
                    _element_text(rng, n, r, sizes.draw())))
    return {"contexts": contexts, "ops": ops}


def _session_item(n, r):
    ctx = pa.Context(n, pa.make_verlinde(r))
    return ctx, _broken([("Catalan rank", len(ctx.basis()) == catalan(n) * r**n)])


def session_build(inputs, gate):
    return [gate.attempt(f"build P({n},{r})", _session_item, n, r)
            for n, r in inputs["contexts"]]


def session_op(state, spec):
    t, tx, ty = spec
    ctx = state[t]
    x, y = ctx.from_text(tx), ctx.from_text(ty)
    xy = x * y
    text = xy.to_text()
    twisted = pa.fusion_twist(xy)
    checks = [
        ("text round-trip", ctx.from_text(text) == xy),
        ("star anti-multiplicative", xy.star() == y.star() * x.star()),
        ("tau(xy) = tau(yx)", xy.tau() == (y * x).tau()),
        ("twist is an involution", pa.fusion_twist(twisted) == xy),
        ("unit law", not x.is_zero() and ctx.one() * x == x == x * ctx.one()),
    ]
    return None, _broken(checks)


WORKLOADS = {
    "embed": (embed_inputs, embed_build, embed_op),
    "kl": (kl_inputs, kl_build, kl_op),
    "cells": (cells_inputs, cells_build, cells_op),
    "session": (session_inputs, session_build, session_op),
}
