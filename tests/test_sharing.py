"""Long-lived tables keep one object per distinct coefficient, and no
operation writes into a cached Laurent."""

import random

from planalg.coxeter import coxeter_group
from planalg.hecke import hecke
from planalg.laurent import Laurent
from planalg.planar import Context, Element, fusion_twist
from planalg.tabular import datum_build
from planalg.tl import tl
from planalg.verlinde import make_verlinde


def _one_object_per_value(coeffs) -> int:
    """Number of distinct values; fails if two equal values are distinct objects."""
    seen = {}
    for c in coeffs:
        assert seen.setdefault(c, c) is c, f"two objects hold {c}"
    return len(seen)


def test_product_and_trace_tables_share_each_coefficient():
    ctx = Context(3, make_verlinde(4))
    datum = datum_build(ctx)
    assert datum.axioms_check().ok
    prod = [c for row in ctx._prod.values() for c in row.values()]
    assert len(prod) > 5_000
    distinct = _one_object_per_value(prod + list(ctx._trace.values()))
    assert distinct < 20
    _one_object_per_value(datum.tau_vector())


def test_tl_rows_hold_one_object_per_coefficient():
    q = tl(coxeter_group("H", 3))
    for ku in range(q.rank):
        for kw in range(q.rank):
            q.t_mul(ku, kw)
    rows = [c for row in q._rows for entry in row.values() for c in entry.values()]
    for c in rows:
        assert q._coeffs[frozenset(c._c.items())] is c
    assert _one_object_per_value(rows) == len(q._coeffs)
    assert len(rows) > 5 * len(q._coeffs)


def _cached_coefficients(ctx, q) -> list:
    out = [c for row in ctx._prod.values() for c in row.values()]
    out += ctx._trace.values()
    out += ctx._scalars.values()
    out += [c for row in q._rows for entry in row.values() for c in entry.values()]
    out += q._coeffs.values()
    out += [c for cw in q._canonical_table.values() for c in cw.values()]
    out += [c for row in q._inverse.values() for c in row.values()]
    return out


def _random_coeff(rng):
    if rng.random() < 0.5:
        return Laurent(1)
    return Laurent({rng.randint(-2, 2): rng.choice([-2, -1, 1, 3]) for _ in range(2)})


def _mixed_stream(ctx, q, rng, rounds: int) -> list:
    """Element products, star, twist and tau next to TL products,
    canonical coordinates and bar; returns every result as text."""
    size, out = len(ctx.basis()), []
    for _ in range(rounds):
        x, y = (Element(ctx, {rng.randrange(size): _random_coeff(rng) for _ in range(3)})
                for _ in range(2))
        xy = x * y
        out += [xy.to_text(), (xy + x).to_text(), (x - xy).to_text(), xy.star().to_text(),
                fusion_twist(xy).to_text(), str(xy.tau())]
        a, b = ({rng.randrange(q.rank): _random_coeff(rng) for _ in range(2)}
                for _ in range(2))
        ab = q.mul(a, b)
        out += [q.element_str(ab), q.element_str(q.to_canonical(ab)),
                q.element_str(q.bar(ab)), q.element_str(q.canonical_t(rng.choice(q.wc)))]
    return out


def _text(x: dict) -> str:
    return repr(sorted((k, str(c)) for k, c in x.items()))


def _hecke_stream(h, rng, rounds: int) -> list:
    """Hecke products, bar, C'-coordinates, C'_w and P_{y,w}; returns
    every result as text."""
    order, out = h.g.order, []
    for _ in range(rounds):
        x, y = ({rng.randrange(order): _random_coeff(rng) for _ in range(2)}
                for _ in range(2))
        xy, w = h.mul(x, y), rng.randrange(order)
        out += [_text(xy), _text(h.bar(xy)), _text(h.to_cprime(xy)), _text(h.cprime(w)),
                str(h.kl_polynomial(rng.randrange(order), w))]
    return out


def test_no_operation_mutates_a_cached_coefficient():
    ctx, q = Context(3, make_verlinde(3)), tl(coxeter_group("B", 3))
    h = hecke(coxeter_group("B", 3))
    for w in range(h.g.order):  # fill the Hecke tables and every inverse row
        h.bar_t(w), h.cprime_unit(w), h.to_cprime({w: 1})
    for k in range(q.rank):
        q.to_canonical({k: 1})
    first = _mixed_stream(ctx, q, random.Random(7), 150)
    first_h = _hecke_stream(h, random.Random(7), 150)
    snapshot = [(c, dict(c._c)) for c in _cached_coefficients(ctx, q)]
    assert len(snapshot) > 1_000
    hecke_cached = [c for table in (h._bar_table, h._canonical_table, h._inverse)
                    for row in table.values() for c in row.values()]
    assert len(hecke_cached) > 1_000
    snapshot += [(c, dict(c._c)) for c in hecke_cached]
    again = _mixed_stream(ctx, q, random.Random(7), 150)
    again_h = _hecke_stream(h, random.Random(7), 150)
    _mixed_stream(ctx, q, random.Random(8), 150)
    _hecke_stream(h, random.Random(8), 150)
    assert again == first and again_h == first_h
    changed = [(before, c._c) for c, before in snapshot if c._c != before]
    assert not changed, changed[:3]
