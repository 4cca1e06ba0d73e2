"""Non-crossing matchings, labeled diagrams, composition, half-diagrams."""

import functools
import hashlib
import itertools

import pytest
from hypothesis import given, strategies as st

from planalg.diagram import (
    LabeledDiagram,
    closure_loops,
    e_matching,
    edge_kinds,
    half_arcs,
    half_join,
    identity_matching,
    matchings,
    partner_map,
    principal_pairs,
    stack_matchings,
    star_diagram,
)
from planalg.planar import Context
from planalg.table_algebra import cyclic_group_algebra
from planalg.tabular import datum_build
from planalg.verlinde import make_verlinde

CATALAN = [1, 1, 2, 5, 14, 42, 132]


@pytest.mark.parametrize("n", range(1, 7))
def test_matching_counts_are_catalan(n):
    assert len(matchings(n)) == CATALAN[n]


def test_matchings_are_non_crossing_and_sorted():
    for m in matchings(4):
        pm = partner_map(m)
        assert sorted(pm) == list(range(1, 9))
        for (a, b), (c, d) in itertools.combinations(m, 2):
            assert not (a < c < b < d) and not (c < a < d < b)
        assert list(m) == sorted(m)


def test_identity_and_e_matchings():
    assert identity_matching(3) == ((1, 6), (2, 5), (3, 4))
    assert e_matching(3, 1) == ((1, 2), (3, 4), (5, 6))
    assert e_matching(3, 2) == ((1, 6), (2, 3), (4, 5))


def test_edge_kinds_pinned():
    kinds = edge_kinds(((1, 2), (3, 6), (4, 5)))
    assert kinds[(1, 2)].transitional and kinds[(1, 2)].principal
    assert not kinds[(1, 2)].propagating
    assert kinds[(3, 6)].propagating and kinds[(3, 6)].transitional
    assert not kinds[(4, 5)].principal
    # the identity diagram: every strand propagates, only the outermost
    # two points touch the boundary corners
    kinds = edge_kinds(identity_matching(3))
    assert all(k.propagating for k in kinds.values())
    assert kinds[(1, 6)].principal and not kinds[(2, 5)].principal


#: sha256 of the edge kinds of every matching with n <= 8, recorded when
#: principal strands were found by walking the left-wall face.
EDGE_KINDS_DIGEST = "33f3b77116dc0d95071730b615b4a9c5c32a1edad1004fa59e37a499019ef387"


def test_edge_kinds_digest_is_pinned():
    digest = hashlib.sha256()
    count = 0
    for n in range(1, 9):
        for m in matchings(n):
            digest.update(repr((m, sorted(edge_kinds(m).items()))).encode())
            count += 1
    assert count == 2055  # Catalan(1) + ... + Catalan(8)
    assert digest.hexdigest() == EDGE_KINDS_DIGEST


def test_principal_pairs_match_edge_kinds():
    for m in matchings(4):
        kinds = edge_kinds(m)
        assert set(principal_pairs(m)) == {p for p, k in kinds.items() if k.principal}


def test_stacking_identity_is_neutral():
    ident = identity_matching(3)
    for m in matchings(3):
        stacked = stack_matchings(ident, m)
        assert stacked.matching == m
        assert not stacked.loops
        stacked = stack_matchings(m, ident)
        assert stacked.matching == m
        assert not stacked.loops


def test_stacking_e_squared_makes_one_loop():
    e1 = e_matching(2, 1)
    stacked = stack_matchings(e1, e1)
    assert stacked.matching == e1
    assert len(stacked.loops) == 1


def _strands_walked(walks):
    return sorted((layer, k) for segs in walks for layer, k, _ in segs)


@pytest.mark.parametrize("n", range(1, 5))
def test_stacking_walks_every_strand_of_each_layer_once(n):
    both = [(layer, k) for layer in (0, 1) for k in range(n)]
    for m_top, m_bot in itertools.product(matchings(n), repeat=2):
        stacked = stack_matchings(m_top, m_bot)
        assert _strands_walked(stacked.paths + stacked.loops) == both


@pytest.mark.parametrize("n", range(1, 6))
def test_closure_walks_every_strand_once(n):
    for m in matchings(n):
        assert _strands_walked(closure_loops(m)) == [(0, k) for k in range(n)]


def test_star_diagram_is_an_involution():
    alg = make_verlinde(3)
    for m in matchings(3):
        for labels in itertools.product(range(3), repeat=3):
            d = LabeledDiagram(m, labels)
            assert star_diagram(star_diagram(d, alg.inv), alg.inv) == d


def test_star_diagram_mirrors():
    alg = cyclic_group_algebra(3)
    d = LabeledDiagram(((1, 2), (3, 4)), (1, 2))
    s = star_diagram(d, alg.inv)
    assert s.matching == ((1, 2), (3, 4))
    # vertical flip swaps the two arcs and bars their labels
    assert s.labels == (1, 2)


def test_diagram_text_round_trip():
    d = LabeledDiagram(((1, 4), (2, 3)), (2, 0))
    assert d.to_text() == "n=2 | 1-4:2 2-3:0"
    assert LabeledDiagram.from_text(d.to_text()) == d


@pytest.mark.parametrize("body", ["1-2 3-4:0", "1-2: 3-4:0", "1-4:1 2-3"])
def test_strand_without_a_label_is_refused(body):
    with pytest.raises(ValueError, match="has no label"):
        LabeledDiagram.from_text(f"n=2 | {body}")


def _perfect_matchings(points):
    if not points:
        yield ()
        return
    for j in range(1, len(points)):
        rest = points[1:j] + points[j + 1:]
        for m in _perfect_matchings(rest):
            yield ((points[0], points[j]),) + m


@pytest.mark.parametrize("n", range(1, 5))
def test_from_text_accepts_exactly_the_non_crossing_matchings(n):
    accepted = set()
    for m in _perfect_matchings(tuple(range(1, 2 * n + 1))):
        text = f"n={n} | " + " ".join(f"{a}-{b}:0" for a, b in m)
        try:
            accepted.add(LabeledDiagram.from_text(text).matching)
        except ValueError as exc:
            assert "strands cross" in str(exc)
    assert accepted == set(matchings(n))


@pytest.mark.parametrize(
    "n,lam,count",
    [(2, 0, 1), (2, 2, 1), (3, 1, 2), (3, 3, 1), (4, 0, 2), (4, 2, 3)],
)
def test_half_arc_counts(n, lam, count):
    assert len(half_arcs(n, lam)) == count


@functools.cache
def _datum(n, r):
    return datum_build(Context(n, make_verlinde(r)))


def test_half_split_then_join_round_trips():
    # the datum's split is the inverse of half_join on every diagram
    datum = _datum(3, 2)
    inv = datum.ctx.alg.inv
    for m in matchings(3):
        for labels in itertools.product(range(2), repeat=3):
            d = LabeledDiagram(m, labels)
            s, b, t = datum.split(d)
            assert half_join(s, b, t, inv) == d
            assert s.n == t.n == 3
            assert s.lam == t.lam == len(b)


@given(
    st.integers(2, 4),
    st.integers(1, 3),
    st.data(),
)
def test_half_join_then_split_round_trips(n, r, data):
    datum = _datum(n, r)
    lam = data.draw(st.sampled_from(datum.lambdas))
    s = data.draw(st.sampled_from(datum.m_sets[lam]))
    t = data.draw(st.sampled_from(datum.m_sets[lam]))
    b = tuple(data.draw(st.integers(0, r - 1)) for _ in range(lam))
    d = half_join(s, b, t, datum.ctx.alg.inv)
    assert datum.split(d) == (s, b, t)
