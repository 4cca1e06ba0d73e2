"""Diagram algebra contexts: products, traces, twist, tensor embedding."""

import itertools
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from planalg.diagram import (
    LabeledDiagram,
    closure_loops,
    edge_kinds,
    matchings,
    stack_matchings,
    star_diagram,
)
from planalg.laurent import DELTA, Laurent, ONE, V_INV
from planalg.planar import (
    Context,
    diagram_product,
    fusion_twist,
    is_exposed,
    trace_of_diagram,
    verify_tensor_iso,
)
from planalg.table_algebra import permutation_group_algebra
from planalg.verlinde import make_verlinde, w_multiply

V_INV2 = Laurent.v_power(-2)


@pytest.fixture(scope="module")
def p22():
    return Context(2, make_verlinde(2))


@pytest.fixture(scope="module")
def p33():
    return Context(3, make_verlinde(3))


def test_basis_sizes(p22, p33):
    assert len(p22.basis()) == 8
    assert len(p33.basis()) == 135
    assert len(p33.d_basis()) == 51


def test_unit_is_neutral(p33):
    one = p33.one()
    for d in p33.basis()[:20]:
        x = p33.basis_element(d)
        assert one * x == x
        assert x * one == x


def test_e_elements_satisfy_arch_relations(p33):
    e1 = p33.e_element(1, 0)
    e2 = p33.e_element(2, 0)
    assert e1 * e1 == e1.scale(DELTA)
    assert e1 * e2 * e1 == e1
    assert e2 * e1 * e2 == e2


def test_far_commutation():
    ctx = Context(4, make_verlinde(2))
    e1, e3 = ctx.e_element(1, 0), ctx.e_element(3, 0)
    assert e1 * e3 == e3 * e1


def test_labeled_loop_scalar():
    # closing a u_1-labeled arch on itself gives delta * t(u_1 u_1) = delta
    ctx = Context(2, make_verlinde(2))
    e = ctx.e_element(1, 1)
    assert e * e == e.scale(DELTA)
    # mismatched labels make the loop product miss the identity entirely
    ctx3 = Context(2, make_verlinde(3))
    assert (ctx3.e_element(1, 0) * ctx3.e_element(1, 2)).is_zero


def test_unit_traces(p33):
    assert p33.one().trace() == DELTA ** 3
    assert p33.one().tau() == (ONE + V_INV2) ** 3


def test_trace_is_cyclic(p33):
    rng = random.Random(7)
    els = [p33.basis_element(d) for d in p33.basis()]
    for _ in range(25):
        x, y = rng.choice(els), rng.choice(els)
        assert (x * y).trace() == (y * x).trace()


def test_star_is_an_antiautomorphism(p33):
    rng = random.Random(11)
    els = [p33.basis_element(d) for d in p33.basis()]
    for _ in range(25):
        x, y = rng.choice(els), rng.choice(els)
        assert (x * y).star() == y.star() * x.star()
        assert x.star().star() == x


def test_tau_of_unit_star_pairing(p22):
    # tau(E_1(u_0)) in P(2, 2)
    e = p22.e_element(1, 0)
    assert e.tau() == V_INV + Laurent.v_power(-3)


def test_element_text_round_trip(p33):
    rng = random.Random(3)
    els = [p33.basis_element(d) for d in p33.basis()]
    x = rng.choice(els) * rng.choice(els) + rng.choice(els).scale(DELTA)
    assert p33.from_text(x.to_text()) == x
    assert p33.from_text("0").is_zero


def test_fusion_twist_is_an_involution(p33):
    for d in p33.basis():
        x = p33.basis_element(d)
        assert fusion_twist(fusion_twist(x)) == x


def test_fusion_twist_is_multiplicative(p33):
    rng = random.Random(5)
    els = [p33.basis_element(d) for d in p33.basis()]
    for _ in range(25):
        x, y = rng.choice(els), rng.choice(els)
        assert fusion_twist(x * y) == fusion_twist(x) * fusion_twist(y)


def test_fusion_twist_permutes_the_exposed_basis(p33):
    images = set()
    for d in p33.d_basis():
        im = fusion_twist(p33.basis_element(d))
        (dd,) = im.support()
        assert im == p33.basis_element(dd)
        assert is_exposed(dd, p33.alg)
        images.add(dd)
    assert images == set(p33.d_basis())


def test_fusion_twist_fixes_identity_labels(p33):
    assert fusion_twist(p33.one()) == p33.one()


@pytest.mark.parametrize("n,r", [(1, 1), (1, 3), (2, 2), (2, 3)])
def test_tensor_embedding_matches_power_table(n, r):
    assert verify_tensor_iso(Context(n, make_verlinde(r)))


def test_diagram_product_and_trace_agree_with_elements(p22):
    basis = p22.basis()
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            terms = {basis[k]: c for k, c in diagram_product(p22, i, j).items()}
            assert p22.element(terms) == p22.basis_element(a) * p22.basis_element(b)
            assert trace_of_diagram(p22, i) == p22.basis_element(a).trace()


def test_elements_of_different_contexts_do_not_mix():
    alg = make_verlinde(3)
    a, b = Context(2, alg).one(), Context(3, alg).one()
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(ValueError):
            op(a, b)
    with pytest.raises(ValueError):
        a + Context(2, make_verlinde(2)).one()
    assert a + Context(2, make_verlinde(3)).one() == a.scale(2)


@pytest.mark.parametrize("line,why", [
    ("1 * n=3 | 1-6:0 2-5:0 3-4:0", "does not match context n=2"),
    ("1 * n=2 | 1-2:3 3-4:0", "label 3 is outside 0..2"),
    ("1 * n=2 | 1-2:-1 3-4:0", "label -1 is outside 0..2"),
    ("1 * n=2 | 1-3:0 2-4:0", "strands cross"),
])
def test_from_text_rejects_diagrams_outside_the_context(line, why):
    with pytest.raises(ValueError, match=why):
        Context(2, make_verlinde(3)).from_text(line)


@pytest.mark.parametrize("text,why", [
    ("n=3 | 1-6:0 2-5:0 3-4:0", "does not match context n=2"),
    ("n=2 | 1-2:7 3-4:0", "label 7 is outside 0..1"),
    # built in code: LabeledDiagram.from_text already refuses crossings
    pytest.param(LabeledDiagram(((1, 3), (2, 4)), (0, 0)), "strands cross",
                 id="crossing built in code"),
    pytest.param(LabeledDiagram(((1, 2), (3, 4)), (1.5, 0)),
                 "label 1.5 is not an integer", id="non-integer label"),
])
def test_element_rejects_diagrams_outside_the_context(text, why):
    ctx = Context(2, make_verlinde(2))
    diagram = LabeledDiagram.from_text(text) if isinstance(text, str) else text
    with pytest.raises(ValueError, match=why):
        ctx.element({ctx.one().support()[0]: ONE, diagram: ONE})
    with pytest.raises(ValueError, match=why):
        ctx.basis_element(diagram)


# -- the basis numbering --------------------------------------------------------

LABEL_ALGEBRAS = [make_verlinde(r) for r in (1, 2, 3, 4)] + [permutation_group_algebra(3)]


def _size(n, alg):
    return len(matchings(n)) * alg.rank**n


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 7), st.sampled_from(LABEL_ALGEBRAS), st.data())
def test_index_inverts_diagram_and_text_round_trips(n, alg, data):
    ctx = Context(n, alg)
    k = data.draw(st.integers(0, _size(n, alg) - 1))
    d = ctx.diagram(k)
    assert ctx.index(d) == k
    assert LabeledDiagram.from_text(d.to_text()) == d
    assert ctx._basis is None


def test_basis_is_the_sorted_enumeration_in_index_order():
    checked = 0
    for n in range(1, 8):
        for alg in LABEL_ALGEBRAS:
            if _size(n, alg) > 5000:
                continue
            ctx = Context(n, alg)
            reference = tuple(sorted(
                LabeledDiagram(m, labels)
                for m in matchings(n)
                for labels in itertools.product(range(alg.rank), repeat=n)
            ))
            assert ctx.basis() == reference
            assert all(ctx.index(d) == k for k, d in enumerate(reference))
            checked += 1
    assert checked >= 15


@pytest.mark.parametrize("alg", [make_verlinde(3), permutation_group_algebra(3)],
                         ids=["V3", "S3"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_star_and_twist_on_positions_match_the_diagram_definitions(n, alg):
    ctx = Context(n, alg)
    for k, d in enumerate(ctx.basis()):
        assert ctx.star_position(k) == ctx.index(star_diagram(d, alg.inv))
        kinds = edge_kinds(d.matching)
        twisted = tuple(
            w_multiply(alg, l) if kinds[p].transitional else l
            for p, l in zip(d.matching, d.labels)
        )
        want = ctx.basis_element(LabeledDiagram(d.matching, twisted))
        assert fusion_twist(ctx.basis_element(d)) == want


def test_positions_out_of_range_are_refused():
    ctx = Context(2, make_verlinde(2))
    for k in (-1, len(ctx.basis()), 10**6):
        for _ in range(2):  # a refused position is not stored: it raises again
            with pytest.raises(IndexError):
                ctx.diagram(k)
    assert ctx._decoded == {}
    assert ctx._decode(5) is ctx._decode(5)
    assert ctx._decoded.keys() == {5}


def test_p74_works_without_listing_its_basis():
    ctx = Context(7, make_verlinde(4))
    x = ctx.from_text(
        "v * n=7 | 1-14:1 2-13:3 3-4:2 5-12:0 6-11:1 7-8:2 9-10:3\n"
        "-1 * n=7 | 1-2:1 3-14:0 4-13:1 5-12:2 6-11:3 7-10:0 8-9:1"
    )
    y = ctx.e_element(3, 2) + ctx.one()
    xy = x * y
    assert not xy.is_zero()
    assert ctx.from_text(xy.to_text()) == xy
    assert xy.star() == y.star() * x.star()
    assert xy.tau() == (y * x).tau()
    assert fusion_twist(fusion_twist(xy)) == xy
    assert ctx._basis is None


# -- a noncommutative label algebra: the right-to-left fusion order ------------

S3_CONTEXTS = {n: Context(n, permutation_group_algebra(3)) for n in (2, 3)}


@st.composite
def s3_elements(draw, n):
    ctx = S3_CONTEXTS[n]
    terms = draw(st.lists(
        st.tuples(st.sampled_from(ctx.basis()), st.integers(-2, 2),
                  st.sampled_from([1, 2, -1])),
        min_size=1, max_size=3,
    ))
    return ctx.element({d: Laurent.v_power(e) * c for d, e, c in terms})


@pytest.mark.parametrize("n", [2, 3])
def test_products_are_associative_and_star_reverses_them(n):
    @settings(max_examples=60, deadline=None)
    @given(s3_elements(n), s3_elements(n), s3_elements(n))
    def check(x, y, z):
        assert (x * y) * z == x * (y * z)
        assert (x * y).star() == y.star() * x.star()

    check()


# -- the word table against a plain fold of the label products ------------------


def _fold(alg, segments, top, bottom):
    """The fused label of a walk, one ``TableAlgebra.mul`` per segment."""
    acc = {alg.identity: 1}
    for layer, k, against in segments:
        l = (bottom if layer else top)[k]
        acc = alg.mul({alg.inv[l] if against else l: 1}, acc)
    return acc


def _loop_scalar(alg, loops, top, bottom):
    t = 1
    for loop in loops:
        t *= _fold(alg, loop, top, bottom).get(alg.identity, 0)
    return DELTA ** len(loops) * t


def _folded_product(ctx, a, b):
    alg = ctx.alg
    stacked = stack_matchings(a.matching, b.matching)
    scalar = _loop_scalar(alg, stacked.loops, a.labels, b.labels)
    strands = [_fold(alg, segs, a.labels, b.labels).items() for segs in stacked.paths]
    out = {}
    for choice in itertools.product(*strands):
        coeff = scalar
        for _, c in choice:
            coeff = coeff * c
        d = LabeledDiagram(stacked.matching, tuple(l for l, _ in choice))
        k = ctx.index(d)
        out[k] = out.get(k, 0) + coeff
    return {k: c for k, c in out.items() if c}


@pytest.mark.parametrize("n,alg,samples", [
    (2, permutation_group_algebra(3), None),
    (3, make_verlinde(3), None),
    (2, make_verlinde(4), None),
    (3, permutation_group_algebra(3), 3000),
], ids=["P(2,S3)", "P(3,3)", "P(2,4)", "P(3,S3) sampled"])
def test_every_product_and_trace_is_the_fold_of_its_words(n, alg, samples):
    ctx = Context(n, alg)
    basis = ctx.basis()
    if samples is None:
        pairs = itertools.product(range(len(basis)), repeat=2)
    else:
        rng = random.Random(17)
        pairs = [(rng.randrange(len(basis)), rng.randrange(len(basis)))
                 for _ in range(samples)]
    for i, j in pairs:
        assert diagram_product(ctx, i, j) == _folded_product(ctx, basis[i], basis[j])
    for k, d in enumerate(basis):
        want = _loop_scalar(alg, closure_loops(d.matching), d.labels, d.labels)
        assert trace_of_diagram(ctx, k) == want
    assert ctx._words and ctx._prod
