"""Diagram realizations of the generalized Temperley-Lieb algebras."""

import copy
import importlib
import itertools

import pytest

from planalg import (
    Context,
    admissible,
    admissible_closed_under_mul,
    conjecture_436_check,
    drank_sequence,
    make_verlinde,
    omega_rho_check,
    rho_build,
    rho_verify_bijection,
)
from planalg.coxeter import coxeter_group
from planalg.diagram import LabeledDiagram
from planalg.embed import is_b_admissible, is_h_admissible, is_i_admissible
from planalg.hecke import mu_terms
from planalg.laurent import DELTA, V, lincomb
from planalg.planar import fusion_twist, is_exposed
from planalg.tl import tl


EMBED_MODULE = importlib.import_module("planalg.embed")

B3_CTX = Context(3, make_verlinde(3))
H3_CTX = Context(3, make_verlinde(4))
I2_CTX = Context(3, make_verlinde(2))

GOLDEN_SETS = {
    "B": (B3_CTX, [
        "n=3 | 1-2:1 3-4:0 5-6:1",
        "n=3 | 1-2:1 3-4:2 5-6:1",
        "n=3 | 1-2:1 3-6:1 4-5:0",
        "n=3 | 1-4:1 2-3:0 5-6:1",
        "n=3 | 1-6:0 2-3:0 4-5:0",
        "n=3 | 1-6:2 2-3:0 4-5:0",
        "n=3 | 1-6:0 2-5:0 3-4:0",
    ]),
    "H": (H3_CTX, [
        "n=3 | 1-2:2 3-4:0 5-6:2",
        "n=3 | 1-2:2 3-4:2 5-6:2",
        "n=3 | 1-2:2 3-6:0 4-5:0",
        "n=3 | 1-2:2 3-6:2 4-5:0",
        "n=3 | 1-4:0 2-3:0 5-6:2",
        "n=3 | 1-4:2 2-3:0 5-6:2",
        "n=3 | 1-6:0 2-3:0 4-5:0",
        "n=3 | 1-6:2 2-3:0 4-5:0",
        "n=3 | 1-6:0 2-5:0 3-4:0",
    ]),
    "I": (I2_CTX, [
        "n=3 | 1-2:1 3-4:0 5-6:1",
        "n=3 | 1-2:1 3-6:1 4-5:0",
        "n=3 | 1-4:1 2-3:0 5-6:1",
        "n=3 | 1-6:0 2-3:0 4-5:0",
        "n=3 | 1-6:0 2-5:0 3-4:0",
    ]),
}


@pytest.mark.parametrize("r", range(1, 9))
def test_i_admissible_counts(r):
    # The count is 2r + 1 once the odd label u_1 exists; the rank-one
    # fusion algebra only admits the two plain propagating diagrams.
    count = len(admissible("I", Context(3, make_verlinde(r))).members)
    assert count == (2 if r == 1 else 2 * r + 1)


def test_admissible_counts_larger_contexts():
    assert len(admissible("B", Context(4, make_verlinde(3))).members) == 24
    assert len(admissible("H", Context(4, make_verlinde(4))).members) == 44


@pytest.mark.parametrize("flavor", sorted(GOLDEN_SETS))
def test_admissible_golden_sets(flavor):
    ctx, want = GOLDEN_SETS[flavor]
    adm = admissible(flavor, ctx)
    assert adm.flavor == flavor
    assert [d.to_text() for d in adm.members] == want


def test_b_predicate_cases():
    alg = B3_CTX.alg
    corner0 = LabeledDiagram(((1, 6), (2, 3), (4, 5)), (0, 0, 0))
    assert is_b_admissible(corner0, alg)
    corner2_arc = LabeledDiagram(((1, 6), (2, 3), (4, 5)), (2, 0, 0))
    assert is_b_admissible(corner2_arc, alg)
    # a 2-decorated corner is only allowed alongside an arc
    corner2_prop = LabeledDiagram(((1, 6), (2, 5), (3, 4)), (2, 0, 0))
    assert is_exposed(corner2_prop, alg)
    assert not is_b_admissible(corner2_prop, alg)
    # without a corner edge the 1-decorations must sit exactly on the
    # two corner-touching edges
    ends_only = LabeledDiagram(((1, 2), (3, 6), (4, 5)), (1, 1, 0))
    assert is_b_admissible(ends_only, alg)
    extra_one = LabeledDiagram(((1, 2), (3, 4), (5, 6)), (1, 1, 1))
    assert not is_b_admissible(extra_one, alg)


def test_i_predicate_cases():
    alg = I2_CTX.alg
    ident = LabeledDiagram(((1, 6), (2, 5), (3, 4)), (0, 0, 0))
    assert is_i_admissible(ident, alg)
    # transitional arcs carry the odd label, non-transitional strands
    # stay even
    e1u1 = LabeledDiagram(((1, 2), (3, 4), (5, 6)), (1, 0, 1))
    assert is_i_admissible(e1u1, alg)
    e1u0 = LabeledDiagram(((1, 2), (3, 4), (5, 6)), (0, 0, 0))
    assert not is_i_admissible(e1u0, alg)
    # a transitional propagating strand needs an odd label
    trans_prop = LabeledDiagram(((1, 4), (2, 3), (5, 6)), (0, 0, 1))
    assert not is_i_admissible(trans_prop, alg)
    fixed = LabeledDiagram(((1, 4), (2, 3), (5, 6)), (1, 0, 1))
    assert is_i_admissible(fixed, alg)


def test_h_predicate_cases():
    alg = H3_CTX.alg
    plain = LabeledDiagram(((1, 6), (2, 5), (3, 4)), (0, 0, 0))
    assert is_h_admissible(plain, alg)
    # all-propagating diagrams must be entirely plain
    labeled_prop = LabeledDiagram(((1, 6), (2, 5), (3, 4)), (2, 0, 0))
    assert not is_h_admissible(labeled_prop, alg)
    member = LabeledDiagram(((1, 2), (3, 6), (4, 5)), (2, 0, 0))
    assert is_h_admissible(member, alg)
    odd_label = LabeledDiagram(((1, 2), (3, 6), (4, 5)), (1, 0, 0))
    assert not is_h_admissible(odd_label, alg)


def test_flavor_validation():
    with pytest.raises(ValueError):
        admissible("B", Context(3, make_verlinde(2)))
    with pytest.raises(ValueError):
        admissible("H", Context(3, make_verlinde(3)))
    with pytest.raises(ValueError):
        admissible("I", Context(4, make_verlinde(3)))
    with pytest.raises(ValueError):
        admissible("X", B3_CTX)


@pytest.mark.parametrize("flavor,ctx", [
    ("B", B3_CTX),
    ("H", H3_CTX),
    ("I", Context(3, make_verlinde(4))),
])
def test_admissible_closed_under_multiplication(flavor, ctx):
    assert admissible_closed_under_mul(admissible(flavor, ctx))


@pytest.mark.parametrize("variant,family,rank,m,count", [
    ("A", "A", 2, 0, 5),
    ("A", "A", 3, 0, 14),
    ("B", "B", 2, 0, 7),
    ("I", "I", 2, 3, 5),
    ("I", "I", 2, 4, 7),
    ("I", "I", 2, 5, 9),
    ("uniform", "A", 2, 0, 5),
    ("uniform", "B", 3, 0, 24),
    ("uniform", "I", 2, 6, 11),
])
def test_rho_bijections(variant, family, rank, m, count):
    rep = rho_build(variant, family, rank, m=m)
    assert rep.single_unit and rep.injective
    assert len(rep.images) == count
    assert rho_verify_bijection(rep)
    assert rep.image_matches


def test_uniform_image_outside_the_exposed_basis_is_refused():
    rep = rho_build("uniform", "A", 2)
    ctx = rep.embedding.ctx
    hidden = next(d for d in ctx.basis() if not is_exposed(d, ctx.alg))
    rep.images[next(iter(rep.images))] = hidden
    assert not rho_verify_bijection(rep)
    assert not rep.image_matches
    assert rep.witnesses == ["image leaves the exposed basis"]


def test_h4_canonical_images_are_the_admissible_set():
    # The canonical image statement at H4 (|W| = 14400): TL(H4) is built
    # on its 195 fully commutative elements alone.
    rep = rho_build("H", "H", 4)
    assert rep.single_unit and rep.injective
    assert len(rep.images) == len(set(rep.images.values())) == 195
    assert rho_verify_bijection(rep)


def test_rho_is_multiplicative():
    # The scan over every basis pair is the oracle for the generator
    # certificate of verify_multiplicative.
    for args in (("A", "A", 2, 0), ("I", "I", 2, 4), ("B", "B", 3, 0)):
        emb = rho_build(*args[:3], m=args[3]).embedding
        assert emb.verify_multiplicative()
        q = emb.tl
        for ku, u in enumerate(q.wc):
            for kw, w in enumerate(q.wc):
                assert emb.t_image(u) * emb.t_image(w) == emb.rho(q.t_mul(ku, kw))


@pytest.mark.parametrize("mutation", ["action row", "t_image entry"])
@pytest.mark.parametrize("variant,family,rank,m", [
    ("A", "A", 3, 0), ("B", "B", 3, 0), ("H", "H", 3, 0), ("I", "I", 2, 5),
])
def test_corrupted_multiplicativity_certificate_is_refused(variant, family, rank, m, mutation):
    emb = rho_build(variant, family, rank, m=m).embedding
    q, k = emb.tl, emb.tl.rank - 1
    if mutation == "action row":
        # A copy, so the cached quotient keeps its table.
        emb.tl = copy.copy(q)
        emb.tl._act = [list(rows) for rows in q._act]
        emb.tl._act[k][0] = lincomb(((-1, q._act[k][0]),))
    else:
        emb._timage[q.wc[k]] = emb.t_image(q.wc[k]).scale(V)
    with pytest.raises(AssertionError, match="not multiplicative"):
        emb.verify_multiplicative()


def test_monomial_images_match_canonical_type_a():
    # For fully commutative elements in type A the canonical basis
    # element is the product of the generators along any reduced word,
    # so its image is the matching product of E-elements.
    for rank in (2, 3, 4):
        emb = rho_build("A", "A", rank).embedding
        g = emb.g
        for w in emb.tl.wc:
            prod = emb.ctx.one()
            for s in g.rwords[w]:
                prod = prod * emb.gen_e[s]
            assert emb.rho_canonical(w) == prod


#: The ten embeddings of selftest checks 10 and 12.
EMBED_TYPES = [
    ("A", "A", 2, 0), ("A", "A", 3, 0), ("B", "B", 3, 0), ("H", "H", 3, 0),
] + [("I", "I", 2, m) for m in range(3, 9)]

#: The uniform variant on the groups whose quotient certificate is counted.
UNIFORM_TYPES = [("uniform", "A", 3, 0), ("uniform", "B", 3, 0), ("uniform", "H", 3, 0),
                 ("uniform", "I", 2, 5), ("uniform", "A", 4, 0)]


@pytest.mark.parametrize("variant,family,rank,m", EMBED_TYPES + UNIFORM_TYPES)
def test_rho_canonical_is_kept_and_matches_a_fresh_image(variant, family, rank, m):
    # The oracle for the recursion: each image equals the expansion of
    # c_w over the images of the t_y.
    emb = rho_build(variant, family, rank, m=m).embedding
    q = emb.tl
    for _ in range(2):
        for w in q.wc:
            got = emb.rho_canonical(w)
            assert got is emb.rho_canonical(w)
            fresh = {k: c.shift(-q.lengths[k]) for k, c in q.canonical_unit(w).items()}
            assert got == emb.rho(fresh)
    assert len(emb._rho_canonical) == q.rank


@pytest.mark.parametrize("variant,family,rank,m", EMBED_TYPES)
def test_canonical_images_absorb_their_right_descents(variant, family, rank, m):
    # c_w b_s = (v + v^-1) c_w when ws < w, and rho(b_s) = E_s.
    emb = rho_build(variant, family, rank, m=m).embedding
    for w in emb.tl.wc:
        image = emb.rho_canonical(w)
        for s in emb.g.right_descents(w):
            assert image * emb.gen_e[s] == image.scale(DELTA)


@pytest.mark.parametrize("variant,family,rank,m", [
    ("B", "B", 3, 0), ("H", "H", 3, 0), ("I", "I", 2, 5), ("uniform", "H", 3, 0),
])
def test_dropped_mu_correction_is_refused(monkeypatch, variant, family, rank, m):
    """Dropping any one mu correction of the image recursion leaves an
    image of two diagrams, which rho_build names."""
    g = coxeter_group(family, rank, m)
    q = tl(g)
    count = sum(len(list(mu_terms(g, q.canonical_t(g.prefix(w)[0]), g.prefix(w)[1], q.wc)))
                for w in q.wc[1:])
    assert count
    for target in range(count):
        met = itertools.count()
        monkeypatch.setattr(EMBED_MODULE, "mu_terms", lambda *args: [
            t for t in mu_terms(*args) if next(met) != target])
        rep = rho_build(variant, family, rank, m=m)
        emb = rep.embedding
        w = next(w for w in q.wc if w not in rep.images)
        assert not rep.single_unit and not rep.injective
        assert rep.witnesses == [f"rho(c_{g.word(w)}) is not one unit diagram"]
        assert len(emb.rho_canonical(w).terms) == 2
        assert emb.rho_canonical(w) != emb.rho(q.canonical_t(w))
        assert not rho_verify_bijection(rep)


def test_uniform_variant_agrees_with_specific():
    # Uniform and type-specific pictures differ exactly by the fusion
    # twist in type A, and coincide in types B and I.
    typed = rho_build("A", "A", 2)
    uni = rho_build("uniform", "A", 2)
    for w in typed.embedding.tl.wc:
        assert uni.embedding.rho_canonical(w) == fusion_twist(
            typed.embedding.rho_canonical(w)
        )
    typed = rho_build("I", "I", 2, m=4)
    uni = rho_build("uniform", "I", 2, m=4)
    for w in typed.embedding.tl.wc:
        assert uni.embedding.rho_canonical(w) == typed.embedding.rho_canonical(w)


@pytest.mark.parametrize("variant,family,rank,m,fixed", [
    ("B", "B", 2, 0, True),
    ("B", "B", 3, 0, True),
    ("I", "I", 2, 4, True),
    ("A", "A", 2, 0, False),
    ("I", "I", 2, 3, False),
    ("I", "I", 2, 5, False),
])
def test_twist_fixes_image_exactly_for_even_bonds(variant, family, rank, m, fixed):
    rep = rho_build(variant, family, rank, m=m)
    ok, witnesses = omega_rho_check(rep.embedding)
    assert ok is fixed
    if not fixed:
        w, before, after = witnesses[0]
        assert before != after


def test_report_lines():
    rep = rho_build("A", "A", 2)
    lines = rep.lines()
    assert "variant=A" in lines
    assert "group=A2" in lines
    assert "target=P(3,2)" in lines
    assert "canonical_images=5" in lines
    assert "single_unit=True" in lines
    assert "injective=True" in lines


def test_embedding_validation():
    with pytest.raises(ValueError):
        rho_build("B", "A", 2)
    with pytest.raises(ValueError):
        rho_build("uniform", "A", 1)


@pytest.mark.parametrize("family,rank,m,total,zeros", [
    ("A", 2, 0, 6, 1),
    ("B", 2, 0, 8, 1),
    ("I", 2, 4, 8, 1),
    ("I", 2, 5, 10, 1),
])
def test_canonical_image_map(family, rank, m, total, zeros):
    rep = conjecture_436_check(family, rank, m=m)
    assert rep.ok
    assert rep.total == total
    assert rep.zero_count == zeros
    assert rep.nonzero_count == total - zeros
    assert f"ok={rep.ok}" in rep.lines()


def test_diagram_rank_sequences():
    assert drank_sequence(1, 5) == [1, 2, 5, 14, 42]
    assert drank_sequence(2, 4) == [2, 6, 20, 70]
    assert drank_sequence(3, 5) == [3, 12, 51, 222, 978]
