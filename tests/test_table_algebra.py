"""Axiom scanner, group tables, tensor products and the text format."""

import itertools

import pytest

from planalg.table_algebra import (
    TableAlgebra,
    check_algebra,
    cyclic_group_algebra,
    index_tuple,
    permutation_group_algebra,
    tensor,
    tuple_index,
    tuple_mul,
)
from planalg.verlinde import make_verlinde


def test_cyclic_three_passes_all_flags():
    alg = cyclic_group_algebra(3)
    res = check_algebra(alg)
    assert res.ok and not res.witnesses
    assert alg.mul_basis(1, 1) == {2: 1}
    assert alg.inv == (0, 2, 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_cyclic_groups_pass(n):
    assert check_algebra(cyclic_group_algebra(n)).ok


def test_permutation_group_passes():
    alg = permutation_group_algebra(3)
    assert alg.rank == 6
    res = check_algebra(alg)
    assert res.ok
    # transpositions are self-inverse, so inv fixes at least 4 indices
    assert sum(1 for i in range(6) if alg.inv[i] == i) == 4


def test_broken_nonnegativity_is_flagged():
    good = cyclic_group_algebra(2)
    rows = dict(good.rows)
    rows[(1, 1)] = {0: -1}
    bad = TableAlgebra(2, 0, (0, 1), rows, labels=good.labels)
    res = check_algebra(bad)
    assert not res.t1
    assert any("kappa" in w for w in res.witnesses)


def test_broken_involution_is_flagged():
    good = cyclic_group_algebra(3)
    bad = TableAlgebra(3, 0, (1, 0, 2), dict(good.rows), labels=good.labels)
    res = check_algebra(bad)
    assert not res.t2
    assert any("identity" in w for w in res.witnesses)


def test_broken_identity_is_flagged():
    good = cyclic_group_algebra(2)
    rows = dict(good.rows)
    rows[(0, 1)] = {0: 1}
    bad = TableAlgebra(2, 0, (0, 1), rows, labels=good.labels)
    assert not check_algebra(bad).identity


@pytest.mark.parametrize("rows", [
    {(0, 2): {0: 1}},
    {(-1, 0): {0: 1}},
    {(1, 1): {3: 1}},
    {(0.5, 0): {0: 1}},
    {(1, 1): {0.5: 1}},
])
def test_out_of_range_structure_constants_are_refused(rows):
    with pytest.raises(ValueError, match="outside 0..1"):
        TableAlgebra(2, 0, (0, 1), rows)


@pytest.mark.parametrize("c", [1.5, 0.5, "1"])
def test_non_integral_structure_constants_are_refused(c):
    # int() would store 1.5 as 1 and 0.5 as a zero that check() never sees.
    with pytest.raises(TypeError, match="must be integers"):
        TableAlgebra(1, 0, (0,), {(0, 0): {0: c}})


@pytest.mark.parametrize("rank, identity, inv", [
    (2.7, 0, (0, 1)),
    (2, 0.9, (0, 1)),
    (2, 0, (0.0, 1.0)),
    ("2", 0, (0, 1)),
])
def test_non_integral_rank_identity_and_inv_are_refused(rank, identity, inv):
    # int() would read rank 2.7 as 2 and identity 0.9 as 0, and float inv
    # entries passed construction only to break check() with a raw TypeError.
    rows = cyclic_group_algebra(2).rows
    with pytest.raises(TypeError, match="must be integers"):
        TableAlgebra(rank, identity, inv, rows)


def test_mul_trace_support():
    alg = cyclic_group_algebra(3)
    x = {1: 2, 2: 1}
    y = {1: 1}
    assert alg.mul(x, y) == {2: 2, 0: 1}


def test_tensor_product_is_componentwise():
    a, b = cyclic_group_algebra(2), cyclic_group_algebra(3)
    t = tensor(a, b)
    assert t.rank == 6
    assert check_algebra(t).ok
    # (g, h) * (g, h) = (e, h^2) under flat index i * rank(b) + j
    assert t.mul_basis(4, 4) == {2: 1}


def test_tensor_power_and_tuple_indexing():
    # A^(x3) for A = Z/2, multiplied factor by factor on flat indices
    alg = cyclic_group_algebra(2)
    assert check_algebra(tensor(tensor(alg, alg), alg)).ok
    for idx in range(8):
        tup = index_tuple(alg, idx, 3)
        assert tuple_index(alg, tup) == idx
    # componentwise product of (g,e,g) with itself is the identity tuple
    k = tuple_index(alg, (1, 0, 1))
    assert tuple_mul(alg, k, k, 3) == {tuple_index(alg, (0, 0, 0)): 1}


def test_tensor_power_zero_is_trivial():
    # A^(x0) has the single basis element (), its own square
    alg = cyclic_group_algebra(3)
    assert index_tuple(alg, 0, 0) == ()
    assert tuple_index(alg, ()) == 0
    assert tuple_mul(alg, 0, 0, 0) == {0: 1}


@pytest.mark.parametrize("labels", ["Z2", "S3", "V3"])
def test_tuple_mul_is_the_tensor_product(labels):
    # S3 does not commute; V3 has rows with more than one term
    alg = {"Z2": cyclic_group_algebra(2), "S3": permutation_group_algebra(3),
           "V3": make_verlinde(3)}[labels]
    cube = tensor(tensor(alg, alg), alg)
    for x, y in itertools.product(range(cube.rank), repeat=2):
        assert list(tuple_mul(alg, x, y, 3).items()) == list(cube.mul_basis(x, y).items())
    for x in range(cube.rank):
        assert tuple_index(alg, index_tuple(alg, x, 3)) == x
    for x, y in itertools.product(range(alg.rank), repeat=2):
        assert tuple_mul(alg, x, y, 1) == alg.mul_basis(x, y)
    assert tuple_mul(alg, 0, 0, 0) == {0: 1}


def test_text_round_trip():
    for alg in (cyclic_group_algebra(4), permutation_group_algebra(3)):
        back = TableAlgebra.from_text(alg.to_text())
        assert back == alg
        assert back.to_text() == alg.to_text()


Z2_TEXT = cyclic_group_algebra(2).to_text()


@pytest.mark.parametrize("text,repeated", [
    (Z2_TEXT.replace("1 1 0 1", "1 1 0 5\n1 1 0 1"), "1 1 0 1"),
    (Z2_TEXT + "rank 2 identity 0\n", "rank 2 identity 0"),
    (Z2_TEXT + "inv: 0 1\n", "inv: 0 1"),
    (Z2_TEXT + "labels: 1 g1\n", "labels: 1 g1"),
])
def test_repeated_lines_are_refused(text, repeated):
    with pytest.raises(ValueError, match=f"repeated line: '{repeated}'"):
        TableAlgebra.from_text(text)
