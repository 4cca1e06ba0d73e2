"""Finite Coxeter groups: orders, lengths, descents, cell classification."""

import hashlib

import pytest

from planalg.coxeter import PrefixTable, coxeter_group, wc_classify


@pytest.mark.parametrize(
    "family,rank,m,order,longest",
    [
        ("A", 1, 0, 2, 1),
        ("A", 2, 0, 6, 3),
        ("A", 3, 0, 24, 6),
        ("A", 4, 0, 120, 10),
        ("B", 2, 0, 8, 4),
        ("B", 3, 0, 48, 9),
        ("H", 3, 0, 120, 15),
        ("I", 2, 5, 10, 5),
        ("I", 2, 8, 16, 8),
    ],
)
def test_orders_and_longest_lengths(family, rank, m, order, longest):
    g = coxeter_group(family, rank, m)
    assert g.order == order
    assert max(g.lengths) == longest
    assert g.lengths[0] == 0


def test_rwords_are_reduced_and_multiply_back():
    g = coxeter_group("B", 3)
    for w in range(g.order):
        word = g.rwords[w]
        assert len(word) == g.lengths[w]
        acc = 0
        for s in word:
            acc = g.right[acc][s]
        assert acc == w


def test_bfs_order_is_by_length_then_word():
    g = coxeter_group("A", 3)
    keys = [(g.lengths[w], g.rwords[w]) for w in range(g.order)]
    assert keys == sorted(keys)


def test_descents():
    g = coxeter_group("A", 2)
    s, t = g.right[0][0], g.right[0][1]
    st = g.right[s][1]
    assert g.right_descents(0) == frozenset()
    assert g.right_descents(st) == frozenset({1})
    assert g.left_descents(st) == frozenset({0})
    w0 = g.right[st][0]
    assert g.right_descents(w0) == frozenset({0, 1})


def test_bonds():
    assert coxeter_group("A", 3).bond(0, 1) == 3
    assert coxeter_group("A", 3).bond(0, 2) == 2
    assert coxeter_group("B", 3).bond(0, 1) == 4
    assert coxeter_group("H", 3).bond(0, 1) == 5
    assert coxeter_group("I", 2, 7).bond(0, 1) == 7
    # bond_pairs lists only joined pairs (bond at least 3)
    assert coxeter_group("B", 3).bond_pairs() == ((0, 1), (1, 2))
    assert coxeter_group("A", 4).bond_pairs() == ((0, 1), (1, 2), (2, 3))


def test_strong_bond_comes_first():
    # the doubled bond sits on the first generator pair in types B, H, I
    for family, rank, m, strong in (("B", 3, 0, 4), ("H", 3, 0, 5), ("I", 2, 6, 6)):
        g = coxeter_group(family, rank, m)
        assert g.bond(0, 1) == strong
        for s, t in g.bond_pairs():
            if (s, t) != (0, 1):
                assert g.bond(s, t) <= 3


def test_inverse_table():
    g = coxeter_group("H", 3)
    for w in range(g.order):
        assert g.mult(w, g.inverse[w]) == 0
        assert g.lengths[g.inverse[w]] == g.lengths[w]


def test_dihedral_longest():
    g = coxeter_group("B", 2)
    w0 = g.dihedral_longest(0, 1)
    assert g.lengths[w0] == 4
    assert w0 == g.inverse[w0]


@pytest.mark.parametrize(
    "family,rank,m,count",
    [
        ("A", 1, 0, 2),
        ("A", 2, 0, 5),
        ("A", 3, 0, 14),
        ("A", 4, 0, 42),
        ("B", 2, 0, 7),
        ("B", 3, 0, 24),
        ("H", 3, 0, 44),
        ("I", 2, 3, 5),
        ("I", 2, 12, 23),
    ],
)
def test_fully_commutative_counts(family, rank, m, count):
    g = coxeter_group(family, rank, m)
    wc, complex_part = wc_classify(g)
    assert len(wc) == count
    assert len(wc) + len(complex_part) == g.order


def test_fully_commutative_set_is_inverse_closed():
    g = coxeter_group("B", 3)
    wc, _ = wc_classify(g)
    wc_set = set(wc)
    assert all(g.inverse[w] in wc_set for w in wc)


# Every group of order at most 120.
SMALL_GROUPS = [("A", r, 0) for r in range(1, 5)] + [
    ("B", 2, 0), ("B", 3, 0), ("H", 3, 0)] + [("I", 2, m) for m in range(3, 13)]


def _reduced_words(g):
    """All reduced words of every element: w = (ws) s for each right descent s."""
    words = [[()]]
    for w in range(1, g.order):
        words.append([u + (s,) for s in g.right_descents(w) for u in words[g.right[w][s]]])
    return words


@pytest.mark.parametrize("family,rank,m", SMALL_GROUPS)
def test_wc_classify_matches_the_definition(family, rank, m):
    # w is complex iff some reduced word of w contains an alternating
    # factor s,t,s,... of length m(s,t) on a bond of strength >= 3.
    g = coxeter_group(family, rank, m)
    braids = [tuple((a, b)[k % 2] for k in range(g.bonds[s][t]))
              for s, t in g.bond_pairs() for a, b in ((s, t), (t, s))]

    def has_braid(word):
        return any(word[i:i + len(b)] == b
                   for b in braids for i in range(len(word) - len(b) + 1))

    words = _reduced_words(g)
    complex_part = tuple(w for w in range(g.order) if any(map(has_braid, words[w])))
    wc = tuple(w for w in range(g.order) if w not in complex_part)
    assert wc_classify(g) == (wc, complex_part)


@pytest.mark.parametrize("family,rank,m", SMALL_GROUPS)
def test_left_descents_by_left_multiplication(family, rank, m):
    g = coxeter_group(family, rank, m)
    for w in range(g.order):
        want = {s for s in range(g.rank) if g.lengths[g.mult(g.right[0][s], w)] < g.lengths[w]}
        assert g.left_descents(w) == want


def test_largest_group_census():
    g = coxeter_group("H", 4)
    assert g.order == 14400
    wc, _ = wc_classify(g)
    assert len(wc) == 195


# sha256 of repr() of each table, recorded from the simple-root-image
# enumeration of type H; any change of element numbering shows here.
H_TABLE_DIGESTS = {
    3: {
        "right": "72c7894a67127039e1d9a22aa915d80d1d68c3db98c11942a93bdbcdef3b7e85",
        "lengths": "f60fe740bf4966c7fad26f59bea09e013b1f1da6235a4870e4fd4cacd462e663",
        "rwords": "9957b83b977b165e8607bffdb8575193b89a952724cbd08dfafe8b53faf73d98",
        "inverse": "ba2c8bca775a6d6e188e1e201cbd8a9fd641e43954c9f8589bddc9e6e418df22",
    },
    4: {
        "right": "6c2dc2e4cbbcb45668cf30fd1692742369357c3f65f3c9228673e367a995aa4e",
        "lengths": "0b8715a3f7371607736fb5abf174b9e15fdbe3ab96781f8ee47d3571cc1b0505",
        "rwords": "1c12c8b541cce4fe67cadb2427ea0b22ab0ea867599db38eb02be1de49a1dad2",
        "inverse": "b4b0269bb8f595d2fa5525410c20841d50d08fe2aa639ff5122e380515dfc86c",
    },
}


@pytest.mark.parametrize("rank", [3, 4])
def test_type_h_tables_are_pinned(rank):
    g = coxeter_group("H", rank)
    got = {
        name: hashlib.sha256(repr(getattr(g, name)).encode()).hexdigest()
        for name in H_TABLE_DIGESTS[rank]
    }
    assert got == H_TABLE_DIGESTS[rank]


def test_prefix_splits_off_the_last_letter():
    g = coxeter_group("H", 3)
    for w in range(1, g.order):
        u, s = g.prefix(w)
        assert g.rwords[u] + (s,) == g.rwords[w]
        assert g.right[u][s] == w


def test_prefix_table_builds_the_prefixes_alone():
    g = coxeter_group("H", 3)
    for w in range(g.order):
        table = PrefixTable(g, (), lambda x, u, s: x + (s,))
        assert table[w] == g.rwords[w]
        assert len(table) == g.lengths[w] + 1


def test_prefix_table_stores_nothing_when_the_step_raises():
    g = coxeter_group("A", 3)
    w = g.order - 1
    calls = []

    def step(x, u, s):
        calls.append(u)
        if g.right[u][s] == w:
            raise ArithmeticError("refused")
        return x + 1

    table = PrefixTable(g, 0, step)
    for _ in range(2):
        with pytest.raises(ArithmeticError, match="refused"):
            table[w]
        assert w not in table
    # The prefixes were stored on the first read and are not rebuilt.
    assert len(table) == g.lengths[w]
    assert len(calls) == g.lengths[w] + 1
