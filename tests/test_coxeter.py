"""Finite Coxeter groups: orders, lengths, descents, cell classification."""

import hashlib
from functools import reduce

import pytest

from planalg.coxeter import PrefixTable, _bfs, coxeter_group, wc_classify


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
ALL_GROUPS = SMALL_GROUPS + [("H", 4, 0)]


@pytest.mark.parametrize("family,rank,m", ALL_GROUPS)
def test_generators_act_as_involutions(family, rank, m):
    # The search fills right[j][s] = i when it finds right[i][s] = j.
    g = coxeter_group(family, rank, m)
    right = g.right
    for w in range(g.order):
        for s in range(g.rank):
            assert right[right[w][s]][s] == w


@pytest.mark.parametrize("family,rank,m", ALL_GROUPS)
def test_inverse_is_the_reversed_word(family, rank, m):
    g = coxeter_group(family, rank, m)
    want = tuple(reduce(lambda a, s: g.right[a][s], reversed(word), 0) for word in g.rwords)
    assert g.inverse == want


def test_bfs_computes_each_edge_once():
    calls = []

    def act(state, s):
        calls.append((state, s))
        lst = list(state)
        lst[s], lst[s + 1] = lst[s + 1], lst[s]
        return tuple(lst)

    states, right = _bfs(3, (0, 1, 2, 3), act)
    assert len(states) == 24
    assert len(calls) == len(set(calls)) == 24 * 3 // 2
    assert right == [list(row) for row in coxeter_group("A", 3).right]


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


def test_wc_classify_matches_the_alternating_strip_on_h4():
    # w is complex when an alternating word s,t,s,... of length m(s,t)
    # strips off the right with every step a descent, or when ws is
    # complex for some right descent s.
    g = coxeter_group("H", 4)
    is_complex = [False] * g.order
    for w in range(g.order):
        found = False
        for s, t in g.bond_pairs():
            x = w
            for k in range(g.bonds[s][t]):
                y = g.right[x][s if k % 2 == 0 else t]
                if g.lengths[y] >= g.lengths[x]:
                    break
                x = y
            else:
                found = True
                break
        if not found:
            found = any(is_complex[g.right[w][s]] for s in g.right_descents(w))
        is_complex[w] = found
    want = (tuple(w for w in range(g.order) if not is_complex[w]),
            tuple(w for w in range(g.order) if is_complex[w]))
    assert wc_classify(g) == want


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


# The same for one group of each other family, so that a renumbering
# in any family shows.
TABLE_DIGESTS = {
    ("A", 4, 0): {
        "right": "9e5eca4d8863fd09fb4ca53c3396cbc9242fecb79594c013a9969df92eeb00a0",
        "lengths": "5640822f961f8bcdf1dc649a197a90651c3d25e9407057f5d4fcb79da6ba221c",
        "rwords": "59fa28adb1cd3bd961b827e6ee3a448be04fc5bd52b8b850e63a48111c07b79a",
        "inverse": "3d1cb43d8802601490cee04769024092e8ccfb5a7e280d1392e959d2aece67b4",
    },
    ("B", 3, 0): {
        "right": "36a16208e1bcd123298c3bcffebfafc848b650f89a60a7c6fbefea3b35e4a1fd",
        "lengths": "1f936e7f092f90330a9e6856fbfee9ff3e5c9309e393687fa66fda559cae85ec",
        "rwords": "7ac5d1405132cd14855b187f4b2150938ee70d6b339b78223d248b247d3309a4",
        "inverse": "c4a5dab0c5184859955d609d9625e72182bb10778602c7e23737085ff3c6a878",
    },
    ("I", 2, 12): {
        "right": "443f15de7ea33d2de50c8d93b98a3d3b30eec4f3c49ecbc1e6c9a7603d4819e0",
        "lengths": "9368ad2541820061d11d7e608e6fb78db8dc44d255994a94b5d8b0b6a00bb994",
        "rwords": "6c488931b64b9edd0a98993b03e3922d2b5d36b6bc7f060e12e7e880ce2699ff",
        "inverse": "355e384599977cf4dcaf28ab74baaf010c99a9f6c52901e106455261e75af45d",
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


@pytest.mark.parametrize("key", sorted(TABLE_DIGESTS))
def test_tables_are_pinned(key):
    g = coxeter_group(*key)
    got = {
        name: hashlib.sha256(repr(getattr(g, name)).encode()).hexdigest()
        for name in TABLE_DIGESTS[key]
    }
    assert got == TABLE_DIGESTS[key]


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
