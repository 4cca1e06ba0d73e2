"""Non-crossing labeled strand diagrams on a rectangle.

A diagram on 2n boundary points has points 1..n along the top edge
(left to right) and n+1..2n along the bottom edge (right to left), so
that point i and point 2n+1-i share an x-coordinate and 1..2n is the
clockwise boundary order.  A *matching* is a non-crossing perfect
matching of the 2n points; every strand then joins an odd point to an
even point, and its *canonical direction* runs from the even endpoint
to the odd endpoint.  A :class:`LabeledDiagram` attaches a basis index
of a table algebra to each strand, stored relative to the canonical
direction (reading a strand backwards reads the label through the
algebra's anti-involution).

This module is purely combinatorial: enumeration (``_matchings`` lists
matchings and half-diagram arcs), edge classification, stacking two
matchings into paths and closed loops and closing one matching into
loops (both on one strand walker), and joining two half-diagrams along
a horizontal cut (:func:`half_join`, which builds every labeled diagram
made from parts).  The algebra (fusing the label word of each walked
strand, loop scalars) lives in :mod:`planalg.planar`.

>>> len(matchings(3))
5
>>> e_matching(3, 1)
((1, 2), (3, 4), (5, 6))
>>> sorted(principal_pairs(e_matching(3, 2)))
[(1, 6)]
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


def _pair(a: int, b: int) -> tuple:
    return (a, b) if a < b else (b, a)


def partner_map(matching) -> dict:
    out = {}
    for a, b in matching:
        out[a] = b
        out[b] = a
    return out


# -- enumeration -------------------------------------------------------------


@lru_cache(maxsize=None)
def matchings(n: int) -> tuple:
    """All non-crossing perfect matchings of 1..2n, lexicographically.

    >>> [len(matchings(n)) for n in range(1, 6)]
    [1, 2, 5, 14, 42]
    """
    return tuple(sorted(_matchings(tuple(range(1, 2 * n + 1)), False)))


def _matchings(points: tuple, partial: bool) -> list:
    """Non-crossing matchings of points: the perfect ones, and when
    ``partial`` also those leaving points unmatched with no arc over them."""
    if not points:
        return [()]
    out = _matchings(points[1:], True) if partial else []
    a = points[0]
    for j in range(1, len(points), 2):
        arc = _pair(a, points[j])
        for inner in _matchings(points[1:j], False):
            for outer in _matchings(points[j + 1 :], partial):
                out.append(tuple(sorted((arc,) + inner + outer)))
    return out


@lru_cache(maxsize=None)
def half_arcs(n: int, lam: int) -> tuple:
    """Arc sets of half-diagrams on points 1..n with lam through points.

    A half-diagram is a non-crossing partial matching whose unmatched
    points are not covered by any arc (they must reach the opposite
    edge unobstructed).  Requires n - lam even.

    >>> half_arcs(3, 1)
    (((1, 2),), ((2, 3),))
    >>> [len(half_arcs(4, k)) for k in (0, 2, 4)]
    [2, 3, 1]
    """
    if lam < 0 or lam > n or (n - lam) % 2:
        raise ValueError(f"no half-diagrams on {n} points with {lam} through points")
    want, arcs = (n - lam) // 2, _matchings(tuple(range(1, n + 1)), True)
    return tuple(sorted(a for a in arcs if len(a) == want))


# -- edge classification ------------------------------------------------------


def principal_pairs(matching) -> frozenset:
    """The strands bounding the face at the left wall of the rectangle:
    those not nested inside any other strand.

    In sorted order a strand is nested exactly when an earlier strand
    reaches past its start.

    >>> sorted(principal_pairs(((1, 2), (3, 6), (4, 5))))
    [(1, 2), (3, 6)]
    """
    out, reach = [], 0
    for a, b in sorted(_pair(a, b) for a, b in matching):
        if a > reach:
            out.append((a, b))
            reach = b
    return frozenset(out)


@dataclass(frozen=True)
class EdgeKind:
    propagating: bool  # joins the top edge to the bottom edge
    principal: bool  # lies on the left-wall face
    transitional: bool  # exactly one endpoint at a left corner (1 or 2n)


@lru_cache(maxsize=None)
def edge_kinds(matching: tuple) -> dict:
    """Classification of every strand of a matching, cached per matching
    (callers must not modify the returned dict).

    >>> kinds = edge_kinds(((1, 4), (2, 3), (5, 6)))
    >>> kinds[(1, 4)]
    EdgeKind(propagating=True, principal=True, transitional=True)
    >>> kinds[(5, 6)].transitional
    True
    """
    n = len(matching)
    principal = principal_pairs(matching)
    out = {}
    for a, b in matching:
        corners = (a == 1) + (b == 2 * n)
        out[(a, b)] = EdgeKind(
            propagating=a <= n < b,
            principal=(a, b) in principal,
            transitional=corners == 1,
        )
    return out


# -- labeled diagrams ---------------------------------------------------------


@dataclass(frozen=True, order=True)
class LabeledDiagram:
    """A matching with one label index per strand.

    ``labels[k]`` belongs to the k-th pair of the sorted matching and is
    read along the canonical (even-to-odd) direction of that strand.
    """

    matching: tuple
    labels: tuple

    def __post_init__(self):
        if len(self.labels) != len(self.matching):
            raise ValueError("need exactly one label per strand")

    @property
    def n(self) -> int:
        return len(self.matching)

    def label_map(self) -> dict:
        return dict(zip(self.matching, self.labels))

    def to_text(self) -> str:
        body = " ".join(f"{a}-{b}:{l}" for (a, b), l in zip(self.matching, self.labels))
        return f"n={self.n} | {body}"

    @classmethod
    def from_text(cls, text: str) -> "LabeledDiagram":
        """Parse the format written by :meth:`to_text`.

        >>> LabeledDiagram.from_text('n=2 | 1-2:1 3-4:1').labels
        (1, 1)
        """
        head, _, body = text.partition("|")
        head = head.strip()
        if not head.startswith("n="):
            raise ValueError(f"diagram text must start with 'n=': {text!r}")
        n = int(head[2:])
        pairs = []
        labels = {}
        for tok in body.split():
            arc, _, lab = tok.partition(":")
            if not lab:
                raise ValueError(f"strand {tok!r} has no label, want point-point:label: {text!r}")
            a, _, b = arc.partition("-")
            p = _pair(int(a), int(b))
            pairs.append(p)
            labels[p] = int(lab)
        pairs.sort()
        seen = sorted(x for p in pairs for x in p)
        if len(pairs) != n or seen != list(range(1, 2 * n + 1)):
            raise ValueError(f"strands do not cover points 1..{2 * n}: {text!r}")
        if not _non_crossing(pairs):
            raise ValueError(f"strands cross: {text!r}")
        return cls(tuple(pairs), tuple(labels[p] for p in pairs))


def _non_crossing(matching) -> bool:
    """True when the perfect matching of 1..2n has no two crossing strands.

    Walking the points in order, every strand must close the most
    recently opened strand that is still open.
    """
    partner = partner_map(matching)
    open_points = []
    for p in range(1, 2 * len(matching) + 1):
        if partner[p] > p:
            open_points.append(p)
        elif open_points.pop() != partner[p]:
            return False
    return True


def identity_matching(n: int) -> tuple:
    return tuple((i, 2 * n + 1 - i) for i in range(1, n + 1))


def identity_diagram(n: int, identity_label: int = 0) -> LabeledDiagram:
    m = identity_matching(n)
    return LabeledDiagram(m, (identity_label,) * n)


def e_matching(n: int, k: int) -> tuple:
    """The cup-cap matching: top arc (k, k+1), bottom arc below it."""
    if not 1 <= k < n:
        raise ValueError(f"e_matching needs 1 <= k < n, got k={k}, n={n}")
    pairs = [(k, k + 1), (2 * n - k, 2 * n + 1 - k)]
    pairs += [(i, 2 * n + 1 - i) for i in range(1, n + 1) if i not in (k, k + 1)]
    return tuple(sorted(pairs))


def e_diagram(n: int, k: int, label: int, inv, identity_label: int = 0) -> LabeledDiagram:
    """The cup-cap diagram C(S, 1...1, S) of :func:`half_join`, S the
    top arc (k, k+1) labeled ``label``.

    The bottom arc carries the anti-involution partner of ``label`` (so
    the diagram is self-adjoint) and through strands carry the identity.
    ``inv`` is the label algebra's anti-involution permutation.
    """
    if not 1 <= k < n:
        raise ValueError(f"e_diagram needs 1 <= k < n, got k={k}, n={n}")
    s = HalfDiagram(n, ((k, k + 1),), (label,))
    return half_join(s, (identity_label,) * (n - 2), s, inv)


@lru_cache(maxsize=None)
def star_matching(matching: tuple) -> tuple:
    """The matching reflected top-to-bottom (i -> 2n+1-i), with the strand
    order: ``order[k]`` is the position in ``matching`` of the strand that
    becomes the k-th pair of the reflection.

    >>> star_matching(((1, 2), (3, 6), (4, 5)))
    (((1, 4), (2, 3), (5, 6)), (1, 2, 0))
    """
    n2 = 2 * len(matching)
    items = sorted(
        (_pair(n2 + 1 - a, n2 + 1 - b), k) for k, (a, b) in enumerate(matching)
    )
    return tuple(p for p, _ in items), tuple(k for _, k in items)


def star_diagram(d: LabeledDiagram, inv) -> LabeledDiagram:
    """Reflect top-to-bottom (i -> 2n+1-i) and flip labels through ``inv``.

    >>> d = LabeledDiagram(((1, 2), (3, 4)), (1, 0))
    >>> star_diagram(d, (0, 2, 1)).labels
    (0, 2)
    """
    matching, order = star_matching(d.matching)
    return LabeledDiagram(matching, tuple(inv[d.labels[k]] for k in order))


# -- stacking and closure -------------------------------------------------------

#: One traversal step through a strand: (the layer the strand lies in, 0
#: for the upper diagram or 1 for the lower, the strand's position in its
#: own layer's sorted matching, and True when the strand was entered at
#: its odd endpoint, i.e. read against its canonical direction).
Segment = tuple


def _ends(matching) -> dict:
    """Each point's (partner, position of its strand in the sorted matching)."""
    out = {}
    for k, (a, b) in enumerate(matching):
        out[a] = (b, k)
        out[b] = (a, k)
    return out


def _walk(ends, glue, layer: int, p: int, seen: set) -> tuple:
    """Follow strands from point p of ``layer`` through glued boundary points.

    ``ends[layer]`` is that layer's :func:`_ends` map.  After crossing a
    strand to point q, ``glue(layer, q)`` names the layer whose point
    2n+1-q touches q (the walk continues there), or None when q is an
    outer boundary point.  Every strand crossed is added to ``seen`` as
    (layer, position).  Returns the segments and the outer point reached,
    or None as that point when the walk came back to its start (a loop).
    """
    n2 = len(ends[layer])
    start = (layer, p)
    segs = []
    while True:
        q, k = ends[layer][p]
        seen.add((layer, k))
        segs.append((layer, k, p % 2 == 1))
        nxt = glue(layer, q)
        if nxt is None:
            return tuple(segs), q
        layer, p = nxt, n2 + 1 - q
        if (layer, p) == start:
            return tuple(segs), None


@dataclass(frozen=True)
class Stacked:
    """Combinatorics of one diagram stacked on another.

    ``paths[k]`` lists the segments of the strand realizing the k-th
    pair of the composite matching, ordered along the composite strand's
    canonical direction.  ``loops`` lists the segment cycles of closed
    loops created at the interface, each starting from the smallest
    unvisited top point of the lower diagram, in that order.  A segment
    names its strand by the strand's position in its own layer's sorted
    matching (see :data:`Segment`).
    """

    matching: tuple
    paths: tuple
    loops: tuple


@lru_cache(maxsize=None)
def stack_matchings(m_top: tuple, m_bot: tuple) -> Stacked:
    """Stack ``m_top`` over ``m_bot``, gluing bottom edge to top edge.

    The upper diagram's bottom point q touches the lower diagram's top
    point 2n+1-q (they share an x-coordinate).  The composite keeps the
    upper diagram's top points 1..n and the lower diagram's bottom
    points n+1..2n.  Paths are walked from their even outer endpoint,
    which is already the canonical direction.

    >>> e1 = e_matching(3, 1)
    >>> s = stack_matchings(e1, e1)
    >>> s.matching == e1 and len(s.loops) == 1
    True
    >>> stack_matchings(identity_matching(2), identity_matching(2)).paths
    (((1, 0, False), (0, 0, False)), ((0, 1, False), (1, 1, False)))
    """
    n = len(m_top)
    if len(m_bot) != n:
        raise ValueError("stacked diagrams must have the same number of points")

    def glue(layer, q):  # the upper bottom edge meets the lower top edge
        if layer == 0:
            return 1 if q > n else None
        return 0 if q <= n else None

    ends = (_ends(m_top), _ends(m_bot))
    seen: set = set()
    paths = {}
    for start in range(2, 2 * n + 1, 2):  # top points of layer 0, bottom of 1
        segs, end = _walk(ends, glue, 0 if start <= n else 1, start, seen)
        if end % 2 == 0:
            raise AssertionError("composite strand endpoints have equal parity")
        paths[_pair(start, end)] = segs
    loops = tuple(
        _walk(ends, glue, 1, anchor, seen)[0]
        for anchor in range(1, n + 1)
        if (1, ends[1][anchor][1]) not in seen
    )
    matching = tuple(sorted(paths))
    return Stacked(matching, tuple(paths[p] for p in matching), loops)


@lru_cache(maxsize=None)
def closure_loops(matching: tuple) -> tuple:
    """Loop decomposition of a diagram closed by arcs i -- 2n+1-i.

    Each loop is a tuple of segments (0, strand position, against), the
    position being the strand's place in the sorted matching;
    :func:`planalg.planar.fuse` reads them, in order, as the loop's label
    word.  Loops start from the smallest point whose strand is not yet
    visited.

    >>> closure_loops(identity_matching(2))
    (((0, 0, True),), ((0, 1, False),))
    """
    ends = (_ends(matching),)
    seen: set = set()
    return tuple(  # every point q is closed onto 2n+1-q of the same layer
        _walk(ends, lambda layer, q: 0, 0, p, seen)[0]
        for p in range(1, 2 * len(matching) + 1)
        if (0, ends[0][p][1]) not in seen
    )


# -- half-diagrams -------------------------------------------------------------


@dataclass(frozen=True, order=True)
class HalfDiagram:
    """A labeled half-diagram: arcs among 1..n, unmatched points propagate.

    Arc labels are read along the canonical direction of the arc as a
    top strand (even endpoint to odd endpoint); through points carry no
    label here.
    """

    n: int
    arcs: tuple
    labels: tuple

    def __post_init__(self):
        if len(self.labels) != len(self.arcs):
            raise ValueError("need exactly one label per arc")

    @property
    def through(self) -> tuple:
        used = {x for arc in self.arcs for x in arc}
        return tuple(i for i in range(1, self.n + 1) if i not in used)

    @property
    def lam(self) -> int:
        return self.n - 2 * len(self.arcs)


def half_join(s: HalfDiagram, b: tuple, t: HalfDiagram, inv) -> LabeledDiagram:
    """Assemble a full diagram from halves S (top), T (bottom) and b.

    T is mirrored to the bottom edge: its arc (a1, a2) becomes the
    bottom pair (2n+1-a2, 2n+1-a1) carrying the involuted label.  The
    k-th propagating strand (left to right, 1-based) joins the k-th
    through points and stores b[k-1] for odd k, its involute for even k
    (the k-th through point always has the parity of k, so this stores
    each b[k-1] as read upward along the strand).

    >>> s = HalfDiagram(2, ((1, 2),), (1,))
    >>> half_join(s, (), s, (0, 2, 1)).to_text()
    'n=2 | 1-2:1 3-4:2'
    """
    n = s.n
    if t.n != n or s.lam != t.lam or len(b) != s.lam:
        raise ValueError("halves must agree on size and through count")
    n2 = 2 * n
    items = list(zip(s.arcs, s.labels))
    items += [
        (_pair(n2 + 1 - a2, n2 + 1 - a1), inv[l])
        for (a1, a2), l in zip(t.arcs, t.labels)
    ]
    for k, (p, q) in enumerate(zip(s.through, t.through), start=1):
        items.append((_pair(p, n2 + 1 - q), b[k - 1] if k % 2 else inv[b[k - 1]]))
    items.sort()
    return LabeledDiagram(tuple(p for p, _ in items), tuple(l for _, l in items))
