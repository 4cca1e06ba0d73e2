"""Diagram algebras with strand labels in a table algebra.

A context P(n, A) is the free Z[v, v^-1]-module on labeled non-crossing
diagrams with 2n boundary points and labels in the table algebra A.
The product stacks diagrams: interface strands fuse (the label of a
composite strand is the product of its segments' labels, each read
along the composite strand's canonical direction, multiplied from right
to left as the strand is walked) and each closed loop contributes the
scalar delta * t(fused loop label), where t is the coefficient of the
identity.  Since fused labels are generally sums of basis elements, the
product of two basis diagrams is a Z[v, v^-1]-combination of basis
diagrams.

The context alone numbers its basis (:meth:`Context.index`, inverse
:meth:`Context.diagram`); elements and the product and trace tables are
keyed by that position, and diagrams appear only at the edges.  The
strand walks (:func:`stack_matchings`, :func:`closure_loops`) yield
segments that name each strand by its position in its own diagram's
sorted matching, which is also the position of its label, so labels
are read straight from the decoded label tuples.

A cold product is made of table lookups.  Each context keeps five
tables, each filled on first read: products, traces, decoded positions,
words and scalars.  A strand's *word* is the tuple of labels read along
it (through the anti-involution where the walk runs against the
strand), and its fused element depends on the word alone, so each word
is fused once per context (:func:`fuse`).  Words keep their order:
label algebras need not be commutative.  Every product coefficient and
every trace is an integer times delta^(loops), so the scalar table
keeps one ``Laurent`` per (loops, integer) pair and the product and
trace tables hold that object, not a copy (:func:`_scalar`): a
long-lived table stores one object per distinct coefficient, and a
``Laurent`` is never mutated, so sharing it is safe.

Also here: the star anti-involution (vertical flip + label involution,
bar on coefficients), the closure traces tr and tau = v^-n tr, the
fusion twist (left-corner strands get multiplied by the group-like top
basis element), and the exposed subspace (diagrams whose decorated
strands are all principal).

>>> from .verlinde import make_verlinde
>>> ctx = Context(2, make_verlinde(3))
>>> e = ctx.e_element(1, 1)
>>> e * e == ctx.delta() * e
True
>>> e.tau()
Laurent('v^-1 + v^-3')
"""

from __future__ import annotations

import itertools
from numbers import Integral

from .diagram import (
    HalfDiagram,
    LabeledDiagram,
    closure_loops,
    e_diagram,
    edge_kinds,
    half_join,
    identity_diagram,
    matchings,
    stack_matchings,
    star_matching,
)
from .laurent import DELTA, Laurent, ONE, ZERO, dot, lincomb
from .table_algebra import TableAlgebra, index_tuple, tuple_index, tuple_mul
from .verlinde import w_multiply


class Context:
    """A diagram algebra P(n, alg): basis numbering and the product,
    trace, decode, word and scalar tables."""

    def __init__(self, n: int, alg: TableAlgebra):
        if n < 1:
            raise ValueError("need at least one strand")
        self.n = n
        self.alg = alg
        self._matching_pos = {m: k for k, m in enumerate(matchings(n))}
        self._basis = None
        self._prod: dict = {}
        self._trace: dict = {}
        self._words: dict = {}
        self._decoded: dict = {}
        self._scalars: dict = {}

    def __repr__(self):
        return f"<Context n={self.n} labels={'/'.join(self.alg.labels)}>"

    def basis(self) -> tuple:
        """All labeled diagrams, sorted; the free module basis."""
        if self._basis is None:
            self._basis = tuple(
                LabeledDiagram(m, labels)
                for m in matchings(self.n)
                for labels in itertools.product(range(self.alg.rank), repeat=self.n)
            )
        return self._basis

    def index(self, d: LabeledDiagram) -> int:
        """Position of d in :meth:`basis` (matching position * rank^n + labels
        in base rank), not listing it; ValueError if d is outside the context.

        >>> from .verlinde import make_verlinde
        >>> ctx = Context(2, make_verlinde(3))
        >>> d = LabeledDiagram.from_text('n=2 | 1-4:2 2-3:1')
        >>> ctx.index(d), ctx.basis().index(d)
        (16, 16)
        >>> ctx.diagram(16) == d
        True
        """
        if d.n != self.n:
            raise ValueError(f"diagram size n={d.n} does not match context n={self.n}")
        if d.matching not in self._matching_pos:
            raise ValueError(f"strands cross or do not pair up 1..{2 * self.n}: {d}")
        rank = self.alg.rank
        for label in d.labels:
            if not isinstance(label, Integral):
                raise ValueError(f"label {label!r} is not an integer")
            if not 0 <= label < rank:
                raise ValueError(f"label {label} is outside 0..{rank - 1}")
        return self._encode(d.matching, d.labels)

    def _encode(self, matching: tuple, labels) -> int:
        """Position of (matching, labels), both known to lie in the context."""
        pos, rank = self._matching_pos[matching], self.alg.rank
        for label in labels:
            pos = pos * rank + label
        return pos

    def diagram(self, k: int) -> LabeledDiagram:
        """The basis diagram at position k; the inverse of :meth:`index`."""
        return LabeledDiagram(*self._decode(k))

    def _decode(self, k: int) -> tuple:
        """(matching, labels) at position k, kept in the decode table."""
        hit = self._decoded.get(k)
        if hit is None:
            rank, labels, q = self.alg.rank, [0] * self.n, k
            for s in range(self.n - 1, -1, -1):
                q, labels[s] = divmod(q, rank)
            if not 0 <= q < len(self._matching_pos):
                raise IndexError(f"basis position out of range in {self!r}")
            hit = self._decoded[k] = (matchings(self.n)[q], tuple(labels))
        return hit

    def star_position(self, k: int) -> int:
        """Position of the star of the basis diagram at position k: the
        vertical flip with every label read through ``alg.inv``."""
        matching, labels = self._decode(k)
        flipped, order = star_matching(matching)
        inv = self.alg.inv
        return self._encode(flipped, [inv[labels[s]] for s in order])

    def d_basis(self) -> tuple:
        """The exposed diagrams: every decorated strand is principal."""
        return tuple(d for d in self.basis() if is_exposed(d, self.alg))

    # -- element constructors ------------------------------------------

    def element(self, terms: dict) -> "Element":
        return Element(self, {self.index(d): c for d, c in terms.items()})

    def zero(self) -> "Element":
        return Element(self, {})

    def one(self) -> "Element":
        return self.basis_element(identity_diagram(self.n, self.alg.identity))

    def delta(self) -> "Element":
        return self.one().scale(DELTA)

    def basis_element(self, diagram: LabeledDiagram) -> "Element":
        return Element._raw(self, {self.index(diagram): ONE})

    def e_element(self, k: int, label: int) -> "Element":
        d = e_diagram(self.n, k, label, self.alg.inv, self.alg.identity)
        return self.basis_element(d)

    def from_text(self, text: str) -> "Element":
        """Parse the element format written by :meth:`Element.to_text`."""
        text = text.strip()
        pairs = []
        if text == "0":
            return self.zero()
        for raw in text.splitlines():
            line = raw.strip()
            if not line:
                continue
            coeff_s, sep, diag_s = line.partition(" * ")
            if not sep:
                raise ValueError(f"element line needs '<coeff> * <diagram>': {raw!r}")
            d = LabeledDiagram.from_text(diag_s)
            try:
                k = self.index(d)
            except ValueError as exc:
                raise ValueError(f"{exc}: {raw!r}") from None
            pairs.append((1, {k: Laurent.parse(coeff_s)}))
        if not pairs:
            raise ValueError("element text has no '<coeff> * <diagram>' line")
        return Element._raw(self, lincomb(pairs))


def fuse(ctx: Context, segments, top: tuple, bottom: tuple) -> tuple:
    """Fused label element of a walked strand or loop, as (label, coeff)
    pairs sorted by label.

    Each segment (layer, position, against) names a strand by its
    position in its own layer's sorted matching, so its stored label is
    ``top[position]`` for layer 0 and ``bottom[position]`` for layer 1.
    Walking the segments in order, each label is read through the
    anti-involution when the strand is traversed against its canonical
    direction; these reads form the strand's *word*.  The word is fused
    by accumulating on the left (the walk's later segments multiply on
    the left, which is how stacked boxes compose), once per context:
    the word table ``ctx._words`` keeps every fused word.  The key is
    the word in walking order, never a sorted one, because label
    algebras need not be commutative.
    """
    layers, inv = (top, bottom), ctx.alg.inv
    word = tuple([
        inv[layers[layer][k]] if against else layers[layer][k]
        for layer, k, against in segments
    ])
    hit = ctx._words.get(word)
    if hit is None:
        alg = ctx.alg
        acc = {alg.identity: 1}
        for l in word:
            acc = alg.mul({l: 1}, acc)
        hit = ctx._words[word] = tuple(sorted(acc.items()))
    return hit


def _scalar(ctx: Context, loops: int, t: int) -> Laurent:
    """The shared value t * delta^loops of a diagram with that many closed
    loops (t a nonzero integer), kept in the context's scalar table: one
    object per distinct (loops, t)."""
    hit = ctx._scalars.get((loops, t))
    if hit is None:
        hit = ctx._scalars[loops, t] = DELTA**loops * t
    return hit


def _loop_trace(ctx: Context, loops, top: tuple, bottom: tuple) -> int:
    """Product over the loops of t(fused loop label); 0 once one vanishes."""
    t, identity = 1, ctx.alg.identity
    for loop in loops:
        t *= dict(fuse(ctx, loop, top, bottom)).get(identity, 0)
        if not t:
            break
    return t


def diagram_product(ctx: Context, i: int, j: int) -> dict:
    """Product of the basis diagrams at positions i and j as
    {position: Laurent}, cached in the context's one product table.

    The loop scalars are carried as an integer times delta^(loops); each
    term's coefficient is read from the context's scalar table, so equal
    coefficients are one shared ``Laurent``.
    """
    key = (i, j)
    hit = ctx._prod.get(key)
    if hit is not None:
        return hit
    (m_top, l_top), (m_bot, l_bot) = ctx._decode(i), ctx._decode(j)
    stacked = stack_matchings(m_top, m_bot)
    loop_t = _loop_trace(ctx, stacked.loops, l_top, l_bot)
    out: dict = {}
    if loop_t:
        loops, scalars = len(stacked.loops), ctx._scalars
        pos, rank = ctx._matching_pos[stacked.matching], ctx.alg.rank
        strands = [fuse(ctx, segs, l_top, l_bot) for segs in stacked.paths]
        # One term per choice of a label on each strand: each strand's
        # labels are distinct and k is the base-rank numeral of the
        # matching position and the chosen labels, so distinct choices
        # give distinct k; and every coeff is a product of nonzero
        # integers, so each term is the clean Laurent delta^loops * coeff.
        # The scalar table is read inline; a call per term costs about 5%
        # of a cold product.
        for choice in itertools.product(*strands):
            k, coeff = pos, loop_t
            for l, c in choice:
                k = k * rank + l
                coeff *= c
            shared = scalars.get((loops, coeff))
            out[k] = shared if shared is not None else _scalar(ctx, loops, coeff)
    ctx._prod[key] = out
    return out


def product_size_bound(ctx: Context, i: int, j: int) -> int:
    """Upper bound on the number of terms of :func:`diagram_product`,
    without forming it: the product over the stacked strands of the
    sizes of their fused labels, read as the product reads them."""
    (m_top, l_top), (m_bot, l_bot) = ctx._decode(i), ctx._decode(j)
    size = 1
    for segs in stack_matchings(m_top, m_bot).paths:
        size *= len(fuse(ctx, segs, l_top, l_bot))
    return size


def trace_of_diagram(ctx: Context, k: int) -> Laurent:
    """Closure trace of the basis diagram at position k: product of loop
    scalars, shared through the context's scalar table."""
    hit = ctx._trace.get(k)
    if hit is not None:
        return hit
    matching, labels = ctx._decode(k)
    loops = closure_loops(matching)
    t = _loop_trace(ctx, loops, labels, labels)
    total = _scalar(ctx, len(loops), t) if t else ZERO
    ctx._trace[k] = total
    return total


def is_exposed(d: LabeledDiagram, alg: TableAlgebra) -> bool:
    """True when every strand with a non-identity label is principal."""
    kinds = edge_kinds(d.matching)
    return all(
        l == alg.identity or kinds[p].principal
        for p, l in zip(d.matching, d.labels)
    )


def _same_context(a: Context, b: Context) -> bool:
    """True when a and b are one object, or have equal n and label algebra."""
    return a is b or (a.n == b.n and a.alg == b.alg)


class Element:
    """A Z[v, v^-1]-combination of basis diagrams: ``terms`` is {position: Laurent}."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms: dict):
        clean = {}
        for k, c in terms.items():
            c = c if isinstance(c, Laurent) else Laurent(c)
            if c:
                clean[k] = c
        self.ctx = ctx
        self.terms = clean

    @classmethod
    def _raw(cls, ctx: Context, terms: dict) -> "Element":
        """Wrap terms already in clean form (nonzero Laurent values)."""
        self = object.__new__(cls)
        self.ctx = ctx
        self.terms = terms
        return self

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> tuple:
        """The diagrams with nonzero coefficient, sorted."""
        return tuple(self.ctx.diagram(k) for k in sorted(self.terms))

    def _check_ctx(self, other: "Element"):
        if not _same_context(self.ctx, other.ctx):
            raise ValueError("elements live in different contexts")

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._check_ctx(other)
        return Element._raw(self.ctx, lincomb(((1, self.terms), (1, other.terms))))

    def __neg__(self):
        return Element._raw(self.ctx, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Laurent)):
            return self.scale(other)
        if not isinstance(other, Element):
            return NotImplemented
        self._check_ctx(other)
        ctx = self.ctx
        # A vanishing diagram product is skipped before c1 * c2 is formed.
        return Element._raw(ctx, lincomb(
            (c1 * c2, prod)
            for k1, c1 in self.terms.items()
            for k2, c2 in other.terms.items()
            if (prod := diagram_product(ctx, k1, k2))
        ))

    def __rmul__(self, other):
        if isinstance(other, (int, Laurent)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "Element":
        return Element(self.ctx, {k: c * x for k, x in self.terms.items()})

    def __eq__(self, other):
        if isinstance(other, int) and other == 0:
            return not self.terms
        if not isinstance(other, Element):
            return NotImplemented
        return _same_context(self.ctx, other.ctx) and self.terms == other.terms

    def __hash__(self):
        return hash((self.ctx.n, tuple(sorted(self.terms.items()))))

    def star(self) -> "Element":
        """The anti-involution: flip vertically, involute labels, bar v."""
        ctx = self.ctx
        return Element._raw(
            ctx, {ctx.star_position(k): c.bar() for k, c in self.terms.items()}
        )

    def trace(self) -> Laurent:
        """Closure trace tr: close each diagram with nested arcs i -- 2n+1-i."""
        return dot((c, trace_of_diagram(self.ctx, k)) for k, c in self.terms.items())

    def tau(self) -> Laurent:
        """The normalized trace tau = v^-n tr."""
        return Laurent.v_power(-self.ctx.n) * self.trace()

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        terms = sorted(self.terms.items())
        return "\n".join(f"{c} * {self.ctx.diagram(k).to_text()}" for k, c in terms)

    def __repr__(self):
        body = self.to_text().replace("\n", "; ")
        return f"<Element {body}>"


def fusion_twist(x: Element) -> Element:
    """Multiply the label of every left-corner strand by the top basis
    element of the label algebra.

    A strand is twisted when exactly one endpoint lies at a left corner
    (boundary point 1 or 2n); the strand joining the two corners is
    fixed (it would acquire the square, which is the identity).  Needs
    the top basis element to be group-like, as in the fusion algebras.

    >>> from .verlinde import make_verlinde
    >>> ctx = Context(2, make_verlinde(3))
    >>> fusion_twist(ctx.e_element(1, 1)) == ctx.e_element(1, 1)
    True
    >>> fusion_twist(ctx.one()) == ctx.one()
    True
    >>> fusion_twist(ctx.e_element(1, 0)) == ctx.e_element(1, 2)
    True
    """
    ctx = x.ctx
    alg = ctx.alg
    pairs = []
    for k, c in x.terms.items():
        matching, labels = ctx._decode(k)
        kinds = edge_kinds(matching)
        labels = [
            w_multiply(alg, l) if kinds[p].transitional else l
            for p, l in zip(matching, labels)
        ]
        pairs.append((1, {ctx._encode(matching, labels): c}))
    return Element._raw(ctx, lincomb(pairs))


def p_tensor_embed(ctx: Context, indices: tuple) -> LabeledDiagram:
    """The all-propagating diagram realizing a pure tensor of labels.

    It is the cell C(empty, indices, empty) of :func:`half_join`, whose
    strands spell their tensor factors when read upward.  This map sends
    the basis of the n-fold tensor power of the label algebra bijectively
    onto the diagrams without arcs, and it multiplies: stacking
    all-propagating diagrams creates no loops and fuses the k-th strands
    with each other only.

    >>> from .verlinde import make_verlinde
    >>> ctx = Context(2, make_verlinde(3))
    >>> p_tensor_embed(ctx, (1, 2)).to_text()
    'n=2 | 1-4:1 2-3:2'
    """
    if len(indices) != ctx.n:
        raise ValueError("need one basis index per strand")
    bare = HalfDiagram(ctx.n, (), ())
    return half_join(bare, indices, bare, ctx.alg.inv)


def verify_tensor_iso(ctx: Context) -> bool:
    """Check the tensor embedding against the tensor-power product.

    For every pair of pure tensors s, t the product of their diagram
    images must equal the image of s * t computed factor by factor in
    the n-fold tensor power of the label algebra (:func:`tuple_mul`),
    term by term with integer coefficients.
    Raises ValueError with the offending pair on any mismatch.

    >>> from .verlinde import make_verlinde
    >>> verify_tensor_iso(Context(2, make_verlinde(2)))
    True
    """
    tuples = list(itertools.product(range(ctx.alg.rank), repeat=ctx.n))
    for s, t in itertools.product(tuples, repeat=2):
        left = ctx.basis_element(p_tensor_embed(ctx, s)) * ctx.basis_element(
            p_tensor_embed(ctx, t)
        )
        row = tuple_mul(ctx.alg, tuple_index(ctx.alg, s), tuple_index(ctx.alg, t), ctx.n)
        want = {
            ctx.index(p_tensor_embed(ctx, index_tuple(ctx.alg, u, ctx.n))): Laurent(c)
            for u, c in row.items()
        }
        if left.terms != want:
            raise ValueError(f"tensor embedding breaks at {s} x {t}")
    return True
