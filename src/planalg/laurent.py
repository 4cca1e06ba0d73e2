"""Exact Laurent polynomials in one variable ``v`` over the integers.

This is the coefficient ring for everything in this package: structure
constants, loop scalars, traces, canonical-basis coefficients.  Elements
are stored sparsely as ``{exponent: coefficient}`` with no zero values.
The ring carries the involution ``bar : v -> v^-1`` and the
distinguished element ``delta = v + v^-1``.  Exponents and coefficients
are exact integers; anything that is not ``numbers.Integral`` is
refused with ``TypeError`` rather than truncated.

Sparse combinations ``sum_k c_k x_k`` of vectors ``{key: Laurent}`` are
built by :func:`lincomb` from the ``(c_k, x_k)`` pairs, and scalar sums
``sum_k a_k b_k`` by :func:`dot`.  Both accumulate into fresh private
``{exponent: int}`` dicts in place, instead of
``acc[k] = acc.get(k) + c * d``, which would allocate a product, copy
the accumulated dict and wrap it again for every term, and both strip
zero coefficients before a result leaves them, so every ``Laurent`` they
return is clean, which ``==`` and ``hash`` rely on.  Neither mutates its
operands, so shared constants such as ``ONE``, ``ZERO`` and ``DELTA``
stay intact.  A value that :func:`lincomb` returns may be the very
``Laurent`` passed in (a key met once, with coefficient 1), not a copy.
That is safe because a ``Laurent`` is immutable: nothing in the package
writes a ``Laurent``'s ``_c`` after it is made, and a private dict is
never the ``_c`` of a ``Laurent``.

>>> p = V + 1
>>> lincomb([(1, {"x": p})])["x"] is p
True

Also defined here is the quadratic field Q(sqrt 2), used by the rank-3
to rank-2 fusion homomorphism.

>>> DELTA
Laurent('v + v^-1')
>>> (V + 1) * (V - 1)
Laurent('v^2 - 1')
>>> DELTA.bar() == DELTA
True
>>> Laurent.parse('2v^3 - 1 + v^-2') * 1 == Laurent({3: 2, 0: -1, -2: 1})
True
>>> SQRT2 * SQRT2 == 2
True
"""

from __future__ import annotations

import re
from fractions import Fraction
from numbers import Integral
from operator import index


class Laurent:
    """An element of Z[v, v^-1], immutable and hashable.

    Integers mix freely with ``Laurent`` in arithmetic and compare equal
    to constant polynomials (hashes agree, like ``Fraction``).

    >>> p = 2 * V**3 - 1 + V_INV**2
    >>> str(p)
    '2v^3 - 1 + v^-2'
    >>> Laurent.parse(str(p)) == p
    True
    >>> p.bar()
    Laurent('v^2 - 1 + 2v^-3')
    >>> p.degree(), ZERO.degree()
    (3, None)
    >>> Laurent(7) == 7 and hash(Laurent(7)) == hash(7)
    True
    """

    __slots__ = ("_c",)

    def __init__(self, data: "int | dict | str | Laurent" = 0):
        if isinstance(data, Laurent):
            object.__setattr__(self, "_c", data._c)
        elif isinstance(data, Integral):
            object.__setattr__(self, "_c", {0: int(data)} if data else {})
        elif isinstance(data, dict):
            coeffs = {}
            for e, c in data.items():
                if not isinstance(e, Integral) or not isinstance(c, Integral):
                    raise TypeError(
                        f"Laurent exponents and coefficients must be integers, "
                        f"got {e!r}: {c!r}"
                    )
                if c:
                    coeffs[int(e)] = int(c)
            object.__setattr__(self, "_c", coeffs)
        elif isinstance(data, str):
            object.__setattr__(self, "_c", Laurent.parse(data)._c)
        else:
            raise TypeError(f"cannot build Laurent from {type(data).__name__}")

    @classmethod
    def _raw(cls, coeffs: dict) -> "Laurent":
        """Wrap an already-clean {exp: nonzero coeff} dict without copying."""
        self = object.__new__(cls)
        object.__setattr__(self, "_c", coeffs)
        return self

    @classmethod
    def v_power(cls, k: int) -> "Laurent":
        """The monomial v^k."""
        return cls._raw({index(k): 1})

    # -- basic queries ------------------------------------------------

    def items(self):
        """Terms as (exponent, coefficient) pairs, descending exponent."""
        return sorted(self._c.items(), reverse=True)

    def coeff(self, k: int) -> int:
        """Coefficient of v^k."""
        return self._c.get(k, 0)

    def degree(self):
        """Largest exponent present, or None for the zero polynomial."""
        return max(self._c) if self._c else None

    def is_constant(self) -> bool:
        return not self._c or self._c.keys() == {0}

    def constant_term(self) -> int:
        return self._c.get(0, 0)

    def __bool__(self) -> bool:
        return bool(self._c)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        c = dict(self._c)
        for e, x in other._c.items():
            y = c.get(e, 0) + x
            if y:
                c[e] = y
            else:
                del c[e]
        return Laurent._raw(c)

    __radd__ = __add__

    def __neg__(self):
        return Laurent._raw({e: -x for e, x in self._c.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._c, other._c
        if len(a) > len(b):
            a, b = b, a
        c: dict = {}
        for e1, x1 in a.items():
            for e2, x2 in b.items():
                e = e1 + e2
                y = c.get(e, 0) + x1 * x2
                if y:
                    c[e] = y
                else:
                    del c[e]
        return Laurent._raw(c)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("Laurent powers must be nonnegative integers")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> "Laurent":
        """Multiply by v^k (exponent shift)."""
        if not k:
            return self
        return Laurent._raw({e + k: x for e, x in self._c.items()})

    # -- the involution and exponent filters --------------------------

    def bar(self) -> "Laurent":
        """The ring involution v -> v^-1."""
        return Laurent._raw({-e: x for e, x in self._c.items()})

    def negative_part(self) -> "Laurent":
        """The terms with strictly negative exponent."""
        return Laurent._raw({e: x for e, x in self._c.items() if e < 0})

    def is_bar_antisymmetric(self) -> bool:
        """True if bar(self) == -self (so no constant term)."""
        return self.bar() == -self

    # -- comparison / hashing -----------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        if self.is_constant():
            return hash(self.constant_term())
        return hash(tuple(self.items()))

    # -- text form -----------------------------------------------------

    def __str__(self) -> str:
        if not self._c:
            return "0"
        out = []
        for e, c in self.items():
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "v" if e == 1 else f"v^{e}"
                body = var if mag == 1 else f"{mag}{var}"
            if not out:
                out.append(body if c > 0 else f"-{body}")
            else:
                out.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(out)

    def __repr__(self) -> str:
        return f"Laurent({str(self)!r})"

    _TERM_RE = re.compile(
        r"""\s*(?P<sign>[+-])?\s*
            (?:
                (?P<num>\d+)\s*\*?\s*(?P<var1>v(?:\^(?P<exp1>-?\d+))?)?
              | (?P<var2>v(?:\^(?P<exp2>-?\d+))?)
            )""",
        re.VERBOSE,
    )

    @classmethod
    def parse(cls, text: str) -> "Laurent":
        """Parse the format produced by ``str``: ``2v^3 - 1 + v^-2``.

        >>> Laurent.parse('0') == ZERO
        True
        >>> Laurent.parse('-v^-1 + 4') == 4 - V_INV
        True
        """
        s = text.strip()
        if not s:
            raise ValueError("empty Laurent literal")
        coeffs: dict = {}
        pos = 0
        first = True
        while pos < len(s):
            m = cls._TERM_RE.match(s, pos)
            if not m or m.end() == m.start():
                raise ValueError(f"bad Laurent literal {text!r} at offset {pos}")
            sign = m.group("sign")
            if sign is None and not first:
                raise ValueError(f"missing sign in Laurent literal {text!r}")
            mag = int(m.group("num")) if m.group("num") else 1
            var = m.group("var1") or m.group("var2")
            if var is None:
                exp = 0
            elif m.group("exp1") is not None:
                exp = int(m.group("exp1"))
            elif m.group("exp2") is not None:
                exp = int(m.group("exp2"))
            else:
                exp = 1
            c = -mag if sign == "-" else mag
            coeffs[exp] = coeffs.get(exp, 0) + c
            pos = m.end()
            first = False
        return cls({e: c for e, c in coeffs.items() if c})


def _coerce(x):
    if isinstance(x, Laurent):
        return x
    if isinstance(x, int):
        return Laurent(x)
    return NotImplemented


ZERO = Laurent(0)
ONE = Laurent(1)
V = Laurent.v_power(1)
V_INV = Laurent.v_power(-1)
#: The loop parameter delta = v + v^-1.
DELTA = V + V_INV


def vneg_congruent(a, b) -> bool:
    """True if a - b has only strictly negative powers of v.

    This is congruence modulo v^-1 Z[v^-1] for elements whose difference
    happens to lie in Z[v^-1]; it is the comparison used by the trace
    and Gram-form degree conditions.

    >>> vneg_congruent(ONE + V_INV, 1)
    True
    >>> vneg_congruent(V, 0)
    False
    """
    a, b = _coerce(a), _coerce(b)
    if a is NotImplemented or b is NotImplemented:
        raise TypeError("vneg_congruent compares Laurent polynomials or integers")
    # Both coefficient dicts are clean, so the nonnegative parts agree
    # exactly when a - b has no exponent >= 0; no difference is formed.
    return (
        {e: x for e, x in a._c.items() if e >= 0}
        == {e: x for e, x in b._c.items() if e >= 0}
    )


# -- sparse sums ----------------------------------------------------------------


def lincomb(pairs) -> dict:
    """The sum of ``c * vec`` over the ``(c, vec)`` pairs, as a clean
    ``{key: Laurent}`` dict without zero values.

    ``c`` is a Laurent or an integer and ``vec`` a dict of Laurent or
    integer values; ``pairs`` is any iterable, a generator included.
    Neither the coefficients nor the vectors are modified.

    >>> lincomb([(2, {"x": ONE, "y": V}), (V, {"x": V_INV, "y": -2})])
    {'x': Laurent('3')}

    Most combinations are short (a product row has one to four terms per
    coefficient and most keys are met once), so the cost is per call and
    per key, not per coefficient: a key's first term is stored as a
    ``Laurent`` (the value itself when ``c`` is 1, else one scaled copy),
    only its second term opens a private ``{exponent: int}`` row, and a
    monomial ``c`` = a v^e is a shift-and-scale.  Only a ``c`` of several
    terms runs the double loop, straight into private rows.  Entries are
    keyed in order of first touch.
    """
    out: dict = {}
    for c, vec in pairs:
        if type(c) is not Laurent:
            sh, a = 0, index(c)
        elif len(c._c) == 1:
            ((sh, a),) = c._c.items()
        else:
            terms = c._c.items()
            for key, x in vec.items():
                if type(x) is not Laurent:
                    x = Laurent(x)
                cur = out.get(key)
                if cur is None:
                    cur = out[key] = {}
                elif type(cur) is Laurent:
                    cur = out[key] = dict(cur._c)
                get = cur.get
                for e1, x1 in x._c.items():
                    for e2, x2 in terms:
                        e = e1 + e2
                        cur[e] = get(e, 0) + x1 * x2
            continue
        unit = a == 1 and not sh
        for key, x in vec.items():
            if type(x) is not Laurent:
                x = Laurent(x)
            cur = out.get(key)
            if cur is None:
                if unit:
                    out[key] = x
                elif a:
                    out[key] = Laurent._raw({e + sh: y * a for e, y in x._c.items()})
                else:
                    out[key] = ZERO
                continue
            if type(cur) is Laurent:
                cur = out[key] = dict(cur._c)
            get = cur.get
            if unit:
                for e, y in x._c.items():
                    cur[e] = get(e, 0) + y
            elif a:
                for e, y in x._c.items():
                    e += sh
                    cur[e] = get(e, 0) + y * a
    result = {}
    for key, cur in out.items():
        if type(cur) is dict:
            cur = {e: y for e, y in cur.items() if y}
            if cur:
                result[key] = Laurent._raw(cur)
        elif cur._c:
            result[key] = cur
    return result


def dot(pairs) -> Laurent:
    """The sum of ``a * b`` over the ``(a, b)`` pairs, as one clean Laurent.

    ``a`` and ``b`` are Laurents or integers; ``pairs`` is any
    iterable, a generator included.  Neither factor is modified.

    >>> dot([(V, V_INV), (2, DELTA), (-1, ONE)])
    Laurent('2v + 2v^-1')
    """
    acc: dict = {}
    get = acc.get
    for a, b in pairs:
        if type(a) is not Laurent:
            a = Laurent(a)
        if type(b) is not Laurent:
            b = Laurent(b)
        terms = b._c.items()
        for e1, x1 in a._c.items():
            for e2, x2 in terms:
                e = e1 + e2
                acc[e] = get(e, 0) + x1 * x2
    if not acc:
        return ZERO
    return Laurent._raw({e: x for e, x in acc.items() if x})


class QSqrt2:
    """An element a + b*sqrt(2) of the field Q(sqrt 2).

    >>> x = QSqrt2(1, 1)
    >>> x * x
    QSqrt2('3 + 2*sqrt2')
    >>> x / x == 1
    True
    >>> (SQRT2 / 2) * SQRT2
    QSqrt2('1')
    """

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))

    def __add__(self, other):
        other = _coerce_q(other)
        if other is NotImplemented:
            return NotImplemented
        return QSqrt2(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return QSqrt2(-self.a, -self.b)

    def __sub__(self, other):
        other = _coerce_q(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_q(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce_q(other)
        if other is NotImplemented:
            return NotImplemented
        return QSqrt2(
            self.a * other.a + 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QSqrt2":
        norm = self.a * self.a - 2 * self.b * self.b
        if not norm:
            raise ZeroDivisionError("division by zero in Q(sqrt 2)")
        return QSqrt2(self.a / norm, -self.b / norm)

    def __truediv__(self, other):
        other = _coerce_q(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce_q(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __eq__(self, other):
        other = _coerce_q(other)
        if other is NotImplemented:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        if not self.b:
            return hash(self.a)
        return hash((self.a, self.b, "sqrt2"))

    def __str__(self):
        if not self.b:
            return str(self.a)
        mag = abs(self.b)
        root = "sqrt2" if mag == 1 else f"{mag}*sqrt2"
        if not self.a:
            return root if self.b > 0 else f"-{root}"
        sign = "+" if self.b > 0 else "-"
        return f"{self.a} {sign} {root}"

    def __repr__(self):
        return f"QSqrt2({str(self)!r})"


def _coerce_q(x):
    if isinstance(x, QSqrt2):
        return x
    if isinstance(x, (int, Fraction)):
        return QSqrt2(x)
    return NotImplemented


SQRT2 = QSqrt2(0, 1)
