"""Laurent polynomials in the quantum parameter q with exact rational coefficients.

A value is stored densely over its support: ``offset`` is the lowest exponent
(possibly negative) and ``coeffs[i]`` is the coefficient of ``q**(offset + i)``.
Canonical form: the first and last stored coefficients are nonzero, and the
zero polynomial is ``offset == 0`` with an empty coefficient tuple.  Ordinary
polynomials in q are exactly the values with ``offset >= 0``.

Coefficients are exact rationals.  Integral values are kept as plain ``int``
(the convolutions in the kernel expansions are the hot path, and plain ints
multiply much faster than Fractions); ``fractions.Fraction`` appears only when
a denominator is genuinely needed.  The two kinds mix freely in arithmetic,
equality, and hashing.
"""
from __future__ import annotations

import sys
from fractions import Fraction
from typing import Iterable, Union

from .errors import ResourceLimitError

Rational = Union[int, Fraction]

# The default term cap of a product.  No value spans more powers of q than
# this, so its dense coefficient list stays bounded; a sum or a trimmed
# result that would is refused before its list is built.
DEFAULT_TERM_CAP = 5_000_000


def check_digits(what: str, low: int, high=None, exact=None) -> None:
    """Refuse an integer x, 2**low <= |x| < 2**high (None: unbounded), of
    more decimal digits than CPython writes (``sys.get_int_max_str_digits()``,
    0 for none), without computing it where its bits decide.

    For bits = floor(limit * 3.3219280948), log2(10) rounded down, 10**limit
    lies in [2**bits, 2**(bits + 2)) for every limit below 10**10.  Within
    those two bits ``exact()``, |x|, decides; without it only an x that
    certainly cannot be written is refused.
    """
    limit = getattr(sys, "get_int_max_str_digits", int)()
    bits = limit * 33219280948 // 10**10
    if limit and (high is None or high > bits):
        if low >= bits + 2 or exact is not None and exact() >= 10**limit:
            raise ResourceLimitError("%s exceeds the %d-digit limit of integer output" % (what, limit))


def _span_error(span: int) -> ResourceLimitError:
    return ResourceLimitError(
        "a coefficient spans %d powers of q, cap %d" % (span, DEFAULT_TERM_CAP)
    )


def as_rational(value: Union[int, Fraction, str]) -> Rational:
    """Coerce to an exact rational, collapsing integral fractions to int.

    Accepts int, Fraction, and strings like ``"3"`` or ``"-2/7"``.  Floats are
    rejected: the engine has no floating-point mode.
    """
    if type(value) is int:
        return value
    if isinstance(value, float):
        raise TypeError("floating-point values are not supported")
    f = Fraction(value)
    return f.numerator if f.denominator == 1 else f


def _integral_as_int(cs: list) -> list:
    """Store the integral values of a list of rationals as plain ints.

    Fraction arithmetic keeps an integral result as ``Fraction(n, 1)``.  The
    arithmetic methods call this only when ``sum(cs)`` is not an int, that
    is when some entry is a Fraction, so all-int lists are never rebuilt.
    """
    return [c.numerator if c.denominator == 1 else c for c in cs]


class QLaurent:
    """Immutable Laurent polynomial in q."""

    __slots__ = ("offset", "coeffs")

    def __init__(self, offset: int = 0, coeffs: Iterable = ()):
        cs = [as_rational(c) for c in coeffs]
        lo = 0
        hi = len(cs)
        while lo < hi and not cs[lo]:
            lo += 1
        while hi > lo and not cs[hi - 1]:
            hi -= 1
        if lo == hi:
            self.offset = 0
            self.coeffs = ()
        else:
            self.offset = offset + lo
            self.coeffs = tuple(cs[lo:hi])

    @classmethod
    def _trimmed(cls, offset: int, cs: list) -> "QLaurent":
        # internal fast constructor: cs entries are already exact rationals,
        # integral ones as int
        lo = 0
        hi = len(cs)
        while lo < hi and not cs[lo]:
            lo += 1
        while hi > lo and not cs[hi - 1]:
            hi -= 1
        if hi - lo > DEFAULT_TERM_CAP:
            raise _span_error(hi - lo)
        self = object.__new__(cls)
        if lo == hi:
            self.offset = 0
            self.coeffs = ()
        else:
            self.offset = offset + lo
            self.coeffs = tuple(cs[lo:hi])
        return self

    @classmethod
    def _monomial(cls, coeff, power: int) -> "QLaurent":
        # internal fast constructor: coeff is a nonzero exact rational, an
        # int when integral
        self = object.__new__(cls)
        self.offset = power
        self.coeffs = (coeff,)
        return self

    @classmethod
    def const(cls, value) -> "QLaurent":
        """Constant polynomial."""
        return cls(0, (value,))

    @classmethod
    def term(cls, coeff, power: int) -> "QLaurent":
        """Single term coeff * q**power."""
        if type(coeff) is int:
            return cls._monomial(coeff, power) if coeff else ZERO
        return cls(power, (coeff,))

    @classmethod
    def from_dict(cls, terms: dict) -> "QLaurent":
        """Build from a {power: coeff} mapping."""
        if not terms:
            return ZERO
        lo = min(terms)
        hi = max(terms)
        if hi - lo >= DEFAULT_TERM_CAP:
            raise _span_error(hi - lo + 1)
        cs = [terms.get(k, 0) for k in range(lo, hi + 1)]
        return cls(lo, cs)

    # -- predicates and accessors ------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def is_constant(self) -> bool:
        return not self.coeffs or (self.offset == 0 and len(self.coeffs) == 1)

    def constant_value(self) -> Rational:
        if not self.coeffs:
            return 0
        if self.offset == 0 and len(self.coeffs) == 1:
            return self.coeffs[0]
        raise ValueError("not a constant: %r" % (self,))

    def coefficient(self, power: int) -> Rational:
        i = power - self.offset
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def items(self):
        """(power, coeff) pairs in increasing power order, nonzero only."""
        for i, c in enumerate(self.coeffs):
            if c:
                yield self.offset + i, c

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, QLaurent):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a:
            return other
        if not b:
            return self
        lo = min(self.offset, other.offset)
        hi = max(self.offset + len(a), other.offset + len(b))
        if hi - lo > DEFAULT_TERM_CAP:
            raise _span_error(hi - lo)
        out = [0] * (hi - lo)
        da = self.offset - lo
        out[da : da + len(a)] = a
        db = other.offset - lo
        for i, c in enumerate(b):
            out[db + i] += c
        if type(sum(out)) is not int:
            out = _integral_as_int(out)
        return QLaurent._trimmed(lo, out)

    def __neg__(self):
        if not self.coeffs:
            return self
        return QLaurent._trimmed(self.offset, [-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, QLaurent):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, QLaurent):
            a, b = self.coeffs, other.coeffs
            if not a or not b:
                return ZERO
            offset = self.offset + other.offset
            if len(a) == 1:
                c = a[0]
                out = [c * x for x in b]
            elif len(b) == 1:
                c = b[0]
                out = [x * c for x in a]
            else:
                out = [0] * (len(a) + len(b) - 1)
                for i, ai in enumerate(a):
                    if ai:
                        for j, bj in enumerate(b):
                            out[i + j] += ai * bj
        # a rational scalar; tested second, as the Fraction test is slow
        elif isinstance(other, (int, Fraction)):
            if not other or not self.coeffs:
                return ZERO
            offset = self.offset
            out = [c * other for c in self.coeffs]
        else:
            return NotImplemented
        if type(sum(out)) is not int:
            out = _integral_as_int(out)
        return QLaurent._trimmed(offset, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- structure maps ----------------------------------------------------

    def bar(self) -> "QLaurent":
        """The bar involution q -> q**-1."""
        if not self.coeffs:
            return self
        top = self.offset + len(self.coeffs) - 1
        return QLaurent._trimmed(-top, list(reversed(self.coeffs)))

    def eval_at(self, value) -> Rational:
        """Exact evaluation at a rational point.

        Evaluation at 0 is defined only for ordinary polynomials; a negative
        power of q at 0 raises ValueError.
        """
        v = as_rational(value)
        if not self.coeffs:
            return 0
        if v == 0 and self.offset < 0:
            raise ValueError("cannot evaluate a negative power of q at 0")
        acc: Rational = 0
        for c in reversed(self.coeffs):
            acc = acc * v + c
        if self.offset and acc:
            if v == 0:
                return 0
            # v = p/r and acc = a/b reduced: the value has a numerator or a
            # denominator of at least max(|p|, r)**|offset| / max(|a|, b)
            v, acc = Fraction(v), Fraction(acc)
            base = max(abs(v.numerator), v.denominator).bit_length() - 1
            size = max(abs(acc.numerator), acc.denominator).bit_length()
            check_digits("rational", abs(self.offset) * base - size)
            acc *= v**self.offset
        return as_rational(acc)

    # -- comparison and hashing --------------------------------------------

    def __eq__(self, other):
        if isinstance(other, QLaurent):
            return self.offset == other.offset and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return not self.coeffs
            return self.offset == 0 and len(self.coeffs) == 1 and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        # a constant equals its rational (and zero equals 0), so it hashes
        # like it
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self.offset, self.coeffs))

    def __repr__(self):
        return "QLaurent(%d, %r)" % (self.offset, self.coeffs)


ZERO = QLaurent()
ONE = QLaurent(0, (1,))
Q = QLaurent(1, (1,))


def q_power(k: int) -> QLaurent:
    """q**k for any integer k."""
    return QLaurent.term(1, k)


def signed_q_power(k: int) -> QLaurent:
    """(-q)**k for any integer k."""
    return QLaurent.term(-1 if k & 1 else 1, k)
