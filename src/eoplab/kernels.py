"""The exact-sequence kernels: integer-vector transforms, fixed-point fits and
exact polynomials. Only the sequence layers (``constructions``' sequence,
Pade and fit routines, ``series`` and ``holonomic``) import this module, so
that a numeric command (``gamma-deriv``, ``asym-check``, ``intseq``) neither
loads nor compiles it.

:func:`binomial_transform` is the one kernel of the substitution
z -> -z/(1-z). :func:`int_cauchy`, ``TruncatedSeries.__mul__``'s exact kernel
(no sequence route multiplies series), packs each integer vector into one
``Decimal`` of shifted fields, no digit string and no borrows (Kronecker
substitution), and multiplies the two in numcore's private exact context.

Results of exact sequences that are needed only to some bits are computed in
fixed point, on integers floor(v 2^W), with the exact rational path kept as
the fallback: :func:`weighted_mean` returns a :class:`Bracket` of width 2^-W
around the mean, which rounds it when both ends round alike, and
:func:`decay_exponent`, the one decay fit of |P_n - L|, takes the log of each
fixed-point difference that keeps 64 bits.

:class:`PolyQ` is the dense polynomial over the rationals of the operators in
``holonomic`` and of the Pade approximants; :class:`Frozen` is the base of the
immutable value classes.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm, log

from mpmath import mp, mpf
from mpmath.libmp import from_rational, round_nearest

from .numcore import (DomainError, Rational, _EXACT, _parse_int, _to_decimal, binary_split,
                      small_cauchy)


def int_cauchy(a: list, b: list, n: int) -> list:
    """The first n coefficients of (sum_i a_i z^i)(sum_j b_j z^j), integer vectors.

    The product is one big multiplication (Kronecker substitution z = 10^d;
    Brent and Zimmermann, *Modern Computer Arithmetic*, 1.3): each vector is
    packed into one exact ``Decimal``, sum_i v_i 10^(d i), with
    10^d > 2 n max|a| max|b|, and the two are multiplied once (libmpdec
    switches to a number-theoretic transform for large operands, where
    CPython's int product is Karatsuba). Each field is converted by
    :func:`_to_decimal`, shifted by ``scaleb`` and summed pairwise: no digit
    string, no borrows. The low n fields of |product| are read back as
    balanced signed digits, the sign restored, one field at a time (the whole
    product at once would be quadratic) by :func:`_parse_int`. The thread's
    decimal context is not changed.
    """
    if n <= 0:
        return []
    a, b = a[:n], b[:n]
    bound = 2 * n * max(map(abs, a), default=0) * max(map(abs, b), default=0)
    if bound == 0:  # a zero vector; the fields below would not hold the other one
        return [0] * n
    # 10^d > 2^bit_length > bound, as 0.30103 > log10(2)
    d = bound.bit_length() * 30103 // 100000 + 1
    base = 10**d
    product = _EXACT.multiply(_pack(a, d), _pack(b, d))
    sign = -1 if product.is_signed() else 1
    product = product.copy_abs()
    # "f": leading zero fields give the product a positive exponent, which
    # str() would write in exponent notation
    digits = format(product, "f").rjust(n * d, "0")
    top = len(digits)
    out = []
    carry = False
    half = base >> 1
    for k in range(n):
        v = _parse_int(digits[top - (k + 1) * d:top - k * d]) + carry
        carry = v >= half
        out.append(sign * (v - base if carry else v))
    return out


def _pack(v: list, d: int) -> Decimal:
    """sum_i v_i 10^(d i) as one exact Decimal, its nonzero fields summed pairwise."""
    fields = [_EXACT.scaleb(_to_decimal(x), d * i) for i, x in enumerate(v) if x]
    return binary_split(_EXACT.add, fields, Decimal(0))


def binomial_transform(a: list) -> list:
    """[sum_k binom(n, k) a_k for n < len(a)], the coefficients of A(w)/(1-z) for
    A(w) = sum_k a_k w^k, w = z/(1-z). By Horner in w: acc <- (a_k + z acc)/(1-z) is
    one prefix-sum pass, and after j steps only j terms can reach z^(len(a)-1)."""
    acc = []
    for c in reversed(a):
        acc = list(accumulate(acc, initial=c))
    return acc


def least_squares_line(xs: list, ys: list) -> tuple:
    """Slope and intercept of the least-squares line through the points (xs, ys).

    The slope is 0 when the xs have no spread (one point, or all equal), so the
    intercept is then the mean of the ys.
    """
    n = len(xs)
    sx, sy = sum(xs), sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    denom = n * sxx - sx * sx
    slope = 0.0 if abs(denom) < 1e-30 else (n * sxy - sx * sy) / denom
    return slope, (sy - slope * sx) / n


#: Fixed-point differences carry this many bits past the largest value; a
#: float log is taken of one that keeps at least _KEPT_BITS of them.
_FIT_BITS = 128
_KEPT_BITS = 64


def _magnitude(values) -> int:
    """An e with |v| < 2^(e+1) for every v among the rationals ``values``
    (0 for none)."""
    return max((v.numerator.bit_length() - v.denominator.bit_length() for v in values),
               default=0)


class Bracket(namedtuple("Bracket", "num den bits exact")):
    """A rational L known in fixed point, num/den <= L 2^bits < num/den + 1;
    ``exact()`` computes L itself (a cached zero-argument function).

    :meth:`floor` and :meth:`rounded` answer from the bracket alone when it
    settles the answer, and return None when it does not.
    """

    __slots__ = ()

    def floor(self, w: int) -> int | None:
        """floor(L 2^w), for 0 <= w <= bits."""
        if not 0 <= w <= self.bits:
            return None
        m = self.den << (self.bits - w)
        f = self.num // m
        return f if (self.num + self.den - 1) // m == f else None

    def rounded(self, prec: int) -> mpf | None:
        """L rounded to the nearest mpf of ``prec`` bits: both ends of the
        bracket round to it, and rounding is monotone."""
        scale = self.den << self.bits
        low = from_rational(self.num, scale, prec, round_nearest)
        if from_rational(self.num + self.den, scale, prec, round_nearest) != low:
            return None
        return mp.make_mpf(low)


def weighted_mean(values: list, weights: list, prec: int) -> Bracket:
    """sum_i w_i v_i / sum_i w_i for rationals v_i and positive integer weights,
    as a :class:`Bracket` of 2^-W with W = max(prec, 128) + 64 bits past the
    largest |v_i|.

    Its num is sum_i w_i floor(v_i 2^W) and its den sum_i w_i; each floor is
    short by less than 1, so the mean lies within 2^-W above num/(den 2^W).
    The exact mean is one integer sum over the common denominator.
    """
    w = max(0, max(prec, _FIT_BITS) + _KEPT_BITS - _magnitude(values))
    total = sum(weights)

    @functools.cache
    def exact() -> Fraction:
        den = lcm(*(v.denominator for v in values))
        return Fraction(sum(c * v.numerator * (den // v.denominator)
                            for c, v in zip(weights, values)), den * total)

    num = sum(c * ((v.numerator << w) // v.denominator) for c, v in zip(weights, values))
    return Bracket(num, total, w, exact)


def decay_exponent(values: list, limit, lo: int, hi: int) -> float | None:
    """Least-squares slope of log|v_n - L| against log n over lo <= n < hi,
    or None when fewer than four v_n there differ from the limit L.

    The v_n are rationals, and L is a Fraction or a :class:`Bracket`. Each
    difference is formed in fixed point, floor(v_n 2^W) - floor(L 2^W), with
    W = 128 bits past the largest |v_n| in the window. W depends on the values
    alone, so an exact L and a bracket that settles floor(L 2^W) give the same
    floors. The difference is within 2 units of (v_n - L) 2^W, and its float log
    is taken when it keeps at least 64 bits; otherwise that n uses the exact
    integer log|num_n q - p den_n| - log(den_n q), with L = p/q.
    """
    w = max(0, _FIT_BITS - _magnitude(values[lo:hi]))
    exact = limit.exact if isinstance(limit, Bracket) else lambda: limit
    fl = limit.floor(w) if isinstance(limit, Bracket) else None
    if fl is None:
        L = exact()
        fl = (L.numerator << w) // L.denominator
    shift = w * log(2)
    xs, ys = [], []
    for n in range(lo, hi):
        v = values[n]
        d = abs((v.numerator << w) // v.denominator - fl)
        if d >> _KEPT_BITS:
            y = log(d) - shift
        else:
            L = exact()
            d = abs(v.numerator * L.denominator - L.numerator * v.denominator)
            if not d:
                continue
            y = log(d) - log(v.denominator * L.denominator)
        xs.append(log(n))
        ys.append(y)
    return least_squares_line(xs, ys)[0] if len(xs) >= 4 else None


class Frozen:
    """Base of the immutable value classes. A subclass names its fields in
    ``_fields`` and sets each once, in its constructor, through
    ``object.__setattr__``; equality and hash are those of the field values,
    and assigning or deleting an attribute later raises ``AttributeError``."""

    __slots__ = ()
    _fields = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


class PolyQ(Frozen):
    """Dense univariate polynomial over the rationals, lowest degree first.

    ``coeffs`` is a tuple of ``Fraction``; trailing zero coefficients are
    trimmed on construction, and the zero polynomial has ``degree() is None``.
    """

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def degree(self) -> int | None:
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __call__(self, x: Rational) -> Rational:
        out = Fraction(0)
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def __add__(self, other: "PolyQ") -> "PolyQ":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return PolyQ([a[i] + (b[i] if i < len(b) else 0) for i in range(len(a))])

    def __sub__(self, other: "PolyQ") -> "PolyQ":
        return self + (-other)

    def __neg__(self) -> "PolyQ":
        return PolyQ([-c for c in self.coeffs])

    def __mul__(self, other) -> "PolyQ":
        if isinstance(other, (int, Fraction)):
            return PolyQ([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        return PolyQ(small_cauchy(a, b, len(a) + len(b) - 1))

    __rmul__ = __mul__

    def divmod(self, other: "PolyQ") -> tuple["PolyQ", "PolyQ"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = len(other.coeffs) - 1
        q = [Fraction(0)] * max(len(rem) - d, 1)
        for k in range(len(rem) - 1 - d, -1, -1):
            q[k] = f = rem[k + d] / other.coeffs[-1]
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= f * c
        return PolyQ(q), PolyQ(rem[:d])

    def exact_div(self, other: "PolyQ") -> "PolyQ":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise DomainError("polynomial division is not exact")
        return q

    def content(self) -> Fraction:
        """Positive rational c with self/c primitive over the integers."""
        if self.is_zero():
            return Fraction(1)
        num = 0
        den = 1
        for c in self.coeffs:
            num = gcd(num, c.numerator)
            den = den * c.denominator // gcd(den, c.denominator)
        return Fraction(num, den)

    def __repr__(self) -> str:
        if self.is_zero():
            return "PolyQ(0)"
        parts = [f"{c}*x^{i}" for i, c in enumerate(self.coeffs) if c != 0]
        return "PolyQ(" + " + ".join(parts) + ")"


def poly_gcd(a: PolyQ, b: PolyQ) -> PolyQ:
    """Monic gcd over the rationals (monic 1 when coprime)."""
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    if a.is_zero():
        return a
    return a * (1 / a.leading())
