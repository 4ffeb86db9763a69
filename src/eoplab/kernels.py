"""The exact-sequence kernels: integer-vector transforms, fixed-point fits and
exact polynomials. Only the sequence layers (``constructions``' sequence,
Pade and fit routines, ``series`` and ``holonomic``) import this module, so
that a numeric command (``gamma-deriv``, ``asym-check``, ``intseq``) neither
loads nor compiles it.

:func:`binomial_transform` is the one kernel of the substitution
z -> -z/(1-z); with the factors r_j of a rising product it gives the closed
route's integers D_n P_n, each term at its own scale. :func:`laguerre_sums`
gives the series route's, partial sums of the Laguerre recurrence with no
series product.

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
from fractions import Fraction
from itertools import accumulate
from math import gcd, isqrt, lcm, log
from operator import mul

from mpmath import mp, mpf
from mpmath.libmp import from_rational, round_nearest

from .numcore import DomainError, Rational, small_cauchy


def binomial_transform(a: list, r: list | None = None) -> list:
    """[sum_k binom(n, k) a_k prod_{k<=j<n} r_j for n < len(a)], for nonzero
    integers r_j (all 1 when r is None: the coefficients of A(w)/(1-z) for
    A(w) = sum_k a_k w^k, w = z/(1-z)).

    The classical, addition-only shift (von zur Gathen and Gerhard, ISSAC
    1997), diagonal by diagonal: d_i = accumulate(d_(i-1), initial=a_i) has
    entry j = sum_t binom(j, t) a_(i-t), and term i is its last entry. A band
    of isqrt(len(a)) diagonals ending at e works at the scale of term e: each
    a_k of it enters times m_k = prod_{k<=j<e} r_j, the diagonal before it is
    rescaled once, and term n is its last entry over m_n, one small exact
    division. So no entry is wider than the terms near it.
    """
    N = len(a)
    r, width = (r, isqrt(N)) if r is not None else ([1] * N, N)  # one band, no scale
    d, out = [], []
    for lo in range(0, N, max(width, 1)):
        hi = min(lo + width, N)
        m = list(accumulate(reversed(r[lo:hi - 1]), mul, initial=1))[::-1]
        if lo:
            f = r[lo - 1] * m[0]
            d = [x * f for x in d]
        for c, mk in zip(a[lo:hi], m):
            d = list(accumulate(d, initial=c * mk))
            out.append(d[-1] // mk)
    return out


def laguerre_sums(p: int, q: int, order: int) -> list:
    """[D_n sum_{k<=n} L_k^(a)(1)/(k+a) for n < order], integers, a = p/q in
    lowest terms (q > 0) off the poles -1, -2, ..., D_n = q^n n! L_n and
    L_n = lcm_{k<=n} |kq+p| over the nonzero factors; with p = 0 the term k = 0
    is left out, and the sums are minus D_n times Euler's sequence.

    E_a is annihilated by (D-1)(theta+a), so through z -> -z/(1-z) and the
    factor (1-z)^(-a-1), (theta+a)[(1-z)P] is the Laguerre generating function
    (1-z)^(-a-1) exp(-z/(1-z)) = sum_n L_n^(a)(1) z^n (Szego (5.1.9)), and P_n
    is the partial sum. l_k = q^k k! L_k^(a)(1) = sum_j binom(k, j) (-q)^j
    prod_{j<i<=k} (p+iq) is an integer, with l_0 = 1, l_1 = p and
    l_{k+1} = (2kq+p) l_k - (kq+p) q k l_{k-1} (Szego (5.1.10) at x = 1), and
    S_n = D_n P_n = S_{n-1} (D_n/D_{n-1}) + q l_n (L_n/(nq+p)): no division.
    """
    lin = [k * q + p for k in range(order)]
    lam = [1, p]
    for k in range(1, order - 1):
        lam.append((lin[k] + k * q) * lam[k] - lin[k] * q * k * lam[k - 1])
    L = list(accumulate((m or 1 for m in lin), lcm, initial=1))  # L[n+1] = L_n
    sums, s = [], 0
    for n, m in enumerate(lin):
        s = s * q * n * (L[n + 1] // L[n]) + (q * lam[n] * (L[n + 1] // m) if m else 0)
        sums.append(s)
    return sums


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
