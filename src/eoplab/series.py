"""Truncated formal power series over the rationals.

A :class:`TruncatedSeries` stores exactly ``order`` coefficients and every
operation reports the order it can guarantee (min-of-inputs for ring
operations). Operations never pad with zeros, so exact-equality tests between
series computed along different routes compare only guaranteed coefficients.

The coefficients are integer numerators ``nums`` over one denominator ``den``
in canonical form: den > 0 and gcd(den, *nums) = 1, so den is the lcm of the
reduced coefficient denominators and ``==`` is value equality. ``coeffs``, the
reduced ``Fraction`` coefficients, is built on first use. The constructors are
``Fraction`` recurrences, ``+`` and ``-`` scale to one lcm, a product multiplies
the numerators with :func:`numcore.small_cauchy`, and :func:`euler_substitution`
is a first difference of :func:`kernels.binomial_transform`. No sequence route
uses the ring, which stays here because the benchmark's tracer resolves it by
name: both series routes are :func:`kernels.laguerre_sums`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import mul, sub

from .kernels import Frozen, binomial_transform
from .numcore import DomainError, Rational, off_poles, small_cauchy

__all__ = [
    "TruncatedSeries",
    "partial_sums",
    "euler_substitution",
    "binomial_series",
    "log_over_one_minus_z",
    "exp_series",
    "e_alpha_series",
    "e_log_series",
]


class TruncatedSeries(Frozen):
    """Formal power series truncated to its guaranteed order: coefficient n is
    nums[n]/den (``nums`` a tuple of int), with den > 0 and gcd(den, *nums) = 1."""

    _fields = ("nums", "den")  # no __slots__: cached_property stores in __dict__

    def __init__(self, coeffs):
        cs = [Fraction(c) for c in coeffs]
        # the lcm of the reduced denominators already gives gcd(den, *nums) = 1
        den = math.lcm(*(c.denominator for c in cs))
        object.__setattr__(self, "nums", tuple(c.numerator * (den // c.denominator)
                                               for c in cs))
        object.__setattr__(self, "den", den)

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.nums)

    @property
    def order(self) -> int:
        return len(self.nums)

    def __getitem__(self, n: int) -> Fraction:
        return self.coeffs[n]

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise DomainError(f"cannot extend order {self.order} to {order}")
        return _canonical(self.nums[:order], self.den)

    def _combine(self, other: "TruncatedSeries", sign: int) -> "TruncatedSeries":
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        return _canonical([a * x + b * y for x, y in zip(self.nums, other.nums)], den)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self._combine(other, 1)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self._combine(other, -1)

    def __neg__(self) -> "TruncatedSeries":
        return _canonical([-c for c in self.nums], self.den)

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            return _canonical([c * other.numerator for c in self.nums],
                              self.den * other.denominator)
        n = min(self.order, other.order)
        return _canonical(small_cauchy(self.nums, other.nums, n), self.den * other.den)

    __rmul__ = __mul__

    def differentiate(self) -> "TruncatedSeries":
        return _canonical([i * c for i, c in enumerate(self.nums) if i], self.den)


def _canonical(nums, den: int) -> TruncatedSeries:
    """The series sum_n nums[n]/den z^n (den > 0), brought to canonical form."""
    g = math.gcd(den, *nums)
    s = object.__new__(TruncatedSeries)
    object.__setattr__(s, "nums", tuple(c // g for c in nums))
    object.__setattr__(s, "den", den // g)
    return s


def partial_sums(f: TruncatedSeries) -> TruncatedSeries:
    """Multiply by 1/(1-z): coefficient n becomes sum_{k<=n} f_k."""
    return _canonical(list(accumulate(f.nums)), f.den)


def euler_substitution(f: TruncatedSeries) -> TruncatedSeries:
    """Compose f with -z/(1-z), the substitution behind both sequence constructions.

    Coefficient n >= 1 is sum_k (-1)^k binom(n-1, k-1) f_k: entry n minus entry
    n - 1 of the binomial transform of the (-1)^k f_k. Guaranteed order f.order.
    """
    s = binomial_transform([-c if k & 1 else c for k, c in enumerate(f.nums)])
    return _canonical(s[:1] + list(map(sub, s[1:], s)), f.den)


def binomial_series(beta: Rational, order: int) -> TruncatedSeries:
    """(1-z)^(-beta): coefficient_n = beta(beta+1)...(beta+n-1)/n!."""
    beta = Fraction(beta)
    steps = ((beta + m) / (m + 1) for m in range(order - 1))
    return TruncatedSeries(list(accumulate(steps, mul, initial=Fraction(1)))[:order])


def log_over_one_minus_z(order: int) -> TruncatedSeries:
    """log(1-z)/(1-z): coefficient_n = -(1 + 1/2 + ... + 1/n)."""
    steps = (Fraction(-1, k) for k in range(1, order))
    return TruncatedSeries(list(accumulate(steps, initial=Fraction(0)))[:order])


def exp_series(order: int) -> TruncatedSeries:
    steps = (Fraction(1, n) for n in range(1, order))
    return TruncatedSeries(list(accumulate(steps, mul, initial=Fraction(1)))[:order])


def e_alpha_series(alpha: Rational, order: int) -> TruncatedSeries:
    """sum_n z^n / (n! (n+alpha)); alpha must avoid the poles 0, -1, -2, ..."""
    alpha = off_poles(alpha, "E_alpha")
    return TruncatedSeries([c / (n + alpha) for n, c in enumerate(exp_series(order).coeffs)])


def e_log_series(order: int) -> TruncatedSeries:
    """sum_{n>=1} z^n / (n! n)."""
    return TruncatedSeries([c / n if n else 0 for n, c in enumerate(exp_series(order).coeffs)])
