"""Truncated formal power series over the rationals.

A :class:`TruncatedSeries` stores exactly ``order`` coefficients and every
operation reports the order it can guarantee (min-of-inputs for ring
operations). Operations never pad with zeros, so exact-equality tests between
series computed along different routes compare only guaranteed coefficients.

The coefficients are integer numerators ``nums`` over one denominator ``den``
in canonical form: den > 0 and gcd(den, *nums) = 1, so den is the lcm of the
reduced coefficient denominators and ``==`` is value equality. ``coeffs``, the
reduced ``Fraction`` coefficients, is built on first use. The constructors
build the numerators by integer recurrences, ``+`` and ``-`` scale to one lcm,
and a product multiplies the numerator vectors with :func:`numcore.int_cauchy`:
one Kronecker-substituted ``Decimal`` product, subquadratic through libmpdec's
number-theoretic transform for long vectors.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import mul, sub

from .numcore import DomainError, Frozen, Rational, int_cauchy

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
        return _raw([-c for c in self.nums], self.den)

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            return _canonical([c * other.numerator for c in self.nums],
                              self.den * other.denominator)
        n = min(self.order, other.order)
        return _canonical(int_cauchy(self.nums, other.nums, n), self.den * other.den)

    __rmul__ = __mul__

    def differentiate(self) -> "TruncatedSeries":
        return _canonical([i * c for i, c in enumerate(self.nums) if i], self.den)


def _raw(nums, den: int) -> TruncatedSeries:
    """The series with these numerators over den, already in canonical form."""
    s = object.__new__(TruncatedSeries)
    object.__setattr__(s, "nums", tuple(nums))
    object.__setattr__(s, "den", den)
    return s


def _canonical(nums, den: int) -> TruncatedSeries:
    """The series sum_n nums[n]/den z^n (den > 0), brought to canonical form."""
    g = math.gcd(den, *nums)
    if g != 1:
        nums, den = [c // g for c in nums], den // g
    return _raw(nums, den)


def _tail_products(factors) -> list:
    """[prod(factors[n+1:]) for n < len(factors)], or [1] if there is no factor."""
    return list(accumulate(reversed(factors[1:]), mul, initial=1))[::-1]


def partial_sums(f: TruncatedSeries) -> TruncatedSeries:
    """Multiply by 1/(1-z): coefficient n becomes sum_{k<=n} f_k."""
    # an integer triangular map with an integer inverse keeps gcd(den, *nums) = 1
    return _raw(accumulate(f.nums), f.den)


def euler_substitution(f: TruncatedSeries) -> TruncatedSeries:
    """Compose f with -z/(1-z), the substitution behind both sequence constructions.

    By Horner over the numerators of f, with one prefix-sum pass per step.
    Guaranteed order f.order.
    """
    acc = []  # prefix sums of the numerators so far, times sign
    sign = 1
    for c in reversed(f.nums):
        # acc * (-z/(1-z)) + c shifts the numerators up and sums them: on their
        # prefix sums that is one more prefix-sum pass, from c; the sign flips.
        # After j steps f.order - j shifts remain, so only the first j sums can
        # land among the f.order coefficients kept: acc grows by one per step
        sign = -sign
        acc = list(accumulate(acc, initial=sign * c))
    if sign < 0:
        acc = [-x for x in acc]
    # an involution with integer coefficients keeps gcd(den, *nums) = 1
    return _raw(acc[:1] + list(map(sub, acc[1:], acc)), f.den)


def binomial_series(beta: Rational, order: int) -> TruncatedSeries:
    """(1-z)^(-beta): coefficient_n = beta(beta+1)...(beta+n-1)/n!."""
    # with beta = p/q, coefficient n is prod_{j<n} (p + jq) / (q^n n!)
    beta = Fraction(beta)
    p, q = beta.numerator, beta.denominator
    tail = _tail_products([q * m for m in range(order)])  # q^(N-1-n) (N-1)!/n!
    heads = accumulate((p + j * q for j in range(order - 1)), mul, initial=1)
    return _canonical([h * t for h, t in zip(heads, tail)][:order], tail[0])


def log_over_one_minus_z(order: int) -> TruncatedSeries:
    """log(1-z)/(1-z): coefficient_n = -(1 + 1/2 + ... + 1/n)."""
    lcm = math.lcm(*range(1, order))
    nums = accumulate((-(lcm // k) for k in range(1, order)), initial=0)
    return _canonical(list(nums)[:order], lcm)


def exp_series(order: int) -> TruncatedSeries:
    tail = _tail_products(range(order))  # (N-1)!/n!
    return _raw(tail[:order], tail[0])


def e_alpha_series(alpha: Rational, order: int) -> TruncatedSeries:
    """sum_n z^n / (n! (n+alpha)); alpha must avoid the poles 0, -1, -2, ..."""
    alpha = Fraction(alpha)
    if alpha.denominator == 1 and alpha <= 0:
        raise DomainError("e_alpha_series is undefined for nonpositive integer alpha")
    # with alpha = p/q, coefficient n is q / (n! (nq + p)), over (N-1)! lcm_n (nq + p)
    p, q = alpha.numerator, alpha.denominator
    lin = [n * q + p for n in range(order)]
    lcm = math.lcm(*lin)
    tail = _tail_products(range(order))  # (N-1)!/n!
    return _canonical([q * t * (lcm // m) for t, m in zip(tail, lin)], tail[0] * lcm)


def e_log_series(order: int) -> TruncatedSeries:
    """sum_{n>=1} z^n / (n! n)."""
    # over (N-1)! lcm(1..N-1)
    lcm = math.lcm(*range(1, order))
    tail = _tail_products(range(order))  # (N-1)!/n!
    nums = [0] + [t * (lcm // n) for n, t in enumerate(tail[1:], 1)]
    return _canonical(nums[:order], tail[0] * lcm)
