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
number-theoretic transform for long vectors. No sequence route multiplies
series: ``int_cauchy`` is only ``__mul__``'s kernel. The gamma series route is
:func:`laguerre_sums`, the partial sums of L_k^(alpha)(1)/(k+alpha) by a
three-term integer recurrence. :func:`euler_substitution` is a first
difference of :func:`numcore.binomial_transform`, the closed routes' kernel.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import mul, sub

from .numcore import DomainError, Frozen, Rational, binomial_transform, int_cauchy, off_poles

__all__ = [
    "TruncatedSeries",
    "partial_sums",
    "euler_substitution",
    "binomial_series",
    "laguerre_sums",
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

    Coefficient n >= 1 is sum_k (-1)^k binom(n-1, k-1) f_k: entry n minus entry
    n - 1 of the binomial transform of the (-1)^k f_k. Guaranteed order f.order.
    """
    s = binomial_transform([-c if k & 1 else c for k, c in enumerate(f.nums)])
    # an involution with integer coefficients keeps gcd(den, *nums) = 1
    return _raw(s[:1] + list(map(sub, s[1:], s)), f.den)


def binomial_series(beta: Rational, order: int) -> TruncatedSeries:
    """(1-z)^(-beta): coefficient_n = beta(beta+1)...(beta+n-1)/n!.

    With beta = s/q, coefficient n is prod_{j<n} (s + jq) / (q^n n!) and its
    reduced denominator is q^n times the q-part of n! (its largest divisor of
    primes of q): for a prime l not dividing q, one of any l^k consecutive
    s + jq is divisible by l^k, and no s + jq by a prime of q. So den is
    q^(N-1) gcd((N-1)!, q^(N-1)) (a prime divides (N-1)! fewer than N - 1
    times if N > 1), and B_0 = den, B_{m+1} = B_m (s + mq) / ((m + 1) q).
    """
    beta = Fraction(beta)
    s, q = beta.numerator, beta.denominator
    top = max(order - 1, 0)
    qn = q**top
    nums = [qn * math.gcd(math.factorial(top), qn)]
    for m in range(top):
        nums.append(nums[-1] * (s + m * q) // ((m + 1) * q))
    return _raw(nums[:order], nums[0])


def laguerre_sums(p: int, q: int, order: int) -> list:
    """[sum_{k<=n} L_k^(a)(1)/(k+a) for n < order] as unreduced (numerator,
    denominator) pairs, a = p/q in lowest terms (q > 0) off the poles -1, -2, ...;
    with p = 0 the term k = 0 is left out, and the sums are minus Euler's sequence.

    This is the gamma series route: E_a is annihilated by (D-1)(theta+a), so
    through z -> -z/(1-z) and the factor (1-z)^(-a-1), (theta+a)[(1-z)P] is the
    Laguerre generating function (1-z)^(-a-1) exp(-z/(1-z)) = sum_n L_n^(a)(1) z^n
    (Szego (5.1.9)), and P_n is the partial sum, with no series product.
    Over D = q^(N-1) (N-1)!, l_k = D L_k^(a)(1) is an integer, as k! q^k L_k =
    sum_j binom(k, j) (-q)^j prod_{j<i<=k} (p+iq); so l_0 = D, l_1 = pD/q and
    q(k+1) l_{k+1} = (2kq+p) l_k - (kq+p) l_{k-1} (Szego (5.1.10) at x = 1)
    divide exactly. Entry k is l_k q (L/(kq+p)) over D L, L = lcm_k |kq+p|
    over the nonzero factors.
    """
    lin = [k * q + p for k in range(order)]
    top = max(order - 1, 0)
    d = q**top * math.factorial(top)
    ell = [d, d // q * p]  # l_1 is exact when it is used, for order > 1
    for k in range(1, order - 1):
        ell.append(((lin[k] + k * q) * ell[k] - lin[k] * ell[k - 1]) // ((k + 1) * q))
    lcm = math.lcm(*filter(None, lin))
    den = d * lcm
    return [(s, den) for s in accumulate(q * c * (lcm // m) if m else 0
                                         for c, m in zip(ell, lin))]


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
    alpha = off_poles(alpha, "E_alpha")
    return _e_series(alpha.numerator, alpha.denominator, order)


def e_log_series(order: int) -> TruncatedSeries:
    """sum_{n>=1} z^n / (n! n)."""
    return _e_series(0, 1, order)


def _e_series(p: int, q: int, order: int) -> TruncatedSeries:
    """sum_n q z^n / (n! (nq + p)), without the term n = 0 when p = 0."""
    # over (N-1)! lcm_n (nq + p), the lcm over the nonzero factors only
    lin = [n * q + p for n in range(order)]
    lcm = math.lcm(*filter(None, lin))
    tail = _tail_products(range(order))  # (N-1)!/n!
    return _canonical([q * t * (lcm // m) if m else 0 for t, m in zip(tail, lin)],
                      tail[0] * lcm)
