"""Truncated formal power series over the rationals.

A :class:`TruncatedSeries` stores exactly ``order`` coefficients and every
operation reports the order it can guarantee (min-of-inputs for ring
operations; composition is limited by the valuation of the inner series).
Operations never pad with zeros, so exact-equality tests between series
computed along different routes compare only guaranteed coefficients.

A product brings both factors to integer numerators over one denominator each
and multiplies the numerator vectors with :func:`numcore.int_cauchy`: one
Kronecker-substituted ``Decimal`` product, subquadratic through libmpdec's
number-theoretic transform for long vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .numcore import DomainError, Rational, int_cauchy, pochhammer

__all__ = [
    "TruncatedSeries",
    "compose",
    "hadamard",
    "partial_sums",
    "euler_substitution",
    "binomial_series",
    "log_over_one_minus_z",
    "exp_series",
    "e_alpha_series",
    "e_log_series",
    "bessel_f_series",
    "bessel_g_series",
]


@dataclass(frozen=True)
class TruncatedSeries:
    """Formal power series truncated to its guaranteed order."""

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, n: int) -> Fraction:
        return self.coeffs[n]

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise DomainError(f"cannot extend order {self.order} to {order}")
        return TruncatedSeries(self.coeffs[:order])

    def valuation(self) -> int:
        """Index of the first nonzero coefficient (= order if all zero)."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return self.order

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries([self.coeffs[i] + other.coeffs[i] for i in range(n)])

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries([self.coeffs[i] - other.coeffs[i] for i in range(n)])

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries([-c for c in self.coeffs])

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries([c * other for c in self.coeffs])
        n = min(self.order, other.order)
        fd, fn = _common_denominator(self.coeffs[:n])
        gd, gn = _common_denominator(other.coeffs[:n])
        den = fd * gd
        return TruncatedSeries([Fraction(c, den) for c in int_cauchy(fn, gn, n)])

    __rmul__ = __mul__

    def __truediv__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        if n == 0:
            return TruncatedSeries([])
        if other.coeffs[0] == 0:
            raise DomainError("division by series with zero constant term")
        g0 = other.coeffs[0]
        out: list[Fraction] = []
        for k in range(n):
            acc = self.coeffs[k]
            for j in range(1, k + 1):
                acc -= other.coeffs[j] * out[k - j]
            out.append(acc / g0)
        return TruncatedSeries(out)

    def differentiate(self) -> "TruncatedSeries":
        return TruncatedSeries(
            [i * self.coeffs[i] for i in range(1, self.order)]
        )


def _common_denominator(coeffs) -> tuple[int, list[int]]:
    den = 1
    for c in coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    return den, [c.numerator * (den // c.denominator) for c in coeffs]


def compose(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """f(g(z)) by Horner over series; g must have zero constant term.

    The guaranteed order is min(g.order, v*f.order) where v is the valuation
    of g: the discarded tail of f enters only at order >= v*f.order.
    """
    if g.order == 0:
        return TruncatedSeries([])
    if g.coeffs[0] != 0:
        raise DomainError("composition needs an inner series with zero constant term")
    v = g.valuation()
    target = min(g.order, v * f.order) if v < g.order else g.order
    if f.order == 0:
        return TruncatedSeries([])
    gt = g.truncate(target) if target < g.order else g
    acc = TruncatedSeries([f.coeffs[-1]] + [Fraction(0)] * (target - 1))
    one = TruncatedSeries([Fraction(1)] + [Fraction(0)] * (target - 1))
    for k in range(f.order - 2, -1, -1):
        acc = acc * gt + one * f.coeffs[k]
    return acc


def hadamard(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """Coefficientwise product."""
    n = min(f.order, g.order)
    return TruncatedSeries([f.coeffs[i] * g.coeffs[i] for i in range(n)])


def partial_sums(f: TruncatedSeries) -> TruncatedSeries:
    """Multiply by 1/(1-z): coefficient n becomes sum_{k<=n} f_k."""
    out: list[Fraction] = []
    acc = Fraction(0)
    for c in f.coeffs:
        acc += c
        out.append(acc)
    return TruncatedSeries(out)


def euler_substitution(f: TruncatedSeries) -> TruncatedSeries:
    """Compose f with -z/(1-z), the substitution behind both sequence constructions.

    Same result as ``compose(f, -z/(1-z))`` but each Horner step multiplies by
    the inner series in O(order) integer additions (negate, shift, prefix-sum),
    over a single common denominator. Guaranteed order f.order.
    """
    n = f.order
    if n == 0:
        return TruncatedSeries([])
    den, nums_f = _common_denominator(f.coeffs)
    acc = [0] * n
    for k in range(n - 1, -1, -1):
        # acc <- acc * (-z/(1-z)) + f_k, over the fixed denominator `den`
        new = [0] * n
        run = 0
        for j in range(1, n):
            run += acc[j - 1]
            new[j] = -run
        new[0] = nums_f[k]
        acc = new
    return TruncatedSeries([Fraction(c, den) for c in acc])


def binomial_series(beta: Rational, order: int) -> TruncatedSeries:
    """(1-z)^(-beta): coefficient_n = pochhammer(beta, n)/n!."""
    out = [Fraction(1)]
    for n in range(1, order):
        out.append(out[-1] * (beta + n - 1) / n)
    return TruncatedSeries(out[:order])


def log_over_one_minus_z(order: int) -> TruncatedSeries:
    """log(1-z)/(1-z): coefficient_n = -(1 + 1/2 + ... + 1/n)."""
    out = [Fraction(0)]
    h = Fraction(0)
    for n in range(1, order):
        h += Fraction(1, n)
        out.append(-h)
    return TruncatedSeries(out[:order])


def exp_series(order: int) -> TruncatedSeries:
    out = [Fraction(1)]
    for n in range(1, order):
        out.append(out[-1] / n)
    return TruncatedSeries(out[:order])


def e_alpha_series(alpha: Rational, order: int) -> TruncatedSeries:
    """sum_n z^n / (n! (n+alpha)); alpha must avoid the poles 0, -1, -2, ..."""
    alpha = Fraction(alpha)
    if alpha.denominator == 1 and alpha <= 0:
        raise DomainError("e_alpha_series is undefined for nonpositive integer alpha")
    out = []
    fact = Fraction(1)
    for n in range(order):
        if n > 0:
            fact /= n
        out.append(fact / (n + alpha))
    return TruncatedSeries(out)


def e_log_series(order: int) -> TruncatedSeries:
    """sum_{n>=1} z^n / (n! n)."""
    out = [Fraction(0)]
    fact = Fraction(1)
    for n in range(1, order):
        fact /= n
        out.append(fact / n)
    return TruncatedSeries(out[:order])


def bessel_f_series(order: int) -> TruncatedSeries:
    """Coefficients of F in the variable x = z^2: coefficient_n = 1/n!^2."""
    out = [Fraction(1)]
    for n in range(1, order):
        out.append(out[-1] / (n * n))
    return TruncatedSeries(out[:order])


def bessel_g_series(order: int) -> TruncatedSeries:
    """Companion of F (variable x = z^2): coefficient_n = -2 H_n / n!^2."""
    out = [Fraction(0)]
    inv_sq = Fraction(1)
    h = Fraction(0)
    for n in range(1, order):
        inv_sq /= n * n
        h += Fraction(1, n)
        out.append(-2 * h * inv_sq)
    return TruncatedSeries(out[:order])

