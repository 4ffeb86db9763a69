"""High-precision Gamma, digamma/polygamma and derivative jets of Gamma.

The defining series of Psi^(n) converge too slowly at hundreds of bits, so the
production path shifts the argument upward by the exact recurrence
Psi^(n)(x+1) = Psi^(n)(x) + (-1)^n n!/x^(n+1) and finishes with one
Euler-Maclaurin tail, sum_k B_2k (2k+e-1)!/(2k)! X^-(2k+e) from
:func:`_stirling_tail`: e = -1 for log Gamma, e = n >= 0 for Psi^(n). Digamma
is Psi^(0) and Euler's constant is -Psi(1). The tail is an exact rational that
stops at a proven bound, and each value is one exact rational rounded once,
with log X, log 2 pi and exp the only mpf steps; the defining series stay
around as low-precision test oracles. All routines take rational arguments,
return ``mpf`` values carrying at least ``prec`` significand bits, and are pure.

Derivatives of Gamma and of 1/Gamma come from one Leibniz recursion: f' = s Psi f
for f = Gamma^s, s = +-1, so f^(j+1) = s sum_i binom(j,i) Psi^(i) f^(j-i). The
1/Gamma jets and the kernels built on them, which only the tests call so far,
are in :mod:`eoplab.gammajets`, so that ``gamma-deriv`` does not compile them.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import count
from operator import mul

from mpmath import mp, mpf, workprec

from .numcore import (
    DEFAULT_PREC,
    DomainError,
    Rational,
    bernoulli,
    binary_split,
    off_poles,
    to_mpf,
)

__all__ = [
    "GammaDerivs",
    "euler_gamma",
    "psi",
    "polygamma",
    "gamma_value",
    "gamma_deriv",
]

_GUARD = 24


def _inverse_power_sum(x: Fraction, m: int, e: int) -> Fraction:
    """sum_{j<m} 1/(x+j)^e, the exact shift sum of the digamma-type recurrences,
    summed over the product of its denominators and reduced once."""
    p, q = x.numerator, x.denominator
    terms = [(q**e, (p + j * q) ** e) for j in range(m)]
    return Fraction(*binary_split(_add_ratios, terms, (0, 1)))


def _add_ratios(a: tuple, b: tuple) -> tuple:
    return a[0] * b[1] + b[0] * a[1], a[1] * b[1]


def _stirling_tail(e: int, X: Fraction, bound: Fraction) -> Fraction:
    """sum_{k<=K} t_k, t_k = B_2k (2k+e-1)!/(2k)! X^-(2k+e) (e >= -1), exactly, for
    the first K >= 0 with |t_{K+1}| <= bound, found by integer comparisons.

    For real X > 0 the remainder after K terms has the sign of t_{K+1} and is at
    most |t_{K+1}| (DLMF 5.11(ii) for log Gamma). By Binet's formula (DLMF 5.9)
    it is int_0^oo t^e r_K(t) e^(-X t) dt for every e, where r_K(t), the rest of
    1/(e^t - 1) - 1/t + 1/2 after K Bernoulli terms, has for t > 0 the sign of
    its next term and is at most it. The terms decrease while 2k + e + 1 < 2 pi X,
    and the callers' X >= X0 keeps that true well past K, so no cap is needed.
    One common denominator: the lcm of the weights' ones times P^(2K+e), X = P/Q.
    """
    P, Q = X.numerator, X.denominator
    Pk, Qk = P ** (e + 2), Q ** (e + 2)  # X^-(2k+e) = Qk/Pk, at k = 1 first
    terms = []
    for k in count(1):
        b = bernoulli(2 * k)
        num = b.numerator * math.perm(2 * k + e - 1, max(0, e - 1)) * Qk
        den = b.denominator * math.perm(2 * k, max(0, 1 - e))
        if abs(num) * bound.denominator <= bound.numerator * den * Pk:
            break
        terms.append((num, den))
        Pk, Qk = Pk * P * P, Qk * Q * Q
    L = math.lcm(*(den for _, den in terms))
    acc = 0
    for num, den in terms:  # Horner in P^2
        acc = acc * P * P + num * (L // den)
    return Fraction(acc, L * P ** max(0, 2 * len(terms) + e))


def euler_gamma(prec: int = DEFAULT_PREC) -> mpf:
    """Euler's constant, -Psi(1)."""
    with workprec(prec + _GUARD):
        return -psi(1, prec)


def psi(x: Rational, prec: int = DEFAULT_PREC) -> mpf:
    """Digamma at a rational point, Psi^(0)."""
    return polygamma(0, x, prec)


def polygamma(n: int, x: Rational, prec: int = DEFAULT_PREC) -> mpf:
    """Psi^(n) at a rational point (n >= 0), by upward shift plus the tail."""
    if n < 0:
        raise DomainError("polygamma needs n >= 0")
    x = off_poles(x, "polygamma")
    wp = prec + _GUARD + n
    m = max(0, math.ceil(max(16, int(0.35 * wp) + n) - x))  # X = x + m >= X0
    X = x + m
    nfact = math.factorial(n)
    # Psi^(n)(x) = (-1)^(n+1) [lead + n!/(2 X^(n+1)) + tail + n! shift], lead = (n-1)!/X^n
    # (-log X at n = 0, where |[...]| > 2); the tail stops at 2^-(wp+4) of the lead, or of 1
    lead = math.factorial(n - 1) / X**n if n else Fraction(0)
    tail = _stirling_tail(n, X, Fraction(lead or 1, 1 << (wp + 4)))
    rest = lead + nfact / (2 * X ** (n + 1)) + tail + nfact * _inverse_power_sum(x, m, n + 1)
    with workprec(wp):
        rest = to_mpf(rest if n % 2 else -rest, wp)
        return rest if n else +(mp.log(to_mpf(X, wp)) + rest)


def gamma_value(x: Rational, prec: int = DEFAULT_PREC) -> mpf:
    """Gamma at a rational point via upward shift and the Stirling series."""
    x = off_poles(x, "Gamma")
    wp = prec + _GUARD + 8
    m = max(0, math.ceil(max(20, int(0.2 * wp) + 8) - x))  # X = x + m >= X0
    X = x + m
    p, q = x.numerator, x.denominator
    prod = Fraction(binary_split(mul, [p + j * q for j in range(m)], 1), q**m)
    with workprec(wp):
        # log Gamma(X) = (X-1/2) log X + log(2 pi)/2 - (X - tail)
        acc = to_mpf(X - Fraction(1, 2), wp) * mp.log(to_mpf(X, wp)) + mp.log(2 * mp.pi) / 2
        acc -= to_mpf(X - _stirling_tail(-1, X, Fraction(1, 1 << (wp + 4))), wp)
        return +(mp.e ** acc / to_mpf(prod, wp))


GammaDerivs = namedtuple("GammaDerivs", "point order values")
GammaDerivs.__doc__ = "Gamma(s), Gamma'(s), ..., Gamma^(order)(s) at a rational point s."


def _leibniz(n: int, x: Fraction, wp: int, sign: int) -> list:
    """f, f', ..., f^(n) at x for f = Gamma^sign (sign = +-1), at wp bits, by the
    Leibniz recursion over f' = sign Psi f."""
    with workprec(wp):
        psis = [polygamma(i, x, wp) for i in range(n)]
        g = gamma_value(x, wp)
        vals = [g if sign > 0 else 1 / g]
        for j in range(n):
            vals.append(+sum(mpf(sign * math.comb(j, i)) * psis[i] * vals[j - i]
                             for i in range(j + 1)))
    return vals


def gamma_deriv(n: int, x: Rational, prec: int = DEFAULT_PREC) -> GammaDerivs:
    """Derivatives of Gamma up to order n by the Leibniz recursion over Psi^(i)."""
    if n < 0:
        raise DomainError("gamma_deriv needs n >= 0")
    x = off_poles(x, "Gamma")
    return GammaDerivs(point=x, order=n, values=tuple(_leibniz(n, x, prec + _GUARD, 1)))
