"""High-precision Gamma, digamma/polygamma, derivative jets, and rational kernels.

The digamma series  Psi(x) = -gamma + sum_k (1/(k+1) - 1/(k+x))  and the
polygamma series  Psi^(n)(x) = sum_k (-1)^(n+1) n! / (k+x)^(n+1)  converge too
slowly to evaluate at hundreds of bits, so the production path shifts the
argument upward by the exact recurrence Psi(x+1) = Psi(x) + 1/x and finishes
with the Euler-Maclaurin (Stirling-type) tail; the defining series stay around
as low-precision test oracles. The four such tails (Euler's constant, digamma,
polygamma, log Gamma) all sum B_2k-weighted inverse powers, generated by
:func:`_stirling_terms`, until a term drops below 2^-wp, through the package's
one summation loop :func:`numcore.capped_sum`. All routines take rational
arguments, return ``mpf`` values carrying at least ``prec`` significand bits,
and are pure.

Derivatives of Gamma are produced by the Leibniz recursion
Gamma^(j+1) = sum_i binom(j,i) Psi^(i) Gamma^(j-i); derivatives of 1/Gamma by
Taylor-jet reciprocation (with an exact shifted-product representation at the
nonpositive integers, where 1/Gamma is entire).
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
    capped_sum,
    small_cauchy,
    to_mpf,
)

__all__ = [
    "GammaDerivs",
    "euler_gamma",
    "psi",
    "polygamma",
    "gamma_value",
    "gamma_deriv",
    "recip_gamma_deriv",
    "recip_gamma_jet",
    "y_alpha_i",
    "lambda_log_poly",
    "lambda_ts",
]

_GUARD = 24


def _is_nonpositive_integer(x: Fraction) -> bool:
    return x.denominator == 1 and x <= 0


def _require_off_poles(x: Fraction, what: str) -> None:
    if _is_nonpositive_integer(x):
        raise DomainError(f"{what} has a pole at nonpositive integer {x}")


def _inverse_power_sum(x: Fraction, m: int, e: int) -> Fraction:
    """sum_{j<m} 1/(x+j)^e, the exact shift sum of the digamma-type recurrences,
    summed over the product of its denominators and reduced once."""
    p, q = x.numerator, x.denominator
    terms = [(q**e, (p + j * q) ** e) for j in range(m)]
    return Fraction(*binary_split(_add_ratios, terms, (0, 1)))


def _add_ratios(a: tuple, b: tuple) -> tuple:
    return a[0] * b[1] + b[0] * a[1], a[1] * b[1]


def _stirling_terms(coeffs, first: mpf, step: mpf):
    """c_k / (first * step^(k-1)) for k = 1, 2, ..., the Stirling-type tail terms.

    ``coeffs`` yields c_1, c_2, ..., each already rounded by the caller (B_2k
    times that caller's weight).
    """
    power = first
    for c in coeffs:
        yield c / power
        power *= step


def euler_gamma(prec: int = DEFAULT_PREC) -> mpf:
    """Euler's constant via Euler-Maclaurin applied to H_m - log m."""
    wp = prec + _GUARD
    m = 1 << max(6, (int(0.35 * wp)).bit_length())
    with workprec(wp):
        acc = to_mpf(_inverse_power_sum(Fraction(1), m, 1), wp) - mp.log(m) - mpf(1) / (2 * m)
        msq = mpf(m) * m
        coeffs = (to_mpf(bernoulli(2 * k), wp) / (2 * k) for k in count(1))
        # m is a power of two, so k > 3m/2 is the same as 2k > 3m
        acc = capped_sum(_stirling_terms(coeffs, msq, msq), mpf(2) ** (-wp - 4),
                         3 * m // 2, "Euler-Maclaurin tail for gamma", acc)
        return +acc


def _psi_asymptotic(X: mpf, wp: int) -> mpf:
    # Psi(X) = log X - 1/(2X) - sum_k B_{2k} / (2k X^{2k}), X large
    Xsq = X * X
    coeffs = (to_mpf(-bernoulli(2 * k), wp) / (2 * k) for k in count(1))
    return capped_sum(_stirling_terms(coeffs, Xsq, Xsq), mpf(2) ** (-wp - 4), int(8 * X),
                      "digamma asymptotic tail", mp.log(X) - 1 / (2 * X))


def psi(x: Rational, prec: int = DEFAULT_PREC) -> mpf:
    """Digamma at a rational point, by upward shift plus Euler-Maclaurin tail."""
    x = Fraction(x)
    _require_off_poles(x, "digamma")
    wp = prec + _GUARD
    X0 = max(16, int(0.35 * wp))
    m = max(0, math.ceil(X0 - x))
    shift = _inverse_power_sum(x, m, 1)
    with workprec(wp):
        return +(_psi_asymptotic(to_mpf(x + m, wp), wp) - to_mpf(shift, wp))


def _polygamma_coeffs(n: int, wp: int):
    """B_2k (2k+n-1)!/(2k)! rounded to wp bits, for k = 1, 2, ..."""
    w = math.factorial(n + 1) // 2
    for k in count(1):
        yield to_mpf(bernoulli(2 * k) * w, wp)
        w = w * (2 * k + n) * (2 * k + n + 1) // ((2 * k + 1) * (2 * k + 2))


def polygamma(n: int, x: Rational, prec: int = DEFAULT_PREC) -> mpf:
    """Psi^(n) at a rational point (n >= 1), shifted direct summation + tail."""
    if n < 1:
        raise DomainError("polygamma needs n >= 1; use psi for n = 0")
    x = Fraction(x)
    _require_off_poles(x, "polygamma")
    wp = prec + _GUARD + n
    X0 = max(16, int(0.35 * wp) + n)
    m = max(0, math.ceil(X0 - x))
    shift = _inverse_power_sum(x, m, n + 1)
    nfact = math.factorial(n)
    with workprec(wp):
        X = to_mpf(x + m, wp)
        # Psi^(n)(X) = (-1)^(n-1) [ (n-1)!/X^n + n!/(2 X^(n+1)) + tail ]
        acc = mpf(math.factorial(n - 1)) / X**n + mpf(nfact) / (2 * X ** (n + 1))
        Xsq = X * X
        acc = capped_sum(_stirling_terms(_polygamma_coeffs(n, wp), X**n * Xsq, Xsq),
                         mpf(2) ** (-wp - 4) * abs(acc), int(8 * X),
                         "polygamma asymptotic tail", acc)
        sign = 1 if (n - 1) % 2 == 0 else -1
        return +(sign * acc - (-1) ** n * nfact * to_mpf(shift, wp))


def _log_gamma_large(X: mpf, wp: int) -> mpf:
    # Stirling: (X-1/2) log X - X + log(2 pi)/2 + sum_k B_{2k}/(2k(2k-1) X^(2k-1))
    acc = (X - mpf(1) / 2) * mp.log(X) - X + mp.log(2 * mp.pi) / 2
    coeffs = (to_mpf(bernoulli(2 * k), wp) / ((2 * k) * (2 * k - 1)) for k in count(1))
    return capped_sum(_stirling_terms(coeffs, X, X * X), mpf(2) ** (-wp - 4), int(8 * X),
                      "Stirling tail", acc)


def gamma_value(x: Rational, prec: int = DEFAULT_PREC) -> mpf:
    """Gamma at a rational point via upward shift and the Stirling series."""
    x = Fraction(x)
    _require_off_poles(x, "Gamma")
    wp = prec + _GUARD + 8
    X0 = max(20, int(0.2 * wp) + 8)
    m = max(0, math.ceil(X0 - x))
    p, q = x.numerator, x.denominator
    prod = Fraction(binary_split(mul, [p + j * q for j in range(m)], 1), q**m)
    with workprec(wp):
        g = mp.e ** _log_gamma_large(to_mpf(x + m, wp), wp)
        return +(g / to_mpf(prod, wp))


GammaDerivs = namedtuple("GammaDerivs", "point order values")
GammaDerivs.__doc__ = "Gamma(s), Gamma'(s), ..., Gamma^(order)(s) at a rational point s."


def gamma_deriv(n: int, x: Rational, prec: int = DEFAULT_PREC) -> GammaDerivs:
    """Derivatives of Gamma up to order n by the Leibniz recursion over Psi^(i)."""
    if n < 0:
        raise DomainError("gamma_deriv needs n >= 0")
    x = Fraction(x)
    _require_off_poles(x, "Gamma")
    wp = prec + _GUARD
    with workprec(wp):
        psis = [psi(x, wp)]
        for i in range(1, n):
            psis.append(polygamma(i, x, wp))
        vals = [gamma_value(x, wp)]
        for j in range(n):
            acc = mpf(0)
            for i in range(j + 1):
                acc += mpf(math.comb(j, i)) * psis[i] * vals[j - i]
            vals.append(+acc)
    return GammaDerivs(point=x, order=n, values=tuple(vals))


def _jet_recip(a: list, length: int) -> list:
    if a[0] == 0:
        raise DomainError("jet reciprocal needs a nonzero constant term")
    out = [1 / a[0]]
    for k in range(1, length):
        acc = 0 * a[0]
        for j in range(1, min(k, len(a) - 1) + 1):
            acc += a[j] * out[k - j]
        out.append(-acc / a[0])
    return out


def gamma_jet(x: Rational, order: int, prec: int = DEFAULT_PREC) -> list:
    """Taylor coefficients [Gamma(x), Gamma'(x), Gamma''(x)/2!, ...] of length order+1."""
    derivs = gamma_deriv(order, x, prec)
    return [derivs.values[k] / math.factorial(k) for k in range(order + 1)]


def recip_gamma_jet(x: Rational, order: int, prec: int = DEFAULT_PREC) -> list:
    """Taylor jet of 1/Gamma at x, valid for every rational x (1/Gamma is entire)."""
    x = Fraction(x)
    wp = prec + _GUARD
    with workprec(wp):
        if not _is_nonpositive_integer(x):
            return _jet_recip(gamma_jet(x, order, wp), order + 1)
        # At x = -m <= 0 use 1/Gamma(z) = z(z+1)...(z+m) / Gamma(z+m+1).
        m = -int(x)
        poly = [mpf(1)]
        for t in range(m + 1):
            poly = small_cauchy(poly, [to_mpf(x + t, wp), mpf(1)], order + 2)
        rec = _jet_recip(gamma_jet(x + m + 1, order, wp), order + 1)
        return small_cauchy(poly, rec, order + 1)


def recip_gamma_deriv(l: int, x: Rational, prec: int = DEFAULT_PREC) -> mpf:
    """(1/Gamma)^(l)(x)."""
    if l < 0:
        raise DomainError("recip_gamma_deriv needs l >= 0")
    jet = recip_gamma_jet(x, l, prec)
    with workprec(prec + _GUARD):
        return +(jet[l] * math.factorial(l))


# ---------------------------------------------------------------------------
# Rational kernels: the z^n coefficient functions y_{alpha,i} and the
# log-polynomial weights lambda_{t,s}.
# ---------------------------------------------------------------------------


def _frac_part(t: Fraction) -> Fraction:
    return t - math.floor(t)


def _kernel_jet(alpha: Fraction, n: int, length: int) -> list:
    """Jet in (y - alpha) of Gamma(1-{y})/Gamma(-y-n), with floor(alpha) frozen.

    The kernel is a rational function of y: a falling product of linear factors
    for n >= -floor(alpha), the reciprocal of such a product for smaller n.
    Derivatives at integer alpha are right-derivatives by the frozen floor.
    """
    fl = math.floor(alpha)
    if n >= -fl:
        jet = [Fraction(1)]
        for m in range(n + fl + 1):
            jet = small_cauchy(jet, [-alpha - n + m, Fraction(-1)], length)
        return jet + [Fraction(0)] * (length - len(jet))
    jet = [Fraction(1)]
    for m in range(-n - fl - 1):
        jet = small_cauchy(jet, [-alpha + fl + 1 + m, Fraction(-1)], length)
    jet += [Fraction(0)] * (length - len(jet))
    return _jet_recip(jet, length)


def y_alpha_i(alpha: Rational, i: int, N: int) -> TruncatedSeries:
    """Exact series whose z^n coefficient is the i-th Taylor coefficient in y,
    at y = alpha, of Gamma(1-{y})/Gamma(-y-n)."""
    if i < 0:
        raise DomainError("y_alpha_i needs i >= 0")
    from .series import TruncatedSeries

    alpha = Fraction(alpha)
    return TruncatedSeries([_kernel_jet(alpha, n, i + 1)[i] for n in range(N)])


def lambda_log_poly(t: Rational, s: int, prec: int = DEFAULT_PREC) -> tuple:
    """Coefficients (c_0..c_s) with lambda_{t,s}(1/x) = sum_nu c_nu log(1/x)^nu.

    c_nu = (-1)^(s-nu)/(s-nu)! * (1/Gamma)^(s-nu)(1-{t}) / nu!.
    """
    if s < 0:
        raise DomainError("lambda needs s >= 0")
    t = Fraction(t)
    point = 1 - _frac_part(t)
    jet = recip_gamma_jet(point, s, prec)
    with workprec(prec + _GUARD):
        out = []
        for nu in range(s + 1):
            k = s - nu
            # jet[k] = (1/Gamma)^(k)(point)/k!, so the 1/(s-nu)! is built in
            out.append(+(mpf((-1) ** k) * jet[k] / math.factorial(nu)))
    return tuple(out)


def lambda_ts(t: Rational, s: int, x, prec: int = DEFAULT_PREC):
    """lambda_{t,s}(1/x), on the principal branch of log, arg(x) in (-pi, pi].

    Its log(1/x)-polynomial coefficients are :func:`lambda_log_poly`.
    """
    coeffs = lambda_log_poly(t, s, prec)
    with workprec(prec + _GUARD):
        xv = to_mpf(x, prec + _GUARD) if isinstance(x, (Fraction, int, float)) else x
        L = -mp.log(xv)
        acc = L * 0
        for nu in range(s, -1, -1):
            acc = acc * L + coeffs[nu]
        return +acc
