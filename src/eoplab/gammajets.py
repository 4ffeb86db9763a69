"""Taylor jets of 1/Gamma and the rational and log-polynomial kernels built on
them: the z^n coefficient functions y_{alpha,i} and the weights lambda_{t,s}.

These are the kernels of the predicted Stokes multipliers of the
Gamma-derivative family, and only the tests call them so far. They are kept
out of ``gammalab`` so that a ``gamma-deriv`` job does not compile them. At
the nonpositive integers, where 1/Gamma is entire, the 1/Gamma jet is the
exact shifted product z(z+1)...(z+m) times the jet at z + m + 1 = 1.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath import mp, mpf, workprec

from .gammalab import _GUARD, _leibniz
from .numcore import DEFAULT_PREC, DomainError, Rational, exact_real, small_cauchy, to_mpf

__all__ = ["recip_gamma_jet", "y_alpha_i", "lambda_log_poly", "lambda_ts"]


def recip_gamma_jet(x: Rational, order: int, prec: int = DEFAULT_PREC) -> list:
    """Taylor jet of 1/Gamma at x, valid for every rational x (1/Gamma is entire)."""
    # 1/Gamma(z) = z(z+1)...(z+m) / Gamma(z+m+1) at x = -m; the empty product
    # (m = -1) elsewhere
    x = exact_real(x)
    m = -x.numerator if x.denominator == 1 and x <= 0 else -1
    wp = prec + _GUARD
    derivs = _leibniz(order, x + m + 1, wp + _GUARD, -1)
    with workprec(wp):
        poly = [mpf(1)]
        for t in range(m + 1):
            poly = small_cauchy(poly, [to_mpf(x + t, wp), mpf(1)], order + 2)
        jet = [derivs[k] / math.factorial(k) for k in range(order + 1)]
        return small_cauchy(poly, jet, order + 1)


# ---------------------------------------------------------------------------
# Rational kernels: the z^n coefficient functions y_{alpha,i} and the
# log-polynomial weights lambda_{t,s}.
# ---------------------------------------------------------------------------


def y_alpha_i(alpha: Rational, i: int, N: int) -> TruncatedSeries:
    """Exact series whose z^n coefficient is the i-th Taylor coefficient in y,
    at y = alpha, of K_n(y) = Gamma(1-{y})/Gamma(-y-n), with floor(alpha) frozen
    (so derivatives at integer alpha are right-derivatives).

    K_0 = Gamma(1+fl-y)/Gamma(-y) is the product of the factors m - y for
    0 <= m <= fl, or of 1/(fl+1+m-y) for 0 <= m < -fl-1; in t = y - alpha each
    such 1/(c - t), c > 0, has the geometric jet [c^-(k+1)]. Then one linear
    factor per step: K_{n+1} = K_n (-y-n-1).
    """
    if i < 0:
        raise DomainError("y_alpha_i needs i >= 0")
    from .series import TruncatedSeries

    alpha = exact_real(alpha)
    fl = math.floor(alpha)
    length = i + 1
    jet = [Fraction(1)] + [Fraction(0)] * i
    for m in range(fl + 1):
        jet = small_cauchy(jet, [m - alpha, Fraction(-1)], length)
    for m in range(-fl - 1):
        c = fl + 1 + m - alpha
        jet = small_cauchy(jet, [1 / c ** (k + 1) for k in range(length)], length)
    coeffs = []
    for n in range(N):
        coeffs.append(jet[i])
        jet = small_cauchy(jet, [-alpha - n - 1, Fraction(-1)], length)
    return TruncatedSeries(coeffs)


def lambda_log_poly(t: Rational, s: int, prec: int = DEFAULT_PREC) -> tuple:
    """Coefficients (c_0..c_s) with lambda_{t,s}(1/x) = sum_nu c_nu log(1/x)^nu.

    c_nu = (-1)^(s-nu)/(s-nu)! * (1/Gamma)^(s-nu)(1-{t}) / nu!.
    """
    if s < 0:
        raise DomainError("lambda needs s >= 0")
    t = exact_real(t)
    point = 1 - t + math.floor(t)
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
