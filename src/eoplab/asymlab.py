"""Truncated divergent expansions of the two worked entire functions.

Both implemented instances share the shape

    f(z)  ~  front(z) - e^(-z) * sum_{n>=0} t_n z^(-n-1),

with exact rational tail coefficients t_n: the alpha-family E_alpha(-z) has
front Gamma(alpha) z^(-alpha) and t_n = (-1)^n (1-alpha)_n; the logarithmic
instance E(-z) has front -gamma - log z and t_n = (-1)^n n!. Evaluation
truncates the tail at the smallest-term index N* = round|z| and is verified
against cancellation-aware direct Taylor summation along the positive real
axis. Throughout, alpha=None selects the logarithmic instance.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate, count
from operator import mul

from mpmath import mp, mpf, workprec

from .numcore import (
    DEFAULT_PREC,
    GUARD_BITS,
    DomainError,
    Rational,
    capped_sum,
    decay_exponent,
    off_poles,
    to_mpf,
)
from .gammalab import gamma_value, psi

__all__ = [
    "FrontTerm",
    "AsymptoticSeries",
    "asym_E_alpha",
    "asym_E_log",
    "optimal_truncation",
    "eval_asym",
    "direct_E_eval",
    "RateCheckReport",
    "transfer_rate_check",
]


FrontTerm = namedtuple("FrontTerm", "coefficient power log_power")
FrontTerm.__doc__ = "coefficient * z^(-power) * (log z)^log_power."


class AsymptoticSeries(namedtuple("AsymptoticSeries", "front_terms exp_rho tail_coeffs")):
    """Front terms minus an exponentially weighted, factorially divergent tail.

    The represented expansion is
    front(z) - e^(exp_rho * z) * sum_n tail_coeffs[n] * z^(-n-1), so that
    tail_coeffs are the sequences (-1)^n (1-alpha)_n and (-1)^n n!.
    """

    __slots__ = ()

    @property
    def order(self) -> int:
        return len(self.tail_coeffs)


def asym_E_alpha(alpha: Rational, order: int, prec: int = DEFAULT_PREC) -> AsymptoticSeries:
    """Expansion of E_alpha(-z) for large z in a sector around the positive axis."""
    alpha = off_poles(alpha, "E_alpha")
    return _expansion((FrontTerm(gamma_value(alpha, prec), alpha, 0),), alpha, order)


def asym_E_log(order: int, prec: int = DEFAULT_PREC) -> AsymptoticSeries:
    """Expansion of the logarithmic instance: -gamma - log z - e^-z sum (-1)^n n!/z^(n+1)."""
    front = (FrontTerm(psi(1, prec + GUARD_BITS), Fraction(0), 0),  # Psi(1) = -gamma
             FrontTerm(mpf(-1), Fraction(0), 1))
    return _expansion(front, Fraction(0), order)


def _expansion(front: tuple, alpha: Fraction, order: int) -> AsymptoticSeries:
    """front - e^-z sum_{n<order} (-1)^n (1-alpha)_n z^(-n-1); alpha = 0 is the log tail."""
    # t_0 = 1 and t_{n+1} = -(1 - alpha + n) t_n, one product per term
    factors = (alpha - 1 - n for n in range(order - 1))
    tail = tuple(accumulate(factors, mul, initial=Fraction(1)))[:order]
    return AsymptoticSeries(front_terms=front, exp_rho=-1, tail_coeffs=tail)


def _abs_real(z) -> float:
    """|z| as a float; z must be real and finite (ints, Fractions, floats, mpfs)."""
    try:
        zf = abs(float(z))
    except (TypeError, OverflowError):
        zf = math.nan
    if not math.isfinite(zf):
        raise DomainError(f"z must be real and finite, got {z!r}")
    return zf


def optimal_truncation(z) -> int:
    """Smallest-term index for a tail ~ n!/z^(n+1): round(|z|). eval_asym
    raises when it passes the order a series carries."""
    return int(round(_abs_real(z)))


def eval_asym(a: AsymptoticSeries, z, N: int, prec: int = DEFAULT_PREC) -> mpf:
    """front(z) - e^(exp_rho z) * sum_{n<N} tail_n z^(-n-1), for 0 <= N <= a.order."""
    if not 0 <= N <= a.order:
        raise DomainError(f"truncation {N} is outside 0..{a.order}, the available order")
    _abs_real(z)  # rejects a complex z before to_mpf would raise TypeError
    wp = prec + GUARD_BITS
    with workprec(wp):
        zv = to_mpf(z, wp)
        acc = mpf(0)
        logz = mp.log(zv)
        for t in a.front_terms:
            acc += t.coefficient * zv ** to_mpf(-t.power, wp) * logz**t.log_power
        tail = mpf(0)
        zinv = 1 / zv
        pw = zinv
        for n in range(N):
            tail += to_mpf(a.tail_coeffs[n], wp) * pw
            pw *= zinv
        acc -= mp.e ** (a.exp_rho * zv) * tail
        return +acc


def direct_E_eval(z, prec: int = DEFAULT_PREC, alpha: Rational | None = None) -> mpf:
    """Taylor summation of E_alpha(-z), or of the log instance E(-z) when alpha
    is None, at real z > 0.

    Alternating sums lose about |z| log2(e) bits to cancellation, so the
    working precision is prec + ceil(|z| log2 e) + 32 guard bits; summation
    stops after the first term past n = |z| whose absolute value is below
    2^(-working precision).
    """
    # E(-z) is the alpha = 0 sum without its n = 0 term
    alpha = Fraction(0) if alpha is None else off_poles(alpha, "E_alpha")
    zf = _abs_real(z)
    if z <= 0:
        raise DomainError(f"direct summation needs real z > 0, got {z}")
    wp = prec + math.ceil(zf * math.log2(math.e)) + 32
    with workprec(wp):
        return +capped_sum(_taylor_terms(to_mpf(z, wp), alpha), mpf(2) ** (-wp),
                           1001 + int(100 * zf), "direct summation", least=int(zf) + 1)


def _taylor_terms(z: mpf, alpha: Fraction):
    """(-z)^n / (n! (n + alpha)) for n = 0, 1, ..., and 0 where n + alpha = 0."""
    p, q = alpha.numerator, alpha.denominator
    t = mpf(1)  # (-z)^n / n!
    for n in count():
        yield t * q / (n * q + p) if n * q + p else mpf(0)
        t *= -z / (n + 1)


RateCheckReport = namedtuple(
    "RateCheckReport", "empirical_exponent predicted_exponent tolerance window passed")


def transfer_rate_check(
    run,
    predicted_exponent: Rational,
    trusted_limit,
    window: tuple[int, int] | None = None,
    tolerance: float = 0.15,
) -> RateCheckReport:
    """Compare the empirical decay exponent of |P_n - limit| with a prediction.

    The empirical exponent is :func:`numcore.decay_exponent`, the fit that
    ``limit_estimate`` makes, over the window (default [max(16, N/10), N)), with
    the limit taken from a trusted oracle rather than from the run itself: an
    exact rational, or an mpf read as its exact binary value.
    """
    values = run.values if hasattr(run, "values") else run
    N = len(values)
    if N < 200:
        raise DomainError("rate check needs at least 200 values")
    lo, hi = window if window is not None else (max(16, N // 10), N)
    if not 1 <= lo < hi <= N:
        raise DomainError(f"window {(lo, hi)} must satisfy 1 <= lo < hi <= {N}")
    if isinstance(trusted_limit, mpf):
        # (-1)^sign man 2^exp; mpf.man_exp drops the sign, so read it from _mpf_
        sign, man, exp, bc = trusted_limit._mpf_
        if bc < 0:  # inf or nan
            raise DomainError(f"the trusted limit must be finite, got {trusted_limit}")
        trusted_limit = Fraction(-man if sign else man) * Fraction(2) ** exp
    slope = decay_exponent(values, Fraction(trusted_limit), lo, hi)
    if slope is None:
        raise DomainError("not enough points for a slope fit")
    return RateCheckReport(
        empirical_exponent=slope,
        predicted_exponent=float(predicted_exponent),
        tolerance=tolerance,
        window=(lo, hi),
        passed=abs(slope - float(predicted_exponent)) <= tolerance,
    )
