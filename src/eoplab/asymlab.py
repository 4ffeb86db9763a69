"""Truncated divergent expansions of the two worked entire functions.

Both implemented instances share the shape

    f(z)  ~  front(z) - e^(-z) * sum_{n>=0} t_n z^(-n-1),

with exact rational tail coefficients t_n: the alpha-family has front
Gamma(alpha) z^(-alpha) and t_n = (-1)^n (1-alpha)_n; the logarithmic instance
has front -gamma - log z and t_n = (-1)^n n!. Evaluation truncates the tail at
the smallest-term index N* ~ |z| and is verified against cancellation-aware
direct Taylor summation along the positive real axis.
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
    DomainError,
    Rational,
    capped_sum,
    least_squares_line,
    to_mpf,
)
from .gammalab import euler_gamma, gamma_value

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


class AsymptoticSeries(namedtuple("AsymptoticSeries",
                                  "front_terms exp_rho tail_sign tail_coeffs")):
    """Front terms plus an exponentially weighted, factorially divergent tail.

    The represented expansion is
    front(z) + tail_sign * e^(exp_rho * z) * sum_n tail_coeffs[n] * z^(-n-1);
    both instances carry tail_sign = -1 so that tail_coeffs match the unsigned
    coefficient sequences ((-1)^n (1-alpha)_n and (-1)^n n!).
    """

    __slots__ = ()

    @property
    def order(self) -> int:
        return len(self.tail_coeffs)


def asym_E_alpha(alpha: Rational, order: int, prec: int = DEFAULT_PREC) -> AsymptoticSeries:
    """Expansion of E_alpha(-z) for large z in a sector around the positive axis."""
    alpha = Fraction(alpha)
    if alpha.denominator == 1 and alpha <= 0:
        raise DomainError("the alpha-family needs alpha not a nonpositive integer")
    # t_0 = 1 and t_{n+1} = -(1 - alpha + n) t_n, one product per term
    factors = (alpha - 1 - n for n in range(order - 1))
    tail = list(accumulate(factors, mul, initial=Fraction(1)))[:order]
    return AsymptoticSeries(
        front_terms=(FrontTerm(gamma_value(alpha, prec), alpha, 0),),
        exp_rho=-1,
        tail_sign=-1,
        tail_coeffs=tuple(tail),
    )


def asym_E_log(order: int, prec: int = DEFAULT_PREC) -> AsymptoticSeries:
    """Expansion of the logarithmic instance: -gamma - log z - e^-z sum (-1)^n n!/z^(n+1)."""
    tail = [Fraction((-1) ** n * math.factorial(n)) for n in range(order)]
    with workprec(prec + 16):
        # negation rounds at the ambient precision, so do it under workprec
        minus_gamma = -euler_gamma(prec + 16)
    return AsymptoticSeries(
        front_terms=(
            FrontTerm(minus_gamma, Fraction(0), 0),
            FrontTerm(mpf(-1), Fraction(0), 1),
        ),
        exp_rho=-1,
        tail_sign=-1,
        tail_coeffs=tuple(tail),
    )


def _abs_real(z) -> float:
    """|z| as a float; z must be real (ints, Fractions, floats, mpfs)."""
    try:
        return abs(float(z))
    except TypeError:
        raise DomainError(f"z must be real, got {z!r}") from None


def optimal_truncation(z, max_order: int | None = None) -> int:
    """Smallest-term index for a tail ~ n!/z^(n+1): round(|z|), clamped."""
    n = int(round(_abs_real(z)))
    if max_order is not None:
        n = min(n, max_order)
    return n


def eval_asym(a: AsymptoticSeries, z, N: int, prec: int = DEFAULT_PREC) -> mpf:
    """front(z) + tail_sign * e^(rho z) * sum_{n<N} tail_n z^(-n-1)."""
    if N > a.order:
        raise DomainError(f"truncation {N} exceeds available order {a.order}")
    _abs_real(z)  # rejects a complex z before to_mpf would raise TypeError
    wp = prec + 16
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
        acc += a.tail_sign * mp.e ** (a.exp_rho * zv) * tail
        return +acc


def direct_E_eval(which: str, z, prec: int = DEFAULT_PREC, alpha: Rational | None = None) -> mpf:
    """Taylor summation of E_alpha(-z) or the log instance E(-z) at real z > 0.

    Alternating sums lose about |z| log2(e) bits to cancellation, so the
    working precision is prec + ceil(|z| log2 e) + 32 guard bits; summation
    stops after the first term past n = |z| whose absolute value is below
    2^(-working precision).
    """
    if which not in ("E_alpha", "E_loglike"):
        raise DomainError(f"unknown function {which!r}")
    if which == "E_alpha":
        if alpha is None:
            raise DomainError("E_alpha needs alpha")
        alpha = Fraction(alpha)
        if alpha.denominator == 1 and alpha <= 0:
            raise DomainError("E_alpha pole at nonpositive integer alpha")
    else:
        alpha = Fraction(0)  # E(-z) is the alpha = 0 sum without its n = 0 term
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
    prec: int = DEFAULT_PREC,
) -> RateCheckReport:
    """Compare the empirical decay exponent of |P_n - limit| with a prediction.

    The empirical exponent is the least-squares slope of log|P_n - limit|
    against log n over the window (default [N/10, N)), with the limit taken
    from a trusted oracle rather than from the run itself.
    """
    values = run.values if hasattr(run, "values") else run
    N = len(values)
    if N < 200:
        raise DomainError("rate check needs at least 200 values")
    lo, hi = window if window is not None else (max(16, N // 10), N)
    wp = prec + 16
    with workprec(wp):
        L = to_mpf(trusted_limit, wp) if isinstance(trusted_limit, Fraction) else trusted_limit
        xs, ys = [], []
        for n in range(lo, hi):
            d = abs(to_mpf(values[n], wp) - L)
            if d > 0:
                xs.append(math.log(n))
                ys.append(float(mp.log(d)))
    if len(xs) < 2:
        raise DomainError("not enough points for a slope fit")
    slope, _ = least_squares_line(xs, ys)
    ok = abs(slope - float(predicted_exponent)) <= tolerance
    return RateCheckReport(
        empirical_exponent=slope,
        predicted_exponent=float(predicted_exponent),
        tolerance=tolerance,
        window=(lo, hi),
        passed=ok,
    )
