"""Truncated divergent expansions of the two worked entire functions.

Both implemented instances share the shape

    f(z)  ~  front(z) - e^(-z) * sum_{n>=0} t_n z^(-n-1),

with exact rational tail coefficients t_n: the alpha-family E_alpha(-z) has
front Gamma(alpha) z^(-alpha) and t_n = (-1)^n (1-alpha)_n; the logarithmic
instance E(-z) has front -gamma - log z and t_n = (-1)^n n!. Evaluation
truncates the tail at the smallest-term index N* = round|z|, sums it exactly
at the exact z and rounds it once; only the front terms and e^(-z) are mpf. It
is verified against the exact Taylor sum along the positive real axis.
Throughout, alpha=None selects the logarithmic instance.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate
from operator import mul

from mpmath import mp, mpf, workprec

from .numcore import (
    DEFAULT_PREC,
    GUARD_BITS,
    DomainError,
    Rational,
    exact_real,
    off_poles,
    recurrence_sum,
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


def _real_z(z) -> Fraction:
    """z exactly (numcore.exact_real), with |z| < 2^1024: round|z| and 2z count terms."""
    z = exact_real(z)
    if abs(z) >= 2**1024:
        raise DomainError("z lies beyond the float range")
    return z


def optimal_truncation(z) -> int:
    """Smallest-term index for a tail ~ n!/z^(n+1): round(|z|). eval_asym
    raises when it passes the order a series carries."""
    return round(abs(_real_z(z)))


def eval_asym(a: AsymptoticSeries, z, N: int, prec: int = DEFAULT_PREC) -> mpf:
    """front(z) - e^(exp_rho z) * sum_{n<N} tail_n z^(-n-1), for 0 <= N <= a.order."""
    if not 0 <= N <= a.order:
        raise DomainError(f"truncation {N} is outside 0..{a.order}, the available order")
    wp = prec + GUARD_BITS
    z = _real_z(z)
    c, d = (1 / z).as_integer_ratio()  # raises at z = 0
    ts = [exact_real(t) for t in a.tail_coeffs[:N]]
    D = math.lcm(*(t.denominator for t in ts))
    g, dk = 0, 1  # Horner in 1/z = c/d: the tail sum is g / (D d^N) at the end
    for t in reversed(ts):
        g, dk = c * (t.numerator * (D // t.denominator) * dk + g), dk * d
    with workprec(wp):
        zv = to_mpf(z, wp)
        acc = mpf(0)
        logz = mp.log(zv)
        for t in a.front_terms:
            acc += t.coefficient * zv ** to_mpf(-t.power, wp) * logz**t.log_power
        acc -= mp.e ** (a.exp_rho * zv) * to_mpf(Fraction(g, D * dk), wp)
        return +acc


def direct_E_eval(z, prec: int = DEFAULT_PREC, alpha: Rational | None = None) -> mpf:
    """Taylor sum of E_alpha(-z), or of the log instance E(-z) when alpha is
    None, at the exact value of a real z > 0, by ``numcore.recurrence_sum``.

    The ratio of t_n = (-z)^n / (n! (n + alpha)) is -z (n + alpha) / ((n+1)
    (n+1+alpha)), at most z/(n+1) <= 1/2 in size from max(2z, floor(-alpha)+1) on.
    """
    alpha = Fraction(0) if alpha is None else off_poles(alpha, "E_alpha")
    z = _real_z(z)
    if z <= 0:
        raise DomainError(f"direct summation needs real z > 0, got {z}")
    a, b = z.numerator, z.denominator
    p, q = alpha.numerator, alpha.denominator
    s = 0 if p else 1  # E(-z) is the alpha = 0 sum from its n = 1 term

    def step(n):
        n += s
        return [[-a * (n * q + p)]], b * (n + 1) * ((n + 1) * q + p)

    n0 = max(math.ceil(2 * z), math.floor(-alpha) + 1)
    return recurrence_sum(step, [(-a) ** s * q], b**s * (s * q + p), n0, prec + GUARD_BITS)


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

    The empirical exponent is :func:`kernels.decay_exponent`, the fit that
    ``limit_estimate`` makes, over the window (default [max(16, N/10), N)), with
    the limit taken from a trusted oracle rather than from the run itself: an
    exact rational, or an mpf read as its exact binary value.
    """
    from .kernels import decay_exponent  # here, so that asym-check does not load it

    values = run.values if hasattr(run, "values") else run
    N = len(values)
    if N < 200:
        raise DomainError("rate check needs at least 200 values")
    lo, hi = window if window is not None else (max(16, N // 10), N)
    if not 1 <= lo < hi <= N:
        raise DomainError(f"window {(lo, hi)} must satisfy 1 <= lo < hi <= {N}")
    slope = decay_exponent(values, exact_real(trusted_limit), lo, hi)
    if slope is None:
        raise DomainError("not enough points for a slope fit")
    return RateCheckReport(
        empirical_exponent=slope,
        predicted_exponent=float(predicted_exponent),
        tolerance=tolerance,
        window=(lo, hi),
        passed=abs(slope - float(predicted_exponent)) <= tolerance,
    )
