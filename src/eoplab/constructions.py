"""The five concrete approximation constructions, each computed several ways.

Sequences are produced by independent routes that must agree exactly:

* gamma family: closed-form sum over shifted binomials, order-3 recurrence,
  and series expansion of (1-z)^(-alpha-1) E_alpha(-z/(1-z));
* Euler-constant family: closed-form alternating sum, order-3 recurrence, and
  the series log(1-z)/(1-z) - (1-z)^(-1) E(-z/(1-z));
* diagonal rational approximants to exp and the convergents of e;
* the integer pair (U_k, V_k) attached to the Bessel-type ratio F(1)/F'(1),
  with the recurrence A_{k+1} = k A_k + A_{k-1}, whose minimal solution A_k is
  run backward from two direct sums (Gautschi) and checked against the forward
  run.

The exact kernels work on integer numerators over one common denominator and
build each output ``Fraction`` once: the closed routes and the Pade numerator
are binomial transforms of integer sequences, and the recurrence route unrolls
the recurrence derived from the generating ODE (``holonomic.unroll``). The
series routes return their numerators over the series denominator, unreduced:
the agreement gate reduces only the route it reports and checks every other
one against it by cross-multiplication. Disagreeing routes raise
:class:`RouteDisagreement`.

Limit and growth-model estimation work on the exact rational data: the limit
uses a smooth-window weighted tail mean (exact in rational arithmetic), which
handles the sqrt(n)-phase oscillation these sequences exhibit, with an Aitken
fallback for fast (eventually geometric) convergence.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from fractions import Fraction
from itertools import count

from mpmath import mp, mpf, workprec

from .numcore import (
    DEFAULT_PREC,
    DomainError,
    PolyQ,
    PrecisionError,
    Rational,
    RouteDisagreement,
    capped_sum,
    least_squares_line,
    to_mpf,
)

# The series and holonomic layers are imported inside the functions that run
# them, so that intseq, pade, e-convergents and fit load neither. A
# function-local import reads the module attribute when it runs, so a wrapper
# installed there (the benchmark's tracer) is still called.

__all__ = [
    "RouteDisagreement",
    "ApproximationRun",
    "LimitEstimate",
    "GrowthFit",
    "gamma_generating_ode",
    "gamma_coefficient_recurrence",
    "gamma_seed_values",
    "euler_generating_ode",
    "euler_coefficient_recurrence",
    "gamma_seq",
    "euler_seq",
    "pade_exp",
    "e_convergents",
    "bessel_f",
    "bessel_g",
    "intseq",
    "intseq_constants",
    "intseq_generating_check",
    "limit_estimate",
    "fit_growth",
]


# ---------------------------------------------------------------------------
# Result containers
# ---------------------------------------------------------------------------


LimitEstimate = namedtuple("LimitEstimate", "limit rate_exponent degenerate method")

GrowthFit = namedtuple("GrowthFit", "q u v sub_geometric factorial_order oscillatory",
                       defaults=(False, 0, False))
GrowthFit.__doc__ = "Parameters of |P_n| ~ q^n n^(-u-1) (log n)^v, modulus only."


class ApproximationRun:
    """An exact sequence run: its values, the limit and decay-rate estimates
    filled in after the run, and the run's metadata."""

    def __init__(self, label: str, values: list, limit: mpf | None = None,
                 rate_exponent: float | None = None,
                 error_model: GrowthFit | None = None, metadata: dict | None = None):
        self.label = label
        self.values = values
        self.limit = limit
        self.rate_exponent = rate_exponent
        self.error_model = error_model
        self.metadata = {} if metadata is None else metadata


# ---------------------------------------------------------------------------
# The two order-3 constructions: ODEs, recurrences, seed values
# ---------------------------------------------------------------------------


def gamma_generating_ode(alpha: Rational) -> DifferentialOperator:
    """Annihilator of (1-z)^(-alpha-1) E_alpha(-z/(1-z)), alpha instantiated."""
    from .holonomic import DifferentialOperator

    a = Fraction(alpha)
    p2 = PolyQ([0, 1, -3, 3, -1])
    p1 = PolyQ([1 + a, -5 - 4 * a, 8 + 5 * a, -4 - 2 * a])
    p0 = PolyQ([-1 - a - a * a, 2 + 4 * a + 2 * a * a, -2 - 3 * a - a * a])
    return DifferentialOperator([p0, p1, p2])


def gamma_coefficient_recurrence(alpha: Rational) -> LinearRecurrence:
    """Order-3 recurrence satisfied by the gamma-family coefficients, derived
    from :func:`gamma_generating_ode`."""
    from .holonomic import ode_to_recurrence

    return ode_to_recurrence(gamma_generating_ode(alpha))


def gamma_seed_values(alpha: Rational) -> tuple[Fraction, Fraction, Fraction]:
    """P_0 = 1/alpha, P_1 = (1+a+a^2)/(a(a+1)), P_2 = (4+5a+6a^2+4a^3+a^4)/(2a(a+1)(a+2))."""
    a = Fraction(alpha)
    p0 = 1 / a
    p1 = (1 + a + a * a) / (a * (a + 1))
    p2 = (4 + 5 * a + 6 * a**2 + 4 * a**3 + a**4) / (2 * a * (a + 1) * (a + 2))
    return p0, p1, p2


def euler_generating_ode() -> DifferentialOperator:
    """Annihilator of log(1-z)/(1-z) - (1-z)^(-1) E(-z/(1-z))."""
    from .holonomic import DifferentialOperator

    return DifferentialOperator(
        [PolyQ([-1, 2, -2]), PolyQ([1, -5, 8, -4]), PolyQ([0, 1, -3, 3, -1])]
    )


def euler_coefficient_recurrence() -> LinearRecurrence:
    """(n+3)^2 P_{n+3} - (3n^2+14n+17) P_{n+2} + (n+2)(3n+5) P_{n+1} - (n+1)(n+2) P_n = 0,
    derived from :func:`euler_generating_ode`."""
    from .holonomic import ode_to_recurrence

    return ode_to_recurrence(euler_generating_ode())


def _check_gamma_domain(alpha: Fraction) -> None:
    if alpha.denominator == 1 and alpha <= 0:
        raise DomainError(f"alpha={alpha} is a nonpositive integer")
    if alpha >= 1:
        raise DomainError(f"alpha={alpha} violates the convergence condition alpha < 1")


def _binomial_transform(a: list) -> list:
    """[sum_k binom(n, k) a_k for n < len(a)], by repeated sums of neighbours."""
    out = []
    while a:
        out.append(a[0])
        a = [x + y for x, y in zip(a, a[1:])]
    return out


def _gamma_closed(alpha: Fraction, N: int) -> list:
    # P_n = sum_k binom(n+alpha, k+alpha) (-1)^k / (k! (k+alpha)).  With
    # alpha = p/q and c_n = prod_{1<=j<=n} (p+jq) this is
    # c_n/(q^n n!) sum_k binom(n,k) E_k, E_k = (-1)^k q^(k+1) / (c_k (kq+p)),
    # and every E_k is an integer a_k over M = c_{N-1} lcm_k(kq+p).  With c_n
    # cancelled first, P_n = s_n / (q^n n! (c_{N-1}/c_n) lcm), s_n the transform.
    p, q = alpha.numerator, alpha.denominator
    lin = [k * q + p for k in range(N)]
    tail = [math.lcm(*lin)] * N  # tail[k] = lcm c_{N-1} / c_k
    for k in range(N - 2, -1, -1):
        tail[k] = tail[k + 1] * lin[k + 1]
    a = [(-1) ** k * q ** (k + 1) * (tail[k] // lin[k]) for k in range(N)]
    out = []
    scale = 1  # q^n n!
    for n, s in enumerate(_binomial_transform(a)):
        if n:
            scale *= q * n
        out.append(Fraction(s, scale * tail[n]))
    return out


def _gamma_series(alpha: Fraction, N: int) -> list:
    from .series import binomial_series, e_alpha_series, euler_substitution

    inner = euler_substitution(e_alpha_series(alpha, N))
    prod = binomial_series(alpha + 1, N) * inner
    return [(c, prod.den) for c in prod.nums]


def _gamma_recurrence(alpha: Fraction, N: int) -> list:
    from .holonomic import HolonomicSequence, unroll

    seq = HolonomicSequence(gamma_coefficient_recurrence(alpha), gamma_seed_values(alpha))
    return unroll(seq, N)


def _euler_closed(N: int) -> list:
    # P_n = sum_{k=1}^n (-1)^k binom(n,k) e_k with e_k = (k! - 1)/(k k!); every
    # e_k is an integer over M = lcm(1..N-1) (N-1)!
    lcm = math.lcm(*range(1, N))
    top = math.factorial(N - 1)
    a = [0]
    fact = 1
    for k in range(1, N):
        fact *= k
        a.append((-1) ** k * (fact - 1) * (lcm // k) * (top // fact))
    M = lcm * top
    return [Fraction(s, M) for s in _binomial_transform(a)]


def _euler_series(N: int) -> list:
    from .series import e_log_series, euler_substitution, log_over_one_minus_z, partial_sums

    inner = partial_sums(euler_substitution(e_log_series(N)))
    total = log_over_one_minus_z(N) - inner
    return [(c, total.den) for c in total.nums]


def _euler_recurrence(N: int) -> list:
    from .holonomic import HolonomicSequence, unroll

    seq = HolonomicSequence(euler_coefficient_recurrence(), (0, 0, Fraction(1, 4)))
    return unroll(seq, N)


_GAMMA_METHODS = {
    "closed": _gamma_closed,
    "recurrence": _gamma_recurrence,
    "series": _gamma_series,
}

_EULER_METHODS = {
    "closed": _euler_closed,
    "recurrence": _euler_recurrence,
    "series": _euler_series,
}


def gamma_seq(
    alpha: Rational, N: int, method: str = "all", prec: int = DEFAULT_PREC
) -> ApproximationRun:
    """Exact P_0..P_{N-1} converging to Gamma(alpha) for rational alpha < 1."""
    alpha = Fraction(alpha)
    _check_gamma_domain(alpha)
    routes = {name: functools.partial(fn, alpha) for name, fn in _GAMMA_METHODS.items()}
    return _run_routes(f"gamma(alpha={alpha})", "gamma_seq", routes, N, method, prec,
                       {"alpha": str(alpha)})


def euler_seq(N: int, method: str = "all", prec: int = DEFAULT_PREC) -> ApproximationRun:
    """Exact P_0..P_{N-1} converging to Euler's constant."""
    return _run_routes("euler", "euler_seq", _EULER_METHODS, N, method, prec, {})


def _run_routes(label: str, what: str, routes: dict, N: int, method: str, prec: int,
                extra: dict) -> ApproximationRun:
    """Run one route, or all of them under the exact-agreement gate, and
    estimate the limit.

    A route returns its values as rationals or, the series routes, as unreduced
    (numerator, denominator) pairs. Only the reported route is reduced (the
    closed one under "all"); every other one is checked against it exactly."""
    if N < 1:
        raise DomainError("need N >= 1")
    if method == "all":
        results = {name: fn(N) for name, fn in routes.items()}
        vals = _reduced(results["closed"])
        if not all(_agree(vals, r) for r in results.values()):
            raise RouteDisagreement(f"method disagreement in {what}")
        meta = {"methods": sorted(results), "exact_agreement": True}
    elif method in routes:
        vals = _reduced(routes[method](N))
        meta = {"methods": [method]}
    else:
        raise DomainError(f"unknown method {method!r}")
    meta.update({"N": N, "precision_bits": prec, **extra})
    run = ApproximationRun(label=label, values=vals, metadata=meta)
    if len(vals) >= 16:
        est = limit_estimate(vals, prec=prec)
        run.limit = est.limit
        run.rate_exponent = est.rate_exponent
        meta["limit_method"] = est.method
    return run


def _reduced(values: list) -> list:
    return [Fraction(*v) if isinstance(v, tuple) else Fraction(v) for v in values]


def _agree(vals: list, route: list) -> bool:
    """The reduced vals and the route's values are equal term by term: the
    same pair, or equal cross products."""
    pairs = [v if isinstance(v, tuple) else (v.numerator, v.denominator) for v in route]
    return len(pairs) == len(vals) and all(
        (a, b) == (x.numerator, x.denominator) or a * x.denominator == x.numerator * b
        for x, (a, b) in zip(vals, pairs))


# ---------------------------------------------------------------------------
# Rational approximants to exp and the convergents of e
# ---------------------------------------------------------------------------


def pade_exp(n: int) -> tuple[PolyQ, PolyQ]:
    """Degree-(n,n) rational approximant to exp.

    Q is the explicit alternating-binomial polynomial; P is defined as the
    degree-n truncation of Q(z) e^z, which makes Q(z)e^z - P(z) = O(z^(2n+1))
    by construction. The reflection P(z) = Q(-z) is a tested property, not
    the definition.
    """
    if n < 0:
        raise DomainError("need n >= 0")
    # k! q_k = (-1)^(n-k) binom(2n-k, n), and j! p_j = sum_k binom(j,k) k! q_k
    signed = [(-1) ** (n - k) * math.comb(2 * n - k, n) for k in range(n + 1)]
    facts = [math.factorial(k) for k in range(n + 1)]
    q = [Fraction(c, f) for c, f in zip(signed, facts)]
    p = [Fraction(c, f) for c, f in zip(_binomial_transform(signed), facts)]
    return PolyQ(p), PolyQ(q)


def _e_convergent_rows(N: int) -> list:
    """[(|n! P_n(1)|, |n! Q_n(1)|) for n = 1..N]: convergent numerators and
    denominators of e, unreduced, from u_{n+1} = (4n+2) u_n + u_{n-1} with
    u_0 = (1, 1) and u_1 = (3, 1)."""
    if N < 1:
        raise DomainError("need n >= 1")
    prev, cur = (1, 1), (3, 1)
    rows = [cur]
    for n in range(1, N):
        k = 4 * n + 2
        prev, cur = cur, (k * cur[0] + prev[0], k * cur[1] + prev[1])
        rows.append(cur)
    return rows


def e_convergents(n: int) -> tuple[int, int]:
    """(|n! P_n(1)|, |n! Q_n(1)|), an exact convergent numerator/denominator of e."""
    return _e_convergent_rows(n)[-1]


# ---------------------------------------------------------------------------
# The Bessel-type continued fraction data
# ---------------------------------------------------------------------------


def bessel_f(x, prec: int = DEFAULT_PREC, deriv: int = 0) -> mpf:
    """F(x) = sum_n x^n / n!^2 (or its derivative) by direct summation."""
    return _bessel_sum(x, prec, deriv, harmonic=False)


def bessel_g(x, prec: int = DEFAULT_PREC, deriv: int = 0) -> mpf:
    """G(x) = -2 sum_n H_n x^n / n!^2 (or its derivative)."""
    return _bessel_sum(x, prec, deriv, harmonic=True)


def _bessel_sum(x, prec: int, d: int, harmonic: bool) -> mpf:
    # t_{n+1}/t_n = x/((n+1-d)(n+1)): the terms peak near n = sqrt|x|, and from
    # n = d + ceil(2 sqrt|x|) on each is under 1/4 of the one before (3/8 with
    # the factor H_{n+1}/H_n <= 3/2), so past that index the first term below
    # 2^-wp bounds the tail. The largest term is under e^(2 sqrt|x|) < 2^(3 sqrt|x|),
    # so 3 (least + wp) terms reach 2^-wp. For x >= 0 no term is negative and the
    # result has prec correct bits. For x < 0 the terms alternate and cancel, so
    # that many more bits are carried: the error is then about 2^-prec absolute,
    # not relative, as the sums are J-type functions with real zeros (F(x) =
    # J0(2 sqrt|x|) vanishes at x = -1.4458...).
    root = 2 * math.sqrt(abs(x))
    least = math.ceil(root)
    wp = prec + 16 + (int(1.5 * root) + 1 if x < 0 else 0)
    with workprec(wp):
        acc = capped_sum(_bessel_terms(to_mpf(x, wp), d, harmonic), mpf(2) ** (-wp),
                         3 * (least + wp), "Bessel-type series", least=least)
        return +(-2 * acc if harmonic else acc)


def _bessel_terms(x: mpf, d: int, harmonic: bool):
    """t_n = x^(n-d) / ((n-d)! n!) for n = d, d+1, ..., times H_n if harmonic:
    the terms of F^(d)(x), or of G^(d)(x) / (-2)."""
    t = mpf(1) / math.factorial(d)
    h = mpf(0)
    for n in range(1, d + 1):
        h += mpf(1) / n
    for n in count(d):
        yield h * t if harmonic else t
        t = t * x / ((n + 1 - d) * (n + 1))
        h += mpf(1) / (n + 1)


# A: the minimal solution, by backward recurrence from two direct sums; U, V:
# the integer solutions from (U_0, U_1) = (0, 1) and (V_0, V_1) = (1, 0);
# recurrence_disagreement: max |A_backward - A_forward| over k <= kmax
IntSeqResult = namedtuple("IntSeqResult", "A U V recurrence_disagreement")


def _a_direct(k: int, wp: int) -> mpf:
    with workprec(wp):
        # 1/(n! (n+k)!) <= 1/n!^2 <= 2^-n for n >= 2, so wp + 2 terms reach 2^-wp
        acc = capped_sum(_a_terms(k), mpf(2) ** (-wp), wp + 2, "A_k series", least=5)
        return +((-1) ** k * acc)


def _a_terms(k: int):
    """1/(n! (n+k)!) for n = 0, 1, ..."""
    term = 1 / mp.factorial(k)
    for n in count(1):
        yield term
        term /= n * (n + k)


def intseq(kmax: int, prec: int = DEFAULT_PREC) -> IntSeqResult:
    """A_k for k <= kmax two ways, plus the integer companion solutions U_k, V_k.

    A_k = (-1)^k sum_n 1/(n! (n+k)!) is the minimal solution of
    A_{k+1} = k A_k + A_{k-1}, so it is computed by the backward recurrence
    A_{k-1} = A_{k+1} - k A_k from direct sums of A_{kmax+1} and A_kmax
    (Gautschi, SIAM Rev. 9, 1967): the two terms have the same sign, so no step
    cancels. The forward recurrence from direct sums of A_0 and A_1 is the
    check; ``recurrence_disagreement`` is the largest gap between the two runs.
    """
    if kmax < 2:
        raise DomainError("need kmax >= 2")
    # the forward run amplifies initial rounding by ~ V_k * k!, so pad; the
    # backward run and its seeds use the same wp, or their own rounding (and
    # the seeds' absolute stopping floor, as A_kmax ~ 1/kmax!) would swamp it
    amp = int(2 * math.lgamma(kmax + 1) / math.log(2)) + 32
    wp = prec + amp
    with workprec(wp):
        back = [_a_direct(kmax + 1, wp), _a_direct(kmax, wp)]
        for k in range(kmax, 0, -1):
            back.append(back[-2] - k * back[-1])
        A = back[:0:-1]  # A_0..A_kmax
        fwd = [_a_direct(0, wp), _a_direct(1, wp)]
        for k in range(1, kmax):
            fwd.append(k * fwd[k] + fwd[k - 1])
        disagreement = max(abs(a - b) for a, b in zip(A, fwd))
    U = [0, 1]
    V = [1, 0]
    for k in range(1, kmax):
        U.append(k * U[k] + U[k - 1])
        V.append(k * V[k] + V[k - 1])
    return IntSeqResult(
        A=tuple(A), U=tuple(U), V=tuple(V),
        recurrence_disagreement=disagreement,
    )


IntSeqConstants = namedtuple("IntSeqConstants", "a b c d wronskian f f_prime g g_prime")


def intseq_constants(prec: int = DEFAULT_PREC) -> IntSeqConstants:
    """The four connection constants over the denominator g f' - f^2 - f g'.

    The denominator equals (minus half) the wronskian of the two order-2
    solutions at the evaluation point and must be bounded away from zero.
    """
    wp = prec + 16
    f = bessel_f(1, wp)
    fp = bessel_f(1, wp, deriv=1)
    g = bessel_g(1, wp)
    gp = bessel_g(1, wp, deriv=1)
    with workprec(wp):
        w = g * fp - f * f - f * gp
        if abs(w) < mpf(2) ** (-prec // 2):
            raise PrecisionError("wronskian denominator not separated from zero")
        return IntSeqConstants(
            a=+(g / w), b=+(-f / w), c=+(-(f + gp) / w), d=+(fp / w),
            wronskian=+w, f=+f, f_prime=+fp, g=+g, g_prime=+gp,
        )


def intseq_generating_check(z, prec: int = DEFAULT_PREC) -> dict:
    """Absolute defects of the two generating-function identities at z.

    With W = g f' - f^2 - f g' and the constants of intseq_constants, the
    identities satisfied by the integer solutions read

        sum_k U_k z^k / k! = -a F(1-z) - b G(1-z) - b log(1-z) F(1-z)
        sum_k V_k z^k / k! =  c F(1-z) + d G(1-z) + d log(1-z) F(1-z).

    (The U-side signs are opposite to the V-side ones; both checks use the
    plain, unsigned integer sequences.)
    """
    wp = prec + 48
    consts = intseq_constants(wp)
    with workprec(wp):
        zv = to_mpf(z, wp)
        if not abs(zv) < 1:
            raise DomainError("the identity check needs |z| < 1")
        # 0 <= U_k, V_k <= k!, so a term is at most |z|^k, below 2^-wp by k = wp/(1-|z|)
        floor, cap = mpf(2) ** (-wp), 9 + int(wp / (1 - abs(zv)))
        sU = capped_sum(_egf_terms(0, 1, zv), floor, cap, "U generating series", least=8)
        sV = capped_sum(_egf_terms(1, 0, zv), floor, cap, "V generating series", least=8)
        Fz = bessel_f(1 - zv, wp)
        Gz = bessel_g(1 - zv, wp)
        logF = mp.log(1 - zv) * Fz
        rhsU = -consts.a * Fz - consts.b * Gz - consts.b * logF
        rhsV = consts.c * Fz + consts.d * Gz + consts.d * logF
        return {"U": +abs(sU - rhsU), "V": +abs(sV - rhsV)}


def _egf_terms(u0: int, u1: int, z: mpf):
    """u_k z^k / k! for the solution of u_{k+1} = k u_k + u_{k-1} from u0, u1."""
    t = mpf(1)  # z^k / k!
    for k in count(1):
        yield u0 * t
        u0, u1 = u1, k * u1 + u0
        t = t * z / k


# ---------------------------------------------------------------------------
# Limit and growth-model estimation
# ---------------------------------------------------------------------------


def _win_weight(i: int, width: int) -> int:
    # ((i+1)(width-i))^2 is (t(1-t))^2 on the grid t=(i+1)/(width+1), up to a
    # constant factor that cancels in the weighted mean
    return ((i + 1) * (width - i)) ** 2


def _aitken_tail(vals: list) -> Fraction | None:
    xs = list(vals)
    while len(xs) >= 3:
        nxt = []
        for i in range(len(xs) - 2):
            d2 = xs[i + 2] - xs[i + 1]
            d1 = xs[i + 1] - xs[i]
            if d2 == d1:
                continue
            nxt.append(xs[i + 2] - d2 * d2 / (d2 - d1))
        if not nxt:
            break
        xs = nxt
    return xs[-1] if xs else None


def limit_estimate(values: list, prec: int = DEFAULT_PREC) -> LimitEstimate:
    """Limit and empirical decay exponent of a convergent exact sequence.

    The limit is a smooth-window weighted mean of the last three quarters
    (exact rational arithmetic); for sequences whose differences decay
    super-polynomially an iterated Aitken pass on the tail is used instead.
    The rate exponent is the least-squares slope of log|P_n - limit| against
    log n over [N/10, N) (a narrower window is too noisy for sequences whose
    error carries a sqrt(n)-phase oscillation), or None when degenerate.
    """
    vals = [Fraction(v) for v in values]
    N = len(vals)
    if N < 16:
        raise DomainError("limit_estimate needs at least 16 values")
    if all(v == vals[0] for v in vals):
        return LimitEstimate(
            limit=to_mpf(vals[0], prec), rate_exponent=None,
            degenerate=True, method="constant",
        )
    method = "window"
    tail = vals[N // 4:]
    weights = [_win_weight(i, len(tail)) for i in range(len(tail))]
    # one integer sum over the common denominator of the tail
    den = math.lcm(*(v.denominator for v in tail))
    est = Fraction(sum(w * v.numerator * (den // v.denominator)
                       for w, v in zip(weights, tail)), den * sum(weights))
    step = max(1, N // 8)
    d_end = abs(vals[-1] - vals[-1 - step])
    d_mid = abs(vals[N // 2] - vals[N // 2 - step])
    if d_mid != 0 and d_end * (1 << 12) < d_mid:
        fast = _aitken_tail(vals[-min(N, 25):])
        if fast is not None:
            est = fast
            method = "aitken"
    elif d_mid == 0 and d_end == 0 and vals[-1] == vals[N // 2]:
        est = vals[-1]
        method = "tail-constant"
    # log|P_n - est| = log|num_n den_est - num_est den_n| - log(den_n den_est),
    # each log taken of an exact integer
    p, q = est.numerator, est.denominator
    xs, ys = [], []
    for n in range(max(16, N // 10), N):
        v = vals[n]
        d = abs(v.numerator * q - p * v.denominator)
        if d:
            xs.append(math.log(n))
            ys.append(math.log(d) - math.log(v.denominator * q))
    rate = least_squares_line(xs, ys)[0] if len(xs) >= 4 else None
    return LimitEstimate(
        limit=to_mpf(est, prec), rate_exponent=rate, degenerate=False, method=method,
    )


def _logabs(v: Fraction) -> float:
    with workprec(64):
        return float(mp.log(abs(to_mpf(v, 64))))


def _consecutive_log_ratios(vals: list, lo: int) -> list:
    out = []
    for n in range(lo, len(vals) - 1):
        if vals[n] != 0 and vals[n + 1] != 0:
            out.append(_logabs(vals[n + 1]) - _logabs(vals[n]))
    return out


def fit_growth(values: list, prec: int = DEFAULT_PREC) -> GrowthFit:
    """Fit |P_n| to q^n n^(-u-1) (log n)^v by successive ratio analysis.

    q comes from the trend of |P_{n+1}/P_n| (intercept of log-ratios against
    1/n for smooth data; an endpoint geometric mean anchored at local maxima
    when the modulus oscillates), then u from the log-log slope of |P_n|/q^n,
    then v in {0,1,2} by smallest least-squares residual. Sequences with
    ratios tending to zero are flagged sub-geometric and refit against
    n!-normalized values (factorial_order 1).
    """
    vals = [Fraction(v) for v in values]
    N = len(vals)
    if N < 32:
        raise DomainError("fit_growth needs at least 32 values")
    if all(v == 0 for v in vals[N // 2:]):
        raise DomainError("fit_growth needs an eventually nonzero sequence")
    lo = max(4, N // 2)
    idx = [n for n in range(lo, N) if vals[n] != 0]
    la = {n: _logabs(vals[n]) for n in idx}
    ratios = [
        la[idx[i + 1]] - la[idx[i]]
        for i in range(len(idx) - 1)
        if idx[i + 1] == idx[i] + 1
    ]
    if not ratios:
        raise DomainError("too many zeros in the fit window")
    med = sorted(ratios)[len(ratios) // 2]
    if med < math.log(0.05):
        # Ratio heading to zero: try the factorial normalization n!^(1/d),
        # d = 1, and keep it only if it actually stabilizes the ratios.
        normalized = [v * math.factorial(n) for n, v in enumerate(vals)]
        nr = _consecutive_log_ratios(normalized, lo)
        if nr and (max(nr) - min(nr)) < (max(ratios) - min(ratios)):
            inner = fit_growth(normalized, prec)
            return GrowthFit(
                q=inner.q, u=inner.u, v=inner.v,
                sub_geometric=True, factorial_order=1,
                oscillatory=inner.oscillatory,
            )
    spread = max(ratios) - min(ratios)
    oscillatory = spread > math.log(4) or len(idx) < (N - lo)
    if not oscillatory:
        # log r_n = log q - (u+1)/n + O(1/n^2): intercept of LS against 1/n
        xs = [1.0 / idx[i] for i in range(len(idx) - 1) if idx[i + 1] == idx[i] + 1]
        _, logq = least_squares_line(xs, ratios)
    else:
        quarter = max(1, len(idx) // 4)
        j1 = max(idx[:quarter], key=lambda n: la[n])
        j2 = max(idx[-quarter:], key=lambda n: la[n])
        logq = (la[j2] - la[j1]) / (j2 - j1)
    best = None
    for v in (0, 1, 2):
        xs, ys = [], []
        for n in idx:
            xs.append(math.log(n))
            ys.append(la[n] - n * logq - v * math.log(math.log(n)))
        slope, icpt = least_squares_line(xs, ys)
        res = sum((y - slope * x - icpt) ** 2 for x, y in zip(xs, ys))
        if best is None or res < best[0]:
            best = (res, slope, v)
    return GrowthFit(
        q=math.exp(logq), u=-best[1] - 1, v=best[2], oscillatory=oscillatory,
    )
