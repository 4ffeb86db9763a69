"""The five concrete approximation constructions, each computed several ways.

Sequences are produced by independent routes that must agree exactly:

* the gamma and Euler-constant families, one construction
  P_n = [z^n] (1-z)^(-beta) F(-z/(1-z)) with F = sum_k f_k x^k: gamma has
  beta = alpha + 1 and k! f_k = 1/(k+alpha), Euler beta = 1 and
  k! f_k = (k! - 1)/k. One route table serves both: the closed sum
  P_n = sum_k (-1)^k binom(n+beta-1, n-k) f_k (``_closed``), the order-3
  recurrence of gamma's generating ODE (Euler's is that ODE at alpha = 0)
  seeded with the first three closed terms, and the partial sums
  P_n = sum_{k<=n} L_k^(alpha)(1)/(k+alpha) of ``series.laguerre_sums``
  (Euler's sequence is that sum at alpha = 0, negated), which share nothing
  with the closed route. The ODE is typed in until an operator algebra can
  derive it;
* diagonal rational approximants to exp and the convergents of e;
* the integer pair (U_k, V_k) attached to the Bessel-type ratio F(1)/F'(1),
  with the recurrence A_{k+1} = k A_k + A_{k-1}, whose minimal solution
  A_k = (-1)^k F^(k)(1) is run backward from two direct sums (Gautschi) and
  checked against the forward run. Every value of F, G and their derivatives,
  A_k included, is summed exactly by ``numcore.recurrence_sum`` and rounded once.

The kernels work on integers: the closed route and the Pade numerator are
binomial transforms (``kernels.binomial_transform``), the series route runs
the Laguerre recurrence, and the recurrence route ``holonomic.unroll``. With
beta = s/q and k! f_k = u_k/v_k, D_n = q^n n! lcm_{k<=n} |v_k| is a multiple
of every reduced denominator R_n, and every route works at that one scale:
the series and recurrence routes return the integers D_n P_n, the closed
route (s_n, m_n) with s_n = m_n D_n P_n. R_n must divide D_n under every
method, and the gate needs no division (``_run_routes``); disagreeing routes
raise :class:`RouteDisagreement`. A run is one immutable :class:`ApproximationRun`.

Limit and growth-model estimation work on the exact rational data: the limit
uses a smooth-window weighted tail mean, which handles the sqrt(n)-phase
oscillation these sequences exhibit; for fast (eventually geometric)
convergence it is one Aitken Delta^2 step on the last three values instead (or
the last value, where the tail is not geometric). The mean is formed in fixed
point and printed as the exact mean rounded once; the exact rational sum runs
only when the fixed-point bracket cannot settle that rounding. The decay
exponent of |P_n - limit| is :func:`kernels.decay_exponent`, the fit that
``asymlab.transfer_rate_check`` makes against a trusted limit.
"""

from __future__ import annotations

import functools
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
    PrecisionError,
    Rational,
    RouteDisagreement,
    exact_real,
    off_poles,
    recurrence_sum,
    to_mpf,
)

# The series and holonomic layers are imported inside the functions that run
# them, so that intseq, pade, e-convergents and fit load neither; the kernels
# module likewise, so that intseq does not load it. A function-local import
# reads the module attribute when it runs, so a wrapper installed there (the
# benchmark's tracer) is still called.

__all__ = [
    "RouteDisagreement",
    "ApproximationRun",
    "LimitEstimate",
    "GrowthFit",
    "gamma_generating_ode",
    "gamma_coefficient_recurrence",
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


LimitEstimate = namedtuple("LimitEstimate", "limit rate_exponent method")

GrowthFit = namedtuple("GrowthFit", "q u v sub_geometric factorial_order oscillatory",
                       defaults=(False, 0, False))
GrowthFit.__doc__ = "Parameters of |P_n| ~ q^n n^(-u-1) (log n)^v, modulus only."


ApproximationRun = namedtuple("ApproximationRun", "values limit rate_exponent metadata")
ApproximationRun.__doc__ = """An exact sequence run: its values, the limit and decay-rate
estimates (None for fewer than 16 values), and the run's metadata."""


# ---------------------------------------------------------------------------
# The two order-3 constructions: ODEs, recurrences, and one engine
# ---------------------------------------------------------------------------


def gamma_generating_ode(alpha: Rational) -> DifferentialOperator:
    """Annihilator of (1-z)^(-alpha-1) E_alpha(-z/(1-z)), alpha instantiated."""
    from .holonomic import DifferentialOperator
    from .kernels import PolyQ

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


@functools.cache
def euler_coefficient_recurrence() -> LinearRecurrence:
    """(n+3)^2 P_{n+3} - (3n^2+14n+17) P_{n+2} + (n+2)(3n+5) P_{n+1} - (n+1)(n+2) P_n = 0,
    gamma's at alpha = 0, once per process: log(1-z)/(1-z) - (1-z)^(-1) E(-z/(1-z))
    satisfies that ODE up to the polynomial z, which no step from P_0..P_2 reads."""
    return gamma_coefficient_recurrence(0)


def _closed(beta: Fraction, terms, N: int) -> list:
    """[(s_n, m_n) for n < N], P_n = s_n/(D_n m_n) (``_denominators``) the sum over
    k of (-1)^k binom(n+beta-1, n-k) u_k / (v_k k!), (u_k, v_k) = terms(N)[k]."""
    from .kernels import binomial_transform

    # With beta = s/q and c_n = prod_{j<n} (s+jq) (nonzero unless beta is an
    # integer <= 0), binom(n+beta-1, n-k) = (c_n/c_k) / (q^(n-k) (n-k)!), so
    # D_n P_n = sum_k binom(n,k) (-1)^k q^k (c_n/c_k) u_k (L_n/v_k). Times the
    # cofactor m_n = (c_{N-1}/c_n) (L_{N-1}/L_n), term k no longer depends on n:
    # it is a_k = (-1)^k q^k u_k m_k (L_k/v_k), and s_n is the transform.
    s, q = beta.numerator, beta.denominator
    pairs = terms(N)
    lcm = list(accumulate((abs(v) for _, v in pairs), math.lcm))  # L_n = lcm_{k<=n} |v_k|
    m = [1] * N  # a suffix product
    for n in range(N - 2, -1, -1):
        m[n] = m[n + 1] * (s + n * q) * (lcm[n + 1] // lcm[n])
    a = [(-1) ** k * q**k * u * mk * (L // v)
         for k, ((u, v), mk, L) in enumerate(zip(pairs, m, lcm))]
    return list(zip(binomial_transform(a), m))


def _gamma_series(alpha: Fraction, N: int) -> list:
    from .series import laguerre_sums

    return laguerre_sums(alpha.numerator, alpha.denominator, N)


def _euler_terms(N: int) -> list:
    # k! f_k = (k! - 1)/k, and f_0 = 0
    return [(f - 1, k or 1) for k, f in enumerate(accumulate(range(1, N), mul, initial=1))]


def _euler_series(N: int) -> list:
    from .series import laguerre_sums

    return [-s for s in laguerre_sums(0, 1, N)]


# beta, terms(N) = [(u_k, v_k) for k < N] with k! f_k = u_k/v_k, and its own routes
_Family = namedtuple("_Family", "beta terms series recurrence")


def _denominators(family: _Family, N: int) -> list:
    """[D_n = q^n n! lcm_{k<=n} |v_k| for n < N], beta = s/q: one running product
    of the small ratios D_n/D_{n-1} = q n L_n/L_{n-1}, L_n = lcm_{k<=n} |v_k|."""
    L = list(accumulate((abs(v) for _, v in family.terms(N)), math.lcm, initial=1))
    q = family.beta.denominator
    return list(accumulate((max(q * n, 1) * (L[n + 1] // L[n]) for n in range(N)), mul))


def _quotient(pair: tuple) -> int:
    """The closed route's D_n P_n = s_n/m_n; a remainder means R_n does not divide D_n."""
    t, r = divmod(*pair)
    if r:
        raise RouteDisagreement("s_n is no multiple of m_n")
    return t


def _recurrence_route(family: _Family, D: list) -> list:
    from .holonomic import unroll

    rec = family.recurrence()
    seeds = _closed(family.beta, family.terms, rec.order)
    return unroll(rec, list(map(_quotient, seeds)), D)


_METHODS = {
    "closed": lambda family, D: _closed(family.beta, family.terms, len(D)),
    "recurrence": _recurrence_route,
    "series": lambda family, D: family.series(len(D)),
}


def gamma_seq(
    alpha: Rational, N: int, method: str = "all", prec: int = DEFAULT_PREC
) -> ApproximationRun:
    """Exact P_0..P_{N-1} converging to Gamma(alpha) for rational alpha < 1."""
    alpha = off_poles(alpha, "Gamma")
    if alpha >= 1:
        raise DomainError(f"alpha={alpha} violates the convergence condition alpha < 1")
    p, q = alpha.numerator, alpha.denominator
    family = _Family(alpha + 1, lambda n: [(q, k * q + p) for k in range(n)],  # 1/(k+alpha)
                     functools.partial(_gamma_series, alpha),
                     functools.partial(gamma_coefficient_recurrence, alpha))
    return _run_routes("gamma_seq", family, N, method, prec, {"alpha": str(alpha)})


def euler_seq(N: int, method: str = "all", prec: int = DEFAULT_PREC) -> ApproximationRun:
    """Exact P_0..P_{N-1} converging to Euler's constant."""
    family = _Family(Fraction(1), _euler_terms, _euler_series, euler_coefficient_recurrence)
    return _run_routes("euler_seq", family, N, method, prec, {})


def _run_routes(what: str, family: _Family, N: int, method: str, prec: int,
                extra: dict) -> ApproximationRun:
    """Run one route, or all of them under the exact-agreement gate, and
    estimate the limit. Alone, a route reports the integers T_n = D_n P_n (the
    closed route s_n // m_n), and a term that is no integer raises. Under "all"
    the recurrence route's T_n must be the series route's S_n (Euler's is
    gamma's kernel at alpha = 0, negated) and each closed s_n must be S_n m_n,
    with no division. The one reduction is Fraction(T_n, D_n), in ``_reduced``."""
    if N < 1:
        raise DomainError("need N >= 1")
    if method != "all" and method not in _METHODS:
        raise DomainError(f"unknown method {method!r}")
    names = sorted(_METHODS) if method == "all" else [method]
    D = _denominators(family, N)
    try:
        routes = {name: _METHODS[name](family, D) for name in names}
        if method == "closed":
            routes["closed"] = list(map(_quotient, routes["closed"]))
    except RouteDisagreement:
        raise RouteDisagreement(f"a denominator of {what} does not divide D_n") from None
    meta = {"methods": names}
    if method == "all":
        if not _gate(routes["recurrence"], routes["closed"], routes["series"]):
            raise RouteDisagreement(f"method disagreement in {what}")
        meta["exact_agreement"] = True
    vals = _reduced(routes["series" if method == "all" else method], D)
    meta.update({"N": N, "precision_bits": prec, **extra})
    if len(vals) < 16:
        return ApproximationRun(vals, None, None, meta)
    est = limit_estimate(vals, prec=prec)
    meta["limit_method"] = est.method
    return ApproximationRun(vals, est.limit, est.rate_exponent, meta)


def _reduced(T: list, D: list) -> list:
    return list(map(Fraction, T, D))


def _gate(T: list, closed: list, S: list) -> bool:
    """Recurrence and series give the same D_n P_n, and each closed s_n is it times m_n."""
    return T == S and len(closed) == len(S) and all(s == x * m for (s, m), x in zip(closed, S))


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
    from .kernels import PolyQ, binomial_transform

    if n < 0:
        raise DomainError("need n >= 0")
    # k! q_k = (-1)^(n-k) binom(2n-k, n), and j! p_j = sum_k binom(j,k) k! q_k
    signed = [(-1) ** (n - k) * math.comb(2 * n - k, n) for k in range(n + 1)]
    facts = [math.factorial(k) for k in range(n + 1)]
    q = [Fraction(c, f) for c, f in zip(signed, facts)]
    p = [Fraction(c, f) for c, f in zip(binomial_transform(signed), facts)]
    return PolyQ(p), PolyQ(q)


def e_convergents(N: int) -> list:
    """[(|n! P_n(1)|, |n! Q_n(1)|) for n = 1..N]: convergent numerators and
    denominators of e, in lowest terms (both odd, with cross differences +-2),
    from u_{n+1} = (4n+2) u_n + u_{n-1}, u_0 = (1, 1) and u_1 = (3, 1)."""
    if N < 1:
        raise DomainError("need n >= 1")
    prev, cur = (1, 1), (3, 1)
    rows = [cur]
    for n in range(1, N):
        k = 4 * n + 2
        prev, cur = cur, (k * cur[0] + prev[0], k * cur[1] + prev[1])
        rows.append(cur)
    return rows


# ---------------------------------------------------------------------------
# The Bessel-type continued fraction data
# ---------------------------------------------------------------------------


def bessel_f(x, prec: int = DEFAULT_PREC, deriv: int = 0) -> mpf:
    """F(x) = sum_n x^n / n!^2 (or its derivative) at the exact value of a real x."""
    return _bessel_sum(x, prec, deriv, harmonic=False)


def bessel_g(x, prec: int = DEFAULT_PREC, deriv: int = 0) -> mpf:
    """G(x) = -2 sum_n H_n x^n / n!^2 (or its derivative), likewise."""
    return _bessel_sum(x, prec, deriv, harmonic=True)


def _bessel_sum(x, prec: int, d: int, harmonic: bool) -> mpf:
    # F^(d)(x) = sum_m u_m and G^(d)(x) = -2 sum_m u_m H_(m+d), u_m = x^m / (m! (m+d)!).
    # With x = p/q and k = m+1+d, u_(m+1) = u_m p / (q (m+1) k) and H_k = H_(m+d) + 1/k
    # step G's state (u_m H_(m+d), u_m). The ratio x / ((m+1) k), times H_k / H_(m+d)
    # <= 3/2 for G (m + d >= 1), is at most 1/2 in size once (m+1)^2 >= 3|x|; that
    # n0 is at least 1 unless x = 0, where every term past the first is 0.
    if d < 0:
        raise DomainError(f"need deriv >= 0, got {d}")
    x = exact_real(x)
    p, q = x.numerator, x.denominator
    h = sum(Fraction(1, n) for n in range(1, d + 1))  # H_d
    start, den = ([-2 * h.numerator, -2 * h.denominator], h.denominator) if harmonic else ([1], 1)

    def step(m):
        k = m + 1 + d
        if harmonic:
            return [[p * k, p], [0, p * k]], q * (m + 1) * k * k
        return [[p]], q * (m + 1) * k

    n0 = math.isqrt(math.ceil(3 * abs(x)))
    return recurrence_sum(step, start, den * math.factorial(d), n0, prec + GUARD_BITS)


# A: the minimal solution, by backward recurrence from two direct sums; U, V:
# the integer solutions from (U_0, U_1) = (0, 1) and (V_0, V_1) = (1, 0);
# recurrence_disagreement: max |A_backward - A_forward| over k <= kmax
IntSeqResult = namedtuple("IntSeqResult", "A U V recurrence_disagreement")


def intseq(kmax: int, prec: int = DEFAULT_PREC) -> IntSeqResult:
    """A_k for k <= kmax two ways, plus the integer companion solutions U_k, V_k.

    A_k = (-1)^k sum_n 1/(n! (n+k)!) = (-1)^k F^(k)(1) is the minimal solution of
    A_{k+1} = k A_k + A_{k-1}, so it is computed by the backward recurrence
    A_{k-1} = A_{k+1} - k A_k from direct sums of A_{kmax+1} and A_kmax
    (Gautschi, SIAM Rev. 9, 1967): the two terms have the same sign, so no step
    cancels. The forward recurrence from direct sums of A_0 and A_1 is the
    check; ``recurrence_disagreement`` is the largest gap between the two runs.
    """
    if kmax < 2:
        raise DomainError("need kmax >= 2")
    # pad for the forward run, which amplifies its seeds' rounding by ~ V_k k!;
    # the backward run shares wp, so the disagreement measures the forward run
    wp = prec + int(2 * math.lgamma(kmax + 1) / math.log(2)) + 32

    def direct(k: int) -> mpf:  # A_k = (-1)^k F^(k)(1), rounded to wp
        return (-1) ** k * bessel_f(1, wp - GUARD_BITS, k)

    with workprec(wp):
        back = [direct(kmax + 1), direct(kmax)]
        for k in range(kmax, 0, -1):
            back.append(back[-2] - k * back[-1])
        A = back[:0:-1]  # A_0..A_kmax
        fwd = [direct(0), direct(1)]
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
    wp = prec + GUARD_BITS
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
    plain, unsigned integer sequences.) The exact U/V sums take about
    K = (wp + 4) ln 2 / (-ln |z|) terms, wp = prec + 48 (K ~ 310 at |z| = 1/2,
    prec = 256), at a cost quadratic in K: about 1 s at K = 4096. Past that
    cap, as |z| -> 1 or at a large prec, the check raises DomainError.
    """
    z = exact_real(z)
    if not abs(z) < 1:
        raise DomainError("the identity check needs |z| < 1")
    wp = prec + 48
    decay = math.log(z.denominator) - math.log(abs(z.numerator)) if z else math.inf  # -ln|z|
    if (wp + 4) * math.log(2) > 4096 * decay:
        raise DomainError(f"the identity check at z={z} needs more than 4096 terms")
    consts = intseq_constants(wp)
    with workprec(wp):
        zv = to_mpf(z, wp)
        sU, sV = _egf_sums(z, wp)
        Fz = bessel_f(1 - z, wp)  # at 1 - z exactly
        Gz = bessel_g(1 - z, wp)
        logF = mp.log(1 - zv) * Fz
        rhsU = -consts.a * Fz - consts.b * Gz - consts.b * logF
        rhsV = consts.c * Fz + consts.d * Gz + consts.d * logF
        return {"U": +abs(to_mpf(sU, wp) - rhsU), "V": +abs(to_mpf(sV, wp) - rhsV)}


def _egf_sums(z: Fraction, wp: int) -> tuple:
    """sum_{k<K} u_k z^k/k! exactly for u = U and V (u_{k+1} = k u_k + u_{k-1}
    from 0, 1 and from 1, 0). As 0 <= u_k <= k!, the rest is at most
    |z|^K/(1 - |z|), and K is the first count that makes it <= 2^-(wp+4)."""
    p, q = z.numerator, z.denominator
    sU, sV, den, pk, qk, k = 0, 1, 1, 1, 1, 0  # sums over den = q^k k!; p^k, q^k
    U, U1, V, V1 = 0, 1, 1, 0  # u_k, u_{k+1} of each
    while (abs(p * pk) << (wp + 4)) > qk * (q - abs(p)):
        k += 1
        U, U1, V, V1 = U1, k * U1 + U, V1, k * V1 + V
        pk, qk, den = pk * p, qk * q, den * k * q
        sU, sV = sU * k * q + U * pk, sV * k * q + V * pk
    return Fraction(sU, den), Fraction(sV, den)


# ---------------------------------------------------------------------------
# Limit and growth-model estimation
# ---------------------------------------------------------------------------


def _win_weight(i: int, width: int) -> int:
    # ((i+1)(width-i))^2 is (t(1-t))^2 on the grid t=(i+1)/(width+1), up to a
    # constant factor that cancels in the weighted mean
    return ((i + 1) * (width - i)) ** 2


def limit_estimate(values: list, prec: int = DEFAULT_PREC) -> LimitEstimate:
    """Limit and empirical decay exponent of a convergent exact sequence.

    For sequences whose differences decay super-polynomially the limit is one
    Aitken Delta^2 step on the last three values, exact for a geometric tail
    L + c r^n. The step is taken when the last two difference ratios are
    equal, or grow within (0, 1) (it then falls short of the limit rather than
    past it); otherwise the limit is the last value. Any other sequence gets a
    smooth-window weighted mean of its last three quarters, formed only then,
    in fixed point (:func:`kernels.weighted_mean`): its printed value is the
    exact mean rounded once to ``prec`` bits, taken from the fixed-point
    bracket when both ends round alike and from the exact rational sum when
    they do not. The rate exponent is :func:`kernels.decay_exponent` against
    that limit over [max(16, N/10), N) (a narrower window is too noisy for
    sequences whose error carries a sqrt(n)-phase oscillation), or None for a
    constant sequence (method "constant").
    """
    from .kernels import Bracket, decay_exponent, weighted_mean

    vals = [v if isinstance(v, Fraction) else Fraction(v) for v in values]
    N = len(vals)
    if N < 16:
        raise DomainError("limit_estimate needs at least 16 values")
    if all(v == vals[0] for v in vals):
        return LimitEstimate(
            limit=to_mpf(vals[0], prec), rate_exponent=None, method="constant",
        )
    step = max(1, N // 8)
    d_end = abs(vals[-1] - vals[-1 - step])
    d_mid = abs(vals[N // 2] - vals[N // 2 - step])
    if d_mid != 0 and d_end * (1 << 12) < d_mid:
        z, a, b, c = vals[-4:]
        est, method = c, "last-value"
        if a != z and b != a:
            r, s = (b - a) / (a - z), (c - b) / (b - a)
            if r == s != 1 or 0 < r <= s < 1:
                est, method = c - (c - b) ** 2 / (c - 2 * b + a), "aitken"
    elif d_mid == 0 and d_end == 0 and vals[-1] == vals[N // 2]:
        est, method = vals[-1], "tail-constant"
    else:
        tail = vals[N // 4:]
        est = weighted_mean(tail, [_win_weight(i, len(tail)) for i in range(len(tail))], prec)
        limit, method = est.rounded(prec), "window"
        if limit is None:
            est = est.exact()
    if not isinstance(est, Bracket):
        limit = to_mpf(est, prec)
    return LimitEstimate(
        limit=limit, rate_exponent=decay_exponent(vals, est, max(16, N // 10), N),
        method=method,
    )


def _logabs(v: Fraction) -> float:
    with workprec(64):
        return float(mp.log(abs(to_mpf(v, 64))))


def _log_ratios(vals: list, lo: int) -> tuple:
    """The indices n >= lo with P_n != 0, log|P_n| at each, and log|P_{n+1}/P_n|
    over the consecutive pairs among them."""
    idx = [n for n in range(lo, len(vals)) if vals[n] != 0]
    la = {n: _logabs(vals[n]) for n in idx}
    return idx, la, [la[m] - la[n] for n, m in zip(idx, idx[1:]) if m == n + 1]


def fit_growth(values: list) -> GrowthFit:
    """Fit |P_n| to q^n n^(-u-1) (log n)^v by successive ratio analysis.

    q comes from the trend of |P_{n+1}/P_n| (intercept of log-ratios against
    1/n for smooth data; an endpoint geometric mean anchored at local maxima
    when the modulus oscillates), then u from the log-log slope of |P_n|/q^n,
    then v in {0,1,2} by smallest least-squares residual. Sequences with
    ratios tending to zero are flagged sub-geometric and refit against
    n!-normalized values; each refit adds one to factorial_order.
    """
    from .kernels import least_squares_line

    vals = [Fraction(v) for v in values]
    N = len(vals)
    if N < 32:
        raise DomainError("fit_growth needs at least 32 values")
    if all(v == 0 for v in vals[N // 2:]):
        raise DomainError("fit_growth needs an eventually nonzero sequence")
    lo = max(4, N // 2)
    idx, la, ratios = _log_ratios(vals, lo)
    if not ratios:
        raise DomainError("too many zeros in the fit window")
    med = sorted(ratios)[len(ratios) // 2]
    if med < math.log(0.05):
        # Ratio heading to zero: multiply by n! and refit, but only if that
        # stabilizes the ratios; 1/n!^d recurses d times.
        normalized = [v * math.factorial(n) for n, v in enumerate(vals)]
        nr = _log_ratios(normalized, lo)[2]
        if nr and (max(nr) - min(nr)) < (max(ratios) - min(ratios)):
            inner = fit_growth(normalized)
            return inner._replace(sub_geometric=True,
                                  factorial_order=inner.factorial_order + 1)
    spread = max(ratios) - min(ratios)
    oscillatory = spread > math.log(4) or len(idx) < (N - lo)
    if not oscillatory:
        # log r_n = log q - (u+1)/n + O(1/n^2): intercept of LS against 1/n
        xs = [1.0 / n for n, m in zip(idx, idx[1:]) if m == n + 1]
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
