import functools
import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf, workprec

from eoplab import constructions
from eoplab.kernels import PolyQ, decay_exponent
from eoplab.numcore import DomainError, RouteDisagreement, to_mpf
from eoplab.asymlab import transfer_rate_check
from eoplab.constructions import (
    _win_weight,
    bessel_f,
    bessel_g,
    e_convergents,
    euler_seq,
    fit_growth,
    gamma_seq,
    intseq,
    intseq_constants,
    intseq_generating_check,
    limit_estimate,
    pade_exp,
)
from eoplab.gammalab import gamma_value
from eoplab.series import exp_series


def cf_convergents(partial_quotients):
    """Convergents p_k/q_k of the simple continued fraction [a_0; a_1, ...]."""
    p_prev, p = 1, partial_quotients[0]
    q_prev, q = 0, 1
    out = [F(p, q)]
    for a in partial_quotients[1:]:
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        out.append(F(p, q))
    return out


def e_cf_quotients(count):
    """[2; 1, 2, 1, 1, 4, 1, 1, 6, ...] truncated to ``count`` quotients."""
    out = [2]
    for m in range(1, count):
        out.extend((1, 2 * m, 1))
    return out[:count]


def gamma_seed_formulas(a):
    """P_0 = 1/a, P_1 = (1+a+a^2)/(a(a+1)), P_2 = (4+5a+6a^2+4a^3+a^4)/(2a(a+1)(a+2))."""
    return [1 / a, (1 + a + a * a) / (a * (a + 1)),
            (4 + 5 * a + 6 * a**2 + 4 * a**3 + a**4) / (2 * a * (a + 1) * (a + 2))]


def test_gamma_seed_values_against_formulas():
    for alpha in (F(1, 2), F(1, 3), F(-5, 7)):
        for method in ("closed", "series", "recurrence"):
            assert gamma_seq(alpha, 3, method=method).values == gamma_seed_formulas(alpha)
    assert gamma_seed_formulas(F(1, 2)) == [F(2), F(7, 3), F(137, 60)]


def test_euler_seed_values():
    for method in ("closed", "series", "recurrence"):
        assert euler_seq(4, method=method).values == [0, 0, F(1, 4), F(17, 36)]


def test_gamma_domain_errors():
    for bad in (F(3, 2), F(1), F(0), F(-2)):
        with pytest.raises(DomainError):
            gamma_seq(bad, 10)


def test_triple_agreement_small():
    for alpha in (F(1, 2), F(1, 3), F(2, 3), F(-1, 2)):
        run = gamma_seq(alpha, 60, method="all")
        assert run.metadata["exact_agreement"]
    run = euler_seq(60, method="all")
    assert run.metadata["exact_agreement"]


def _scaled(route):
    """The route with each pair as an equal pair (2 s, 2 m) or (2 num, 2 den);
    the series route's integers D_n P_n have no other form over D_n, and are
    unreduced already."""
    return lambda *args: [(2 * v[0], 2 * v[1]) if isinstance(v, tuple) else v
                          for v in route(*args)]


def _off_by_one(route, at):
    """The route with numerator `at` one too large."""
    def broken(*args):
        vals = route(*args)
        v = vals[at]
        vals[at] = (v[0] + 1, v[1]) if isinstance(v, tuple) else v + 1
        return vals
    return broken


@pytest.mark.parametrize("name", ["closed", "series", "recurrence"])
def test_gate_accepts_equal_unreduced_values(monkeypatch, name):
    want_gamma = gamma_seq(F(-5, 7), 40, method="closed").values
    want_euler = euler_seq(40, method="closed").values
    monkeypatch.setitem(constructions._METHODS, name, _scaled(constructions._METHODS[name]))
    for run, want in ((gamma_seq(F(-5, 7), 40), want_gamma), (euler_seq(40), want_euler)):
        assert run.metadata["exact_agreement"] is True
        assert run.values == want
        assert all(type(v) is F for v in run.values)
    # reported alone, the unreduced route is reduced
    alone = gamma_seq(F(-5, 7), 40, method=name).values
    assert [(v.numerator, v.denominator) for v in alone] == \
        [(v.numerator, v.denominator) for v in want_gamma]


@pytest.mark.parametrize("name", ["closed", "series", "recurrence"])
@pytest.mark.parametrize("at", [0, 17, 39])
def test_gate_rejects_one_numerator_off_by_one(monkeypatch, name, at):
    monkeypatch.setitem(constructions._METHODS, name, _off_by_one(constructions._METHODS[name], at))
    with pytest.raises(RouteDisagreement):
        gamma_seq(F(1, 3), 40)
    with pytest.raises(RouteDisagreement):
        euler_seq(40)


def test_all_reports_the_values_of_every_single_route():
    for alpha in (F(1, 3), F(-5, 7), F(-29, 12)):
        values = gamma_seq(alpha, 40).values
        assert all(type(v) is F for v in values)
        for method in ("closed", "series", "recurrence"):
            assert gamma_seq(alpha, 40, method=method).values == values
    values = euler_seq(40).values
    assert all(type(v) is F for v in values)
    for method in ("closed", "series", "recurrence"):
        assert euler_seq(40, method=method).values == values


def _fractions_built(monkeypatch, fn, *args):
    """fn(*args) and the number of Fractions it constructed."""
    new, built = F.__new__, []

    def counting(cls, *a, **kw):
        built.append(cls)
        return new(cls, *a, **kw)

    with monkeypatch.context() as m:
        m.setattr(F, "__new__", staticmethod(counting))
        out = fn(*args)
    return out, len(built)


def test_all_builds_the_fractions_of_the_recurrence_route_alone(monkeypatch):
    # the closed and series routes and the gate build no Fraction: at N < 16
    # no limit is estimated, and everything else is the recurrence route's
    euler_seq(12)  # the Euler recurrence is derived once per process
    for run in (lambda m: gamma_seq(F(-5, 7), 12, method=m), lambda m: euler_seq(12, method=m)):
        _, alone = _fractions_built(monkeypatch, run, "recurrence")
        _, gated = _fractions_built(monkeypatch, run, "all")
        assert gated == alone


def test_gate_rejects_a_route_of_another_length(monkeypatch):
    series = constructions._METHODS["series"]
    monkeypatch.setitem(constructions._METHODS, "series", lambda family, N: series(family, N)[:-1])
    with pytest.raises(RouteDisagreement):
        gamma_seq(F(1, 3), 20)
    with pytest.raises(RouteDisagreement):
        euler_seq(20)


def _explicit_denominators(q, v, N):
    """[q^n n! lcm_{k<=n} |v(k)| for n < N]."""
    return [q**n * math.factorial(n) * math.lcm(*map(v, range(n + 1))) for n in range(N)]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12).flatmap(
    lambda q: st.builds(F, st.integers(-3 * q, q - 1).filter(lambda p: p % q), st.just(q))),
    st.integers(1, 60))
@example(F(1, 3), 60)
@example(F(-29, 12), 60)
def test_explicit_denominator_clears_every_term_under_every_method(alpha, N):
    # D_n = q^n n! lcm_{k<=n} |kq+p| (gamma) and n! lcm(1, ..., n) (Euler)
    # make D_n P_n an integer whichever route reports P_n
    p, q = alpha.numerator, alpha.denominator
    cases = ((functools.partial(gamma_seq, alpha),
              _explicit_denominators(q, lambda k: k * q + p, N)),
             (euler_seq, _explicit_denominators(1, lambda k: k or 1, N)))
    for run, D in cases:
        for method in ("closed", "series", "recurrence", "all"):
            values = run(N, method=method).values
            assert len(values) == N
            assert all((d * v).denominator == 1 for d, v in zip(D, values)), method


# a prime above every factor of D_n at these sizes
BIG_PRIME = 2**61 - 1


def _gains_a_prime(route, at):
    """The route with the denominator (recurrence) or cofactor (closed) of
    term `at` multiplied by BIG_PRIME."""
    def broken(*args):
        vals = route(*args)
        a, b = vals[at]
        assert a % BIG_PRIME
        vals[at] = (a, b * BIG_PRIME)
        return vals
    return broken


@pytest.mark.parametrize("name", ["closed", "recurrence"])
@pytest.mark.parametrize("at", [0, 13, 19])
def test_a_denominator_beyond_the_bound_is_rejected(monkeypatch, name, at):
    monkeypatch.setitem(constructions._METHODS, name,
                        _gains_a_prime(constructions._METHODS[name], at))
    for method in (name, "all"):
        with pytest.raises(RouteDisagreement):
            gamma_seq(F(1, 3), 20, method=method)
    if at:  # P_0 = 0 for Euler's constant
        with pytest.raises(RouteDisagreement):
            euler_seq(20, method=name)


def test_pade_small_cases():
    p0, q0 = pade_exp(0)
    assert list(q0.coeffs) == [1] and list(p0.coeffs) == [1]
    p1, q1 = pade_exp(1)
    assert list(q1.coeffs) == [-2, 1]
    assert list(p1.coeffs) == [-2, -1]
    p2, q2 = pade_exp(2)
    assert list(q2.coeffs) == [6, -3, F(1, 2)]
    assert list(p2.coeffs) == [6, 3, F(1, 2)]


def test_pade_remainder_vanishes_through_2n():
    for n in range(13):
        p, q = pade_exp(n)
        order = 2 * n + 2
        e = exp_series(order)
        prod = [F(0)] * order
        for i, qc in enumerate(q.coeffs):
            for j in range(order - i):
                prod[i + j] += qc * e.coeffs[j]
        for j, pc in enumerate(p.coeffs):
            prod[j] -= pc
        assert all(c == 0 for c in prod[: 2 * n + 1])
        # the z^(2n+1) coefficient is the first nonzero one
        if n:
            assert prod[2 * n + 1] != 0


def test_pade_reflection_sign_is_plus():
    # P(z) = Q(-z), not -Q(-z)
    for n in range(8):
        p, q = pade_exp(n)
        reflected = PolyQ([(-1) ** i * c for i, c in enumerate(q.coeffs)])
        assert p == reflected
        assert p != -reflected


def test_e_convergents_values_and_membership():
    assert e_convergents(3) == [(3, 1), (19, 7), (193, 71)]
    convs = cf_convergents(e_cf_quotients(30))
    for n, (num, den) in enumerate(e_convergents(8), 1):
        assert F(num, den) in convs
        # empirical index map: pair n sits at convergent index 3n - 2
        assert convs[3 * n - 2] == F(num, den)


def test_e_convergents_strictly_improve():
    with workprec(300):
        e_val = mp.e
        prev = None
        for num, den in e_convergents(11):
            err = abs(to_mpf(F(num, den), 280) - e_val)
            if prev is not None:
                assert err < prev
            prev = err


def test_cf_convergents_examples():
    assert cf_convergents([2, 1, 2, 1, 1, 4]) == [
        2, 3, F(8, 3), F(11, 4), F(19, 7), F(87, 32),
    ]
    assert cf_convergents([1, 2, 3]) == [1, F(3, 2), F(10, 7)]
    assert cf_convergents([7]) == [7]
    assert e_cf_quotients(9) == [2, 1, 2, 1, 1, 4, 1, 1, 6]


def test_intseq_values_and_agreement():
    res = intseq(25, 256)
    assert (res.U[5], res.V[5]) == (43, 30)
    assert res.V[0] == 1 and res.U[0] == 0 and res.V[1] == 0 and res.U[1] == 1
    with workprec(320):
        assert res.recurrence_disagreement < mpf(10) ** -20


def test_intseq_companion_identity():
    res = intseq(20, 300)
    consts = intseq_constants(300)
    with workprec(360):
        for k in range(21):
            want = res.V[k] * consts.f - res.U[k] * consts.f_prime
            assert abs(res.A[k] - want) < mpf(10) ** -20, k


def test_intseq_ratios_strictly_improve():
    res = intseq(25, 300)
    consts = intseq_constants(300)
    with workprec(360):
        target = consts.f / consts.f_prime
        errs = [abs(to_mpf(F(res.U[k], res.V[k]), 320) - target) for k in range(2, 26)]
        assert all(b < a for a, b in zip(errs, errs[1:]))


def test_intseq_wronskian_separated_from_zero():
    consts = intseq_constants(256)
    with workprec(300):
        assert abs(consts.wronskian) > mpf(1) / 2
        # the exact value is -1 (twice the order-2 wronskian at the point)
        assert abs(consts.wronskian + 1) < mpf(2) ** -200


def test_generating_identities_at_half():
    res = intseq_generating_check(F(1, 2), 256)
    with workprec(320):
        assert res["U"] < mpf(10) ** -20
        assert res["V"] < mpf(10) ** -20


def test_generating_sums_are_exact_partial_sums_within_their_bound():
    # the U/V sums are sum_{k<K} u_k z^k/k! exactly, with the first K where
    # |z|^K/(1 - |z|) <= 2^-(wp+4), and the omitted terms add up to no more
    wp = 100
    res = intseq(720, 64)  # K = 704 at z = 9/10
    for z in (F(1, 2), F(-3, 4), F(9, 10), F(0)):
        bound = lambda K: abs(z) ** K / (1 - abs(z))
        for seq, got in zip((res.U, res.V), constructions._egf_sums(z, wp)):
            partial = [F(0)]
            for k, u in enumerate(seq):
                partial.append(partial[-1] + u * z**k / math.factorial(k))
            K = partial.index(got, 1)
            assert bound(K) <= F(1, 2 ** (wp + 4)) < bound(K - 1) if K > 1 else K == 1
            assert abs(partial[-1] - got) <= bound(K), z


def test_bessel_sums_and_generating_check_read_every_real_exactly():
    # an mpf or a float is read as its exact binary value, as for direct_E_eval
    for x in (F(3, 2), F(-3, 2)):
        for fn in (bessel_f, bessel_g):
            want = fn(x, 128, deriv=1)
            assert fn(mpf(x.numerator) / x.denominator, 128, deriv=1) == want
            assert fn(float(x), 128, deriv=1) == want
    assert intseq_generating_check(mpf(1) / 2, 128) == intseq_generating_check(F(1, 2), 128)
    for bad in (complex(1, 1), mp.mpc(1, 1), mpf("nan"), float("inf")):
        for fn in (bessel_f, bessel_g, intseq_generating_check):
            with pytest.raises(DomainError):
                fn(bad, 64)


def test_intseq_requires_kmax():
    with pytest.raises(DomainError):
        intseq(1, 64)


def test_bessel_sums_reject_negative_derivatives():
    for fn, d in ((bessel_f, -1), (bessel_g, -2), (bessel_f, -5)):
        with pytest.raises(DomainError):
            fn(1, 64, deriv=d)


def test_limit_estimate_constant_sequence():
    est = limit_estimate([F(7, 3)] * 20)
    assert est.method == "constant"
    assert est.rate_exponent is None
    with workprec(300):
        assert abs(est.limit - to_mpf(F(7, 3), 280)) < mpf(2) ** -250


def test_limit_estimate_geometric_fast_path():
    vals = [F(3) + F(1, 2**n) for n in range(48)]
    est = limit_estimate(vals)
    assert est.method == "aitken"
    with workprec(300):
        assert abs(est.limit - 3) < mpf(10) ** -9


def test_limit_estimate_fast_path_is_one_aitken_step():
    # a geometric tail L + c r^n is fixed exactly by one Delta^2 step
    vals = [F(3) - F(5, 7) * F(-1, 5) ** n for n in range(20)]
    assert vals[0] != F(3)
    est = limit_estimate(vals)
    assert est.method == "aitken" and est.limit == 3
    # at alpha = -25/2 the fast path fires; one step keeps the limit's
    # denominator within three input denominators
    vals = gamma_seq(F(-25, 2), 16, method="recurrence").values
    assert limit_estimate(vals).method == "aitken"
    a, b, c = vals[-3:]
    est = c - (c - b) ** 2 / (c - 2 * b + a)
    assert limit_estimate(vals).limit == to_mpf(est)
    biggest = max(v.denominator.bit_length() for v in vals)
    assert est.denominator.bit_length() <= 3 * biggest + 64


def test_limit_estimate_steps_only_on_geometric_tails():
    # At alpha = -21/2, N = 40 the last difference ratios fall (0.717, 0.707)
    # as the tail turns: one Delta^2 step lands 2.2e-10 from Gamma(alpha), the
    # last value 8.4e-12 from it.
    vals = gamma_seq(F(-21, 2), 40, method="recurrence").values
    est = limit_estimate(vals)
    gamma = mp.gamma(mpf(-21) / 2)
    assert est.method == "last-value" and est.limit == to_mpf(vals[-1])
    assert abs(est.limit - gamma) < mpf("8.4e-12")
    # at -25/2, N = 16 they grow (0.039, 0.110): the step falls short of the
    # limit, 1.73e-5 from it, where the last value is 3.79e-5 from it
    vals = gamma_seq(F(-25, 2), 16, method="recurrence").values
    est = limit_estimate(vals)
    assert est.method == "aitken"
    assert abs(est.limit - mp.gamma(mpf(-25) / 2)) < mpf("1.74e-5")


def test_limit_estimate_gamma_window():
    run_vals = gamma_seq(F(1, 2), 400, method="recurrence").values
    est = limit_estimate(run_vals)
    with workprec(300):
        assert abs(est.limit - gamma_value(F(1, 2), 256)) < mpf(2) * 10**-3
    assert est.method == "window"


def test_limit_estimate_rate_is_the_shared_decay_exponent():
    # the window mean, recomputed here as one Fraction sum, is the fitted limit
    vals = gamma_seq(F(1, 3), 240, method="recurrence").values
    tail = vals[len(vals) // 4:]
    weights = [_win_weight(i, len(tail)) for i in range(len(tail))]
    est = sum(w * v for w, v in zip(weights, tail)) / sum(weights)
    got = limit_estimate(vals)
    assert got.method == "window" and got.limit == to_mpf(est)
    assert got.rate_exponent == decay_exponent(vals, est, 24, 240)
    # asymlab's rate check makes the same fit over the same default window
    assert transfer_rate_check(vals, F(-2, 3), est).empirical_exponent == got.rate_exponent


def test_limit_estimate_needs_sixteen_values():
    with pytest.raises(DomainError):
        limit_estimate([F(1)] * 15)


def test_fit_growth_factorial_flagged_and_normalized():
    vals = [F(1, math.factorial(n)) for n in range(80)]
    fit = fit_growth(vals)
    assert fit.sub_geometric and fit.factorial_order == 1
    assert abs(fit.q - 1) < 1e-6
    assert abs(fit.u + 1) < 1e-6
    assert fit.v == 0
    # 1/n!^2 refits twice, and the order counts both
    fit = fit_growth([F(1, math.factorial(n) ** 2) for n in range(64)])
    assert fit.sub_geometric and fit.factorial_order == 2
    assert abs(fit.q - 1) < 1e-6


def test_fit_growth_pade_sequence():
    vals = [pade_exp(n)[1](F(1)) for n in range(120)]
    fit = fit_growth(vals)
    assert abs(fit.q - 4) < 0.02
    assert abs(fit.u + F(1, 2)) < 0.1
    assert fit.v == 0
    ratio = vals[61] / vals[60]
    assert abs(ratio + 4) / 4 <= F(1, 100)


def test_fit_growth_geometric_power_law():
    vals = [F(3) ** n / F(n * n) for n in range(1, 100)]
    fit = fit_growth(vals)
    assert abs(fit.q - 3) < 0.05
    assert abs(fit.u - 1) < 0.15
    assert fit.v == 0


def test_fit_growth_rejects_short_or_zero_input():
    with pytest.raises(DomainError):
        fit_growth([F(1)] * 16)
    with pytest.raises(DomainError):
        fit_growth([F(0)] * 40)


def test_fit_growth_flags_oscillatory_modulus():
    vals = gamma_seq(F(1, 2), 300, method="recurrence").values
    g = gamma_value(F(1, 2), 320)
    with workprec(380):
        diffs = []
        for v in vals:
            d = to_mpf(v, 360) - g
            diffs.append(F(mp.nstr(d, 40, strip_zeros=False)))
    fit = fit_growth(diffs)
    assert fit.oscillatory
    assert abs(fit.q - 1) < 0.05
    assert abs(fit.u + F(1, 2)) < 0.35


def test_gamma_limit_functional_equation():
    # limit(alpha) * alpha approximates Gamma(alpha + 1)
    est = gamma_seq(F(1, 2), 600, method="recurrence").limit
    with workprec(300):
        left = est * to_mpf(F(1, 2), 280)
        assert abs(left - gamma_value(F(3, 2), 256)) < mpf(10) ** -3


def test_run_record_is_immutable():
    run = euler_seq(20, method="closed")
    assert run._fields == ("values", "limit", "rate_exponent", "metadata")
    for field in run._fields:
        with pytest.raises(AttributeError):
            setattr(run, field, None)
    short = euler_seq(15, method="closed")
    assert short.limit is None and short.rate_exponent is None


def test_run_metadata_and_limits():
    run = gamma_seq(F(1, 2), 300, method="all")
    assert run.metadata["exact_agreement"] is True
    assert run.metadata["N"] == 300
    assert run.limit is not None
    with workprec(300):
        assert abs(run.limit - gamma_value(F(1, 2), 256)) < mpf(5) * 10**-3
