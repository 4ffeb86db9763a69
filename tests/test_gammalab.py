import hashlib
import math
import random
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf, workprec

from eoplab import gammalab
from eoplab.numcore import DomainError, to_mpf
from eoplab.gammalab import (
    euler_gamma,
    gamma_deriv,
    gamma_value,
    lambda_log_poly,
    lambda_ts,
    polygamma,
    psi,
    recip_gamma_jet,
    y_alpha_i,
)

PREC = 256
TOL = mpf(2) ** -(PREC - 20)


def _close(a, b, tol=TOL):
    with workprec(PREC + 64):
        return abs(a - b) <= tol


def test_euler_gamma_value_and_double_run(double_run):
    g = euler_gamma(PREC)
    with workprec(PREC + 16):
        assert abs(g - mp.euler) < TOL
    double_run(euler_gamma, 128)


def test_psi_at_one_is_minus_gamma():
    assert _close(psi(F(1), PREC), -euler_gamma(PREC))


def test_psi_half_classical_value():
    with workprec(PREC + 16):
        want = -mp.euler - 2 * mp.log(2)
        assert _close(psi(F(1, 2), PREC), want)


def test_psi_forward_difference_is_exactly_one_over_x():
    rng = random.Random(31)
    for _ in range(6):
        x = F(rng.randint(1, 24), rng.randint(5, 9))
        lhs = psi(x + 1, PREC)
        with workprec(PREC + 16):
            assert abs((lhs - psi(x, PREC)) - to_mpf(1 / x, PREC)) < TOL


def test_psi_matches_defining_series_at_low_precision():
    # sum_{k<K} (1/(k+1) - 1/(k+x)) has tail about (x-1)/K
    x = F(1, 3)
    K = 200000
    partial = mpf(0)
    with workprec(80):
        for k in range(K):
            partial += mpf(1) / (k + 1) - 1 / (k + to_mpf(x, 80))
        approx = -euler_gamma(80) + partial
        assert abs(approx - psi(x, 80)) < mpf(2) / K


def test_polygamma_values():
    with workprec(PREC + 16):
        assert _close(polygamma(1, F(1), PREC), mp.pi**2 / 6)
        assert _close(polygamma(2, F(1), PREC), -2 * mp.zeta(3))
    for x in (F(1, 3), F(1, 2), F(2)):
        assert polygamma(1, x, 64) > 0


def test_polygamma_matches_defining_series_at_low_precision():
    # Psi^(n)(x) = (-1)^(n+1) n! sum 1/(k+x)^(n+1), tail < n!/(n K^n)
    n, x, K = 2, F(1, 4), 4000
    with workprec(80):
        s = mpf(0)
        for k in range(K):
            s += 1 / (k + to_mpf(x, 80)) ** (n + 1)
        approx = (-1) ** (n + 1) * math.factorial(n) * s
        tail = mpf(math.factorial(n)) / (n * K**n)
        assert abs(approx - polygamma(n, x, 80)) < 2 * tail


def test_polygamma_against_mpmath():
    with workprec(PREC + 16):
        for n, x in ((1, F(1, 3)), (3, F(2, 7)), (2, F(-3, 2)), (4, F(5, 3))):
            want = mp.psi(n, to_mpf(x, PREC + 16))
            assert abs(polygamma(n, x, PREC) - want) < TOL * max(1, abs(want))


def test_gamma_values():
    with workprec(PREC + 16):
        assert _close(gamma_value(F(1), PREC), mpf(1))
        assert _close(gamma_value(F(5), PREC), mpf(24))
        assert _close(gamma_value(F(1, 2), PREC), mp.sqrt(mp.pi))
        assert _close(gamma_value(F(-1, 2), PREC), -2 * mp.sqrt(mp.pi))


def _relative_error(got, want, prec):
    with workprec(prec + 64):
        return abs(got - want) / abs(want)


def test_gamma_one_third_at_4096_bits():
    # Gamma(1/3)^3 = 2^(7/3) pi K(m) / 3^(1/4) with m = sin^2(pi/12) (AGM route;
    # mpmath.gamma itself needs seconds at this precision)
    prec = 4096
    got = gamma_value(F(1, 3), prec)
    with workprec(prec + 64):
        m = (2 - mp.sqrt(3)) / 4
        want = mp.cbrt(2 ** (mpf(7) / 3) * mp.pi * mp.ellipk(m) / mp.root(3, 4))
        assert _relative_error(got, want, prec) < mpf(2) ** -prec


def test_psi_and_polygamma_at_2048_bits():
    prec = 2048
    with workprec(prec + 64):
        want_psi = mp.psi(0, mpf(2) / 7)
        want_pg = mp.psi(2, mpf(-5) / 3)
    assert _relative_error(psi(F(2, 7), prec), want_psi, prec) < mpf(2) ** -prec
    assert _relative_error(polygamma(2, F(-5, 3), prec), want_pg, prec) < mpf(2) ** -prec


def test_gamma_poles_rejected():
    for bad in (F(0), F(-3)):
        with pytest.raises(DomainError):
            gamma_value(bad, 64)
        with pytest.raises(DomainError):
            psi(bad, 64)
        with pytest.raises(DomainError):
            polygamma(1, bad, 64)


def test_gamma_reflection_identity():
    with workprec(PREC + 16):
        for x in (F(1, 3), F(1, 4), F(2, 5)):
            prod = (
                gamma_value(x, PREC)
                * gamma_value(1 - x, PREC)
                * mp.sin(mp.pi * to_mpf(x, PREC))
                / mp.pi
            )
            assert abs(prod - 1) < TOL


def test_gamma_double_run(double_run):
    for x in (F(1, 2), F(-7, 3), F(9, 4)):
        double_run(lambda p, x=x: gamma_value(x, p), 128)
        double_run(lambda p, x=x: psi(x, p), 128)
        double_run(lambda p, x=x: polygamma(2, x, p), 128)


def test_gamma_derivative_examples():
    d = gamma_deriv(2, F(1), PREC)
    with workprec(PREC + 16):
        assert abs(d.values[1] + mp.euler) < TOL
        assert abs(d.values[2] - (mp.euler**2 + mp.pi**2 / 6)) < TOL
    d2 = gamma_deriv(1, F(1, 2), PREC)
    with workprec(PREC + 16):
        want = -mp.sqrt(mp.pi) * (mp.euler + 2 * mp.log(2))
        assert abs(d2.values[1] - want) < TOL


def test_gamma_derivs_satisfy_leibniz_recursion():
    x = F(2, 5)
    d = gamma_deriv(4, x, PREC)
    psis = [psi(x, PREC)] + [polygamma(i, x, PREC) for i in range(1, 4)]
    with workprec(PREC + 16):
        for j in range(4):
            want = sum(
                math.comb(j, i) * psis[i] * d.values[j - i] for i in range(j + 1)
            )
            assert abs(d.values[j + 1] - want) < TOL * max(1, abs(want))


def test_gamma_deriv_bits_are_pinned():
    # sha256 of the _mpf_ tuples of Gamma, ..., Gamma^(4) over a fixed grid of
    # rationals at 64 and 512 bits: the CLI prints these values, so a change in
    # any rounding step of gamma_value, polygamma or the recursion shows here
    grid = [F(p, q) for q in (1, 2, 3, 5, 7, 12) for p in range(-2 * q, 2 * q + 1)
            if not (p % q == 0 and p <= 0)]
    h = hashlib.sha256()
    for x in grid:
        for prec in (64, 512):
            values = gamma_deriv(4, x, prec).values
            h.update(repr([tuple(map(int, v._mpf_)) for v in values]).encode())
    assert len(grid) == 108
    assert h.hexdigest() == "cf3d956bfe98db8c1d93da761ea72b2044be1c49aa298922fd03f43862ddfc91"


def test_structure_polynomial_leading_gamma_coefficient():
    # Writing Psi(s) = -X + c_s with X standing for Euler's constant, the
    # n-th derivative quotient Gamma^(n)(s)/Gamma(s) becomes a degree-n
    # polynomial in X with leading coefficient (-1)^n.
    for s in (F(1), F(1, 2), F(2, 5)):
        c_s = None
        with workprec(PREC + 16):
            c_s = psi(s, PREC) + euler_gamma(PREC)
        psi_poly = [c_s, mpf(-1)]  # Psi(s) as polynomial in X
        higher = [polygamma(i, s, PREC) for i in range(1, 3)]
        quotients = [[mpf(1)]]  # Gamma^(0)/Gamma = 1
        with workprec(PREC + 16):
            for j in range(2):
                # G_{j+1}/Gamma = sum_i binom(j,i) Psi^(i) * (G_{j-i}/Gamma)
                acc = [mpf(0)] * (j + 2)
                for i in range(j + 1):
                    term = psi_poly if i == 0 else [higher[i - 1]]
                    prev = quotients[j - i]
                    for ai, av in enumerate(term):
                        for bi, bv in enumerate(prev):
                            acc[ai + bi] += math.comb(j, i) * av * bv
                quotients.append(acc)
            for n in (1, 2):
                lead = quotients[n][n]
                assert abs(lead - (-1) ** n) < TOL


def test_recip_gamma_examples():
    with workprec(PREC + 16):
        assert abs(recip_gamma_jet(F(1, 2), 0, PREC)[0] - 1 / mp.sqrt(mp.pi)) < TOL
        assert abs(recip_gamma_jet(F(1), 1, PREC)[1] - mp.euler) < TOL  # times 1!


def test_recip_gamma_entire_at_nonpositive_integers():
    # 1/Gamma vanishes at 0, -1, -2, ... with derivative (-1)^m m!
    for m in (0, 1, 2, 3):
        with workprec(PREC + 16):
            val, slope = recip_gamma_jet(F(-m), 1, PREC)  # the slope times 1!
            assert abs(val) < TOL
            assert abs(slope - (-1) ** m * math.factorial(m)) < TOL


def test_jet_times_reciprocal_jet_is_identity():
    for x in (F(1), F(1, 2), F(1, 3)):
        r = recip_gamma_jet(x, 6, PREC)
        with workprec(PREC + 16):
            g = [v / math.factorial(k) for k, v in enumerate(gamma_deriv(6, x, PREC).values)]
            for k in range(7):
                conv = sum(g[i] * r[k - i] for i in range(k + 1))
                want = 1 if k == 0 else 0
                assert abs(conv - want) < TOL


def test_y_kernel_vanishes_at_nonnegative_integers():
    for t in (0, 1, 2, 3):
        series = y_alpha_i(F(t), 0, 12)
        assert all(c == 0 for c in series.coeffs)


def test_y_kernel_polynomial_at_negative_integers():
    for t in (-1, -2, -3):
        series = y_alpha_i(F(t), 0, 12)
        degree = max(i for i, c in enumerate(series.coeffs) if c != 0)
        assert degree == -1 - t
        assert all(c == 0 for c in series.coeffs[degree + 1 :])


def test_y_kernel_rational_and_nonzero():
    series = y_alpha_i(F(1, 3), 2, 10)
    assert series.order == 10
    assert any(c != 0 for c in series.coeffs)
    assert all(isinstance(c, F) for c in series.coeffs)


@pytest.mark.parametrize("alpha", [F(1, 3), F(-3, 4)])
def test_y_kernel_against_numerical_differentiation(alpha):
    # Independent check through the Gamma quotient itself: finite differences
    # of Gamma(1-{y})/Gamma(-y-n) at y=alpha reproduce the exact jets.
    wp = 300
    h = mpf(2) ** -56
    fl = math.floor(alpha)

    def kernel(y):
        # y is alpha + (small offset); {y} = y - fl near alpha
        num = _gamma_at(1 - y + fl, wp)
        return num / _gamma_at_neg(-y, wp)

    tol = mpf(10) ** -20
    for n in range(6):
        jets = [y_alpha_i(alpha, i, n + 1).coeffs[n] for i in range(4)]
        a = to_mpf(alpha, wp)
        with workprec(wp):
            fm2, fm1, f0, f1, f2 = (
                _kernel_value(alpha, n, a + k * h, wp) for k in (-2, -1, 0, 1, 2)
            )
            d0 = f0
            d1 = (-f2 + 8 * f1 - 8 * fm1 + fm2) / (12 * h)
            d2 = (-f2 + 16 * f1 - 30 * f0 + 16 * fm1 - fm2) / (12 * h * h)
            d3 = (f2 - 2 * f1 + 2 * fm1 - fm2) / (2 * h**3)
            for i, d in enumerate((d0, d1, d2, d3)):
                want = to_mpf(jets[i], wp) * math.factorial(i)
                assert abs(d - want) < tol * max(1, abs(want)), (n, i)


def _gamma_at(x, wp):
    with workprec(wp):
        return mp.gamma(x)


def _kernel_value(alpha, n, y, wp):
    fl = math.floor(alpha)
    with workprec(wp):
        return mp.gamma(1 - y + fl) / mp.gamma(-y - n)


def test_lambda_integer_t_log_minus_gamma():
    g = euler_gamma(PREC)
    for t in (F(0), F(1), F(5)):
        for x in (F(2), F(10), F(1, 3)):
            with workprec(PREC + 16):
                want = -mp.log(to_mpf(x, PREC)) - g
                assert abs(lambda_ts(t, 1, x, PREC) - want) < TOL


def test_lambda_s0_is_reciprocal_gamma_constant():
    # independent of x
    for t, point in ((F(1, 2), F(1, 2)), (F(7, 3), F(2, 3)), (F(4), F(1))):
        v1 = lambda_ts(t, 0, F(2), PREC)
        v2 = lambda_ts(t, 0, F(17, 5), PREC)
        with workprec(PREC + 16):
            assert abs(v1 - v2) < TOL
            assert abs(v1 - recip_gamma_jet(point, 0, PREC)[0]) < TOL
    with workprec(PREC + 16):
        assert abs(lambda_ts(F(1, 2), 0, F(7), PREC) - 1 / mp.sqrt(mp.pi)) < TOL


def test_lambda_symbolic_slot_returns_coefficients():
    coeffs = lambda_log_poly(F(2), 1, PREC)
    assert len(coeffs) == 2
    with workprec(PREC + 16):
        assert abs(coeffs[1] - 1) < TOL          # coefficient of log(1/x)
        assert abs(coeffs[0] + euler_gamma(PREC)) < TOL
        want = coeffs[0] + coeffs[1] * mp.log(3)
        assert abs(lambda_ts(F(2), 1, F(1, 3), PREC) - want) < TOL


# Independent oracles at random rationals (ROADMAP item 4): mpmath's own
# gamma, rgamma and psi, differentiated numerically by mpmath.diff, all at
# prec + 64 bits. Every value must lie within 2^-prec * max(1, |oracle|): at
# 64-128 bits the observed gap is about 2^-(prec+20) of that.
rationals = st.builds(F, st.integers(-60, 60), st.integers(1, 12))
off_poles = rationals.filter(lambda x: not (x.denominator == 1 and x <= 0))
precs = st.integers(64, 128)


def _within(got, want, prec):
    return abs(got - want) <= mpf(2) ** -prec * max(1, abs(want))


@given(off_poles, st.integers(0, 3), precs)
@example(F(-29, 12), 3, 64)
def test_gamma_deriv_against_mpmath_diff(x, k, prec):
    got = gamma_deriv(k, x, prec).values
    with workprec(prec + 64):
        xv = to_mpf(x, prec + 64)
        for j, value in enumerate(got):
            assert _within(value, mpmath.diff(mpmath.gamma, xv, j), prec), (x, j, prec)


@given(rationals, st.integers(0, 3), precs)
@example(F(0), 3, 64)
@example(F(-3), 2, 100)
def test_recip_gamma_jet_against_mpmath_diff(x, k, prec):
    jet = recip_gamma_jet(x, k, prec)
    with workprec(prec + 64):
        xv = to_mpf(x, prec + 64)
        for j, value in enumerate(jet):
            want = mpmath.diff(mpmath.rgamma, xv, j) / math.factorial(j)
            assert _within(value, want, prec), (x, j, prec)


@given(off_poles, st.integers(0, 4), precs)
@example(F(1, 60), 4, 64)
@example(F(1, 60), 0, 64)
def test_psi_and_polygamma_against_mpmath_psi(x, n, prec):
    got = polygamma(n, x, prec)
    if n == 0:
        assert got == psi(x, prec)
    with workprec(prec + 64):
        assert _within(got, mpmath.psi(n, to_mpf(x, prec + 64)), prec), (x, n, prec)


def test_polygamma_rejects_negative_orders():
    with pytest.raises(DomainError):
        polygamma(-1, F(1, 2), 64)


# The Stirling tail (e = -1) and -Psi(1) against mpmath from 53 to 512 bits,
# where the tail runs to more terms than at the 64-128 bits above.
wide_precs = st.integers(53, 512)


@settings(max_examples=40)
@given(off_poles, wide_precs)
@example(F(1, 3), 512)
@example(F(-59, 12), 53)
def test_gamma_value_against_mpmath_gamma(x, prec):
    got = gamma_value(x, prec)
    with workprec(prec + 64):
        assert _within(got, mpmath.gamma(to_mpf(x, prec + 64)), prec), (x, prec)


@settings(max_examples=40)
@given(wide_precs)
@example(53)
@example(512)
def test_euler_gamma_against_mpmath_euler(prec):
    got = euler_gamma(prec)
    with workprec(prec + 64):
        assert _within(got, +mp.euler, prec), prec


# psi, polygamma and gamma_value against mpmath from 53 to 4096 bits, each within
# 2^-prec relative. At 4096 bits mpmath's own psi(0) and loggamma take seconds
# below x ~ 10^3, so there psi(0) and Gamma are checked at x = 4001/3 only.
@pytest.mark.parametrize("prec", [53, 256, 1024, 4096])
def test_psi_polygamma_and_gamma_against_mpmath_up_to_4096_bits(prec):
    for x in (F(2, 7), F(-7, 2), F(41, 3), F(4001, 3)):
        slow = prec == 4096 and x < 1000
        with workprec(prec + 64):
            xv = to_mpf(x, prec + 64)
            for n in range(1 if slow else 0, 5):
                want = mpmath.psi(n, xv)
                assert _relative_error(polygamma(n, x, prec), want, prec) <= mpf(2) ** -prec, (x, n)
        if x > 0 and not slow:
            # log Gamma(4001/3) < 2^14, so exp keeps prec + 64 bits of it
            with workprec(prec + 80):
                want = mp.exp(mpmath.loggamma(to_mpf(x, prec + 80)))
            assert _relative_error(gamma_value(x, prec), want, prec) <= mpf(2) ** -prec, x


def _tail_term(e, X, k):
    """t_k = B_2k (2k+e-1)!/(2k)! X^-(2k+e), from mpmath's Bernoulli numbers."""
    p, q = mpmath.bernfrac(2 * k)
    return F(p, q) * F(math.factorial(2 * k + e - 1), math.factorial(2 * k)) / X ** (2 * k + e)


def _tail_count(e, X, got):
    """The K with got = t_1 + ... + t_K."""
    partial = F(0)
    for K in range(400):
        if partial == got:
            return K
        partial += _tail_term(e, X, K + 1)
    raise AssertionError("not a partial sum of the tail")


@st.composite
def tail_cases(draw):
    e, w = draw(st.integers(-1, 4)), draw(st.integers(40, 200))
    q = draw(st.integers(1, 12))
    # X from w/4 + e + 8 on, past w ln 2/(2 pi) ~ w/9, where the least term is 2^-w
    X = F(draw(st.integers(q * (w // 4 + e + 8), q * 3 * w)), q)
    return e, X, w


@settings(max_examples=40, deadline=None)
@given(tail_cases())
@example((-1, F(20), 53))
@example((4, F(121, 12), 40))
def test_stirling_tail_stops_at_the_bound_and_envelopes_its_remainder(case):
    # K is the first count whose next term is within the bound, and the true
    # remainder (mpmath at 4x precision) has that term's sign and is no larger
    e, X, w = case
    bound = F(1, 2**w)
    got = gammalab._stirling_tail(e, X, bound)
    K = _tail_count(e, X, got)
    nxt = _tail_term(e, X, K + 1)
    assert abs(nxt) <= bound < abs(_tail_term(e, X, K)) if K else abs(nxt) <= bound
    with workprec(4 * w):
        Xv = to_mpf(X, 4 * w)
        if e == -1:
            lead = (Xv - mpf(1) / 2) * mp.log(Xv) - Xv + mp.log(2 * mp.pi) / 2
            tail = mpmath.loggamma(Xv) - lead
        else:
            lead = -mp.log(Xv) if e == 0 else math.factorial(e - 1) / Xv**e
            lead += math.factorial(e) / (2 * Xv ** (e + 1))
            tail = (-1) ** (e + 1) * mpmath.psi(e, Xv) - lead
        rest, nxt = tail - to_mpf(got, 4 * w), to_mpf(nxt, 4 * w)
        assert rest * nxt > 0 and abs(rest) <= abs(nxt), (e, X, w)


def test_the_tail_is_summed_at_the_least_shift_past_x0(monkeypatch):
    # X0 = max(16, 0.35 wp + n) for Psi^(n), max(20, 0.2 wp + 8) for Gamma;
    # there the terms still decrease through the first omitted one
    seen = []
    real = gammalab._stirling_tail
    monkeypatch.setattr(gammalab, "_stirling_tail",
                        lambda e, X, bound: seen.append((e, X, bound)) or real(e, X, bound))
    for prec in (53, 512):
        for x in (F(-7, 2), F(2, 7), F(31, 2), F(1000, 3)):
            for n in (0, 1, 3):
                polygamma(n, x, prec)
                wp = prec + gammalab._GUARD + n
                X0 = max(16, int(0.35 * wp) + n)
                assert seen[-1][:2] == (n, max(x, x + math.ceil(X0 - x))), (prec, x, n)
            gamma_value(x, prec)
            X0 = max(20, int(0.2 * (prec + gammalab._GUARD + 8)) + 8)
            assert seen[-1][:2] == (-1, max(x, x + math.ceil(X0 - x))), (prec, x)
    for e, X, bound in seen:
        K = _tail_count(e, X, real(e, X, bound))
        terms = [abs(_tail_term(e, X, k)) for k in range(1, K + 2)]
        assert all(a > b for a, b in zip(terms, terms[1:])), (e, X)


def test_gamma_routines_read_every_real_exactly():
    # an mpf or a float is read as its exact binary value, as by numcore.exact_real
    calls = (lambda v: gamma_value(v, 64), lambda v: polygamma(1, v, 64),
             lambda v: gamma_deriv(2, v, 64).values, lambda v: recip_gamma_jet(v, 2, 64),
             lambda v: lambda_log_poly(v, 2, 64), lambda v: y_alpha_i(v, 1, 5))
    for x in (F(1, 2), F(-7, 4)):
        for fn in calls:
            want = fn(x)
            assert fn(mpf(x.numerator) / x.denominator) == want
            assert fn(float(x)) == want
    for bad in (float("nan"), float("inf"), mpf("-inf"), complex(1, 1), mp.mpc(1, 1)):
        for fn in calls:
            with pytest.raises(DomainError):
                fn(bad)
