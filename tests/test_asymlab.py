from fractions import Fraction as F

import pytest
from mpmath import libmp, mp, mpf, workprec

from eoplab.numcore import DomainError, to_mpf
from eoplab.asymlab import (
    asym_E_alpha,
    asym_E_log,
    direct_E_eval,
    eval_asym,
    optimal_truncation,
    transfer_rate_check,
)
from eoplab.constructions import gamma_seq
from eoplab.gammalab import gamma_value


def test_alpha_family_tail_coefficients():
    a = asym_E_alpha(F(1, 2), 6, 256)
    assert a.tail_coeffs[0] == 1
    assert a.tail_coeffs[2] == F(3, 4)
    assert a.tail_coeffs[3] == -F(1, 2) * F(3, 2) * F(5, 2)
    with workprec(300):
        assert abs(a.front_terms[0].coefficient - mp.sqrt(mp.pi)) < mpf(2) ** -240
    assert a.front_terms[0].power == F(1, 2)
    assert a.exp_rho == -1


def test_log_family_tail_and_front():
    a = asym_E_log(6, 256)
    assert a.tail_coeffs[3] == -6
    log_terms = [t for t in a.front_terms if t.log_power == 1]
    assert len(log_terms) == 1 and log_terms[0].coefficient == -1
    const = [t for t in a.front_terms if t.log_power == 0][0]
    with workprec(300):
        assert abs(const.coefficient + mp.euler) < mpf(2) ** -240


def test_alpha_family_rejects_poles():
    with pytest.raises(DomainError):
        asym_E_alpha(F(-3), 4, 64)


def test_optimal_truncation():
    assert optimal_truncation(30) == 30
    assert optimal_truncation(5.4) == 5
    for z in (float("inf"), float("-inf"), float("nan"), mpf("inf"), 10**400):
        with pytest.raises(DomainError):
            optimal_truncation(z)
    grid = [optimal_truncation(z) for z in (2, 3.7, 5.2, 9, 14.9, 30)]
    assert grid == sorted(grid)


def test_eval_asym_n0_front_only():
    a = asym_E_alpha(F(1, 2), 8, 256)
    v = eval_asym(a, 9, 0, 256)
    with workprec(300):
        want = gamma_value(F(1, 2), 256) / mp.sqrt(mpf(9))
        assert abs(v - want) < mpf(2) ** -240
    for N in (-3, -1, 9):
        with pytest.raises(DomainError):
            eval_asym(a, 9, N, 256)
    with pytest.raises(DomainError):
        eval_asym(asym_E_log(10, 64), 5, -3, 64)
    for z in (float("nan"), float("inf"), mpf("nan")):
        with pytest.raises(DomainError):
            eval_asym(asym_E_log(8, 64), z, 4, 64)


@pytest.mark.parametrize(
    "which,alpha", [("E_alpha", F(1, 2)), ("E_loglike", None)]
)
def test_optimal_truncation_agreement_at_z30(which, alpha):
    direct = direct_E_eval(30, 512, alpha)
    series = (
        asym_E_alpha(alpha, 40, 512) if which == "E_alpha" else asym_E_log(40, 512)
    )
    nstar = optimal_truncation(30)
    approx = eval_asym(series, 30, nstar, 512)
    with workprec(600):
        rel = abs((direct - approx) / direct)
        assert rel <= mpf(10) ** -15


@pytest.mark.parametrize(
    "which,alpha", [("E_alpha", F(1, 2)), ("E_loglike", None)]
)
def test_error_curve_shape_at_z10(which, alpha):
    direct = direct_E_eval(10, 256, alpha)
    series = (
        asym_E_alpha(alpha, 20, 256) if which == "E_alpha" else asym_E_log(20, 256)
    )
    with workprec(300):
        errs = [abs(direct - eval_asym(series, 10, N, 256)) for N in range(19)]
    nstar = optimal_truncation(10)
    assert all(errs[i + 1] < errs[i] for i in range(nstar)), "not decreasing to N*"
    assert all(errs[i + 1] > errs[i] for i in range(nstar + 2, 18)), "not increasing"


@pytest.mark.parametrize("z", [10, 20, 30])
@pytest.mark.parametrize(
    "which,alpha", [("E_alpha", F(1, 2)), ("E_loglike", None)]
)
def test_remainder_bounded_by_twice_next_term(which, alpha, z):
    direct = direct_E_eval(z, 320, alpha)
    series = (
        asym_E_alpha(alpha, z + 8, 320)
        if which == "E_alpha"
        else asym_E_log(z + 8, 320)
    )
    nstar = optimal_truncation(z)
    with workprec(380):
        zv = mpf(z)
        for N in range(nstar + 1):
            err = abs(direct - eval_asym(series, z, N, 320))
            term = mp.e ** (-zv) * abs(to_mpf(series.tail_coeffs[N], 380)) / zv ** (N + 1)
            assert err <= 2 * term, (N, err, term)


@pytest.mark.parametrize("prec", [53, 256, 1024])
@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_terminating_expansions_are_exact(alpha, prec):
    # t_n = (-1)^n (1-alpha)_n vanishes from n = alpha on, so the truncated
    # expansion is E_alpha(-z) itself for every N >= alpha; N = alpha uses the
    # last nonzero term
    series = asym_E_alpha(F(alpha), alpha + 2, prec)
    for z in (F(1, 2), F(3), F(30)):
        direct = direct_E_eval(z, prec, F(alpha))
        for N in (alpha, alpha + 2):
            got = eval_asym(series, z, N, prec)
            with workprec(prec + 64):
                assert abs(got - direct) <= abs(direct) * mpf(2) ** (4 - prec), (z, N)


def test_eval_asym_reads_each_tail_coefficient_exactly():
    # alpha = 1/2 gives dyadic coefficients, exact as floats and mpfs
    a = asym_E_alpha(F(1, 2), 6, 128)
    tails = tuple(to_mpf(t, 64) if n % 2 else float(t) for n, t in enumerate(a.tail_coeffs))
    assert eval_asym(a._replace(tail_coeffs=tails), 9, 6, 128) == eval_asym(a, 9, 6, 128)
    with pytest.raises(DomainError):
        eval_asym(a._replace(tail_coeffs=(1, float("nan"))), 9, 2, 128)


def test_direct_eval_small_argument_limit():
    v = direct_E_eval(F(1, 1000), 128)
    with workprec(160):
        assert abs(v) < mpf(2) / 1000


def test_direct_eval_large_z_front_term_dominates():
    # the expansion predicts a correction of order e^(-30) only
    v = direct_E_eval(30, 256, F(1, 2))
    with workprec(300):
        front = gamma_value(F(1, 2), 256) / mp.sqrt(mpf(30))
        assert abs((v - front) / front) < mpf(10) ** -13


def test_direct_eval_double_run(double_run):
    double_run(lambda p: direct_E_eval(30, p, F(1, 2)), 512)
    double_run(lambda p: direct_E_eval(30, p), 512)


def test_direct_eval_domain_errors():
    with pytest.raises(DomainError):
        direct_E_eval(10, 64, F(-1))
    for z in (0, F(-3), mpf(-1) / 3, float("nan"), float("inf"), F(10**400, 3)):
        with pytest.raises(DomainError):
            direct_E_eval(z, 64)
        with pytest.raises(DomainError):
            direct_E_eval(z, 64, F(1, 2))


def test_direct_eval_accepts_every_positive_real_z():
    # an mpf and a float are read as their exact binary values
    for alpha in (None, F(1, 3)):
        want = direct_E_eval(F(5, 2), 128, alpha)
        assert direct_E_eval(mpf(5) / 2, 128, alpha) == want
        assert direct_E_eval(2.5, 128, alpha) == want
        assert direct_E_eval(5, 128, alpha) == direct_E_eval(mpf(5), 128, alpha)
    with workprec(64):
        z = mpf(1) / 3  # 1/3 rounded to 64 bits, a dyadic rational
    man, exp = z.man_exp
    assert direct_E_eval(z, 128) == direct_E_eval(man * F(2) ** exp, 128)


def test_complex_z_rejected():
    a = asym_E_log(8, 64)
    for z in (complex(10, 1), mp.mpc(10, 1)):
        with pytest.raises(DomainError):
            optimal_truncation(z)
        with pytest.raises(DomainError):
            direct_E_eval(z, 64, F(1, 2))
        with pytest.raises(DomainError):
            eval_asym(a, z, 4, 64)


def test_transfer_rate_check_positive_alphas():
    for alpha, predicted in ((F(1, 2), F(-1, 2)), (F(1, 3), F(-2, 3))):
        run = gamma_seq(alpha, 1000, method="recurrence")
        rep = transfer_rate_check(
            run, predicted, gamma_value(alpha, 256), window=(100, 1000)
        )
        assert rep.passed, rep


def test_transfer_rate_check_negative_alpha_true_exponent():
    # The saddle-point contribution decays like n^-1 for alpha = -1/2, slower
    # than the (3-2a)/4... transfer bound would suggest; the check honestly
    # fails against -3/2 and passes against the measured -1 rate.
    run = gamma_seq(F(-1, 2), 1000, method="recurrence")
    oracle = gamma_value(F(-1, 2), 256)
    assert not transfer_rate_check(run, F(-3, 2), oracle, window=(100, 1000)).passed
    assert transfer_rate_check(run, F(-1), oracle, window=(100, 1000)).passed


def test_transfer_rate_check_reads_an_mpf_limit_exactly_with_its_sign():
    # Gamma(-1/2) = -2 sqrt(pi) < 0: as an mpf it is read as its exact binary
    # value, the same Fraction the second call passes
    run = gamma_seq(F(-1, 2), 1000, method="recurrence")
    oracle = gamma_value(F(-1, 2), 256)
    exact = F(*libmp.to_rational(oracle._mpf_))
    assert exact < 0
    for predicted in (F(-1), F(-3, 2)):
        assert transfer_rate_check(run, predicted, oracle) == \
            transfer_rate_check(run, predicted, exact)
    assert transfer_rate_check(run, F(-1), oracle) != transfer_rate_check(run, F(-1), -exact)
    # a finite limit beyond the float range is read exactly too: |P_n - L| ~ |L|
    for far in (mpf("1e400"), -F(10**400, 3)):
        assert abs(transfer_rate_check(run, F(0), far).empirical_exponent) < 1e-6


def test_transfer_rate_check_requires_enough_values():
    run = gamma_seq(F(1, 2), 60, method="recurrence")
    with pytest.raises(DomainError):
        transfer_rate_check(run, F(-1, 2), gamma_value(F(1, 2), 64))
    # a window off the run, one too short for a fit, and a limit that is no number
    run = gamma_seq(F(1, 2), 200, method="recurrence")
    limit = gamma_value(F(1, 2), 64)
    for window in ((0, 200), (100, 201), (100, 100), (100, 103)):
        with pytest.raises(DomainError):
            transfer_rate_check(run, F(-1, 2), limit, window=window)
    for limit in (mp.inf, -mp.inf, mp.nan):
        with pytest.raises(DomainError):
            transfer_rate_check(run, F(-1, 2), limit)
