from fractions import Fraction as F

import pytest
from mpmath import mp, mpf, workprec

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
    assert a.exp_rho == -1 and a.tail_sign == -1


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
    assert optimal_truncation(100, max_order=40) == 40
    grid = [optimal_truncation(z) for z in (2, 3.7, 5.2, 9, 14.9, 30)]
    assert grid == sorted(grid)


def test_eval_asym_n0_front_only():
    a = asym_E_alpha(F(1, 2), 8, 256)
    v = eval_asym(a, 9, 0, 256)
    with workprec(300):
        want = gamma_value(F(1, 2), 256) / mp.sqrt(mpf(9))
        assert abs(v - want) < mpf(2) ** -240


@pytest.mark.parametrize(
    "which,alpha", [("E_alpha", F(1, 2)), ("E_loglike", None)]
)
def test_optimal_truncation_agreement_at_z30(which, alpha):
    direct = direct_E_eval(which, 30, 512, alpha=alpha)
    series = (
        asym_E_alpha(alpha, 40, 512) if which == "E_alpha" else asym_E_log(40, 512)
    )
    nstar = optimal_truncation(30, series.order)
    approx = eval_asym(series, 30, nstar, 512)
    with workprec(600):
        rel = abs((direct - approx) / direct)
        assert rel <= mpf(10) ** -15


@pytest.mark.parametrize(
    "which,alpha", [("E_alpha", F(1, 2)), ("E_loglike", None)]
)
def test_error_curve_shape_at_z10(which, alpha):
    direct = direct_E_eval(which, 10, 256, alpha=alpha)
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
    direct = direct_E_eval(which, z, 320, alpha=alpha)
    series = (
        asym_E_alpha(alpha, z + 8, 320)
        if which == "E_alpha"
        else asym_E_log(z + 8, 320)
    )
    nstar = optimal_truncation(z, series.order)
    with workprec(380):
        zv = mpf(z)
        for N in range(nstar + 1):
            err = abs(direct - eval_asym(series, z, N, 320))
            term = mp.e ** (-zv) * abs(to_mpf(series.tail_coeffs[N], 380)) / zv ** (N + 1)
            assert err <= 2 * term, (N, err, term)


def test_direct_eval_small_argument_limit():
    v = direct_E_eval("E_loglike", F(1, 1000), 128)
    with workprec(160):
        assert abs(v) < mpf(2) / 1000


def test_direct_eval_large_z_front_term_dominates():
    # the expansion predicts a correction of order e^(-30) only
    v = direct_E_eval("E_alpha", 30, 256, alpha=F(1, 2))
    with workprec(300):
        front = gamma_value(F(1, 2), 256) / mp.sqrt(mpf(30))
        assert abs((v - front) / front) < mpf(10) ** -13


def test_direct_eval_double_run(double_run):
    double_run(lambda p: direct_E_eval("E_alpha", 30, p, alpha=F(1, 2)), 512)
    double_run(lambda p: direct_E_eval("E_loglike", 30, p), 512)


def test_direct_eval_domain_errors():
    with pytest.raises(DomainError):
        direct_E_eval("E_alpha", 10, 64)
    with pytest.raises(DomainError):
        direct_E_eval("E_alpha", 10, 64, alpha=F(-1))
    with pytest.raises(DomainError):
        direct_E_eval("nope", 10, 64)
    for z in (0, F(-3), mpf(-1) / 3):
        with pytest.raises(DomainError):
            direct_E_eval("E_loglike", z, 64)
        with pytest.raises(DomainError):
            direct_E_eval("E_alpha", z, 64, alpha=F(1, 2))


def test_complex_z_rejected():
    a = asym_E_log(8, 64)
    for z in (complex(10, 1), mp.mpc(10, 1)):
        with pytest.raises(DomainError):
            optimal_truncation(z)
        with pytest.raises(DomainError):
            direct_E_eval("E_alpha", z, 64, alpha=F(1, 2))
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


def test_transfer_rate_check_requires_enough_values():
    run = gamma_seq(F(1, 2), 60, method="recurrence")
    with pytest.raises(DomainError):
        transfer_rate_check(run, F(-1, 2), gamma_value(F(1, 2), 64))
