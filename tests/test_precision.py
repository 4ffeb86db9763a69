"""The truncated sums behind the numeric routines: results that do not depend on
the ambient mpmath precision, and agreement with closed forms."""

from fractions import Fraction as F

import mpmath
import pytest
from mpmath import mp, mpf, workprec

from eoplab.asymlab import direct_E_eval
from eoplab.constructions import (
    bessel_f,
    bessel_g,
    intseq,
    intseq_constants,
    intseq_generating_check,
)
from eoplab.gammalab import euler_gamma, gamma_deriv, gamma_value, polygamma, psi


def _bits(*values):
    return [v._mpf_ for v in values]


# Each routine that sums through numcore.capped_sum, and the callers that
# combine them.
CALLS = {
    "euler_gamma": lambda: _bits(euler_gamma(200)),
    "psi": lambda: _bits(psi(F(-5, 3), 200)),
    "polygamma": lambda: _bits(polygamma(2, F(1, 3), 200)),
    "gamma_value": lambda: _bits(gamma_value(F(7, 2), 200)),
    "direct_E_alpha": lambda: _bits(direct_E_eval("E_alpha", F(25, 2), 200, alpha=F(-5, 3))),
    "direct_E_loglike": lambda: _bits(direct_E_eval("E_loglike", 10, 200)),
    "bessel_f": lambda: _bits(bessel_f(F(3, 2), 200), bessel_f(F(3, 2), 200, deriv=1)),
    "bessel_g": lambda: _bits(bessel_g(F(3, 2), 200), bessel_g(F(3, 2), 200, deriv=1)),
    "intseq": lambda: _bits(*intseq(30, 128).A, intseq(30, 128).recurrence_disagreement),
    "intseq_constants": lambda: _bits(*tuple(intseq_constants(128))),
    "intseq_generating_check": lambda: _bits(*intseq_generating_check(F(1, 2), 128).values()),
    "gamma_deriv": lambda: _bits(*gamma_deriv(3, F(-5, 3), 128).values),
}


@pytest.mark.parametrize("name", CALLS)
def test_result_does_not_depend_on_the_ambient_precision(name):
    with workprec(53):
        low = CALLS[name]()
    with workprec(400):
        high = CALLS[name]()
    assert low == high


def _rel(got, want):
    return abs(got - want) / abs(want)


def _bessel_closed_forms(x):
    # With r = sqrt|x|, s = 2r and c = log|x|/2 + gamma: for x > 0,
    # F = I0(s), F' = I1(s)/r, G = -2 (K0(s) + c I0(s)),
    # G' = -2 (I0(s)/(2x) + (c I1(s) - K1(s))/r); for x < 0,
    # F = J0(s), F' = J1(s)/r, G = pi Y0(s) - 2c J0(s),
    # G' = pi Y1(s)/r + J0(s)/|x| - 2c J1(s)/r
    r = mp.sqrt(abs(x))
    c = mp.log(abs(x)) / 2 + mp.euler
    if x > 0:
        i0, i1 = mpmath.besseli(0, 2 * r), mpmath.besseli(1, 2 * r)
        k0, k1 = mpmath.besselk(0, 2 * r), mpmath.besselk(1, 2 * r)
        return {
            (bessel_f, 0): i0,
            (bessel_f, 1): i1 / r,
            (bessel_g, 0): -2 * (k0 + c * i0),
            (bessel_g, 1): -2 * (i0 / (2 * x) + (c * i1 - k1) / r),
        }
    j0, j1 = mpmath.besselj(0, 2 * r), mpmath.besselj(1, 2 * r)
    y0, y1 = mpmath.bessely(0, 2 * r), mpmath.bessely(1, 2 * r)
    return {
        (bessel_f, 0): j0,
        (bessel_f, 1): j1 / r,
        (bessel_g, 0): mp.pi * y0 - 2 * c * j0,
        (bessel_g, 1): mp.pi * y1 / r - j0 / x - 2 * c * j1 / r,
    }


# x = -10^4 sums alternating terms up to about 2^279 down to values near 2^-11
@pytest.mark.parametrize("x", [F(1), F(1, 2), F(3, 2), F(1, 1000), F(-3, 2),
                               F(10**4), F(-10**4)])
def test_bessel_sums_match_closed_forms(x):
    prec = 256
    with workprec(prec + 64):
        want = _bessel_closed_forms(mpf(x.numerator) / x.denominator)
        for (fn, deriv), value in want.items():
            assert _rel(fn(x, prec, deriv=deriv), value) <= mpf(2) ** -prec, (fn, deriv)


def test_bessel_sums_are_absolutely_accurate_near_a_zero():
    # for x < 0 the guarantee is absolute: F(x) = J0(2 sqrt|x|) vanishes at
    # x = -(j_{0,1}/2)^2, where no relative bound can hold
    prec = 256
    with workprec(prec + 64):
        man, exp = ((mpmath.besseljzero(0, 1) / 2) ** 2).man_exp
        x = -man * F(2) ** exp
        want = _bessel_closed_forms(mpf(x.numerator) / x.denominator)
        assert abs(want[bessel_f, 0]) < mpf(2) ** -prec
        for (fn, deriv), value in want.items():
            assert abs(fn(x, prec, deriv=deriv) - value) <= mpf(2) ** -prec, (fn, deriv)


@pytest.mark.parametrize("z", [F(1, 1000), F(10), F(25, 2), F(40)])
@pytest.mark.parametrize("alpha", [F(1, 3), F(-5, 3), None])
def test_direct_sums_match_closed_forms(z, alpha):
    # E_alpha(-z) = z^-alpha gamma(alpha, z), E(-z) = -(E1(z) + log z + gamma)
    prec = 256
    with workprec(prec + 64):
        zv = mpf(z.numerator) / z.denominator
        if alpha is None:
            got = direct_E_eval("E_loglike", z, prec)
            want = -(mpmath.e1(zv) + mp.log(zv) + mp.euler)
        else:
            got = direct_E_eval("E_alpha", z, prec, alpha=alpha)
            a = mpf(alpha.numerator) / alpha.denominator
            want = zv ** (-a) * mpmath.gammainc(a, 0, zv)
        assert _rel(got, want) <= mpf(2) ** -prec
