import math
import random
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf, workprec

from eoplab import numcore
from eoplab.constructions import bessel_f, bessel_g
from eoplab.numcore import (
    DomainError,
    PolyQ,
    PrecisionError,
    bernoulli,
    exact_real,
    least_squares_line,
    off_poles,
    poly_gcd,
    recurrence_sum,
    to_mpf,
)


def pochhammer(a, n):
    """Rising factorial a(a+1)...(a+n-1), one Fraction product per factor."""
    if n < 0:
        raise DomainError("pochhammer needs n >= 0")
    return math.prod((a + i for i in range(n)), start=F(1))


def test_pochhammer_examples():
    assert pochhammer(F(1), 4) == 24
    assert pochhammer(F(-17, 5), 0) == 1
    assert pochhammer(F(1, 2), 3) == F(15, 8)


def test_pochhammer_splitting_identity():
    rng = random.Random(7)
    for _ in range(25):
        a = F(rng.randint(-40, 40), rng.randint(1, 9))
        m = rng.randint(0, 50)
        n = rng.randint(0, 50)
        assert pochhammer(a, m + n) == pochhammer(a, m) * pochhammer(a + m, n)


def _binomial_general(n, k, alpha):
    # binom(n+alpha, k+alpha) = prod_{j=k+1}^{n} (j+alpha) / (n-k)!
    return pochhammer(k + 1 + alpha, n - k) / math.factorial(n - k)


def test_binomial_general():
    assert _binomial_general(5, 5, F(22, 7)) == 1
    assert _binomial_general(1, 0, F(1, 2)) == F(3, 2)
    # n = k = 0 feeds the first sequence value 1/alpha downstream
    assert _binomial_general(0, 0, F(1, 2)) * F(1) / (F(0) + F(1, 2)) == 2
    with pytest.raises(DomainError):
        _binomial_general(2, 3, F(1, 2))


def test_rational_field_spot_checks():
    rng = random.Random(11)
    for _ in range(50):
        a = F(rng.randint(-99, 99), rng.randint(1, 99))
        b = F(rng.randint(1, 99), rng.randint(1, 99))
        c = F(rng.randint(-99, 99), rng.randint(1, 99))
        assert (a / b) * b == a
        assert a + (-a) == 0
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c


def test_poly_eval_examples():
    assert PolyQ([])(F(3, 7)) == 0
    # leading ODE coefficient z - 3z^2 + 3z^3 - z^4 vanishes at z = 1
    assert PolyQ([0, 1, -3, 3, -1])(F(1)) == 0
    assert PolyQ([-2, 1])(F(1)) == -1


polys = st.lists(st.builds(F, st.integers(-50, 50), st.integers(1, 12)),
                 max_size=8).map(PolyQ)


@given(polys, polys.filter(lambda p: not p.is_zero()))
@example(PolyQ([]), PolyQ([3]))
@example(PolyQ([1, 2]), PolyQ([0, 0, 0, F(1, 2)]))
@example(PolyQ([1, 2, 1]), PolyQ([1, 1]))
def test_poly_arithmetic_roundtrip(a, b):
    q, r = a.divmod(b)
    assert a == q * b + r
    assert r.is_zero() or r.degree() < b.degree()


def test_poly_gcd_and_content():
    p = PolyQ([F(-2), F(0), F(2)])        # 2(z^2 - 1)
    q = PolyQ([F(1), F(2), F(1)])         # (z+1)^2
    g = poly_gcd(p, q)
    assert g == PolyQ([F(1), F(1)])       # monic z + 1
    assert PolyQ([F(2, 3), F(4, 3)]).content() == F(2, 3)
    assert p.exact_div(g) == PolyQ([F(-2), F(2)])


def _value_pairs():
    """(a, b, c): a and b the same value built along two routes, c another."""
    from eoplab.holonomic import DifferentialOperator, LinearRecurrence, ode_to_recurrence
    from eoplab.series import TruncatedSeries, exp_series

    rec = LinearRecurrence([PolyQ([-1]), PolyQ([1, 1])])  # (n+1) P_{n+1} = P_n
    return {
        "PolyQ": (PolyQ([1, F(1, 2), 0]), PolyQ([1, 2]) * PolyQ([1]) - PolyQ([0, F(3, 2)]),
                  PolyQ([1])),
        "TruncatedSeries": (TruncatedSeries([1, 1, F(1, 2)]), exp_series(3),
                            exp_series(4)),
        "DifferentialOperator": (DifferentialOperator([[1], [-1], []]),
                                 DifferentialOperator([PolyQ([F(2, 2)]), PolyQ([-1])]),
                                 DifferentialOperator([[1], [1]])),
        "LinearRecurrence": (rec, ode_to_recurrence(DifferentialOperator([[1], [-1]])),
                             LinearRecurrence([[-1], [2, 1]])),
    }


@pytest.mark.parametrize("name", ["PolyQ", "TruncatedSeries", "DifferentialOperator",
                                  "LinearRecurrence"])
def test_value_classes_compare_by_value_and_are_immutable(name):
    a, b, c = _value_pairs()[name]
    assert a is not b and a == b and hash(a) == hash(b) and not a != b
    assert a != c and a != tuple(a._key())
    assert len({a, b, c}) == 2
    field = a._fields[0]
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(c, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.other = 1
    assert a == b


def test_polyq_repr():
    assert repr(PolyQ([])) == "PolyQ(0)"
    assert repr(PolyQ([F(-1, 2), 0, 3])) == "PolyQ(-1/2*x^0 + 3*x^2)"


def test_poly_degree_of_zero_is_none():
    assert PolyQ([]).degree() is None
    assert PolyQ([0, 0]).degree() is None
    assert PolyQ([0, F(1)]).degree() == 1


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == F(-1, 2)
    assert bernoulli(2) == F(1, 6)
    assert bernoulli(4) == F(-1, 30)
    assert bernoulli(12) == F(-691, 2730)
    assert all(bernoulli(k) == 0 for k in (3, 5, 7, 9, 11))


def _bernoulli_by_recurrence(m):
    """B_0..B_m by B_j = -1/(j+1) sum_{i<j} binom(j+1, i) B_i (independent oracle)."""
    out = [F(1)]
    for j in range(1, m + 1):
        out.append(-sum(math.comb(j + 1, i) * out[i] for i in range(j)) / (j + 1))
    return out


def test_bernoulli_matches_mpmath_bernfrac():
    for k in range(401):
        p, q = mpmath.bernfrac(k)
        assert bernoulli(k) == F(int(p), int(q)), k


def test_bernoulli_matches_defining_recurrence():
    assert [bernoulli(k) for k in range(121)] == _bernoulli_by_recurrence(120)


def test_bernoulli_table_grows_out_of_order(monkeypatch):
    # start from the initial table (B_0, B_1) so that 300 and 401 each grow it
    monkeypatch.setattr(numcore, "_BERNOULLI", [F(1), F(-1, 2)])
    monkeypatch.setattr(numcore, "_tangent_column", [1])
    for k in (300, 2, 401):
        p, q = mpmath.bernfrac(k)
        assert bernoulli(k) == F(int(p), int(q)), k
    assert len(numcore._BERNOULLI) > 401


def test_bernoulli_rejects_negative_index():
    with pytest.raises(DomainError):
        bernoulli(-1)


def test_to_mpf_rounds_at_requested_precision():
    x = to_mpf(F(1, 3), 128)
    with workprec(200):
        assert abs(x - mpf(1) / 3) < mpf(2) ** -126


def _neighbours(r, prec):
    """The prec-bit floats next to the nonzero mpf r, below and above in
    magnitude, as Fractions, and whether r's prec-bit mantissa is even."""
    sign, man, exp, bc = r._mpf_
    top = exp + bc  # 2^(top-1) <= |r| < 2^top
    x = F(man) * F(2) ** exp
    gap = F(2) ** (top - prec)
    below = gap / 2 if man == 1 else gap  # |r| = 2^(top-1): the spacing halves below it
    s = -1 if sign else 1
    return s * (x - below), s * x, s * (x + gap), (x / gap) % 2 == 0


@settings(max_examples=300, deadline=None)
@given(st.integers(-(2**3000), 2**3000), st.integers(1, 2**3000),
       st.sampled_from([2, 53, 256, 1000]))
@example(0, 1, 53)
@example(1, 3, 2)
@example(2**600 + 1, 2**600, 53)  # just above 1
@example(2**600 - 1, 2**600, 53)  # just below 1, where the spacing halves
@example(2**53 + 1, 2**53, 53)  # a tie, to the even mantissa 2^52
@example(-(2**3000) + 1, 3, 256)
def test_to_mpf_rounds_a_fraction_once_to_the_nearest(num, den, prec):
    q = F(num, den)
    r = to_mpf(q, prec)
    if not q:
        assert not r
        return
    assert r._mpf_[3] <= prec and (r < 0) == (q < 0)
    lo, x, hi, even = _neighbours(r, prec)
    # no neighbouring float is nearer q, and a tie goes to the even mantissa
    assert abs(q - x) <= abs(q - lo) and abs(q - x) <= abs(q - hi)
    if abs(q - x) in (abs(q - lo), abs(q - hi)):
        assert even


def test_to_mpf_keeps_the_value_of_narrow_numerators():
    # a numerator within prec bits is exact as an mpf, so dividing it once by
    # the denominator was already a single rounding
    rng = random.Random(16)
    for _ in range(200):
        num, den = rng.getrandbits(250) + 1, rng.getrandbits(rng.choice([60, 600, 3000])) + 1
        with workprec(256):
            assert to_mpf(F(num, den), 256) == mpf(num) / den


def test_double_run_accepts_stable_and_rejects_drifting(double_run):
    stable = lambda p: to_mpf(F(355, 113), p)
    double_run(stable, 128)

    def drifting(p):
        with workprec(p):
            return mpf(1) + mpf(2) ** (-80)* (1 if p == 128 else 0)

    with pytest.raises(PrecisionError):
        double_run(drifting, 128)


def test_least_squares_line():
    xs = [1.0, 2.0, 4.0, 8.0]
    assert least_squares_line(xs, [3 * x - 1 for x in xs]) == pytest.approx((3, -1))
    # no spread in x: a flat line through the mean
    assert least_squares_line([2.0], [5.0]) == (0.0, 5.0)
    assert least_squares_line([2.0, 2.0], [1.0, 4.0]) == (0.0, 2.5)


def _within_the_sum_bound(got, want, prec):
    # rounding 2^-prec |S_N| plus the tail 2^-(prec+2) |S_N|, with
    # |S_N| <= |S| / (1 - 2^-(prec+2)) < |S| (1 + 2^-prec)
    with workprec(4 * prec):
        want = mpf(want.numerator) / want.denominator if isinstance(want, F) else want
        return abs(got - want) <= mpf(5) / 4 * mpf(2) ** -prec * abs(want) * (1 + mpf(2) ** -prec)


@pytest.mark.parametrize("prec", [53, 256, 1024, 4096])
def test_recurrence_sum_matches_closed_forms(prec):
    # sum (3/7)^n / n!: the ratio 3/(7(n+1)) is at most 1/2 from n = 0
    got = recurrence_sum(lambda n: ([[3]], 7 * (n + 1)), [1], 1, 0, prec)
    with workprec(4 * prec):
        assert _within_the_sum_bound(got, mp.exp(mpf(3) / 7), prec)
    # 1/3, 1, 3, 9, 27, 27/2, 27/4, ...: a ratio of exactly 1/2 from n0 = 4,
    # where the tail from N is exactly 2 v_N, so the factor 2 is tight
    got = recurrence_sum(lambda n: ([[3]], 1) if n < 4 else ([[1]], 2), [1], 3, 4, prec)
    assert _within_the_sum_bound(got, F(202, 3), prec)
    # a vector state: sum (n+1) 4^-n = 16/9 from ((n+1) 4^-n, 4^-n), whose
    # first entry has the ratio (n+2)/(4(n+1)) <= 1/2
    got = recurrence_sum(lambda n: ([[1, 1], [0, 1]], 4), [1, 1], 1, 0, prec)
    assert _within_the_sum_bound(got, F(16, 9), prec)


def test_recurrence_sum_needs_its_n0():
    # 1, 2^-(prec+10), 2, 1, 1/2, ...: the second term lies below 2^-(prec+2)
    # times the partial sum, and the terms rise again after it
    prec = 128
    dip = 2 ** (prec + 10)

    def step(n):
        return ([[1]], dip) if n == 0 else ([[2 * dip]], 1) if n == 1 else ([[1]], 2)

    assert _within_the_sum_bound(recurrence_sum(step, [1], 1, 2, prec), 5 + F(1, dip), prec)
    assert recurrence_sum(step, [1], 1, 0, prec) == 1


def test_recurrence_sum_stops_when_every_term_vanishes():
    assert recurrence_sum(lambda n: ([[0]], 1), [0], 1, 0, 53) == 0
    assert bessel_g(0, 256) == 0  # G(0) = -2 H_0 = 0
    assert bessel_f(0, 256) == 1
    assert bessel_g(0, 256, deriv=2) == -mpf(3) / 2  # -2 H_2 / 2!


def test_exact_real_reads_every_finite_real_exactly():
    with workprec(64):
        third = mpf(1) / 3
    man, exp = third.man_exp
    assert exact_real(third) == man * F(2) ** exp
    assert exact_real(-third) == -man * F(2) ** exp
    assert exact_real(0.1) == F(3602879701896397, 2**55)
    assert exact_real(mpf(0)) == 0 and exact_real(7) == 7
    # finite values beyond the float range stay exact
    man, exp = mpf("1e400").man_exp
    assert exact_real(mpf("1e400")) == man * F(2) ** exp > 10**399
    assert exact_real(F(10**400, 3)) == F(10**400, 3)
    for x in (float("nan"), float("-inf"), mpf("nan"), mpf("-inf"), complex(1, 0), mp.mpc(1, 1)):
        with pytest.raises(DomainError):
            exact_real(x)


def test_off_poles_reads_through_exact_real():
    assert off_poles(mpf(1) / 2, "x") == off_poles(0.5, "x") == F(1, 2)
    assert off_poles(mpf(-7) / 4, "x") == F(-7, 4)
    for x in (0, -3.0, mpf(-2), float("nan"), mpf("inf"), complex(1, 1)):
        with pytest.raises(DomainError):
            off_poles(x, "x")
