import itertools
import math
import random
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import example, given, strategies as st
from mpmath import mp, mpf, workprec

from eoplab import numcore
from eoplab.numcore import (
    DomainError,
    PolyQ,
    PrecisionError,
    bernoulli,
    capped_sum,
    least_squares_line,
    poly_gcd,
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
    from eoplab.holonomic import (DifferentialOperator, HolonomicSequence,
                                  LinearRecurrence, ode_to_recurrence)
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
        "HolonomicSequence": (HolonomicSequence(rec, [1]), HolonomicSequence(rec, [F(3, 3)]),
                              HolonomicSequence(rec, [2])),
    }


@pytest.mark.parametrize("name", ["PolyQ", "TruncatedSeries", "DifferentialOperator",
                                  "LinearRecurrence", "HolonomicSequence"])
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


def test_capped_sum_raises_past_its_cap():
    with pytest.raises(PrecisionError, match="ones did not converge"):
        capped_sum(itertools.repeat(mpf(1)), mpf(2) ** -10, 50, "ones")
    # the cap-th term may still stop the sum
    assert capped_sum(iter([mpf(1), mpf(0)]), mpf(2) ** -10, 2, "x") == 1


def test_capped_sum_skips_zero_terms_before_least():
    terms = [mpf(0), mpf(0), mpf(1), mpf(2) ** -20, mpf(5)]
    assert capped_sum(iter(terms), mpf(2) ** -10, 10, "x", least=2) == 1 + mpf(2) ** -20
    assert capped_sum(iter(terms), mpf(2) ** -10, 10, "x") == 0


def test_capped_sum_returns_after_the_first_small_term():
    terms = iter([mpf(3), mpf(-1), -mpf(2) ** -30, mpf(7)])
    assert capped_sum(terms, mpf(2) ** -10, 10, "x", acc=mpf(1)) == 3 - mpf(2) ** -30
    assert next(terms) == 7


@pytest.mark.parametrize("term,small", [
    (mpf(2) ** -12, True),            # a binary magnitude below tiny's
    (mpf(2) ** -11, True),            # tiny's binary magnitude, below it
    (-mpf(2) ** -11, True),
    (mpf(3) / 2 ** 12, False),        # tiny itself
    (mpf(7) / 2 ** 13, False),        # tiny's binary magnitude, above it
    (mpf(2) ** -10, False),           # a binary magnitude above tiny's
])
def test_capped_sum_threshold_is_exact(term, small):
    tiny = mpf(3) / 2 ** 12  # in [2^-11, 2^-10)
    got = capped_sum(iter([term, mpf(1), mpf(0)]), tiny, 5, "x")
    assert got == (term if small else term + 1)
