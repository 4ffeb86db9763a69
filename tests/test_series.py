import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from eoplab.numcore import DomainError
from eoplab.series import (
    TruncatedSeries,
    binomial_series,
    e_alpha_series,
    e_log_series,
    euler_substitution,
    exp_series,
    laguerre_sums,
    log_over_one_minus_z,
    partial_sums,
)


def _random_series(rng, order, den=6):
    return TruncatedSeries(
        [F(rng.randint(-9, 9), rng.randint(1, den)) for _ in range(order)]
    )


def _naive_mul(f, g):
    n = min(f.order, g.order)
    out = [F(0)] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] += f.coeffs[i] * g.coeffs[j]
    return TruncatedSeries(out)


def _naive_compose(f, g):
    # Horner-free O(N^3) oracle: sum f_k * g^k term by term
    n = g.order
    acc = TruncatedSeries([F(0)] * n)
    power = TruncatedSeries([F(1)] + [F(0)] * (n - 1))
    for k in range(f.order):
        acc = acc + power * f.coeffs[k]
        power = _naive_mul(power, g)
    return acc


def test_mul_by_geometric_is_partial_sums():
    rng = random.Random(2)
    f = _random_series(rng, 12)
    prod = f * TruncatedSeries([1] * 12)
    assert prod == partial_sums(f)
    for n in range(12):
        assert prod.coeffs[n] == sum(f.coeffs[: n + 1])


def test_div_identity_and_exp_inverse():
    e = exp_series(30)
    em = TruncatedSeries([(-1) ** n * c for n, c in enumerate(e.coeffs)])
    prod = e * em
    assert prod.coeffs[0] == 1 and all(c == 0 for c in prod.coeffs[1:])


# _naive_compose is the oracle for euler_substitution; these check that it is
# a composition: z is its identity and it is associative.


def test_compose_identity_substitution():
    rng = random.Random(9)
    f = _random_series(rng, 8)
    z = TruncatedSeries([F(0), F(1)] + [F(0)] * 6)
    assert _naive_compose(f, z) == f


def test_compose_associativity():
    rng = random.Random(10)
    for _ in range(5):
        f = _random_series(rng, 6)
        g = TruncatedSeries([F(0)] + [F(rng.randint(-3, 3), 2) for _ in range(5)])
        h = TruncatedSeries([F(0)] + [F(rng.randint(-3, 3), 2) for _ in range(5)])
        lhs = _naive_compose(_naive_compose(f, g), h)
        assert lhs == _naive_compose(f, _naive_compose(g, h))


def test_compose_matches_brute_force_expansion():
    # exp(-z/(1-z)) to order 10 against the naive oracle
    order = 10
    inner = TruncatedSeries([F(0)] + [F(-1)] * (order - 1))
    got = euler_substitution(exp_series(order))
    want = _naive_compose(exp_series(order), inner)
    assert got == want
    assert got.coeffs[0] == 1 and got.coeffs[1] == -1 and got.coeffs[2] == F(1, 2) - 1


def test_composed_alpha_instance_seed_coefficients():
    # (1-z)^(-3/2) E_{1/2}(-z/(1-z)) starts 2 + (7/3) z + ...
    order = 8
    inner = euler_substitution(e_alpha_series(F(1, 2), order))
    total = binomial_series(F(3, 2), order) * inner
    assert total.coeffs[0] == 2
    assert total.coeffs[1] == F(7, 3)


def test_binomial_series_values():
    assert binomial_series(F(1), 6) == TruncatedSeries([1] * 6)
    b0 = binomial_series(F(0), 5)
    assert b0.coeffs[0] == 1 and all(c == 0 for c in b0.coeffs[1:])
    assert binomial_series(F(3, 2), 3).coeffs[2] == F(15, 8)
    assert binomial_series(F(3, 2), 3).coeffs[2] == F(3, 2) * F(5, 2) / 2


def test_binomial_series_multiplicativity():
    rng = random.Random(21)
    for _ in range(6):
        b1 = F(rng.randint(-8, 8), rng.randint(1, 5))
        b2 = F(rng.randint(-8, 8), rng.randint(1, 5))
        lhs = binomial_series(b1, 30) * binomial_series(b2, 30)
        assert lhs == binomial_series(b1 + b2, 30)


@pytest.mark.parametrize("alpha", [F(1, 3), F(-29, 12), F(11, 12), F(-5, 2)])
def test_laguerre_sums_step_by_the_laguerre_values(alpha):
    # (n + alpha) times step n of the partial sums is L_n^(alpha)(1)
    import sympy

    sums = [F(a, b) for a, b in laguerre_sums(alpha.numerator, alpha.denominator, 41)]
    steps = [(n + alpha) * (s - t) for n, (s, t) in enumerate(zip(sums, [0, *sums]))]
    a = sympy.Rational(alpha.numerator, alpha.denominator)
    want = [sympy.assoc_laguerre(n, a, 1) for n in range(41)]
    assert steps == [F(int(w.p), int(w.q)) for w in want]


def test_log_over_one_minus_z():
    s = log_over_one_minus_z(8)
    assert s.coeffs[0] == 0
    assert s.coeffs[3] == -F(11, 6)


def test_alternating_harmonic_identity():
    # sum_{k<=n} 1/k = sum_{k<=n} (-1)^(k-1) binom(n,k)/k, n <= 50
    for n in range(1, 51):
        lhs = sum(F(1, k) for k in range(1, n + 1))
        rhs = sum(
            F((-1) ** (k - 1) * math.comb(n, k), k) for k in range(1, n + 1)
        )
        assert lhs == rhs


def test_mul_against_naive_oracle():
    rng = random.Random(8)
    for _ in range(10):
        f = _random_series(rng, rng.randint(1, 20))
        g = _random_series(rng, rng.randint(1, 20))
        assert f * g == _naive_mul(f, g)


def test_min_order_rule_no_silent_padding():
    a = TruncatedSeries([F(1), F(2)])
    b = TruncatedSeries([F(1), F(1), F(1), F(1)])
    assert (a + b).order == 2
    assert (a * b).order == 2


def test_efunction_generators():
    assert e_alpha_series(F(1, 2), 3).coeffs[0] == 2
    el = e_log_series(3)
    assert el.coeffs[0] == 0 and el.coeffs[1] == 1
    assert exp_series(4) == TruncatedSeries([1, 1, F(1, 2), F(1, 6)])
    assert e_alpha_series(F(1, 2), 4) == TruncatedSeries([2, F(2, 3), F(1, 5), F(1, 21)])
    with pytest.raises(DomainError):
        e_alpha_series(F(-2), 4)


# ---------------------------------------------------------------------------
# The integer-numerator ring: canonical form and ring laws
# ---------------------------------------------------------------------------

rationals = st.builds(F, st.integers(-10**6, 10**6), st.integers(1, 10**4))
scalars = st.one_of(st.integers(-20, 20), rationals)
series = st.lists(rationals, max_size=12).map(TruncatedSeries)
ZERO2 = TruncatedSeries([0, 0])
EXAMPLES = [TruncatedSeries([]), TruncatedSeries([F(-3, 4)]), ZERO2,
            TruncatedSeries([F(1, 6), F(-5, 9)])]


def _is_canonical(s):
    return (s.den > 0 and math.gcd(s.den, *s.nums) == 1
            and s.coeffs == tuple(F(c, s.den) for c in s.nums))


def _cut(s, order):
    return s.truncate(min(s.order, order))


def _with_examples(test):
    # orders 0, 1 and 2 and a zero vector, against each other
    for f in EXAMPLES:
        for g in EXAMPLES:
            test = example(f, g, EXAMPLES[-1], F(-7, 3))(test)
    return example(ZERO2, ZERO2, ZERO2, 0)(test)


@settings(max_examples=150, deadline=None)
@given(series, series, series, scalars)
@_with_examples
def test_ring_laws_and_canonical_results(f, g, h, c):
    n = min(f.order, g.order, h.order)
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f * (g - h) == f * g - f * h
    assert f - g == f + (-g)
    assert (f - g) + g == _cut(f, g.order)
    assert f * c == c * f
    assert (f + g) * c == f * c + g * c
    assert (f * c) * g == (f * g) * c
    assert f * c * 3 == f * (3 * c)
    assert _cut(f, n) * h == _cut(f * h, n)
    for s in (f + g, f - g, -f, f * g, f * c, f.truncate(f.order // 2),
              f.differentiate(), partial_sums(f), euler_substitution(f)):
        assert _is_canonical(s)


@given(st.lists(rationals, max_size=12), st.lists(st.integers(1, 30), min_size=12,
                                                  max_size=12))
def test_equal_coefficients_give_equal_series(coeffs, scales):
    # the same values written over other denominators
    other = [F(c.numerator * k, c.denominator * k) for c, k in zip(coeffs, scales)]
    s = TruncatedSeries(coeffs)
    assert s == TruncatedSeries(other) == TruncatedSeries(s.coeffs)
    assert hash(s) == hash(TruncatedSeries(other))
    assert _is_canonical(s) and list(s.coeffs) == coeffs
    assert s.coeffs is s.coeffs


def test_zero_and_short_series_are_canonical():
    assert ZERO2.nums == (0, 0) and ZERO2.den == 1
    assert TruncatedSeries([]).den == 1 and TruncatedSeries([]).order == 0
    assert TruncatedSeries([F(2, 6)]).nums == (1,) and TruncatedSeries([F(2, 6)]).den == 3
    assert ZERO2 * TruncatedSeries([F(5, 7), 1]) == ZERO2
    assert ZERO2 - ZERO2 == ZERO2 and ZERO2 * F(3, 5) == ZERO2
    assert TruncatedSeries([F(1, 2), F(1, 3)]) * 0 == ZERO2
    for s in EXAMPLES:
        assert euler_substitution(s).order == partial_sums(s).order == s.order
        assert s * TruncatedSeries([]) == TruncatedSeries([])
    assert euler_substitution(TruncatedSeries([F(2, 3), F(1, 3)])) == \
        TruncatedSeries([F(2, 3), F(-1, 3)])


@settings(max_examples=80, deadline=None)
@given(st.lists(rationals, max_size=14).map(TruncatedSeries))
@example(TruncatedSeries([]))
@example(TruncatedSeries([5]))
@example(ZERO2)
@example(TruncatedSeries([0, F(1, 2)]))
def test_euler_substitution_agrees_with_generic_compose(f):
    # and, as -z/(1-z) is its own inverse, undoes itself
    inner = TruncatedSeries([F(0)] + [F(-1)] * (f.order - 1))
    if f.order:
        assert euler_substitution(f) == _naive_compose(f, inner)
    assert euler_substitution(euler_substitution(f)) == f
