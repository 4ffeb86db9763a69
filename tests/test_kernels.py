"""The integer exact-sequence kernels against the Fraction loops they replaced.

Each oracle below is the plain per-term Fraction loop that the kernel used to
be; the kernels must give the same values under ``==``.
"""

import decimal
import math
import operator
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mpf, workprec

from eoplab.asymlab import asym_E_alpha
from eoplab.cli import _digits
from eoplab.constructions import (
    _a_direct,
    _e_convergent_rows,
    _euler_closed,
    _gamma_closed,
    e_convergents,
    gamma_coefficient_recurrence,
    gamma_seed_values,
    intseq,
    pade_exp,
)
from eoplab.holonomic import (
    HolonomicSequence,
    LeadingCoefficientVanishes,
    LinearRecurrence,
    unroll,
)
from eoplab.gammalab import _add_ratios, _inverse_power_sum
from eoplab.numcore import DomainError, PolyQ, binary_split, int_cauchy, small_cauchy
from eoplab.series import (
    TruncatedSeries,
    binomial_series,
    e_alpha_series,
    e_log_series,
    euler_substitution,
    exp_series,
    log_over_one_minus_z,
    partial_sums,
)


def oracle_int_cauchy(a, b, n):
    """The double loop that TruncatedSeries.__mul__ ran before int_cauchy."""
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x == 0:
            continue
        for j in range(min(n - i, len(b))):
            y = b[j]
            if y:
                out[i + j] += x * y
    return out


def oracle_gamma_closed(alpha, N):
    C = [F(1)]
    for j in range(1, N):
        C.append(C[-1] * (alpha + j))
    fact = [math.factorial(j) for j in range(N)]
    D = [F((-1) ** k) / (C[k] * fact[k] * (k + alpha)) for k in range(N)]
    out = []
    for n in range(N):
        s = F(0)
        for k in range(n + 1):
            s += D[k] / fact[n - k]
        out.append(C[n] * s)
    return out


def oracle_euler_closed(N):
    fact = [math.factorial(j) for j in range(N)]
    ek = [F(0)] + [F(fact[k] - 1, k * fact[k]) for k in range(1, N)]
    out = []
    for n in range(N):
        s = F(0)
        b = 1
        for k in range(1, n + 1):
            b = b * (n - k + 1) // k
            s += (-1) ** k * b * ek[k]
        out.append(s)
    return out


def oracle_unroll(seq, N):
    r = seq.recurrence.order
    vals = list(seq.initial[:N])
    lead = seq.recurrence.coeffs[-1]
    lower = seq.recurrence.coeffs[:-1]
    for n in range(N - r):
        ln = lead(F(n))
        if ln == 0:
            raise LeadingCoefficientVanishes(n)
        acc = F(0)
        for j, p in enumerate(lower):
            pj = p(F(n))
            if pj != 0:
                acc += pj * vals[n + j]
        vals.append(-acc / ln)
    return vals


def oracle_pade_exp(n):
    q = [F((-1) ** (n - k) * math.comb(2 * n - k, n), math.factorial(k))
         for k in range(n + 1)]
    p = []
    for j in range(n + 1):
        acc = F(0)
        for k in range(j + 1):
            acc += q[k] / math.factorial(j - k)
        p.append(acc)
    return PolyQ(p), PolyQ(q)


@st.composite
def alphas(draw):
    """alpha = p/q < 1 with q <= 12, negatives included, poles excluded."""
    q = draw(st.integers(1, 12))
    return F(draw(st.integers(-3 * q, q - 1).filter(lambda p: p % q)), q)


lengths = st.integers(1, 80)
small_rationals = st.builds(F, st.integers(-9, 9), st.integers(1, 6))


@given(alphas(), lengths)
@example(F(1, 3), 1)
@example(F(-7, 11), 2)
@example(F(-5, 3), 3)
def test_gamma_closed_matches_fraction_loop(alpha, N):
    assert _gamma_closed(alpha, N) == oracle_gamma_closed(alpha, N)


@given(lengths)
@example(1)
@example(2)
@example(3)
def test_euler_closed_matches_fraction_loop(N):
    assert _euler_closed(N) == oracle_euler_closed(N)


@given(st.integers(0, 80))
@example(0)
@example(1)
@example(2)
@example(3)
def test_pade_exp_matches_fraction_loop(n):
    assert pade_exp(n) == oracle_pade_exp(n)


@given(alphas(), lengths)
@example(F(1, 3), 1)
@example(F(-7, 11), 2)
@example(F(-5, 3), 3)
def test_unroll_matches_fraction_loop_on_gamma_recurrence(alpha, N):
    seq = HolonomicSequence(gamma_coefficient_recurrence(alpha), gamma_seed_values(alpha))
    assert unroll(seq, N) == oracle_unroll(seq, N)


def _outcome(fn, seq, N):
    try:
        return fn(seq, N)
    except LeadingCoefficientVanishes as exc:
        return ("vanishes", exc.n)


polys = st.lists(small_rationals, max_size=3).map(PolyQ)


@given(st.integers(1, 3).flatmap(lambda r: st.tuples(
    st.lists(polys, min_size=r, max_size=r),
    polys.filter(lambda p: not p.is_zero()),
    st.lists(small_rationals, min_size=r, max_size=r),
)), st.integers(1, 40))
def test_unroll_matches_fraction_loop_on_random_recurrences(case, N):
    lower, lead, initial = case
    seq = HolonomicSequence(LinearRecurrence([*lower, lead]), initial)
    assert _outcome(unroll, seq, N) == _outcome(oracle_unroll, seq, N)


@given(st.integers(1, 3), st.integers(0, 30), polys.filter(lambda p: not p.is_zero()),
       st.data())
def test_both_unrolls_stop_at_the_same_vanishing_index(r, root, cofactor, data):
    # the leading coefficient (n - root) * cofactor(n) has a root inside the range
    lead = PolyQ([-root, 1]) * cofactor
    lower = data.draw(st.lists(polys, min_size=r, max_size=r))
    initial = data.draw(st.lists(small_rationals, min_size=r, max_size=r))
    seq = HolonomicSequence(LinearRecurrence([*lower, lead]), initial)
    N = root + r + 1
    with pytest.raises(LeadingCoefficientVanishes) as new:
        unroll(seq, N)
    with pytest.raises(LeadingCoefficientVanishes) as old:
        oracle_unroll(seq, N)
    assert new.value.n == old.value.n <= root


# Entries of a few bits up to about 1 300 digits, zeros included, so that the
# products' fields span the str and Decimal conversions.
entries = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-2**64, 2**64),
                    st.integers(-10**1300, 10**1300))
sizes = st.one_of(st.integers(0, 6), st.integers(120, 170))


@st.composite
def cauchy_cases(draw):
    """(a, b, n): vectors as long as n, or a little shorter or longer."""
    n = draw(sizes)
    a = draw(st.lists(entries, min_size=max(0, n - 2), max_size=n + 2))
    b = draw(st.lists(entries, min_size=max(0, n - 2), max_size=n + 2))
    return a, b, n


@settings(max_examples=60, deadline=None)
@given(cauchy_cases())
@example(([], [], 0))
@example(([5], [-7], 1))
@example(([1, -2], [-3, 4], 2))
@example(([0] * 200, [1] * 200, 200))
@example(([0, 0], [0, -11], 2))
@example(([-1], [-1], 1))
def test_int_cauchy_matches_the_double_loop(case):
    # small sizes reach the edge cases of the packing: one field, borrows into
    # the dropped top field, all-zero vectors
    a, b, n = case
    assert int_cauchy(a, b, n) == oracle_int_cauchy(a, b, n)


def test_int_cauchy_all_negative_product():
    n = 150
    a = [-(3 * i + 1) ** 5 for i in range(n)]
    b = [(7 * i + 2) ** 9 for i in range(n)]
    got = int_cauchy(a, b, n)
    assert all(c < 0 for c in got)
    assert got == oracle_int_cauchy(a, b, n)


def test_int_cauchy_wide_field_leaves_process_state_alone():
    # a coefficient past the int/str digit limit goes through Decimal; neither
    # that limit nor the thread's decimal context may change
    n = 12
    a = [-(10**4400) - 7] + [(-1) ** i * (i + 1) for i in range(1, n)]
    b = [3**i for i in range(n)]
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)  # Python >= 3.10.7
    limit = get_limit()
    ctx = decimal.getcontext()
    before = repr(ctx)
    got = int_cauchy(a, b, n)
    assert got == oracle_int_cauchy(a, b, n)
    assert got[0].bit_length() > 4300 * 3.32
    assert get_limit() == limit
    assert decimal.getcontext() is ctx and repr(ctx) == before


def test_int_cauchy_without_the_int_str_digit_limit(monkeypatch):
    # Python before 3.10.7 has no sys.get_int_max_str_digits
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    a = [(-1) ** i * 5**i for i in range(140)]
    b = [11**i - 7**i for i in range(140)]
    assert int_cauchy(a, b, 140) == oracle_int_cauchy(a, b, 140)


def oracle_polyq_mul(a, b):
    """The double loop that PolyQ.__mul__ ran before small_cauchy."""
    out = [F(0)] * (len(a) + len(b) - 1 or 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


fraction_lists = st.lists(st.one_of(st.just(F(0)), small_rationals), max_size=6)
mpfs = st.floats(-1e6, 1e6, allow_nan=False).map(mpf)


@given(st.one_of(st.tuples(fraction_lists, fraction_lists),
                 st.tuples(st.lists(mpfs, min_size=1, max_size=6),
                           st.lists(mpfs, max_size=6))),
       st.integers(0, 12))
@example(([], []), 0)
@example(([], [F(2)]), 1)
@example(([F(3)], []), 1)
@example(([F(0)], [F(-5, 2)]), 1)
@example(([F(0), F(0)], [F(1), F(1)]), 3)
@example(([mpf(0), mpf(2)], [mpf(-1)]), 3)
def test_small_cauchy_matches_the_double_loop(case, n):
    # the truncated product is the full one cut to n terms, summed in the same
    # order, and keeps the entry type; PolyQ products are the full one
    a, b = case
    full = oracle_polyq_mul(a, b)
    got = small_cauchy(a, b, n)
    assert got == (full + [0] * n)[:n]
    if a:
        assert all(type(c) is type(a[0]) for c in got)
    if all(isinstance(c, F) for c in a + b):
        assert PolyQ(a) * PolyQ(b) == PolyQ(full)


@pytest.mark.parametrize("N", [20, 300])
def test_gamma_series_product_matches_the_double_loop(N):
    inner = euler_substitution(e_alpha_series(F(-7, 11), N))
    outer = binomial_series(F(4, 11), N)
    prod = outer * inner
    den_f = math.lcm(*(c.denominator for c in outer.coeffs))
    den_g = math.lcm(*(c.denominator for c in inner.coeffs))
    fn = [c.numerator * (den_f // c.denominator) for c in outer.coeffs]
    gn = [c.numerator * (den_g // c.denominator) for c in inner.coeffs]
    want = [F(c, den_f * den_g) for c in oracle_int_cauchy(fn, gn, N)]
    assert list(prod.coeffs) == want


def oracle_euler_substitution(coeffs):
    """The Horner loop of euler_substitution on Fractions: each step is
    acc <- acc * (-z/(1-z)) + f_k (shift up, negated prefix sums)."""
    n = len(coeffs)
    acc = [F(0)] * n
    for k in range(n - 1, -1, -1):
        new = [F(0)] * n
        run = F(0)
        for j in range(1, n):
            run += acc[j - 1]
            new[j] = -run
        new[0] = coeffs[k]
        acc = new
    return acc


def oracle_partial_sums(coeffs):
    out, acc = [], F(0)
    for c in coeffs:
        acc += c
        out.append(acc)
    return out


def oracle_binomial_series(beta, order):
    out = [F(1)]
    for n in range(1, order):
        out.append(out[-1] * (beta + n - 1) / n)
    return out[:order]


def oracle_log_over_one_minus_z(order):
    out, h = [F(0)], F(0)
    for n in range(1, order):
        h += F(1, n)
        out.append(-h)
    return out[:order]


def oracle_exp_series(order):
    out = [F(1)]
    for n in range(1, order):
        out.append(out[-1] / n)
    return out[:order]


def oracle_e_alpha_series(alpha, order):
    out, fact = [], F(1)
    for n in range(order):
        if n > 0:
            fact /= n
        out.append(fact / (n + alpha))
    return out


def oracle_e_log_series(order):
    out, fact = [F(0)], F(1)
    for n in range(1, order):
        fact /= n
        out.append(fact / n)
    return out[:order]


orders = st.integers(0, 60)
# alpha away from the poles 0, -1, -2, ..., of either sign and above 1 too
non_poles = st.builds(F, st.integers(-40, 40), st.integers(1, 12)).filter(
    lambda a: a.denominator > 1 or a > 0)


def _same_series(s, want):
    """Equal coefficients, and the canonical series of those coefficients."""
    assert list(s.coeffs) == want
    assert s == TruncatedSeries(want)
    assert s.den > 0 and math.gcd(s.den, *s.nums) == 1


@given(st.builds(F, st.integers(-30, 30), st.integers(1, 12)), orders)
@example(F(0), 5)
@example(F(1), 6)
@example(F(-2), 6)
@example(F(4, 3), 0)
@example(F(4, 3), 1)
@example(F(4, 3), 2)
def test_binomial_series_matches_fraction_loop(beta, order):
    _same_series(binomial_series(beta, order), oracle_binomial_series(beta, order))


@given(non_poles, orders)
@example(F(1, 3), 0)
@example(F(-7, 11), 1)
@example(F(-5, 3), 2)
@example(F(5, 2), 40)
def test_e_alpha_series_matches_fraction_loop(alpha, order):
    _same_series(e_alpha_series(alpha, order), oracle_e_alpha_series(alpha, order))


@pytest.mark.parametrize("order", [0, 1, 2, 3, 17, 60, 200])
def test_fixed_constructors_match_fraction_loops(order):
    _same_series(e_log_series(order), oracle_e_log_series(order))
    _same_series(log_over_one_minus_z(order), oracle_log_over_one_minus_z(order))
    _same_series(exp_series(order), oracle_exp_series(order))
    # the Euler series route's inner series
    _same_series(partial_sums(euler_substitution(e_log_series(order))),
                 oracle_partial_sums(oracle_euler_substitution(oracle_e_log_series(order))))


@settings(max_examples=80, deadline=None)
@given(st.lists(small_rationals, max_size=40) | st.lists(
    st.builds(F, st.integers(-10**30, 10**30), st.integers(1, 10**12)), max_size=25))
@example([])
@example([F(5)])
@example([F(0), F(0)])
@example([F(1, 2), F(-1, 3)])
def test_euler_substitution_and_partial_sums_match_fraction_loops(coeffs):
    f = TruncatedSeries(coeffs)
    _same_series(euler_substitution(f), oracle_euler_substitution(coeffs))
    _same_series(partial_sums(f), oracle_partial_sums(coeffs))


def oracle_e_convergent(n):
    """(|n! P_n(1)|, |n! Q_n(1)|) from the Pade approximant itself."""
    p, q = pade_exp(n)
    fact = math.factorial(n)
    num, den = fact * p(F(1)), fact * q(F(1))
    assert num.denominator == den.denominator == 1
    return abs(num.numerator), abs(den.numerator)


def test_e_convergent_rows_match_pade_evaluation():
    rows = _e_convergent_rows(80)
    assert rows == [oracle_e_convergent(n) for n in range(1, 81)]
    assert all(e_convergents(n) == rows[n - 1] for n in (1, 2, 40, 80))
    with pytest.raises(DomainError):
        _e_convergent_rows(0)


def oracle_intseq(kmax, prec):
    """(A, disagreement) as intseq gave them before the backward recurrence:
    every A_k a direct sum, checked against the forward run from A_0, A_1."""
    wp = prec + int(2 * math.lgamma(kmax + 1) / math.log(2)) + 32
    direct = [_a_direct(k, wp) for k in range(kmax + 1)]
    with workprec(wp):
        rec = [direct[0], direct[1]]
        for k in range(1, kmax):
            rec.append(k * rec[k] + rec[k - 1])
        return direct, max(abs(a - b) for a, b in zip(direct, rec))


@settings(max_examples=40)
@given(st.integers(2, 160), st.sampled_from([53, 128, 256, 512]))
@example(2, 53)
@example(4, 512)
@example(5, 53)
@example(16, 128)
@example(150, 512)
@example(160, 53)
def test_intseq_backward_recurrence_matches_the_direct_sums(kmax, prec):
    res = intseq(kmax, prec)
    direct, disagreement = oracle_intseq(kmax, prec)
    assert len(res.A) == kmax + 1
    assert all(abs(a - d) <= abs(d) * mpf(2) ** -prec for a, d in zip(res.A, direct))
    assert res.recurrence_disagreement <= mpf(2) ** -prec
    if kmax < 5:
        return  # the few-ulp gap at k <= 1 can set the disagreement's last digits
    # the strings eop writes. 20 digits lie within wp (at least prec + 32 bits)
    # everywhere; 100 digits only at 512 bits, as below that they reach past
    # what wp carries at small kmax and show the two routes' own rounding
    for d in (20, 100) if prec >= 512 else (20,):
        assert [_digits(a, d, prec) for a in res.A] == [_digits(a, d, prec) for a in direct]
    assert _digits(res.recurrence_disagreement, 8, prec) == _digits(disagreement, 8, prec)


def oracle_pochhammer(a, n):
    """Rising factorial a(a+1)...(a+n-1), the numcore function asym_E_alpha
    called afresh for every tail index n."""
    out = F(1)
    for i in range(n):
        out *= a + i
    return out


@settings(max_examples=40)
@given(st.builds(F, st.integers(-40, 40), st.integers(1, 12))
       .filter(lambda a: not (a.denominator == 1 and a <= 0)), st.integers(0, 60))
@example(F(1, 2), 0)
@example(F(1, 2), 1)
@example(F(1), 20)
def test_asym_tail_matches_the_per_index_pochhammer(alpha, order):
    tail = asym_E_alpha(alpha, order, 64).tail_coeffs
    assert tail == tuple((-1) ** n * oracle_pochhammer(1 - alpha, n) for n in range(order))


def oracle_sum(terms):
    """sum n/d, one Fraction addition (and gcd) per term, as psi, polygamma and
    euler_gamma formed their shift sums."""
    out = F(0)
    for n, d in terms:
        out += F(n, d)
    return out


def oracle_product(factors, q):
    """prod (f/q), one Fraction product per factor, as gamma_value did."""
    out = F(1)
    for f in factors:
        out *= F(f, q)
    return out


ratio_terms = st.lists(st.tuples(st.integers(-10**6, 10**6),
                                 st.integers(-10**6, 10**6).filter(bool)), max_size=40)


@given(ratio_terms)
@example([])
@example([(3, -7)])
@example([(1, 2), (-1, 2)])
def test_binary_split_sum_matches_the_fraction_loop(terms):
    assert F(*binary_split(_add_ratios, terms, (0, 1))) == oracle_sum(terms)


@given(st.lists(st.integers(-10**6, 10**6), max_size=40), st.integers(1, 12))
@example([], 5)
@example([-4], 3)
@example([2, 0, 5], 7)
def test_binary_split_product_matches_the_fraction_loop(factors, q):
    assert F(binary_split(operator.mul, factors, 1), q ** len(factors)) == \
        oracle_product(factors, q)


@given(st.builds(F, st.integers(-60, 60), st.integers(1, 12))
       .filter(lambda x: not (x.denominator == 1 and x <= 0)),
       st.integers(0, 60), st.integers(1, 5))
@example(F(1), 0, 1)
@example(F(-5, 3), 1, 2)
def test_inverse_power_sum_matches_the_fraction_loop(x, m, e):
    assert _inverse_power_sum(x, m, e) == oracle_sum((1, (x + j) ** e) for j in range(m))
