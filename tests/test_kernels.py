"""The integer exact-sequence kernels against the Fraction loops they replaced.

Each oracle below is the plain per-term Fraction loop that the kernel used to
be; the kernels must give the same values under ``==``.
"""

import contextlib
import decimal
import functools
import math
import operator
import random
import sys
from fractions import Fraction as F
from itertools import count

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf, workprec

from eoplab.asymlab import asym_E_alpha
from eoplab.cli import _digits
from eoplab import constructions
from eoplab.constructions import (
    _closed,
    _gate,
    bessel_f,
    _win_weight,
    e_convergents,
    euler_seq,
    gamma_coefficient_recurrence,
    gamma_generating_ode,
    gamma_seq,
    intseq,
    limit_estimate,
    pade_exp,
)
from eoplab.holonomic import (
    DifferentialOperator,
    LeadingCoefficientVanishes,
    LinearRecurrence,
    ode_to_recurrence,
    unroll,
)
from eoplab import gammajets
from eoplab.gammajets import y_alpha_i
from eoplab.gammalab import _add_ratios, _inverse_power_sum
from eoplab.kernels import (PolyQ, binomial_transform, decay_exponent, int_cauchy,
                            least_squares_line, poly_gcd, weighted_mean)
from eoplab.numcore import (GUARD_BITS, DomainError, PrecisionError, RouteDisagreement,
                            _decimal_str, _parse_int, binary_split, small_cauchy, to_mpf)
from eoplab.series import (
    TruncatedSeries,
    _canonical,
    _tail_products,
    binomial_series,
    e_alpha_series,
    e_log_series,
    euler_substitution,
    exp_series,
    laguerre_sums,
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


def neighbour_sum_transform(a):
    """[sum_k binom(n, k) a_k for n < len(a)] by N passes of neighbour sums,
    the loop the closed routes ran before ``numcore.binomial_transform``."""
    out = []
    while a:
        out.append(a[0])
        a = list(map(operator.add, a, a[1:]))
    return out


def old_gamma_closed(alpha, N):
    """The gamma closed route before the one engine, with its unreduced pairs."""
    p, q = alpha.numerator, alpha.denominator
    lin = [k * q + p for k in range(N)]
    tail = [math.lcm(*lin)] * N  # tail[k] = lcm c_{N-1} / c_k
    for k in range(N - 2, -1, -1):
        tail[k] = tail[k + 1] * lin[k + 1]
    a = [(-1) ** k * q ** (k + 1) * (tail[k] // lin[k]) for k in range(N)]
    out = []
    scale = 1  # q^n n!
    for n, s in enumerate(neighbour_sum_transform(a)):
        if n:
            scale *= q * n
        out.append((s, scale * tail[n]))
    return out


def old_euler_closed(N):
    """The Euler closed route before the one engine, with its unreduced pairs."""
    lcm = math.lcm(*range(1, N))
    top = math.factorial(N - 1)
    a = [0]
    fact = 1
    for k in range(1, N):
        fact *= k
        a.append((-1) ** k * (fact - 1) * (lcm // k) * (top // fact))
    M = lcm * top
    return [(s, M) for s in neighbour_sum_transform(a)]


def explicit_denominators(beta, pairs):
    """[q^n n! lcm_{k<=n} |v_k| for n < len(pairs)], beta = s/q, pairs (u_k, v_k)."""
    q = F(beta).denominator
    return [q**n * math.factorial(n) * math.lcm(*(v for _, v in pairs[:n + 1]))
            for n in range(len(pairs))]


def engine_closed(run, N):
    """The closed route's (s_n, m_n) pairs from the family record that ``run``
    builds, and D_n from that record's beta and terms."""
    families = []
    with pytest.MonkeyPatch.context() as m:
        m.setitem(constructions._METHODS, "closed",
                  lambda family, D: families.append(family) or [(1, 1)] * len(D))
        run(1, method="closed")
    family = families[0]
    return _closed(family.beta, family.terms, N), explicit_denominators(family.beta,
                                                                        family.terms(N))


def over_d(pairs, D):
    """The closed route's (s_n, m_n) as (numerator, denominator) pairs."""
    return [(s, d * m) for (s, m), d in zip(pairs, D)]


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


def oracle_unroll(rec, initial, N):
    r = rec.order
    vals = [F(v) for v in initial[:N]]
    lead = rec.coeffs[-1]
    lower = rec.coeffs[:-1]
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


def generic_chain(rec, initial, N):
    """A chain over which any recurrence unrolls in integers: the lcm of the
    initial denominators, then times each leading coefficient (cleared to
    integers, 1 where it vanishes), so that every step's division is exact."""
    clear = math.lcm(*(c.denominator for p in rec.coeffs for c in p.coeffs))
    D = [math.lcm(*(F(v).denominator for v in initial))] * rec.order
    for n in range(N - rec.order):
        D.append(D[-1] * (abs(rec.coeffs[-1](F(n)) * clear) or 1))
    return [int(d) for d in D[:N]]


def reduced_unroll(rec, initial, N, scale=1):
    """unroll over scale times the generic chain, its integers D_n P_n reduced."""
    D = [scale * d for d in generic_chain(rec, initial, max(N, rec.order))]
    T = unroll(rec, [int(F(v) * D[0]) for v in initial], D[:N])
    return [F(t, d) for t, d in zip(T, D)]


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
    pairs, D = engine_closed(functools.partial(gamma_seq, alpha), N)
    assert all(type(s) is int and type(m) is int for s, m in pairs)
    assert over_d(pairs, D) == old_gamma_closed(alpha, N)  # the same unreduced pairs
    assert [F(a, b) for a, b in over_d(pairs, D)] == oracle_gamma_closed(alpha, N)


@given(lengths)
@example(1)
@example(2)
@example(3)
def test_euler_closed_matches_fraction_loop(N):
    pairs, D = engine_closed(euler_seq, N)
    assert all(type(s) is int and type(m) is int for s, m in pairs)
    assert over_d(pairs, D) == old_euler_closed(N)  # the same unreduced pairs
    assert [F(a, b) for a, b in over_d(pairs, D)] == oracle_euler_closed(N)


def old_gamma_series(alpha, N):
    """The gamma series route before ``series.laguerre_sums``: the ring product
    (1-z)^(-alpha-1) E_alpha(-z/(1-z)), with its unreduced pairs."""
    inner = euler_substitution(e_alpha_series(alpha, N))
    prod = binomial_series(alpha + 1, N) * inner
    return [(c, prod.den) for c in prod.nums]


@given(alphas(), st.integers(1, 64))
@example(F(1, 3), 1)
@example(F(-7, 11), 2)
@example(F(-5, 3), 3)
@example(F(-29, 12), 200)
def test_gamma_series_matches_the_ring_product_and_the_closed_route(alpha, N):
    sums = constructions._gamma_series(alpha, N)  # D_n P_n
    assert all(type(s) is int for s in sums) and len(sums) == N
    vals = [F(a, b) for a, b in old_gamma_series(alpha, N)]
    pairs, D = engine_closed(functools.partial(gamma_seq, alpha), N)
    assert [F(s, d) for s, d in zip(sums, D)] == vals
    assert [F(a, b) for a, b in over_d(pairs, D)] == vals


def old_euler_series(N):
    """The Euler series route before ``series.laguerre_sums``: the ring form
    log(1-z)/(1-z) - partial_sums(E(-z/(1-z))), with its unreduced pairs."""
    total = log_over_one_minus_z(N) - partial_sums(euler_substitution(e_log_series(N)))
    return [(c, total.den) for c in total.nums]


def test_euler_sequence_is_minus_the_laguerre_sums_at_alpha_zero():
    # beta = 1: P_n = -sum_{k=1}^{n} L_k^(0)(1)/k, the gamma series kernel at p = 0,
    # over Euler's D_n = n! lcm(1, ..., n)
    N = 200
    vals = [F(a, b) for a, b in old_euler_series(N)]
    D = [math.factorial(n) * math.lcm(*range(1, n + 1)) for n in range(N)]
    assert [F(-s, d) for s, d in zip(laguerre_sums(0, 1, N), D)] == vals
    assert euler_seq(N, "series").values == euler_seq(N, "closed").values == vals


@st.composite
def betas(draw):
    """beta = s/q with q <= 12 in [-3, 4]: negatives, and beta >= 2, which no
    gamma_seq run reaches, included; the nonpositive integers, where c_n
    vanishes, excluded."""
    q = draw(st.integers(1, 12))
    return F(draw(st.integers(-3 * q, 4 * q).filter(lambda s: s > 0 or s % q)), q)


def generalized_binomial(x, m):
    out = F(1)
    for j in range(m):
        out = out * (x - j) / (j + 1)
    return out


term_pairs = st.lists(st.tuples(st.integers(-99, 99), st.integers(-99, 99).filter(bool)),
                      min_size=1, max_size=40)


@given(betas(), term_pairs)
@example(F(7, 2), [(3, -4)])
@example(F(-13, 5), [(1, 2), (-5, 3)])
@example(F(2), [(0, 7), (1, 1), (9, -8)])
def test_closed_is_the_binomial_sum_for_any_beta_and_terms(beta, pairs):
    N = len(pairs)
    got = _closed(beta, lambda n: pairs[:n], N)
    assert all(type(s) is int and type(m) is int for s, m in got)
    want = [sum((-1) ** k * generalized_binomial(n + beta - 1, n - k)
                * F(u, v * math.factorial(k)) for k, (u, v) in enumerate(pairs[:n + 1]))
            for n in range(N)]
    assert [F(a, b) for a, b in over_d(got, explicit_denominators(beta, pairs))] == want


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 40).flatmap(lambda n: st.lists(st.integers(-10**30, 10**30),
                                                     min_size=n, max_size=n)))
@example([])
@example([7])
@example([0] * 5)
@example([-(10**30), 10**30, -1, 0, 1])
def test_binomial_transform_is_the_binomial_sum_and_inverts(a):
    s = binomial_transform(a)
    assert s == [sum(math.comb(n, k) * a[k] for k in range(n + 1)) for n in range(len(a))]
    assert s == neighbour_sum_transform(a)
    assert all(type(x) is int for x in s)
    # the inverse transform is the alternating binomial sum
    assert [sum((-1) ** (n - k) * math.comb(n, k) * s[k] for k in range(n + 1))
            for n in range(len(s))] == a


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
    seeds = gamma_seq(alpha, 3, method="closed").values
    rec = gamma_coefficient_recurrence(alpha)
    assert reduced_unroll(rec, seeds, N) == oracle_unroll(rec, seeds, N)


@given(alphas(), st.integers(1, 60), st.integers(-10**6, 10**6).filter(bool))
@example(F(1, 3), 60, 2**64 * 3**5)
@example(F(-7, 11), 9, -1)
def test_unroll_from_scaled_seed_pairs_reduces_to_the_same_terms(alpha, N, k):
    # over the chain D and over k D the integers differ by the factor k, and
    # the terms P_n they give are the same
    rec = gamma_coefficient_recurrence(alpha)
    seeds = gamma_seq(alpha, 3, method="closed").values
    want = reduced_unroll(rec, seeds, N)
    assert reduced_unroll(rec, seeds, N, scale=k) == want
    assert want == oracle_unroll(rec, seeds, N)


def _outcome(fn, rec, initial, N):
    try:
        return fn(rec, initial, N)
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
    rec = LinearRecurrence([*lower, lead])
    assert _outcome(reduced_unroll, rec, initial, N) == _outcome(oracle_unroll, rec, initial, N)


@given(st.integers(1, 3), st.integers(0, 30), polys.filter(lambda p: not p.is_zero()),
       st.data())
def test_both_unrolls_stop_at_the_same_vanishing_index(r, root, cofactor, data):
    # the leading coefficient (n - root) * cofactor(n) has a root inside the range
    lead = PolyQ([-root, 1]) * cofactor
    lower = data.draw(st.lists(polys, min_size=r, max_size=r))
    initial = data.draw(st.lists(small_rationals, min_size=r, max_size=r))
    rec = LinearRecurrence([*lower, lead])
    N = root + r + 1
    with pytest.raises(LeadingCoefficientVanishes) as new:
        reduced_unroll(rec, initial, N)
    with pytest.raises(LeadingCoefficientVanishes) as old:
        oracle_unroll(rec, initial, N)
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
@example(([0, 0, 3], [0, 5, -7], 3))
@example(([4, -9], [2, 3], 2))
@example(([6, 0, -10**700], [-1, 2], 3))
@example(([0, 2], [0, -3, 1], 3))
@example(([0, 0, 0, 5], [0, 0, 7, -1], 4))
def test_int_cauchy_matches_the_double_loop(case):
    # small sizes reach the edge cases of the packing: one field, a negative
    # top field (a negative packed operand), leading zero fields (a packed
    # operand and product with a positive exponent), a product with some but
    # not all of its low fields zero, all-zero vectors
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


@contextlib.contextmanager
def int_str_limit(digits):
    """Python's int/str digit limit set to ``digits`` (0: no limit), then restored."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


def _field_digits(a, b, n):
    """The field width d that int_cauchy packs a and b with."""
    bound = 2 * n * max(map(abs, a)) * max(map(abs, b))
    return bound.bit_length() * 30103 // 100000 + 1


def test_int_cauchy_splits_wide_fields_until_within_the_limit():
    # with the limit at its least, 640 digits, a field of over 2 560 digits is
    # halved twice or more before int() reads it
    n = 40
    a = [(-1) ** i * 7 ** (1500 + i) for i in range(n)]
    b = [11 ** (1300 + i) - 10**1400 for i in range(n)]
    assert _field_digits(a, b, n) > 4 * 640
    with int_str_limit(640):
        got = int_cauchy(a, b, n)
    assert got == oracle_int_cauchy(a, b, n)


def test_int_cauchy_without_the_int_str_digit_limit():
    # fields past the default limit of 4 300 digits, read by int() at once
    n = 30
    a = [(-1) ** i * 5 ** (6000 + i) for i in range(n)]
    b = [11 ** (1200 + i) - 7**i for i in range(n)]
    assert _field_digits(a, b, n) > 4300
    with int_str_limit(0):
        got = int_cauchy(a, b, n)
    assert got == oracle_int_cauchy(a, b, n)


@pytest.mark.parametrize("digits", [4299, 4300, 4301, 9000])
def test_parse_int_reads_what_decimal_str_writes(digits):
    rng = random.Random(digits)
    x = rng.randrange(10 ** (digits - 1), 10**digits)
    for v in (x, -x, 10**digits - 1, -(10**digits) + 1, 10 ** (digits - 1)):
        assert _parse_int(_decimal_str(v)) == v
    # leading zeros count as digits, and are read by halves past the limit too
    assert _parse_int("0" * digits + "12") == 12
    assert _parse_int("-" + "0" * (digits - 1) + "7") == -7
    assert _parse_int(" 12 ") == 12


@pytest.mark.parametrize("bad", ["1 2" * 2000, "12-3" * 1200, "+" + "9" * 5000 + "x",
                                 "", "-", "--" + "9" * 5000, "\u0662" * 5000, "x"])
def test_parse_int_rejects_what_int_rejects(bad):
    with pytest.raises(ValueError):
        _parse_int(bad)


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
@example(F(5, 8), 200)
@example(F(-7, 9), 150)
@example(F(3, 16), 128)
@example(F(-20, 27), 100)
@example(F(49, 72), 181)
@example(F(-3), 10)
@example(F(-7), 30)
def test_binomial_series_matches_fraction_loop(beta, order):
    # the examples reach what the draws do not: a large q-part of (N-1)!,
    # negative beta, and a nonpositive integer beta whose coefficients vanish
    # from n = 1 - beta on
    _same_series(binomial_series(beta, order), oracle_binomial_series(beta, order))


@given(non_poles, orders)
@example(F(1, 3), 0)
@example(F(-7, 11), 1)
@example(F(-5, 3), 2)
@example(F(5, 2), 40)
def test_e_alpha_series_matches_fraction_loop(alpha, order):
    _same_series(e_alpha_series(alpha, order), oracle_e_alpha_series(alpha, order))


def old_e_log_series(order):
    """The integer builder e_log_series had before it shared e_alpha_series's:
    sum_{n>=1} z^n / (n! n) over (N-1)! lcm(1..N-1)."""
    lcm = math.lcm(*range(1, order))
    tail = _tail_products(range(order))  # (N-1)!/n!
    nums = [0] + [t * (lcm // n) for n, t in enumerate(tail[1:], 1)]
    return _canonical(nums[:order], tail[0] * lcm)


@pytest.mark.parametrize("order", [0, 1, 2, 3, 17, 60, 200])
def test_fixed_constructors_match_fraction_loops(order):
    _same_series(e_log_series(order), oracle_e_log_series(order))
    assert e_log_series(order) == old_e_log_series(order)  # same nums and den
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
    rows = e_convergents(80)
    assert rows == [oracle_e_convergent(n) for n in range(1, 81)]
    assert all(e_convergents(n) == rows[:n] for n in (1, 2, 40, 80))
    with pytest.raises(DomainError):
        e_convergents(0)


def oracle_a_direct(k, wp):
    """A_k = (-1)^k sum_n 1/(n! (n+k)!) at wp bits, by the loop intseq ran
    before it summed F^(k)(1) through one Bessel-type mpf loop. It adds at most
    wp + 2 terms, each rounded to wp bits, and stops below the absolute floor
    2^-wp; as |A_k| >= 1/k!, it is within (wp + 5 + k!) 2^-wp relative of A_k:
    wp + 2 for the additions, 3 for the rounded terms and k! for the tail."""
    def terms():
        term = 1 / mp.factorial(k)
        for n in count(1):
            yield term
            term /= n * (n + k)

    with workprec(wp):
        # 1/(n! (n+k)!) <= 1/n!^2 <= 2^-n for n >= 2, so wp + 2 terms reach 2^-wp
        acc, floor = mpf(0), mpf(2) ** (-wp)
        for i, term in zip(range(wp + 2), terms()):
            acc += term
            if i >= 5 and abs(term) < floor:
                return +((-1) ** k * acc)
        raise PrecisionError("A_k series did not converge")


def oracle_intseq(kmax, prec, direct=oracle_a_direct):
    """(A, disagreement) as intseq gave them before the backward recurrence:
    every A_k a direct sum direct(k, wp), checked against the forward run from
    A_0, A_1."""
    wp = prec + int(2 * math.lgamma(kmax + 1) / math.log(2)) + 32
    with workprec(wp):
        A = [direct(k, wp) for k in range(kmax + 1)]
        rec = [A[0], A[1]]
        for k in range(1, kmax):
            rec.append(k * rec[k] + rec[k - 1])
        return A, max(abs(a - b) for a, b in zip(A, rec))


def exact_a_direct(k, wp):
    """A_k = (-1)^k F^(k)(1) rounded to wp bits, as intseq sums its seeds;
    called at wp bits."""
    return (-1) ** k * bessel_f(1, wp - GUARD_BITS, k)


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
    direct, _ = oracle_intseq(kmax, prec)
    # the direct sums intseq seeds its two runs with: within 2^-(wp - GUARD_BITS)
    # of (-1)^k I_k(2), and within the old loop's own rounding bound of it
    wp = prec + int(2 * math.lgamma(kmax + 1) / math.log(2)) + 32
    for k in (0, 1, kmax // 2, kmax, kmax + 1):
        want = direct[k] if k <= kmax else oracle_a_direct(k, wp)
        with workprec(4 * wp):
            got = exact_a_direct(k, wp)
            exact = (-1) ** k * mp.besseli(k, 2)
            assert abs(got - exact) <= abs(exact) * mpf(2) ** -(wp - GUARD_BITS)
            assert abs(want - got) <= abs(got) * (wp + 5 + math.factorial(k)) * mpf(2) ** -wp
    assert len(res.A) == kmax + 1
    assert all(abs(a - d) <= abs(d) * mpf(2) ** -prec for a, d in zip(res.A, direct))
    assert res.recurrence_disagreement <= mpf(2) ** -prec
    if kmax >= 5:  # below, the backward run's own few-ulp rounding can set them
        # the forward run from intseq's own seeds: the same run, bit for bit
        _, disagreement = oracle_intseq(kmax, prec, exact_a_direct)
        assert _digits(res.recurrence_disagreement, 8) == _digits(disagreement, 8)
    # the strings eop writes. 20 digits lie within wp (at least prec + 32 bits)
    # everywhere; 100 digits only at 512 bits, as below that they reach past
    # what wp carries at small kmax and show the two routes' own rounding
    for d in (20, 100) if prec >= 512 else (20,):
        assert [_digits(a, d) for a in res.A] == [_digits(a, d) for a in direct]


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


def oracle_jet_recip(a, length):
    """The Taylor-jet reciprocal that the 1/Gamma jets and the kernels used."""
    out = [1 / a[0]]
    for k in range(1, length):
        acc = 0 * a[0]
        for j in range(1, min(k, len(a) - 1) + 1):
            acc += a[j] * out[k - j]
        out.append(-acc / a[0])
    return out


def oracle_kernel_jet(alpha, n, length):
    """Jet in (y - alpha) of Gamma(1-{y})/Gamma(-y-n), floor(alpha) frozen, rebuilt
    for each n: a falling product for n >= -floor(alpha), else its reciprocal."""
    fl = math.floor(alpha)
    jet = [F(1)]
    if n >= -fl:
        for m in range(n + fl + 1):
            jet = small_cauchy(jet, [-alpha - n + m, F(-1)], length)
        return jet + [F(0)] * (length - len(jet))
    for m in range(-n - fl - 1):
        jet = small_cauchy(jet, [-alpha + fl + 1 + m, F(-1)], length)
    jet += [F(0)] * (length - len(jet))
    return oracle_jet_recip(jet, length)


@settings(max_examples=60, deadline=None)
@given(st.builds(F, st.integers(-60, 60), st.integers(1, 12)), st.integers(0, 3),
       st.integers(0, 30))
@example(F(1, 3), 3, 30)
@example(F(-3), 2, 30)
@example(F(2), 3, 30)
@example(F(0), 1, 5)
@example(F(-11, 5), 0, 1)
def test_y_alpha_i_matches_the_per_n_kernel_jets(alpha, i, N):
    want = [oracle_kernel_jet(alpha, n, i + 1)[i] for n in range(N)]
    assert list(y_alpha_i(alpha, i, N).coeffs) == want


@pytest.mark.parametrize("alpha", [F(1, 3), F(-17, 4), F(7, 2), F(-3), F(5), F(0)])
def test_y_alpha_i_takes_one_linear_factor_per_step(alpha, monkeypatch):
    calls = []

    def counted(a, b, n):
        calls.append(n)
        return small_cauchy(a, b, n)

    monkeypatch.setattr(gammajets, "small_cauchy", counted)
    N = 40
    y_alpha_i(alpha, 3, N)
    assert len(calls) <= N + abs(math.floor(alpha)) + 2


def oracle_gate(D, T, closed, series):
    """The gate as equal cross products: at the scale D_n the values T_n/D_n
    (recurrence), S_n/D_n (series) and s_n/(D_n m_n) (closed) are equal."""
    return len(T) == len(closed) == len(series) and all(
        t * d == S * d and s * d == t * d * m for d, t, (s, m), S in zip(D, T, closed, series))


@st.composite
def gate_cases(draw):
    """(D, T, closed, series): D_n a nonzero multiple (of either sign) of each
    reduced value's denominator, and routes that equal the values at that
    scale, except at up to two places, where a numerator is off by a little, a
    cofactor is doubled, or anything goes, zeros included; sometimes a route is
    a term short."""
    vals = draw(st.lists(st.builds(F, st.integers(-60, 60), st.integers(1, 60)), max_size=8))
    off = draw(st.sets(st.integers(0, 7), max_size=2))
    D, T, closed, series = [], [], [], []
    for i, x in enumerate(vals):
        d = draw(st.integers(-5, 5).filter(bool)) * x.denominator
        m = draw(st.integers(-9, 9))
        t = S = x.numerator * (d // x.denominator)
        s = S * m
        kind = draw(st.sampled_from(["numerator", "cofactor", "any"])) if i in off else ""
        if kind == "numerator":
            t, S, s = (v + draw(st.integers(-2, 2)) for v in (t, S, s))
        elif kind == "cofactor":
            m *= 2
        elif kind == "any":
            t, m, S, s = (draw(st.integers(-99, 99)) for _ in range(4))
        D.append(d)
        T.append(t)
        closed.append((s, m))
        series.append(S)
    for route in (T, closed, series):
        if route and draw(st.integers(0, 5)) == 0:
            route.pop(draw(st.integers(0, len(route) - 1)))
    return D, T, closed, series


@settings(max_examples=300)
@given(gate_cases())
@example(([], [], [], []))
@example(([8], [6], [(6, 1)], [6]))
@example(([8], [6], [(6, 2)], [6]))
@example(([8], [6], [(12, 2)], [6]))
@example(([6], [0], [(0, 0)], [0]))
@example(([7], [0], [(0, 3)], [0]))
@example(([-4], [2], [(6, -3)], [2]))
@example(([-4], [2], [(-6, -3)], [3]))
@example(([18], [15], [(15, 1)], [15]))
@example(([1, 1], [1, 1], [(1, 1)], [1, 1]))
def test_gate_matches_the_cross_products(case):
    assert _gate(*case[1:]) == oracle_gate(*case)


def _falling(shift, length):
    """(n + shift)(n + shift - 1)...(n + shift - length + 1) as a PolyQ."""
    out = PolyQ([1])
    for m in range(length):
        out = out * PolyQ([F(shift) - m, 1])
    return out


def _shift_var(p, c):
    """p(n + c), one power of (n + c) at a time."""
    out, power = PolyQ([]), PolyQ([1])
    for coef in p.coeffs:
        out = out + power * coef
        power = power * PolyQ([F(c), 1])
    return out


def oracle_ode_to_recurrence(op):
    """The PolyQ derivation ode_to_recurrence ran before it expanded each
    falling factorial directly in n - s_min."""
    shifts = {}
    for i, p in enumerate(op.coeffs):
        for j, c in enumerate(p.coeffs):
            if c:
                shifts[i - j] = shifts.get(i - j, PolyQ([])) + _falling(i - j, i) * c
    live = {s: q for s, q in shifts.items() if not q.is_zero()}
    s_min, s_max = min(live), max(live)
    if s_max == s_min:
        raise DomainError("recurrence of order 0")
    return LinearRecurrence([_shift_var(live.get(s, PolyQ([])), -s_min)
                             for s in range(s_min, s_max + 1)]).normalized()


def _derived(fn, op):
    try:
        return fn(op)
    except DomainError:
        return "order 0"


operators = st.lists(st.lists(st.one_of(st.just(F(0)), small_rationals), max_size=5),
                     min_size=1, max_size=4).filter(
    lambda cs: any(c for p in cs for c in p)).map(DifferentialOperator)


@settings(max_examples=150)
@given(operators)
@example(DifferentialOperator([[F(-1)], [F(1)]]))
@example(DifferentialOperator([[F(1, 2)]]))
@example(DifferentialOperator([[0, 0, F(3)], [0, F(-1)]]))
def test_ode_to_recurrence_matches_the_polyq_derivation(op):
    assert _derived(ode_to_recurrence, op) == _derived(oracle_ode_to_recurrence, op)


@given(alphas())
@example(F(1, 3))
@example(F(-29, 12))
def test_gamma_recurrence_matches_the_polyq_derivation(alpha):
    op = gamma_generating_ode(alpha)
    assert gamma_coefficient_recurrence(alpha) == oracle_ode_to_recurrence(op)


def _mutated(value, mutation):
    """A closed (s_n, m_n) or series D_n P_n value with its numerator one too
    large, or its cofactor doubled (the series value, which has none, doubled)."""
    if isinstance(value, tuple):
        s, m = value
        return (s + 1, m) if mutation == "numerator" else (s, 2 * m)
    return value + 1 if mutation == "numerator" else 2 * value


@settings(max_examples=30)
@given(alphas(), st.sampled_from(["closed", "series"]), st.sampled_from(["numerator", "cofactor"]),
       st.integers(16, 60), st.data())
def test_gate_rejects_a_mutated_route(alpha, name, mutation, N, data):
    route = constructions._METHODS[name]
    at = data.draw(st.integers(0, N - 1))

    def mutated(family, D):
        values = route(family, D)
        values[at] = _mutated(values[at], mutation)
        return values

    gamma = functools.partial(gamma_seq, alpha)
    assert gamma(N, method=name).values[at] != 0  # doubling changes it
    # P_0 = P_1 = 0 for Euler's constant, where only the numerator mutation shows
    runs = [gamma] + [euler_seq] * (mutation == "numerator" or at > 1)
    with pytest.MonkeyPatch.context() as m:
        m.setitem(constructions._METHODS, name, mutated)
        for run in runs:
            with pytest.raises(RouteDisagreement):
                run(N)


def oracle_decay_exponent(values, limit, lo, hi):
    """The decay fit before it worked in fixed point: each log taken of an
    exact integer, log|num_n q - p den_n| - log(den_n q)."""
    p, q = limit.numerator, limit.denominator
    xs, ys = [], []
    for n in range(lo, hi):
        v = values[n]
        d = abs(v.numerator * q - p * v.denominator)
        if d:
            xs.append(math.log(n))
            ys.append(math.log(d) - math.log(v.denominator * q))
    return least_squares_line(xs, ys)[0] if len(xs) >= 4 else None


def _window_mean(vals):
    tail = vals[len(vals) // 4:]
    weights = [_win_weight(i, len(tail)) for i in range(len(tail))]
    return tail, weights, sum(w * v for w, v in zip(weights, tail)) / sum(weights)


def _same_fit(got, want):
    assert (got is None) == (want is None)
    if want is not None:
        assert abs(got - want) < 1e-9


@settings(max_examples=30, deadline=None)
@given(alphas(), st.integers(16, 240))
@example(F(1, 3), 240)
@example(F(-25, 2), 16)  # an Aitken limit: a geometric tail
@example(F(-29, 2), 40)
def test_decay_exponent_matches_the_exact_fit_on_gamma_sequences(alpha, N):
    vals = gamma_seq(alpha, N, "recurrence").values
    lo = max(16, N // 10)
    limits = [_window_mean(vals)[2], vals[-1], F(0)]
    if len(set(vals)) > 1:  # the limit limit_estimate took, at 1024 bits
        sign, man, exp, _ = limit_estimate(vals, 1024).limit._mpf_
        limits.append((-1) ** sign * man * F(2) ** exp)
    for L in limits:
        _same_fit(decay_exponent(vals, L, lo, N), oracle_decay_exponent(vals, L, lo, N))


@given(st.sampled_from([F(1, 2), F(-1, 5), F(2, 3), F(-7, 8), F(1, 1000)]),
       st.builds(F, st.integers(-50, 50), st.integers(1, 9)), st.integers(4, 64))
@example(F(1, 1000), F(3), 40)
def test_decay_exponent_matches_the_exact_fit_on_geometric_tails(r, L, N):
    # v_n - L = r^n soon keeps fewer than 64 of the fixed-point bits, and
    # those n take the exact difference; at L itself no n counts
    vals = [L + r**n for n in range(N)]
    for limit in (L, L + r ** (N + 3), vals[N // 2]):
        _same_fit(decay_exponent(vals, limit, 1, N), oracle_decay_exponent(vals, limit, 1, N))


def test_decay_exponent_reads_a_bracket_as_its_exact_limit():
    vals = gamma_seq(F(1, 3), 400, "recurrence").values
    tail, weights, exact = _window_mean(vals)
    mean = weighted_mean(tail, weights, 256)
    assert mean.exact() == exact
    calls = []
    counted = mean._replace(exact=lambda: calls.append(1) or exact)
    assert decay_exponent(vals, counted, 40, 400) == decay_exponent(vals, exact, 40, 400)
    assert not calls  # the bracket settled floor(L 2^W): no exact sum


def _mean_cases():
    wide = st.builds(F, st.integers(-(2**2000), 2**2000), st.integers(1, 2**2000))
    small = st.builds(F, st.integers(-99, 99), st.integers(1, 99))
    return st.lists(st.tuples(st.one_of(wide, small), st.integers(1, 10**9)), min_size=1,
                    max_size=12)


@settings(max_examples=150, deadline=None)
@given(_mean_cases(), st.sampled_from([2, 53, 128, 256, 1024]))
@example([(F(1, 3), 1)], 53)
@example([(F(0), 5)], 256)
@example([(F(-7, 2**3000), 1), (F(7, 2**3000), 1)], 53)  # a zero mean
def test_weighted_mean_rounds_as_the_exact_mean(case, prec):
    values, weights = [v for v, _ in case], [w for _, w in case]
    exact = sum(w * v for w, v in case) / sum(weights)
    mean = weighted_mean(values, weights, prec)
    assert mean.exact() == exact
    num, den, bits = mean.num, mean.den, mean.bits
    assert F(num, den << bits) <= exact < F(num + den, den << bits)
    got = mean.rounded(prec)
    assert got is None or got == to_mpf(exact, prec)
    for w in range(0, bits + 1, max(1, bits // 7)):
        fl = mean.floor(w)
        assert fl is None or fl == math.floor(exact * 2**w)


def test_weighted_mean_falls_back_within_a_bracket_of_a_tie():
    # the exact mean is 2^-1000 above the tie t = 1 + 2^-256 between two
    # 256-bit floats, so it rounds up; every v_i 2^W is within 2^-1000 of an
    # integer, so the bracket's low end is t itself, which rounds to even
    t, delta = 1 + F(1, 2**256), F(1, 2**1000)
    weights = [_win_weight(i, 48) for i in range(48)]
    values = [t + delta + F(2 * i - 47, 2**20) for i in range(48)]  # symmetric about t + delta
    mean = weighted_mean(values, weights, 256)
    assert mean.bits == 320 and F(mean.num, mean.den << mean.bits) == t
    assert mean.rounded(256) is None
    up = to_mpf(t + delta, 256)
    assert up == 1 + mpf(2) ** -255 and to_mpf(t, 256) == 1
    # limit_estimate takes the window mean of the last three quarters
    vals = [t + delta + F(2 * i - 47, 2**20) for i in range(-16, 48)]
    est = limit_estimate(vals)
    assert est.method == "window" and est.limit == up


@pytest.mark.parametrize("digits", [4300, 4301, 13500, 80000, 320000])
def test_decimal_str_matches_the_decimal_conversion(digits):
    rng = random.Random(digits)
    x = rng.randrange(10 ** (digits - 1), 10**digits)
    cases = [x, 10**digits - 1, 10**digits, 10**digits + 1]
    if digits < 100000:  # the oracle is quadratic
        cases += [-x, -(10**digits) + 1, -(10**digits) - 1]
    else:
        cases = cases[:1]
    for v in cases:
        assert _decimal_str(v) == str(decimal.Decimal(v)), v.bit_length()


def test_decimal_str_below_the_digit_limit_is_str():
    for v in (0, -1, 7, 10**4299, -(10**4299) + 1, 2**14000):
        assert _decimal_str(v) == str(v)


def oracle_normalized(rec):
    """normalized() before the Gauss-lemma test: poly_gcd on every recurrence."""
    polys = list(rec.coeffs)
    g = PolyQ([])
    for p in polys:
        g = poly_gcd(g, p)
    if not g.is_zero() and g.degree() > 0:
        polys = [p.exact_div(g) for p in polys]
    content = PolyQ([c for p in polys for c in p.coeffs]).content()
    if content != 1:
        polys = [p * (1 / content) for p in polys]
    if polys[-1].leading() < 0:
        polys = [-p for p in polys]
    return LinearRecurrence(polys)


nonzero_polys = st.lists(small_rationals, min_size=1, max_size=4).map(PolyQ).filter(
    lambda p: not p.is_zero())


@settings(max_examples=200)
@given(st.integers(1, 3).flatmap(lambda r: st.lists(polys, min_size=r, max_size=r)),
       nonzero_polys, st.one_of(st.just(PolyQ([1])), nonzero_polys))
@example([PolyQ([0, 1, 1])], PolyQ([2, 0, 2]), PolyQ([1]))  # 2 | m(m + 1) at every m
@example([PolyQ([3])], PolyQ([5]), PolyQ([-1, 2]))
def test_normalized_matches_the_poly_gcd_path(lower, lead, factor):
    rec = LinearRecurrence([p * factor for p in [*lower, lead]])
    assert rec.normalized() == oracle_normalized(rec)


@pytest.mark.parametrize("alpha", [F(1, 3), F(-29, 12), F(5, 6)])
def test_normalized_divides_out_a_common_factor(alpha):
    rec = gamma_coefficient_recurrence(alpha)
    assert rec.normalized() == oracle_normalized(rec) == rec
    # a real common factor: poly_gcd divides it out
    common = LinearRecurrence([p * PolyQ([F(1, 2), 3, 1]) for p in rec.coeffs])
    assert common.normalized() == oracle_normalized(common) == rec
