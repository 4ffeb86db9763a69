"""The integer exact-sequence kernels against the Fraction loops they replaced.

Each oracle below is the plain per-term Fraction loop that the kernel used to
be; the kernels must give the same values under ``==``.
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, strategies as st

from eoplab.constructions import (
    _euler_closed,
    _gamma_closed,
    gamma_coefficient_recurrence,
    gamma_seed_values,
    pade_exp,
)
from eoplab.holonomic import (
    HolonomicSequence,
    LeadingCoefficientVanishes,
    LinearRecurrence,
    unroll,
)
from eoplab.numcore import PolyQ


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
