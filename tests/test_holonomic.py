import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from eoplab.constructions import (
    euler_coefficient_recurrence,
    gamma_coefficient_recurrence,
    gamma_generating_ode,
)
from eoplab.holonomic import (
    DifferentialOperator,
    LeadingCoefficientVanishes,
    LinearRecurrence,
    ode_to_recurrence,
    unroll,
)
from eoplab.kernels import PolyQ
from eoplab.numcore import DomainError, RouteDisagreement
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

SEVEN_ALPHAS = [F(1, 2), F(1, 3), F(2, 3), F(-1, 2), F(3, 5), F(-4, 7), F(5, 11)]


def published_gamma_recurrence(alpha):
    """The gamma-family recurrence as published, before normalisation."""
    a = F(alpha)
    return LinearRecurrence([
        PolyQ([-2 - 3 * a - a * a, -3 - 2 * a, -1]),
        PolyQ([10 + 9 * a + 2 * a * a, 11 + 5 * a, 3]),
        PolyQ([-17 - 9 * a - a * a, -14 - 4 * a, -3]),
        PolyQ([9 + 3 * a, 6 + a, 1]),
    ])


def published_gamma_seeds(a):
    """P_0 = 1/a, P_1 = (1+a+a^2)/(a(a+1)), P_2 = (4+5a+6a^2+4a^3+a^4)/(2a(a+1)(a+2))."""
    return (1 / a, (1 + a + a * a) / (a * (a + 1)),
            (4 + 5 * a + 6 * a**2 + 4 * a**3 + a**4) / (2 * a * (a + 1) * (a + 2)))


# (n+3)^2 P_{n+3} - (3n^2+14n+17) P_{n+2} + (n+2)(3n+5) P_{n+1} - (n+1)(n+2) P_n = 0
PUBLISHED_EULER_RECURRENCE = LinearRecurrence(
    [PolyQ([-2, -3, -1]), PolyQ([10, 11, 3]), PolyQ([-17, -14, -3]), PolyQ([9, 6, 1])]
)
PUBLISHED_EULER_SEEDS = (0, 0, F(1, 4))

# The Euler generating ODE as published, for log(1-z)/(1-z) - (1-z)^(-1) E(-z/(1-z))
PUBLISHED_EULER_ODE = DifferentialOperator(
    [PolyQ([-1, 2, -2]), PolyQ([1, -5, 8, -4]), PolyQ([0, 1, -3, 3, -1])]
)


def _gamma_series(alpha, order):
    return binomial_series(alpha + 1, order) * euler_substitution(e_alpha_series(alpha, order))


def _euler_series(order):
    return log_over_one_minus_z(order) - partial_sums(euler_substitution(e_log_series(order)))


def _apply(op, f):
    """op(f) = sum_i p_i f^(i), to the order f.order - op.order it determines."""
    n = f.order - op.order
    out = TruncatedSeries([0] * n)
    for p in op.coeffs:
        # z^j shifts indices up, so p times the series needs p only below order n
        out = out + TruncatedSeries(p.coeffs[:n] + (0,) * (n - len(p.coeffs))) * f
        f = f.differentiate()
    return out


def _annihilates(op, f):
    """op(f) vanishes to the order it is determined, which must reach past
    op.order + max deg p_i so that a nontrivial coefficient is checked."""
    assert f.order - op.order > op.order + max(p.degree() or 0 for p in op.coeffs)
    return not any(_apply(op, f).nums)


def test_exp_operator_gives_first_order_recurrence():
    rec = ode_to_recurrence(DifferentialOperator([PolyQ([-1]), PolyQ([1])]))
    assert rec == LinearRecurrence([PolyQ([-1]), PolyQ([1, 1])])


def test_euler_ode_is_the_gamma_ode_at_alpha_zero():
    assert gamma_generating_ode(0) == PUBLISHED_EULER_ODE
    assert gamma_generating_ode(F(1, 3)) != PUBLISHED_EULER_ODE


def test_euler_ode_translates_to_published_recurrence():
    got = ode_to_recurrence(PUBLISHED_EULER_ODE)
    assert got == PUBLISHED_EULER_RECURRENCE.normalized()
    assert euler_coefficient_recurrence() == got


@pytest.mark.parametrize("alpha", SEVEN_ALPHAS)
def test_gamma_ode_translates_to_published_recurrence(alpha):
    got = ode_to_recurrence(gamma_generating_ode(alpha))
    assert got == published_gamma_recurrence(alpha).normalized()
    assert gamma_coefficient_recurrence(alpha) == got


@pytest.mark.parametrize("alpha", [F(1, 3), F(-7, 11)])
def test_derived_gamma_recurrence_is_the_published_one_times_q_squared(alpha):
    derived = gamma_coefficient_recurrence(alpha)
    scaled = [p * alpha.denominator**2 for p in published_gamma_recurrence(alpha).coeffs]
    assert derived.coeffs == tuple(scaled)


def _chain(rec, seeds, N):
    """The generic chain for any recurrence: the lcm of the seeds' denominators,
    then times each leading coefficient (cleared to integers, 1 where it
    vanishes), so that every step's division is exact."""
    clear = math.lcm(*(c.denominator for p in rec.coeffs for c in p.coeffs))
    D = [math.lcm(*(F(s).denominator for s in seeds))] * rec.order
    for n in range(N - rec.order):
        D.append(D[-1] * (abs(rec.coeffs[-1](F(n)) * clear) or 1))
    return [int(d) for d in D[:N]]


def _unroll(rec, seeds, N):
    """unroll over the generic chain, its integers D_n P_n reduced to P_n."""
    D = _chain(rec, seeds, max(N, rec.order))
    T = unroll(rec, [int(F(s) * D[0]) for s in seeds], D[:N])
    return [F(t, d) for t, d in zip(T, D)]


def test_published_and_derived_recurrences_unroll_alike():
    # every gamma/euler sequence the golden CLI corpus pins, and the seed step
    # and both are the coefficients of the generating series
    for alpha, N in ((F(1, 3), 40), (F(-5, 3), 24), (F(1, 3), 20), (F(-5, 3), 20)):
        seeds = published_gamma_seeds(alpha)
        want = _unroll(published_gamma_recurrence(alpha), seeds, N)
        assert want == list(_gamma_series(alpha, N).coeffs)
        assert _unroll(gamma_coefficient_recurrence(alpha), seeds, N) == want
    for N in (32, 40, 12):
        want = _unroll(PUBLISHED_EULER_RECURRENCE, PUBLISHED_EULER_SEEDS, N)
        assert want == list(_euler_series(N).coeffs)
        assert _unroll(euler_coefficient_recurrence(), PUBLISHED_EULER_SEEDS, N) == want


def test_unroll_euler_seed_step():
    vals = _unroll(euler_coefficient_recurrence(), PUBLISHED_EULER_SEEDS, 4)
    assert vals == [0, 0, F(1, 4), F(17, 36)]


def test_unroll_gamma_seeds():
    alpha = F(1, 2)
    vals = _unroll(gamma_coefficient_recurrence(alpha), published_gamma_seeds(alpha), 2)
    assert vals == [2, F(7, 3)]


def test_unroll_returns_initial_terms_unchanged():
    # the seed integers come back as given, over any chain
    seeds = [1, 2, -3]
    assert unroll(euler_coefficient_recurrence(), seeds, [1, 2, 6]) == seeds
    assert unroll(euler_coefficient_recurrence(), seeds, [5, 5]) == seeds[:2]


def test_unroll_needs_exactly_order_seeds():
    for seeds in ([1, 2], [1] * 4):
        with pytest.raises(DomainError, match="need exactly 3 initial terms"):
            unroll(euler_coefficient_recurrence(), seeds, [1] * 10)


def test_unroll_reports_vanishing_leading_coefficient():
    # leading coefficient (n - 2) dies at n = 2
    rec = LinearRecurrence([PolyQ([1]), PolyQ([-2, 1])])
    with pytest.raises(LeadingCoefficientVanishes) as err:
        unroll(rec, [1], _chain(rec, [1], 10))
    assert err.value.n == 2


@pytest.mark.parametrize("D", [[1, 2, 3, 6], [2, 4, 0, 0], [0, 0, 1, 1], [1, 1, 1, -2, 2, 5]])
def test_unroll_refuses_a_denominator_list_that_is_no_chain(D):
    with pytest.raises(DomainError, match="not a chain"):
        unroll(euler_coefficient_recurrence(), [0, 0, 1], D)


def test_unroll_rejects_a_term_that_is_no_integer_over_its_denominator():
    # P_3 = 17/36 for Euler's constant: 36 | D_3 holds over [1, 1, 4, 36],
    # fails over [1, 1, 4, 12]
    rec = euler_coefficient_recurrence()
    assert unroll(rec, [0, 0, 1], [1, 1, 4, 36]) == [0, 0, 1, 17]
    with pytest.raises(RouteDisagreement, match="n=3"):
        unroll(rec, [0, 0, 1], [1, 1, 4, 12])


def test_check_series_satisfies_exp():
    op = DifferentialOperator([PolyQ([-1]), PolyQ([1])])
    assert _annihilates(op, exp_series(12))
    bad = TruncatedSeries([F(1)] * 12)
    assert not _annihilates(op, bad)


def test_gamma_generating_function_satisfies_its_ode():
    assert _annihilates(gamma_generating_ode(F(1, 2)), _gamma_series(F(1, 2), 40))
    assert _annihilates(gamma_generating_ode(F(-1, 2)), _gamma_series(F(-1, 2), 40))


def test_euler_generating_function_has_exact_defect_z():
    # The log-regularized generating function does not satisfy the homogeneous
    # equation: applying the operator leaves exactly the polynomial z (the
    # recurrence is untouched since it only encodes coefficients >= z^2).
    op = gamma_generating_ode(0)
    f = _euler_series(40)
    assert not _annihilates(op, f)
    defect = _apply(op, f)
    assert defect.coeffs[0] == 0
    assert defect.coeffs[1] == 1
    assert all(c == 0 for c in defect.coeffs[2 : f.order - op.order])


@pytest.mark.parametrize("alpha", [F(1, 2), F(-1, 2)])
def test_round_trip_gamma(alpha):
    series = _gamma_series(alpha, 300)
    rec = ode_to_recurrence(gamma_generating_ode(alpha))
    assert _unroll(rec, series.coeffs[: rec.order], 300) == list(series.coeffs)


def test_round_trip_euler():
    series = _euler_series(300)
    rec = ode_to_recurrence(gamma_generating_ode(0))
    assert _unroll(rec, series.coeffs[: rec.order], 300) == list(series.coeffs)


def test_normalization_idempotent():
    for rec in (PUBLISHED_EULER_RECURRENCE, published_gamma_recurrence(F(2, 3))):
        once = rec.normalized()
        assert once.normalized() == once
    messy = LinearRecurrence(
        [PolyQ([F(2, 3), F(2, 3)]) * PolyQ([1, 1]), PolyQ([F(-4, 3)]) * PolyQ([1, 1])]
    )
    norm = messy.normalized()
    assert norm == LinearRecurrence([PolyQ([1, 1]), PolyQ([-2])]).normalized()
    assert norm.normalized() == norm
    # a zero coefficient: 2y'' = 2y gives c_{n+2} (n+1)(n+2) = c_n, as y'' = y does
    rec = ode_to_recurrence(DifferentialOperator([[-2], [], [2]]))
    assert rec == LinearRecurrence([PolyQ([-1]), PolyQ([]), PolyQ([2, 3, 1])])
    assert LinearRecurrence([PolyQ([2]), PolyQ([]), PolyQ([4])]).normalized() == \
        LinearRecurrence([PolyQ([1]), PolyQ([]), PolyQ([2])])


def _known_solution_cases(rng):
    # families with closed-form annihilators and exactly computable coefficients
    cases = []
    r1 = F(rng.randint(1, 5), rng.randint(1, 3))
    r2 = F(-rng.randint(1, 5), rng.randint(1, 3))
    # exp(r1 z): y' - r1 y
    cases.append(
        (
            DifferentialOperator([PolyQ([-r1]), PolyQ([1])]),
            lambda N, r=r1: [c * r**n for n, c in enumerate(exp_series(N).coeffs)],
        )
    )
    # exp(r1 z) + exp(r2 z): y'' - (r1+r2) y' + r1 r2 y
    cases.append(
        (
            DifferentialOperator([PolyQ([r1 * r2]), PolyQ([-(r1 + r2)]), PolyQ([1])]),
            lambda N, a=r1, b=r2: [
                c * (a**n + b**n) for n, c in enumerate(exp_series(N).coeffs)
            ],
        )
    )
    b1 = F(rng.randint(1, 6), rng.randint(1, 4))
    b2 = b1 + F(rng.randint(1, 3))
    # (1-z)^(-b1) + (1-z)^(-b2): (1-z)^2 y'' - (1+b1+b2)(1-z) y' + b1 b2 y
    cases.append(
        (
            DifferentialOperator(
                [
                    PolyQ([b1 * b2]),
                    PolyQ([1, -1]) * (-(1 + b1 + b2)),
                    PolyQ([1, -2, 1]),
                ]
            ),
            lambda N, x=b1, y=b2: [
                p + q
                for p, q in zip(binomial_series(x, N).coeffs, binomial_series(y, N).coeffs)
            ],
        )
    )
    return cases


def test_ode_to_recurrence_against_known_solutions():
    rng = random.Random(17)
    for _ in range(6):
        for op, coeff_fn in _known_solution_cases(rng):
            expected = coeff_fn(40)
            rec = ode_to_recurrence(op)
            try:
                got = _unroll(rec, expected[: rec.order], 40)
            except LeadingCoefficientVanishes:
                continue
            assert got == expected


def test_recurrence_relations_annihilate_applied_series():
    # independent read-off: op applied to a truncated series must vanish
    # exactly where the extracted recurrence says the coefficients are tied
    rng = random.Random(23)
    for _ in range(4):
        for op, coeff_fn in _known_solution_cases(rng):
            series = TruncatedSeries(coeff_fn(30))
            assert _annihilates(op, series)


def _sympy_recurrences(op):
    """{offset: normalized recurrence} for the power-series solutions
    z^offset sum_n c_n z^n of op, by sympy.holonomic. At an ordinary point
    sympy returns one recurrence, keyed by the first n it holds from."""
    import sympy
    from sympy.holonomic import DifferentialOperators, HolonomicFunction

    z = sympy.symbols("z")
    _, Dz = DifferentialOperators(sympy.QQ.old_poly_ring(z), "Dz")
    sym_op = sum(sum(sympy.Rational(c.numerator, c.denominator) * z**j
                     for j, c in enumerate(p.coeffs)) * Dz**i
                 for i, p in enumerate(op.coeffs))
    out = {}
    for seq, offset, *_ in HolonomicFunction(sym_op, z, 0, []).to_sequence():
        polys = [PolyQ([F(int(c.numerator), int(c.denominator))
                        for c in reversed(p.to_list())]) for p in seq.recurrence.listofpoly]
        out[F(str(offset))] = LinearRecurrence(polys).normalized()
    return out


def test_euler_recurrence_matches_sympy_holonomic():
    assert _sympy_recurrences(PUBLISHED_EULER_ODE) == {0: euler_coefficient_recurrence()}


@pytest.mark.parametrize("alpha", [F(1, 3), F(1, 2), F(-4, 7), F(3, 5)])
def test_gamma_recurrence_matches_sympy_holonomic(alpha):
    # sympy also returns the z^(-alpha) Frobenius solution; ours is the power series
    ours = gamma_coefficient_recurrence(alpha)
    assert _sympy_recurrences(gamma_generating_ode(alpha))[0] == ours


small_rationals = st.builds(F, st.integers(-4, 4), st.integers(1, 4))


@st.composite
def ordinary_operators(draw):
    """p_0 + p_1 d/dz (+ p_2 d^2/dz^2), each p_i of degree <= 2, with p_0(0) and
    p_r(0) nonzero: z = 0 is an ordinary point, and the shifts 0 and r both
    survive, so the recurrence has order >= r."""
    def poly(head):
        return [head, *draw(st.lists(small_rationals, max_size=2))]

    r = draw(st.integers(1, 2))
    nonzero = small_rationals.filter(bool)
    middle = [draw(st.lists(small_rationals, max_size=3)) for _ in range(r - 1)]
    return DifferentialOperator([poly(draw(nonzero)), *middle, poly(draw(nonzero))])


@settings(max_examples=15, deadline=None)
@given(ordinary_operators())
def test_ode_to_recurrence_matches_sympy_on_random_operators(op):
    assert list(_sympy_recurrences(op).values()) == [ode_to_recurrence(op)]


@st.composite
def regular_singular_operators(draw, integer_root=False):
    """p_0 + p_1 d/dz + p_2 d^2/dz^2, each p_i of degree <= 2, with p_2(0) = 0 !=
    p_2'(0) and p_1(0) != 0: z = 0 is a regular singular point with indicial roots
    0 and 1 - p_1(0)/p_2'(0), the second kept off the integers, or on them with
    ``integer_root``. p_0(0) != 0 keeps the recurrence's order >= 1."""
    nonzero = small_rationals.filter(bool)
    b = draw(nonzero)
    a = draw(nonzero.filter(lambda a: ((a / b).denominator == 1) == integer_root))
    p0 = [draw(nonzero), *draw(st.lists(small_rationals, max_size=2))]
    p1 = [a, *draw(st.lists(small_rationals, max_size=2))]
    p2 = [F(0), b, *draw(st.lists(small_rationals, max_size=1))]
    return DifferentialOperator([p0, p1, p2])


@settings(max_examples=15, deadline=None)
@given(regular_singular_operators())
def test_ode_to_recurrence_matches_sympy_at_a_regular_singular_point(op):
    # sympy returns one recurrence per indicial root; ours is the one keyed by 0
    assert _sympy_recurrences(op)[0] == ode_to_recurrence(op)


def _shifted(rec, r):
    """The recurrence rec with n replaced by n + r in every coefficient."""
    def shift(p):
        out = PolyQ([])
        for c in reversed(p.coeffs):
            out = out * PolyQ([r, 1]) + PolyQ([c])
        return out

    return LinearRecurrence([shift(p) for p in rec.coeffs]).normalized()


@settings(max_examples=15, deadline=None)
@given(regular_singular_operators(integer_root=True))
def test_ode_to_recurrence_matches_sympy_at_an_integer_second_root(op):
    # at an integer second root r sympy keys its one series by min(0, r): for
    # r < 0 its c_n is our coefficient n + r, so its recurrence is ours at n + r
    p1, p2 = op.coeffs[1], op.coeffs[2]
    r = min(0, 1 - p1.coeffs[0] / p2.coeffs[1])
    assert _sympy_recurrences(op) == {r: _shifted(ode_to_recurrence(op), r)}


def test_ode_to_recurrence_matches_sympy_at_the_second_root_minus_two():
    # z f'' + (3 + z) f' + (1 + 2z) f: indicial roots 0 and 1 - 3 = -2
    op = DifferentialOperator([[1, 2], [3, 1], [0, 1]])
    ours = ode_to_recurrence(op)
    assert ours == LinearRecurrence([PolyQ([2]), PolyQ([2, 1]), PolyQ([8, 6, 1])])
    assert _sympy_recurrences(op) == {-2: LinearRecurrence(
        [PolyQ([2]), PolyQ([0, 1]), PolyQ([0, 2, 1])])}


def test_holonomic_does_not_import_series():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, eoplab.holonomic; print('eoplab.series' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
