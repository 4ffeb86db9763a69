"""Differential operators with polynomial coefficients and P-recursive sequences.

An order-r linear ODE sum_i p_i(z) y^(i)(z) = 0 acting on y = sum c_n z^n
imposes, for every n, the coefficient identity

    sum_{i,j} p_{i,j} * (n+i-j)(n+i-j-1)...(n+1-j) * c_{n+i-j} = 0,

which re-indexes to a linear recurrence with polynomial coefficients in n.
Recurrences are kept in a normalized form (lowest shift 0, coefficients a
primitive integer vector with no common polynomial factor, leading coefficient
with positive leading term) so that equality of recurrences is a well-defined
exact test.

``unroll`` runs a recurrence in integers: over a chain D_0 | D_1 | ... of
multiples of the terms' denominators it returns T_n = D_n P_n, checked exactly.
"""

from __future__ import annotations

from math import lcm

from .kernels import Frozen, PolyQ, poly_gcd
from .numcore import DomainError, LeadingCoefficientVanishes, RouteDisagreement

__all__ = [
    "DifferentialOperator",
    "LinearRecurrence",
    "LeadingCoefficientVanishes",
    "ode_to_recurrence",
    "unroll",
]


class DifferentialOperator(Frozen):
    """coeffs[i] is the polynomial coefficient of d^i/dz^i."""

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs):
        cs = [c if isinstance(c, PolyQ) else PolyQ(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        if not cs:
            raise DomainError("differential operator must have a nonzero coefficient")
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1


class LinearRecurrence(Frozen):
    """Recurrence sum_{j=0}^{r} coeffs[j](n) * P_{n+j} = 0 with PolyQ coefficients."""

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs):
        cs = [c if isinstance(c, PolyQ) else PolyQ(c) for c in coeffs]
        if len(cs) < 2 or cs[-1].is_zero():
            raise DomainError("recurrence needs order >= 1 and nonzero leading coefficient")
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def normalized(self) -> "LinearRecurrence":
        """Divide out the gcd of the coefficients (``poly_gcd`` folded over
        all of them) and their rational content; fix the sign."""
        g = PolyQ([])
        for p in self.coeffs:
            g = poly_gcd(g, p)
        polys = list(self.coeffs)
        if not g.is_zero() and g.degree() > 0:
            polys = [p.exact_div(g) for p in polys]
        # one content over every coefficient, so a zero polynomial does not count
        content = PolyQ([c for p in polys for c in p.coeffs]).content()
        if content != 1:
            polys = [p * (1 / content) for p in polys]
        if polys[-1].leading() < 0:
            polys = [-p for p in polys]
        return LinearRecurrence(polys)


def ode_to_recurrence(op: DifferentialOperator) -> LinearRecurrence:
    """Translate an ODE into the normalized recurrence on Taylor coefficients.

    Each term of the module docstring's identity is p_{i,j} times a falling
    factorial of degree i in n, so no shift that has a term cancels; each is
    expanded one linear factor at a time, directly in n - s_min.
    """
    # integer coefficients: normalized() divides the common scale out again
    scale = lcm(*(c.denominator for p in op.coeffs for c in p.coeffs))
    terms = [(i - j, i, c.numerator * (scale // c.denominator))
             for i, p in enumerate(op.coeffs) for j, c in enumerate(p.coeffs) if c]
    s_min = min(s for s, _, _ in terms)
    order = max(s for s, _, _ in terms) - s_min
    if order == 0:
        raise DomainError("recurrence of order 0; the only solution is trivial")
    coeffs = [[0] * len(op.coeffs) for _ in range(order + 1)]
    for s, i, c in terms:
        t = s - s_min
        ff = [c]  # c (n + t)(n + t - 1)...(n + t - i + 1), lowest degree first
        for a in range(t, t - i, -1):
            ff = [a * ff[0], *(p + a * q for p, q in zip(ff, ff[1:])), ff[-1]]
        for k, f in enumerate(ff):
            coeffs[t][k] += f
    return LinearRecurrence(coeffs).normalized()


def unroll(rec: LinearRecurrence, seeds, D) -> list[int]:
    """The integers T_n = D_n P_n for n < len(D), from the first ``rec.order``
    of them, over a chain D_0 | D_1 | ... of multiples of P_n's denominators.

    With the coefficients cleared to integer polynomials once, each step is
    T_{n+r} = -sum_j c_j(n) (D_{n+r}/D_{n+j}) T_{n+j} / c_r(n), one exact
    division by the leading coefficient: a remainder means that D_{n+r} P_{n+r}
    is no integer, and raises :class:`RouteDisagreement`. A D that is not a
    chain raises DomainError; a vanishing leading coefficient
    LeadingCoefficientVanishes.
    """
    r = rec.order
    if len(seeds) != r:
        raise DomainError(f"need exactly {r} initial terms, got {len(seeds)}")
    steps = [divmod(b, a) if a else (0, 0) for a, b in zip(D, D[1:])]
    if any(rem or not k for k, rem in steps):
        raise DomainError("D is not a chain of nonzero integers")
    ratios = [0, *(k for k, _ in steps)]  # ratios[n] = D_n/D_{n-1}
    polys = rec.coeffs
    clear = lcm(*(c.denominator for p in polys for c in p.coeffs))
    polys = [[int(c * clear) for c in reversed(p.coeffs)] for p in polys]
    terms = list(seeds[:len(D)])
    for n in range(len(D) - r):
        *lower, lead = [_horner(p, n) for p in polys]
        if lead == 0:
            raise LeadingCoefficientVanishes(n)
        acc = 0  # sum_j c_j(n) T_{n+j} D_{n+r}/D_{n+j}, one ratio at a time
        for j, c in enumerate(lower):
            acc = (acc + c * terms[n + j]) * ratios[n + j + 1]
        t, rem = divmod(-acc, lead)
        if rem:
            raise RouteDisagreement(f"D_n P_n is no integer at n={n + r}")
        terms.append(t)
    return terms


def _horner(coeffs: list[int], n: int) -> int:
    """The integer polynomial with coefficients highest degree first, at n."""
    out = 0
    for c in coeffs:
        out = out * n + c
    return out
