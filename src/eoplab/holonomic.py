"""Differential operators with polynomial coefficients and P-recursive sequences.

An order-r linear ODE sum_i p_i(z) y^(i)(z) = 0 acting on y = sum c_n z^n
imposes, for every n, the coefficient identity

    sum_{i,j} p_{i,j} * (n+i-j)(n+i-j-1)...(n+1-j) * c_{n+i-j} = 0,

which re-indexes to a linear recurrence with polynomial coefficients in n.
Recurrences are kept in a normalized form (lowest shift 0, coefficients a
primitive integer vector with no common polynomial factor, leading coefficient
with positive leading term) so that equality of recurrences is a well-defined
exact test.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .numcore import (DomainError, Frozen, LeadingCoefficientVanishes, PolyQ, Rational,
                      poly_gcd)

__all__ = [
    "DifferentialOperator",
    "LinearRecurrence",
    "HolonomicSequence",
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
        """Divide out the common polynomial factor and rational content; fix sign."""
        polys = list(self.coeffs)
        g = PolyQ([])
        for p in polys:
            g = poly_gcd(g, p)
        if not g.is_zero() and g.degree() > 0:
            polys = [p.exact_div(g) for p in polys]
        # one content over every coefficient, so a zero polynomial does not count
        content = PolyQ([c for p in polys for c in p.coeffs]).content()
        if content != 1:
            polys = [p * (1 / content) for p in polys]
        if polys[-1].leading() < 0:
            polys = [-p for p in polys]
        return LinearRecurrence(polys)


class HolonomicSequence(Frozen):
    """A recurrence plus its first ``order`` terms (``initial``, a tuple of
    ``Fraction``), indexed from 0."""

    __slots__ = _fields = ("recurrence", "initial")

    def __init__(self, recurrence: LinearRecurrence, initial):
        init = tuple(Fraction(c) for c in initial)
        if len(init) != recurrence.order:
            raise DomainError(
                f"need exactly {recurrence.order} initial terms, got {len(init)}"
            )
        object.__setattr__(self, "recurrence", recurrence)
        object.__setattr__(self, "initial", init)


def _falling_factorial(shift: Rational, length: int) -> PolyQ:
    """(n + shift)(n + shift - 1)...(n + shift - length + 1) as a PolyQ in n."""
    out = PolyQ([1])
    for m in range(length):
        out = out * PolyQ([Fraction(shift) - m, 1])
    return out


def ode_to_recurrence(op: DifferentialOperator) -> LinearRecurrence:
    """Translate an ODE into the normalized recurrence on Taylor coefficients."""
    shifts: dict[int, PolyQ] = {}
    for i, p in enumerate(op.coeffs):
        for j, c in enumerate(p.coeffs):
            if c == 0:
                continue
            s = i - j
            term = _falling_factorial(s, i) * c
            shifts[s] = shifts.get(s, PolyQ([])) + term
    live = {s: q for s, q in shifts.items() if not q.is_zero()}
    if not live:
        raise DomainError("operator annihilates every series; no recurrence")
    s_min, s_max = min(live), max(live)
    if s_max == s_min:
        raise DomainError("recurrence of order 0; the only solution is trivial")
    coeffs = []
    for s in range(s_min, s_max + 1):
        q = live.get(s, PolyQ([]))
        coeffs.append(q.shift_var(-s_min))
    return LinearRecurrence(coeffs).normalized()


def unroll(seq: HolonomicSequence, N: int) -> list[Fraction]:
    """Exact terms P_0..P_{N-1}; raises if a leading coefficient vanishes.

    The coefficients are cleared to integer polynomials once, and the window
    is carried as integer numerators over one running denominator, so each
    term is normalised once, at the end. Every eighth step the window drops
    its common content, which keeps the integers near the reduced size.
    """
    r = seq.recurrence.order
    polys = seq.recurrence.coeffs
    clear = lcm(*(c.denominator for p in polys for c in p.coeffs))
    polys = [[int(c * clear) for c in reversed(p.coeffs)] for p in polys]
    den = lcm(*(v.denominator for v in seq.initial))
    window = [int(v * den) for v in seq.initial]
    terms = []
    for n in range(N - r):
        *lower, lead = [_horner(p, n) for p in polys]
        if lead == 0:
            raise LeadingCoefficientVanishes(n)
        new = -sum(c * w for c, w in zip(lower, window) if c)
        den *= lead
        window = [w * lead for w in window[1:]] + [new]
        if n % 8 == 7:
            g = gcd(den, *window)
            den //= g
            window = [w // g for w in window]
        terms.append((window[-1], den))
    return list(seq.initial[:N]) + [Fraction(num, d) for num, d in terms]


def _horner(coeffs: list[int], n: int) -> int:
    """The integer polynomial with coefficients highest degree first, at n."""
    out = 0
    for c in coeffs:
        out = out * n + c
    return out
