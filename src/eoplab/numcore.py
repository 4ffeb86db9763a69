"""Exact rational / polynomial arithmetic and the working-precision policy.

Exact quantities are ``fractions.Fraction`` values (always normalized, positive
denominator). Configurable-precision reals are ``mpmath.mpf`` values computed
inside an explicit ``workprec`` context; every public numeric routine takes a
``prec`` argument in bits and guarantees at least that many significand bits.
There is no interval arithmetic and no certified error bound yet: the tests
recompute numeric results at twice the precision and compare, and certified
bounds are still open work (ROADMAP item 9).

:func:`int_cauchy` is the exact product kernel for long integer coefficient
vectors: it packs both vectors into one ``Decimal`` each (Kronecker
substitution) and multiplies them in a private exact context.
:func:`small_cauchy` is the schoolbook loop for short vectors of ``Fraction``
or ``mpf`` entries (polynomial and Taylor-jet products). :func:`binary_split`
adds or multiplies many small rationals as a balanced tree.
"""

from __future__ import annotations

import decimal
from decimal import Decimal
from fractions import Fraction
from math import gcd
import sys
import threading

from mpmath import mpf, workprec

Rational = Fraction

#: Default significand size in bits for every numeric routine.
DEFAULT_PREC = 256


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class PrecisionError(ArithmeticError):
    """A numeric routine could not meet the requested precision."""


class RouteDisagreement(ArithmeticError):
    """Independent routes to the same exact sequence gave different values."""


class LeadingCoefficientVanishes(ArithmeticError):
    """The recurrence cannot determine the next term at index ``n``."""

    def __init__(self, n: int):
        super().__init__(f"leading recurrence coefficient vanishes at n={n}")
        self.n = n


def to_mpf(q, prec: int = DEFAULT_PREC) -> mpf:
    """Round an exact rational (or int/mpf) to an mpf with ``prec`` bits."""
    with workprec(prec):
        if isinstance(q, Fraction):
            return mpf(q.numerator) / q.denominator
        return +mpf(q)


def capped_sum(terms, tiny: mpf, cap: int, what: str, acc=0, least: int = 0) -> mpf:
    """acc + terms[0] + terms[1] + ..., added one at a time at the ambient precision.

    Stops after the first term of index >= ``least`` with |term| < ``tiny``
    (leading terms may be exactly zero or still growing), and raises
    ``PrecisionError`` once ``cap`` terms have been added without stopping.
    ``tiny`` must be a positive mpf; callers run this inside their ``workprec``.
    """
    _, _, texp, tbc = tiny._mpf_
    top = texp + tbc  # 2^(top-1) <= tiny < 2^top
    for i, term in zip(range(cap), terms):
        acc += term
        if i < least:
            continue
        # Compare a nonzero finite term, man*2^exp in [2^(mag-1), 2^mag), by its
        # binary magnitude: abs(term) would round a new mpf for every term. An
        # exact comparison settles a tie with tiny's magnitude, zero and inf/nan.
        _, man, exp, bc = term._mpf_
        mag = exp + bc
        if man and mag != top:
            if mag < top:
                return acc
        elif abs(term) < tiny:
            return acc
    raise PrecisionError(f"{what} did not converge")


# A private exact context: multiplication of integral Decimals never rounds,
# and if it had to, the trap would raise instead of returning a wrong digit.
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                         Emin=decimal.MIN_EMIN,
                         traps=[decimal.Inexact, decimal.Rounded])


def int_cauchy(a: list, b: list, n: int) -> list:
    """The first n coefficients of (sum_i a_i z^i)(sum_j b_j z^j), integer vectors.

    The product is one big multiplication (Kronecker substitution z = 10^d): each
    vector is packed into a decimal digit string of d-digit fields with
    10^d > 2 n max|a| max|b|, the two ``Decimal`` values are multiplied once
    (libmpdec switches to a number-theoretic transform for large operands,
    where CPython's int product is Karatsuba), and the low n fields are read
    back as balanced signed digits. Every int <-> decimal conversion is per
    field (converting the packed number at once would be quadratic): through
    ``str`` and ``int`` while d is within ``sys.get_int_max_str_digits()``,
    else through ``Decimal(int)`` and ``int(Decimal(str))``, which that limit
    does not cover. Neither the limit nor the thread's decimal context is
    changed; before Python 3.10.7 there is no limit and ``str``/``int`` serve
    every width.
    """
    if n <= 0:
        return []
    a, b = a[:n], b[:n]
    bound = 2 * n * max(map(abs, a), default=0) * max(map(abs, b), default=0)
    if bound == 0:  # a zero vector; the fields below would not hold the other one
        return [0] * n
    # 10^d > 2^bit_length > bound, as 0.30103 > log10(2)
    d = bound.bit_length() * 30103 // 100000 + 1
    base = 10**d
    # str(int) and int(str) are faster, but each call is capped at
    # sys.get_int_max_str_digits() digits; wider fields go through Decimal
    if d <= (getattr(sys, "get_int_max_str_digits", lambda: 0)() or d):
        to_str, to_int = str, int
    else:
        to_str, to_int = _decimal_str, _decimal_int
    product = _EXACT.multiply(_pack(a, n, d, base, to_str), _pack(b, n, d, base, to_str))
    digits = str(product).rjust(n * d, "0")
    top = len(digits)
    out = []
    carry = False
    half = base >> 1
    for k in range(n):
        v = to_int(digits[top - (k + 1) * d:top - k * d]) + carry
        carry = v >= half
        out.append(v - base if carry else v)
    return out


def _decimal_str(x: int) -> str:
    return str(Decimal(x))


def _decimal_int(s: str) -> int:
    return int(Decimal(s))


def _pack(v: list, n: int, d: int, base: int, to_str) -> Decimal:
    """sum_i v_i 10^(d i) mod 10^(d n) as one Decimal: a negative field borrows
    10^d from the field above it, and the borrow out of field n - 1 is dropped."""
    zero = "0" * d
    fields = []
    borrow = False
    for i in range(n):
        x = v[i] if i < len(v) else 0
        if borrow:
            x -= 1
        borrow = x < 0
        if borrow:
            x += base
        fields.append(to_str(x).rjust(d, "0") if x else zero)
    fields.reverse()
    return Decimal("".join(fields))


def small_cauchy(a, b, n: int) -> list:
    """The first n coefficients of (sum_i a_i z^i)(sum_j b_j z^j), by the schoolbook
    loop, for short vectors whose entries are all Fraction or all mpf; the sums
    start from a zero of that type, and zero entries of a are skipped."""
    out = [0 * a[0] if a else 0] * n
    for i, ai in enumerate(a[:n]):
        if ai == 0:
            continue
        for k, bj in enumerate(b[:n - i], i):
            out[k] += ai * bj
    return out


def least_squares_line(xs: list, ys: list) -> tuple:
    """Slope and intercept of the least-squares line through the points (xs, ys).

    The slope is 0 when the xs have no spread (one point, or all equal), so the
    intercept is then the mean of the ys.
    """
    n = len(xs)
    sx, sy = sum(xs), sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    denom = n * sxx - sx * sx
    slope = 0.0 if abs(denom) < 1e-30 else (n * sxy - sx * sy) / denom
    return slope, (sy - slope * sx) / n


def binary_split(join, items: list, empty):
    """join over items as a balanced binary tree, or empty for no item.

    Binary splitting (Haible and Papanikolaou, *Fast multiprecision evaluation
    of series of rational numbers*, 1998): the operands of each join are of
    similar size, so an exact sum or product of many small rationals, carried
    unreduced and reduced once at the end, costs about one full-size product
    where a term-by-term ``Fraction`` loop takes a gcd per term.
    """
    if len(items) <= 1:
        return items[0] if items else empty
    mid = len(items) // 2
    return join(binary_split(join, items[:mid], empty), binary_split(join, items[mid:], empty))


# Exact B_0..B_{2j-1} with j = len(_tangent_column) (first convention,
# B_1 = -1/2), grown in place by _grow_bernoulli and never rebuilt. B_{2i} comes from the tangent number
# T_i = (2i-1)! [x^(2i-1)] tan x: B_{2i} = (-1)^(i-1) 2i T_i / (4^i (4^i - 1)).
_BERNOULLI = [Fraction(1), Fraction(-1, 2)]
# Column j of the tangent-number triangle of Brent and Harvey ("Fast
# computation of Bernoulli, Tangent and Secant numbers", 2011):
# V(j, 1) = (j-1)!, V(j, r) = (j-r) V(j-1, r) + (j-r+2) V(j, r-1), T_j = V(j, j).
# Column j+1 needs only column j, so the table grows without a rebuild.
_tangent_column = [1]
_grow_lock = threading.Lock()


def _grow_bernoulli(k: int) -> None:
    """Extend the table through B_k, one tangent number at a time."""
    global _tangent_column
    with _grow_lock:
        col = _tangent_column
        while len(_BERNOULLI) <= k:
            j = len(col)
            b = Fraction(j * col[-1], (4**j - 1) << (2 * j - 1))
            _BERNOULLI.extend((b if j % 2 else -b, Fraction(0)))
            v = j * col[0]  # V(j+1, 1) = j!; below, i = j+1-r for r = 2..j
            nxt = [v]
            for i, c in zip(range(j - 1, 0, -1), col[1:]):
                v = i * c + (i + 2) * v
                nxt.append(v)
            nxt.append(2 * v)
            col = _tangent_column = nxt


def bernoulli(k: int) -> Rational:
    """Exact Bernoulli number B_k, with B_1 = -1/2."""
    if k < 0:
        raise DomainError("bernoulli needs k >= 0")
    if k >= len(_BERNOULLI):
        _grow_bernoulli(k)
    return _BERNOULLI[k]


class Frozen:
    """Base of the immutable value classes. A subclass names its fields in
    ``_fields`` and sets each once, in its constructor, through
    ``object.__setattr__``; equality and hash are those of the field values,
    and assigning or deleting an attribute later raises ``AttributeError``."""

    __slots__ = ()
    _fields = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


class PolyQ(Frozen):
    """Dense univariate polynomial over the rationals, lowest degree first.

    ``coeffs`` is a tuple of ``Fraction``; trailing zero coefficients are
    trimmed on construction, and the zero polynomial has ``degree() is None``.
    """

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def degree(self) -> int | None:
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __call__(self, x: Rational) -> Rational:
        out = Fraction(0)
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def __add__(self, other: "PolyQ") -> "PolyQ":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return PolyQ([a[i] + (b[i] if i < len(b) else 0) for i in range(len(a))])

    def __sub__(self, other: "PolyQ") -> "PolyQ":
        return self + (-other)

    def __neg__(self) -> "PolyQ":
        return PolyQ([-c for c in self.coeffs])

    def __mul__(self, other) -> "PolyQ":
        if isinstance(other, (int, Fraction)):
            return PolyQ([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        return PolyQ(small_cauchy(a, b, len(a) + len(b) - 1))

    __rmul__ = __mul__

    def shift_var(self, c: Rational) -> "PolyQ":
        """Substitute x -> x + c."""
        out = PolyQ([])
        xc = PolyQ([1])
        lin = PolyQ([Fraction(c), Fraction(1)])
        for coef in self.coeffs:
            out = out + xc * coef
            xc = xc * lin
        return out

    def divmod(self, other: "PolyQ") -> tuple["PolyQ", "PolyQ"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [Fraction(0)] * max(len(rem) - len(other.coeffs) + 1, 1)
        d = len(other.coeffs) - 1
        lead = other.coeffs[-1]
        while len(rem) - 1 >= d and any(c != 0 for c in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            k = len(rem) - 1 - d
            f = rem[-1] / lead
            q[k] = f
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= f * c
            rem.pop()
        return PolyQ(q), PolyQ(rem)

    def exact_div(self, other: "PolyQ") -> "PolyQ":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise DomainError("polynomial division is not exact")
        return q

    def content(self) -> Fraction:
        """Positive rational c with self/c primitive over the integers."""
        if self.is_zero():
            return Fraction(1)
        num = 0
        den = 1
        for c in self.coeffs:
            num = gcd(num, c.numerator)
            den = den * c.denominator // gcd(den, c.denominator)
        return Fraction(num, den)

    def __repr__(self) -> str:
        if self.is_zero():
            return "PolyQ(0)"
        parts = [f"{c}*x^{i}" for i, c in enumerate(self.coeffs) if c != 0]
        return "PolyQ(" + " + ".join(parts) + ")"


def poly_gcd(a: PolyQ, b: PolyQ) -> PolyQ:
    """Monic gcd over the rationals (monic 1 when coprime)."""
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    if a.is_zero():
        return a
    return a * (1 / a.leading())
