"""The working-precision policy, the package's errors, and the kernels that
every command runs: exact reals rounded once, exact E-function sums, Bernoulli
numbers and the writer of wide integers.

Exact quantities are ``fractions.Fraction`` values (always normalized, positive
denominator). Configurable-precision reals are ``mpmath.mpf`` values computed
inside an explicit ``workprec`` context; every public numeric routine takes a
``prec`` argument in bits and guarantees at least that many significand bits.
:func:`to_mpf` rounds an exact real once, to the nearest. Every truncated sum
follows one rule: exact terms, a stop at a proven tail bound, one rounding
(:func:`recurrence_sum` for the E-function series, gammalab's Stirling tails,
the U/V generating sums; the asymptotic tail, cut at its smallest term). There
is no interval arithmetic: the tests check against mpmath oracles and, through
the ``double_run`` fixture, at twice the precision.

Python's int/str digit limit is handled in one place: :func:`_decimal_str`
writes an integer past it, by the divide-and-conquer conversion
:func:`_to_decimal` in a private exact ``Decimal`` context, and
:func:`_parse_int` reads one back, each only after ``str`` or ``int`` has
refused; :func:`_digits` prints an mpf to a digit count. :func:`small_cauchy`
is the package's one Cauchy product, a schoolbook loop (polynomial, Taylor-jet
and truncated-series products), and :func:`binary_split` adds or multiplies
many small rationals as a balanced tree.

:func:`off_poles` is the one pole test (Gamma and the E_alpha family have
their poles at the nonpositive integers), :func:`exact_real` the one exact
reader of a real. The exact-sequence kernels (the binomial transform, the
fixed-point fits, ``PolyQ``) are in :mod:`eoplab.kernels`, which only the
sequence layers load.
"""

from __future__ import annotations

import decimal
import functools
from decimal import Decimal
from fractions import Fraction
import threading

from mpmath import mp, mpf, workprec
from mpmath.libmp import from_rational, round_nearest, to_rational

Rational = Fraction

#: Default significand size in bits for every numeric routine.
DEFAULT_PREC = 256

#: Guard bits a routine adds to ``prec`` for its working precision.
GUARD_BITS = 16


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class PrecisionError(ArithmeticError):
    """A numeric routine could not meet the requested precision."""


class RouteDisagreement(ArithmeticError):
    """Independent routes to the same exact sequence gave different values."""


class UsageError(Exception):
    """A command line or an input file that the ``eop`` CLI cannot use (exit 1).

    It is no ValueError, so that argparse passes it on from a type function
    with its own message."""


def off_poles(x, what: str) -> Fraction:
    """x read by :func:`exact_real`; DomainError if it is a nonpositive integer,
    a pole of ``what``."""
    x = exact_real(x)
    if x.denominator == 1 and x <= 0:
        raise DomainError(f"{what} has a pole at the nonpositive integer {x}")
    return x


def exact_real(x) -> Fraction:
    """x as an exact Fraction, a float or mpf read as its binary value; DomainError
    unless x is a real finite number (an int, Fraction, float or mpf)."""
    if isinstance(x, mpf) and mp.isfinite(x):  # to_rational reads an mpf inf as 0
        return Fraction(*to_rational(x._mpf_))
    try:
        return Fraction(x)
    except (TypeError, ValueError, OverflowError):  # complex, mpc, inf, nan
        raise DomainError(f"{x!r} is not a real finite number") from None


class LeadingCoefficientVanishes(ArithmeticError):
    """The recurrence cannot determine the next term at index ``n``."""

    def __init__(self, n: int):
        super().__init__(f"leading recurrence coefficient vanishes at n={n}")
        self.n = n


def to_mpf(q, prec: int = DEFAULT_PREC) -> mpf:
    """The real q, read by :func:`exact_real`, rounded once to the nearest mpf with
    ``prec`` bits by ``libmp.from_rational`` (rounding the numerator first and
    then dividing would round twice)."""
    q = exact_real(q)
    return mp.make_mpf(from_rational(q.numerator, q.denominator, prec, round_nearest))


def recurrence_sum(step, start: list, den: int, n0: int, prec: int) -> mpf:
    """S = sum_n v_n[0] rounded once to ``prec`` bits, where v_0 = start/den and
    v_{n+1} = A_n v_n / d_n for (A_n, d_n) = step(n), integer rows and a nonzero int.

    The terms and S_N = sum_{n<N} v_n[0] are carried exactly over one running
    denominator (Haible and Papanikolaou, 1998, summed in sequence). The caller
    proves |v_{n+1}[0]| <= |v_n[0]|/2 for n >= n0, so |S - S_N| <= 2|v_N[0]|
    there: the first such N with 2|v_N[0]| <= 2^-(prec+2) |S_N| stops the sum,
    and the rounded S_N is within (2^-prec + 2^-(prec+2)) |S_N| of S.
    """
    v, s, n = start, 0, 0
    while n < n0 or abs(v[0]) << (prec + 3) > abs(s):
        A, d = step(n)
        s = (s + v[0]) * d
        v = [sum(a * x for a, x in zip(row, v)) for row in A]
        den *= d
        n += 1
    return mp.make_mpf(from_rational(s, den, prec, round_nearest))


# A private exact context: multiplication of integral Decimals never rounds,
# and if it had to, the trap would raise instead of returning a wrong digit.
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                         Emin=decimal.MIN_EMIN,
                         traps=[decimal.Inexact, decimal.Rounded])


def _decimal_str(x) -> str:
    """str(x); an int past the int/str digit limit is converted by divide and
    conquer (Brent and Zimmermann, *Modern Computer Arithmetic*, 1.7).

    ``str(Decimal(x))`` is quadratic in the digits. Instead x = hi 2^k + lo,
    with k the largest power of two below the bit length of x, and the halves,
    converted the same way, are joined as exact ``Decimal`` values,
    hi * 2^k + lo, by products that libmpdec makes subquadratic. Each 2^k is
    the square of 2^(k/2) and is built once.
    """
    try:
        return str(x)
    except ValueError:
        return str(_to_decimal(x))


#: Integers of at most this many bits go to Decimal directly.
_DIRECT_BITS = 1 << 11


def _to_decimal(x: int) -> Decimal:
    if x < 0:
        return _EXACT.minus(_to_decimal(-x))
    if x.bit_length() <= _DIRECT_BITS:
        return Decimal(x)
    j = (x.bit_length() - 1).bit_length() - 1  # k = 2^j < bit length <= 2k
    k = 1 << j
    hi = x >> k
    return _EXACT.fma(_to_decimal(hi), _pow2(j), _to_decimal(x - (hi << k)))


@functools.cache
def _pow2(j: int) -> Decimal:
    """2^(2^j) as an exact Decimal."""
    if (1 << j) <= _DIRECT_BITS:
        return Decimal(1 << (1 << j))
    half = _pow2(j - 1)
    return _EXACT.multiply(half, half)


def _parse_int(s: str) -> int:
    """int(s); a string of digits, with or without a minus sign, that is past
    the int/str digit limit is read by halves, the inverse of
    :func:`_decimal_str`."""
    try:
        return int(s)
    except ValueError:
        digits = s.removeprefix("-")
        if not (digits.isascii() and digits.isdigit()):
            raise
    h = len(digits) // 2
    v = _parse_int(digits[:-h]) * 10**h + _parse_int(digits[-h:])
    return -v if s.startswith("-") else v


def _digits(value, d: int) -> str:
    """The mpf value to d significant digits, trailing zeros kept."""
    # mp.nstr converts the whole mantissa, which can pass the int/str digit
    # limit, so first round to the int((d + 3) log2 10) + 10 bits it reads,
    # plus 32 guard bits (the digits change only within 2^-32 of a tie)
    with workprec(int((d + 3) * 3.3219280948873626) + 42):
        return mp.nstr(+value, d, strip_zeros=False)


def small_cauchy(a, b, n: int) -> list:
    """The first n coefficients of (sum_i a_i z^i)(sum_j b_j z^j), by the schoolbook
    loop, for vectors whose entries are all int, all Fraction or all mpf; the
    sums start from a zero of that type, and zero entries of a are skipped."""
    out = [0 * a[0] if a else 0] * n
    for i, ai in enumerate(a[:n]):
        if ai == 0:
            continue
        for k, bj in enumerate(b[:n - i], i):
            out[k] += ai * bj
    return out


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
