"""Exact-arithmetic laboratory for E-function approximation sequences,
Gamma-derivative calculus, and divergent asymptotic expansions."""

__version__ = "0.1.0"

from .numcore import (  # noqa: F401
    DEFAULT_PREC,
    DomainError,
    PolyQ,
    PrecisionError,
    Rational,
    bernoulli,
    double_run,
    pochhammer,
    to_mpf,
)
from .series import TruncatedSeries  # noqa: F401
from .holonomic import (  # noqa: F401
    DifferentialOperator,
    HolonomicSequence,
    LeadingCoefficientVanishes,
    LinearRecurrence,
    ode_to_recurrence,
    unroll,
)
