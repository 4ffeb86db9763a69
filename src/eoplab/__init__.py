"""Exact-arithmetic laboratory for E-function approximation sequences,
Gamma-derivative calculus, and divergent asymptotic expansions.

Only the ``numcore`` names are re-exported here, so that importing the package
(as every ``eop`` command does) loads no other layer; import the rest from
their modules, e.g. ``from eoplab.series import TruncatedSeries``."""

__version__ = "0.1.0"

from .numcore import (  # noqa: F401
    DEFAULT_PREC,
    DomainError,
    LeadingCoefficientVanishes,
    PolyQ,
    PrecisionError,
    Rational,
    bernoulli,
    to_mpf,
)
