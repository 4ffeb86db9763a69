"""Exact-arithmetic laboratory for E-function approximation sequences,
Gamma-derivative calculus, and divergent asymptotic expansions.

Only ``numcore`` names are imported here, so that importing the package (as
every ``eop`` command does) loads no other layer. ``PolyQ`` lives in
``kernels``, which only the sequence layers load, and is imported on first
access (PEP 562). Import the rest from their modules, e.g.
``from eoplab.series import TruncatedSeries``."""

__version__ = "0.1.0"

from .numcore import (  # noqa: F401
    DEFAULT_PREC,
    DomainError,
    LeadingCoefficientVanishes,
    PrecisionError,
    Rational,
    bernoulli,
    to_mpf,
)


def __getattr__(name):
    if name == "PolyQ":
        from .kernels import PolyQ

        return PolyQ
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
