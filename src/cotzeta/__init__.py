"""cotzeta: cotangent-Hurwitz zeta sums, reciprocity laws, Estermann zeta values.

The library splits into an exact layer (big rationals scaled by powers of pi
and i, zero-tolerance identities) and a numeric layer (controlled-precision
mpmath arithmetic with tracked error budgets, vertical-line quadrature).
"""

from . import exact, specfn, sums, recip, estermann
from .errors import (
    CotZetaError,
    DomainError,
    PoleError,
    PrecisionError,
)
from .exact import ExactScaled, PeriodPolynomial
from .specfn import ComplexVal, PrecisionConfig, DEFAULT_PRECISION
from .sums import BCSumSpec, RationalArg
from .recip import QuadratureConfig
from .reports import VerifyResult

__version__ = "0.1.0"

__all__ = [
    "BCSumSpec",
    "ComplexVal",
    "CotZetaError",
    "DEFAULT_PRECISION",
    "DomainError",
    "ExactScaled",
    "PeriodPolynomial",
    "PoleError",
    "PrecisionConfig",
    "PrecisionError",
    "QuadratureConfig",
    "RationalArg",
    "VerifyResult",
    "estermann",
    "exact",
    "recip",
    "specfn",
    "sums",
]
