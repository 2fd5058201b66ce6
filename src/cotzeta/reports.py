"""Shared verification-report plumbing.

Verifiers never return a bare boolean: they hand back the signed residual and
the error budget so near-misses stay debuggable.  Threshold application (and
the resulting exit code) is the CLI's job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import mpmath as mp

from .specfn import ComplexVal, PrecisionConfig


def residual_budget(residual: ComplexVal, target) -> float:
    """The pass threshold of a residual: its tracked error plus the target."""
    return float(residual.abs_err + mp.mpf(target))


def worst_residual(residuals, target) -> tuple[ComplexVal, float]:
    """The residual with the largest |r| / residual_budget(r), with its budget,
    so that a verdict on it fails when any residual exceeds its own budget."""
    worst = max(residuals, key=lambda r: r.mag() / residual_budget(r, target))
    return worst, residual_budget(worst, target)


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of one identity check at one parameter tuple."""

    theorem: str
    params: Mapping[str, Any]
    lhs: ComplexVal
    rhs: ComplexVal
    residual: ComplexVal
    budget: float
    details: Mapping[str, Any] = field(default_factory=dict)

    @classmethod
    def compare(cls, theorem: str, params: Mapping[str, Any], lhs: ComplexVal,
                rhs: ComplexVal, target) -> "VerifyResult":
        """The report on lhs = rhs: residual lhs - rhs against residual_budget."""
        residual = lhs - rhs
        return cls(theorem, params, lhs, rhs, residual, residual_budget(residual, target))

    @classmethod
    def exact(cls, theorem: str, params: Mapping[str, Any], lhs, rhs,
              cfg: PrecisionConfig | None = None) -> "VerifyResult":
        """The report on lhs = rhs between exact values (int, Fraction or
        ExactScaled), shown at cfg's precision: the residual is exact, so the
        budget is 0 and ``details["exact_zero"]`` records whether the identity
        holds."""
        residual = lhs - rhs
        return cls(theorem, params, ComplexVal.from_exact(lhs, cfg),
                   ComplexVal.from_exact(rhs, cfg), ComplexVal.from_exact(residual, cfg),
                   0.0, details={"exact_zero": residual == 0})

    def residual_mag(self) -> float:
        return float(self.residual.mag())

    def passes(self, threshold: float | None = None) -> bool:
        limit = self.budget if threshold is None else threshold
        return self.residual_mag() <= limit

    def to_json(self, digits: int = 25, threshold: float | None = None) -> dict:
        return {
            "theorem": self.theorem,
            "params": dict(self.params),
            "lhs": self.lhs.to_json(digits),
            "rhs": self.rhs.to_json(digits),
            "residual": self.residual.to_json(digits),
            "budget": mp.nstr(mp.mpf(self.budget), 3),
            "pass": self.passes(threshold),
        }
