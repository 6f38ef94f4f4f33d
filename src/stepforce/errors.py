"""Exception types shared across the package.

Every domain failure carries a short machine-readable code so the CLI can
map it onto exit statuses and callers can branch without parsing prose.
"""

from __future__ import annotations

__all__ = [
    "StepForceError",
    "ConfigError",
    "UndefinedAtOrigin",
    "InvalidWidth",
    "BelowThreshold",
    "UnderResolved",
    "NoConvergence",
    "UnresolvedWindow",
    "ProbeInsideSmoothing",
    "BoxTooSmall",
    "CrossCheckFailed",
]


class StepForceError(Exception):
    """Base class for physics-domain errors (CLI exit code 1)."""

    code = "error"

    def __init__(self, message: str):
        super().__init__(f"{self.code}: {message}")


class ConfigError(StepForceError):
    """Bad run configuration (CLI exit code 2)."""

    code = "config"


class UndefinedAtOrigin(StepForceError):
    """Sharp-step quantity requested exactly at the interface point."""

    code = "undefined-at-origin"


class InvalidWidth(StepForceError):
    """Non-positive smoothing width."""

    code = "invalid-width"


class BelowThreshold(StepForceError):
    """Incidence energy below the propagation threshold of the incoming side."""

    code = "below-threshold"


class UnderResolved(StepForceError):
    """Piecewise model too coarse for the requested smoothing width."""

    code = "under-resolved"


class NoConvergence(StepForceError):
    """Extrapolation input does not behave like a convergent power law."""

    code = "no-convergence"


class UnresolvedWindow(StepForceError):
    """Integration window does not dominate the smoothing width."""

    code = "unresolved-window"


class ProbeInsideSmoothing(StepForceError):
    """Probe offset too close to the interface to clear the smoothed region."""

    code = "probe-inside-smoothing"


class BoxTooSmall(StepForceError):
    """Wave packet contaminated the walls of the evolution box."""

    code = "box-too-small"


class CrossCheckFailed(StepForceError):
    """Two independent evaluations of one quantity disagree beyond rounding,
    or an internal search found nothing to check (CLI exit code 1)."""

    code = "cross-check"
