"""Physical constants, smoothed-step potentials, and grids.

The sharp step

    phi(x) = 0   (x < 0),    phi(x) = v0   (x > 0)

is deliberately left undefined at x = 0; every quantity evaluated there is
taken as a one-sided limit.  The smoothed family phi_eps replaces the jump by
a midpoint-symmetric profile of width scale eps, so that
phi_eps(0) = v0 / 2 and phi_eps(x) + phi_eps(-x) = v0 for every x.

All formulas are unit-generic: any consistent system (hbar, mass, c) works.
The default is natural units hbar = mass = c = 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidWidth

__all__ = [
    "PhysicalParams",
    "RegularizedPotential",
    "GridSpec",
    "REG_SHAPES",
]

# The smoothing shapes, all midpoint symmetric.
REG_SHAPES = ("logistic", "erf", "ramp")


@dataclass(frozen=True)
class PhysicalParams:
    """Problem constants: hbar, particle mass, light speed, step height v0.

    Any positive, consistent unit system works; the defaults are natural
    units hbar = mass = c = 1.
    """

    hbar: float = 1.0
    mass: float = 1.0
    c: float = 1.0
    v0: float = 0.5

    def __post_init__(self):
        for name in ("hbar", "mass", "c"):
            value = getattr(self, name)
            if not value > 0:       # false for NaN too
                raise ValueError(f"{name} must be positive, got {value}")
        if not 0.0 < self.rest_energy < math.inf:
            raise ValueError(f"the rest energy mass * c^2 of mass "
                             f"{self.mass!r} and c {self.c!r} must be finite "
                             f"and positive")

    @property
    def rest_energy(self) -> float:
        """mass * c**2 where that double is finite and positive, else
        (mass * c) * c, which holds mc^2 where c**2 alone over- or
        underflows (mass 1e300 with c 1e-200 gives 1e-100)."""
        try:
            rest = self.mass * self.c**2
        except OverflowError:       # c**2 overflowed
            rest = math.inf
        return rest if 0.0 < rest < math.inf else (self.mass * self.c) * self.c


@functools.cache
def _special():
    """``scipy.special``, imported on first use: only the logistic and erf
    profiles need it, and it costs about half of the package's start-up."""
    import scipy.special
    return scipy.special


@dataclass(frozen=True)
class RegularizedPotential:
    """Midpoint-symmetric smoothing of the step with width scale eps.

    Shapes:

    * ``logistic``: v0 / (1 + exp(-x / eps))
    * ``erf``:      v0 * (1 + erf(x / eps)) / 2
    * ``ramp``:     linear ramp from 0 to v0 across [-eps, +eps]

    ``deriv`` is the exact derivative; divided by v0 it is a unit-mass
    nascent delta, which is what the smooth force integrand uses.  It is
    ``deriv_from(deriv_factors(x))``: the factors are functions of
    u = x / eps alone, so a caller whose u keeps its bits at another width
    forms them once.
    """

    v0: float
    eps: float
    shape: str = "logistic"

    def __post_init__(self):
        if not (self.eps > 0.0):
            raise InvalidWidth(f"smoothing width must be positive, got {self.eps}")
        if self.shape not in REG_SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}; expected one of "
                             f"{REG_SHAPES}")
        # deriv's scale: past the doubles it turns the plateaus' 0 into NaN
        if not math.isfinite(float(self.v0) / float(self.eps)):
            raise ValueError(f"the step's slope scale v0 / eps of v0 "
                             f"{self.v0!r} and eps {self.eps!r} must be finite")

    def eval(self, x):
        """Potential value; numpy's result, an array for an array."""
        u = np.asarray(x, dtype=float) / self.eps
        if self.shape == "logistic":
            out = self.v0 * _special().expit(u)
        elif self.shape == "erf":
            out = self.v0 * 0.5 * (1.0 + _special().erf(u))
        else:  # ramp
            out = self.v0 * np.clip((u + 1.0) / 2.0, 0.0, 1.0)
        return out

    def deriv(self, x):
        """d(phi_eps)/dx, numpy's result; nonnegative, integrates to v0."""
        return self.deriv_from(self.deriv_factors(x))

    def deriv_factors(self, x) -> tuple:
        """deriv's factors of u = x / eps alone: expit(u) and 1 - expit(u)
        (logistic), exp(-u^2) (erf) or the mask |u| <= 1 (ramp)."""
        u = np.asarray(x, dtype=float) / self.eps
        if self.shape == "logistic":
            s = _special().expit(u)
            return s, 1.0 - s
        if self.shape == "erf":
            return (np.exp(-(u**2)),)
        return (np.abs(u) <= 1.0,)

    def deriv_from(self, factors: tuple):
        """deriv from its ``deriv_factors``, the scale v0 / eps applied in
        one order per shape."""
        if self.shape == "logistic":
            s, rest = factors
            return self.v0 / self.eps * s * rest
        if self.shape == "erf":
            return self.v0 / (self.eps * np.sqrt(np.pi)) * factors[0]
        return np.where(factors[0], self.v0 / (2.0 * self.eps), 0.0)

    def support_halfwidth(self) -> float:
        """Half-width outside which the profile equals its plateaus to 1 ulp."""
        if self.shape == "ramp":
            return self.eps
        # exp(-40) and erf tails are below double precision resolution
        return 40.0 * self.eps


@dataclass(frozen=True)
class GridSpec:
    """Uniform spatial grid on [x_min, x_max] with n_points samples."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not (self.x_max > self.x_min):
            raise ValueError(f"x_max must exceed x_min, got x_min = "
                             f"{self.x_min} and x_max = {self.x_max}")
        if self.n_points < 2:
            raise ValueError(
                f"need at least 2 grid points, got {self.n_points}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)
