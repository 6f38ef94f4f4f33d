"""Verification laboratory for the mean force a potential step exerts.

Exact stationary scattering modes of the nonrelativistic, spin-0
(two-component) and spin-1/2 wave equations on a finite step, three
independent evaluations of the mean force at the interface, and the
numerical limits (smooth-potential, nonrelativistic, hard-wall,
time-dependent) that probe every boundary condition behind them.
"""

from .core import GridSpec, PhysicalParams, RegularizedPotential
from .errors import (BelowThreshold, BoxTooSmall, ConfigError,
                     CrossCheckFailed, InvalidWidth, NoConvergence,
                     ProbeInsideSmoothing, StepForceError, UndefinedAtOrigin,
                     UnderResolved, UnresolvedWindow)
from .force import (boundary_terms, delta_conventions, density,
                    infinite_step_sweep, interface_probe, kfg_density_jump,
                    mean_force_closed, nonrel_residuals)
from .modes import (ScatterMode, bc_residuals, dispersion, fv_lift,
                    random_mode, solve_step_mode)
from .regularized import (ConvergenceSeries, extrapolate, route_b_sweep,
                          smooth_jump_diagnostics, solve_smooth_mode)
from .timeevo import (EvolutionState, PacketSpec, ehrenfest_report, evolve,
                      gaussian_packet)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "PhysicalParams", "RegularizedPotential", "GridSpec",
    "StepForceError", "ConfigError", "UndefinedAtOrigin", "InvalidWidth",
    "BelowThreshold", "UnderResolved", "NoConvergence", "UnresolvedWindow",
    "ProbeInsideSmoothing", "BoxTooSmall", "CrossCheckFailed",
    "ScatterMode", "dispersion",
    "solve_step_mode", "fv_lift", "bc_residuals", "random_mode",
    "density", "interface_probe", "kfg_density_jump", "mean_force_closed",
    "boundary_terms", "delta_conventions", "nonrel_residuals",
    "infinite_step_sweep",
    "ConvergenceSeries", "solve_smooth_mode", "route_b_sweep", "extrapolate",
    "smooth_jump_diagnostics",
    "PacketSpec", "EvolutionState", "gaussian_packet", "evolve",
    "ehrenfest_report",
]
