"""Verification laboratory for the mean force a potential step exerts.

Exact stationary scattering modes of the nonrelativistic, spin-0
(two-component) and spin-1/2 wave equations on a finite step, three
independent evaluations of the mean force at the interface, and the
numerical limits (smooth-potential, nonrelativistic, hard-wall,
time-dependent) that probe every boundary condition behind them.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
