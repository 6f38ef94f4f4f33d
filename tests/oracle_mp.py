"""50-digit oracle for the sharp-step closed forms.

Evaluates, with mpmath at ``DIGITS`` significant digits, the same physics
that ``stepforce.modes`` and ``stepforce.force`` evaluate in doubles: the
plateau wavenumbers, the amplitudes r and t, the one-sided interface
densities, route A and the spin-0 delta-integral candidates.  Inputs are
doubles, taken exactly; outputs are mpmath numbers, so a test can round
them once and compare bit for bit, or count the ulps between them and the
library's doubles.

Written from the equations, not from the library's code:

* ``s``: hbar^2 k^2 / 2m = E - phi, u and u' continuous;
* ``kfg``: (hbar c k)^2 = (E - phi)^2 - (mc^2)^2, u and u' continuous,
  charge density (E - phi)/mc^2 |u|^2, which jumps with phi;
* ``dirac``: same dispersion, spinor (1, lam) with
  lam = hbar c k / (E - phi + mc^2), continuous.

On the transmitted side a real root takes the sign of the group velocity
(negative in the Klein regime, E - v0 < -mc^2), an imaginary one decays.

It also gives route E: a level of the sharp step at x = a in the box
[-L, L] with u(+-L) = 0, its dE/da, and the one-sided densities at a under
the charge normalization.  The level solves

    g(E, a) = k cos k(a + L) sin q(L - a) + q cos q(L - a) sin k(a + L) = 0,

and dE/da = -g_a / g_E, both derivatives taken numerically at the working
precision.  By the Hellmann-Feynman theorem dE/da is the mean force.

And it gives, at ``RAMP_DIGITS`` digits, the Schrodinger reflection
probability of the ramp, the step smoothed linearly across [-eps, eps]:
there u'' = a (x - x_t) u with a = m v0 / (hbar^2 eps) and turning point
x_t = eps (2E/v0 - 1), solved by Ai and Bi of a^(1/3) (x - x_t).
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath

DIGITS = 50
RAMP_DIGITS = 40


@dataclass(frozen=True)
class Sharp:
    """Interface data of the left-incident mode, each to at least
    ``DIGITS`` digits."""

    k: mpmath.mpc
    q: mpmath.mpc
    r: mpmath.mpc
    t: mpmath.mpc
    rho_left: mpmath.mpf
    rho_right: mpmath.mpf
    midpoint: mpmath.mpf
    half_jump: mpmath.mpf
    route_a: mpmath.mpf


def _wavenumber(theory, energy, phi, hbar, mass, c):
    if theory == "s":
        k2 = 2 * mass * (energy - phi) / hbar**2
    else:
        k2 = ((energy - phi) ** 2 - (mass * c**2) ** 2) / (hbar * c) ** 2
    if k2 < 0:
        return mpmath.mpc(0, mpmath.sqrt(-k2))
    root = mpmath.sqrt(k2)
    if theory != "s" and energy - phi < 0:
        root = -root
    return mpmath.mpc(root)


def sharp(theory: str, energy: float, v0: float, hbar: float = 1.0,
          mass: float = 1.0, c: float = 1.0) -> Sharp:
    """The sharp-step mode of ``theory`` at ``energy`` on a step of
    height ``v0``, in units with the given constants."""
    with mpmath.workdps(DIGITS + 10):
        energy, v0, hbar, mass, c = map(mpmath.mpf, (energy, v0, hbar, mass,
                                                     c))
        k = _wavenumber(theory, energy, 0, hbar, mass, c)
        q = _wavenumber(theory, energy, v0, hbar, mass, c)
        mc2 = mass * c**2
        if theory == "dirac":
            lam_l = hbar * c * k / (energy + mc2)
            lam_r = hbar * c * q / (energy - v0 + mc2)
            r = (lam_l - lam_r) / (lam_l + lam_r)
            t = 1 + r
            rho = abs(1 + r) ** 2 + abs(lam_l * (1 - r)) ** 2
            rho_left = rho_right = rho
            route_a = -v0 * rho
        else:
            r = (k - q) / (k + q)
            t = 2 * k / (k + q)
            u0 = abs(1 + r) ** 2
            if theory == "s":
                rho_left = rho_right = u0
                route_a = -v0 * u0
            else:
                rho_left = energy / mc2 * u0
                rho_right = (energy - v0) / mc2 * u0
                route_a = -v0 * (rho_right - rho_left) / 2
        return Sharp(k, q, r, t, rho_left, rho_right,
                     (rho_left + rho_right) / 2, (rho_right - rho_left) / 2,
                     route_a)


@dataclass(frozen=True)
class BoxLevel:
    """A level of the sharp step in a box and its interface densities,
    normalized to unit charge, each to at least ``DIGITS`` digits."""

    energy: mpmath.mpf
    de_da: mpmath.mpf
    rho_left: mpmath.mpf
    rho_right: mpmath.mpf
    midpoint: mpmath.mpf
    half_jump: mpmath.mpf


def box_level(theory: str, v0: float, a: float, half_length: float,
              guess: float, hbar: float = 1.0, mass: float = 1.0,
              c: float = 1.0) -> BoxLevel:
    """The level of ``theory`` (s or kfg) that a root search from ``guess``
    finds, for the step of height ``v0`` at x = ``a`` in the box
    [-half_length, half_length]; the right side may be evanescent."""
    with mpmath.workdps(DIGITS + 10):
        v0, a, L, hbar, mass, c = map(mpmath.mpf, (v0, a, half_length, hbar,
                                                   mass, c))
        mc2 = mass * c**2

        def wavenumbers(energy):
            return (_wavenumber(theory, energy, 0, hbar, mass, c),
                    _wavenumber(theory, energy, v0, hbar, mass, c))

        def g(energy, x):   # g / (k q), real in both regimes
            k, q = wavenumbers(energy)
            return mpmath.re(
                mpmath.cos(k * (x + L)) * mpmath.sin(q * (L - x)) / q
                + mpmath.cos(q * (L - x)) * mpmath.sin(k * (x + L)) / k)

        energy = mpmath.findroot(lambda e: g(e, a), mpmath.mpf(guess))
        de_da = (-mpmath.diff(lambda x: g(energy, x), a)
                 / mpmath.diff(lambda e: g(e, a), energy))
        k, q = wavenumbers(energy)

        def weight(phi):
            return 1 if theory == "s" else (energy - phi) / mc2

        def density(x):     # |u|^2 of the level, continuous at a
            if x < a:
                return abs(mpmath.sin(q * (L - a))
                           * mpmath.sin(k * (x + L))) ** 2
            return abs(mpmath.sin(k * (a + L)) * mpmath.sin(q * (L - x))) ** 2

        charge = (weight(0) * mpmath.quad(density, mpmath.linspace(-L, a, 17))
                  + weight(v0) * mpmath.quad(density,
                                             mpmath.linspace(a, L, 17)))
        rho_left = weight(0) * density(a) / charge
        rho_right = weight(v0) * density(a) / charge
        return BoxLevel(energy, de_da, rho_left, rho_right,
                        (rho_left + rho_right) / 2, (rho_right - rho_left) / 2)


def ramp_reflection_s(energy: float, v0: float, eps: float,
                      hbar: float = 1.0, mass: float = 1.0) -> mpmath.mpf:
    """|r|^2 of the left-incident Schrodinger mode on the ramp of height
    ``v0`` and half-width ``eps``, to at least ``RAMP_DIGITS`` digits.

    The transmitted wave t e^{iqx} (t = 1 first) fixes the Airy
    combination at x = eps, through the Wronskian W(Ai, Bi) = 1/pi; at
    x = -eps that combination splits into e^{ikx} and e^{-ikx}, whose
    amplitudes give r."""
    with mpmath.workdps(RAMP_DIGITS + 10):
        energy, v0, eps, hbar, mass = map(mpmath.mpf,
                                          (energy, v0, eps, hbar, mass))
        k = _wavenumber("s", energy, 0, hbar, mass, 1)
        q = _wavenumber("s", energy, v0, hbar, mass, 1)
        a3 = mpmath.cbrt(mass * v0 / (hbar**2 * eps))
        x_t = eps * (2 * energy / v0 - 1)

        def airy(x):
            z = a3 * (x - x_t)
            return (mpmath.airyai(z), a3 * mpmath.airyai(z, derivative=1),
                    mpmath.airybi(z), a3 * mpmath.airybi(z, derivative=1))

        ai, dai, bi, dbi = airy(eps)
        u, du = mpmath.exp(1j * q * eps), 1j * q * mpmath.exp(1j * q * eps)
        alpha = mpmath.pi * (u * dbi - du * bi) / a3
        beta = mpmath.pi * (du * ai - u * dai) / a3
        ai, dai, bi, dbi = airy(-eps)
        u, du = alpha * ai + beta * bi, alpha * dai + beta * dbi
        incident = (u + du / (1j * k)) * mpmath.exp(1j * k * eps) / 2
        reflected = (u - du / (1j * k)) * mpmath.exp(-1j * k * eps) / 2
        return abs(reflected / incident) ** 2
