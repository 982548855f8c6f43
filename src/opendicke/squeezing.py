"""Observability of ground-state squeezing through the output ports.

The probed quantity is the vacuum variance of the phase-rotated quadrature
built from positive/negative frequency output operators. Because the
variance reduces to the normally ordered expectation <X+ X->, the quadrature
angle phi cancels identically and the result equals the bare vacuum value
1 / (2 omega): the intrinsic squeezing of the ground state never reaches the
output fields. The two-mode generalization mixes both output ports with
angles (theta, psi) and inherits the same verdict from the unitarity of the
scattering matrix on the real axis.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, check_frequency, gamma_of
from .scattering import s_matrix

__all__ = [
    "QuadratureSpec",
    "dispersive_output_coefficient",
    "quadrature_variance",
    "two_mode_variance",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Probe frequency plus the three angles of the measured quadrature:
    phi rotates the quadrature, theta mixes the two output ports, psi is
    their relative phase. Angles are taken modulo 2 pi and must be finite."""

    omega: float
    phi: float = 0.0
    theta: float = 0.0
    psi: float = 0.0

    def __post_init__(self) -> None:
        check_frequency(self.omega, "probe frequency", scalar=True)
        for name in ("phi", "theta", "psi"):
            angle = getattr(self, name)
            if not math.isfinite(angle):
                raise ValueError(f"quadrature angle {name} must be finite, got {angle}")


def dispersive_output_coefficient(params: ModelParams, omega: float) -> complex:
    """Output/input amplitude ratio of port a in the dispersive regime.

    [omega (omega - i gamma_a) omega_b + omega_a (4 g^2 - omega_a omega_b)]
    over the same expression with +i gamma_a. Numerator and denominator are
    complex conjugates on the real axis, so the modulus is exactly one. The
    expression targets omega_b >> omega_a but is well defined generally.
    Where the floats cannot hold the ratio, a ValueError names the probe.
    """
    check_frequency(omega, "probe frequency", scalar=True)
    wa, wb, g = params.omega_a, params.omega_b, params.g
    ga = gamma_of(params.bath_a, omega)
    shift = wa * (4.0 * g**2 - wa * wb)
    try:
        c = (omega * (omega - 1j * ga) * wb + shift) / (omega * (omega + 1j * ga) * wb + shift)
    except ZeroDivisionError:
        c = complex(math.nan)
    if not cmath.isfinite(c):
        raise ValueError(
            f"the dispersive output coefficient is not finite at probe frequency {omega},"
            f" got gamma_a = {ga}"
        )
    return c


def quadrature_variance(params: ModelParams, spec: QuadratureSpec) -> float:
    """Vacuum variance of the single-port output quadrature.

    <X+ X-> with the vacuum input normalization 1 / (2 omega) and the
    unit-modulus output coefficient: 1 / (2 omega) for every phi (the angle
    never enters the normally ordered expectation). Requires theta = 0; the
    two-port superposition lives in two_mode_variance.
    """
    if spec.theta != 0.0:
        raise ValueError("single-mode variance requires theta = 0")
    c = dispersive_output_coefficient(params, spec.omega)
    return _finite_variance(abs(c) ** 2 / (2.0 * spec.omega), spec.omega)


def two_mode_variance(params: ModelParams, spec: QuadratureSpec) -> float:
    """Vacuum variance of the two-port output superposition.

    The superposed output cos(theta) C_out_a + e^(i psi) sin(theta) C_out_b
    expressed through the scattering matrix rows acting on vacuum inputs
    gives <X+ X-> = |cos(theta) S_row_a + e^(i psi) sin(theta) S_row_b|^2
    / (2 omega). phi independent by construction; reduces to the single-mode
    result at theta = 0.
    """
    s = s_matrix(params, spec.omega)
    with np.errstate(all="ignore"):
        mix = np.cos(spec.theta) * s[0, :] + np.exp(1j * spec.psi) * np.sin(spec.theta) * s[1, :]
        variance = float(np.sum(np.abs(mix) ** 2) / (2.0 * spec.omega))
    return _finite_variance(variance, spec.omega)


def _finite_variance(variance: float, omega: float) -> float:
    """variance, or a ValueError naming the probe where it is not finite:
    1 / (2 omega) overflows, or a scattering matrix the floats resolve only
    far from unitary has huge entries."""
    if not math.isfinite(variance):
        raise ValueError(f"the output variance is not finite at probe frequency {omega}")
    return variance
