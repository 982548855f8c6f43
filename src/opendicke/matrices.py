"""Dynamical 4x4 matrices of the two-subsystem, two-port model.

Basis ordering is fixed as (a, a_dag, b, b_dag). The dynamical matrix A is
pseudo-Hermitian, A = -Sigma A_dag Sigma with Sigma = diag(1, -1, 1, -1), the
decay matrix Gamma(omega) is block diagonal over the two ports with rank-one
2x2 blocks, and the characteristic function

    zeta(omega) = det(A - i Gamma(omega) / 2 - omega I)

is normalized with a +1 coefficient on omega^4 (the determinant already is).
Its zeros are the complex eigenfrequencies of the open system. The damping
enters only the two port blocks, so in either phase zeta factorizes exactly,

    zeta(omega) = (omega^2 + i gamma_a omega - omega_a^2)
                  (omega^2 + i gamma_b omega - omega_b~^2 - 4 d omega_b~)
                  - 4 g~^2 omega_a omega_b~,

with omega_b~, g~, d and the saturated matter rate from PhaseData (bare, and
d = 0, in the normal phase). It holds at any fixed omega for every bath law,
with gamma_j = gamma_j(omega) carrying the signature signs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .model import (
    BathSpec,
    ModelParams,
    Phase,
    PhaseData,
    gamma_of,
)

__all__ = [
    "ZetaSignature",
    "INPUT",
    "OUTPUT",
    "FLIP_A",
    "BogoliubovSystem",
    "build_system",
    "build_a_matrix",
    "build_gamma",
    "m_matrix",
    "zeta",
    "zeta_from_system",
    "zeta_quartic_coeffs",
    "zeta_constant_term",
]


@dataclass(frozen=True)
class ZetaSignature:
    """Signs applied to the two port dampings inside zeta.

    (+1, +1) is the physical configuration (the input relation and the S11
    denominator); (-1, +1) is exactly the S11 numerator; (-1, -1) is the
    output relation matrix M(A, -Gamma).
    """

    sign_a: int = 1
    sign_b: int = 1

    def __post_init__(self) -> None:
        if self.sign_a not in (-1, 1) or self.sign_b not in (-1, 1):
            raise ValueError("signature signs must be +1 or -1")


INPUT = ZetaSignature(1, 1)
OUTPUT = ZetaSignature(-1, -1)
FLIP_A = ZetaSignature(-1, 1)


@dataclass(frozen=True)
class BogoliubovSystem:
    """Phase-resolved system: the 4x4 dynamical matrix plus the effective
    per-port bath laws. The matter-port bath already carries the saturation
    replacement gamma0_b -> 4 gamma0_b / (lam + 1)^2 in the superradiant
    phase, so consumers never special-case the phase again.

    a_entries holds the four real entries A[0, 0], A[0, 2], A[2, 2] and
    A[2, 3] that fix A, read once here rather than on every zeta call
    (dataclasses.replace rebuilds it for each stepped system)."""

    phase: Phase
    a_matrix: np.ndarray
    bath_a: BathSpec
    bath_b: BathSpec
    a_entries: tuple[float, float, float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        a = self.a_matrix
        entries = tuple(float(a[i, j].real) for i, j in ((0, 0), (0, 2), (2, 2), (2, 3)))
        object.__setattr__(self, "a_entries", entries)


def build_a_matrix(phase_data: PhaseData, params: ModelParams) -> np.ndarray:
    """Dynamical matrix whose eigenvalues are the closed excitation energies.

    PhaseData holds the bare (omega_b, g) and d_term = 0 in the normal (and
    critical) phase and the renormalized values in the superradiant phase,
    so the one matrix serves both.
    """
    wa = params.omega_a
    wb, g, d = phase_data.omega_b_tilde, phase_data.g_tilde, phase_data.d_term
    return np.array(
        [
            [wa, 0.0, g, g],
            [0.0, -wa, -g, -g],
            [g, g, wb + 2.0 * d, 2.0 * d],
            [-g, -g, -2.0 * d, -wb - 2.0 * d],
        ],
        dtype=complex,
    )


def _effective_baths(phase_data: PhaseData, params: ModelParams) -> tuple[BathSpec, BathSpec]:
    bath_b = params.bath_b
    if phase_data.phase is Phase.SUPERRADIANT:
        bath_b = replace(bath_b, gamma0=phase_data.gamma_b_tilde_amp)
    return params.bath_a, bath_b


def build_system(phase_data: PhaseData, params: ModelParams) -> BogoliubovSystem:
    bath_a, bath_b = _effective_baths(phase_data, params)
    return BogoliubovSystem(
        phase=phase_data.phase,
        a_matrix=build_a_matrix(phase_data, params),
        bath_a=bath_a,
        bath_b=bath_b,
    )


def build_gamma(
    phase_data: PhaseData,
    params: ModelParams,
    omega,
    signature: ZetaSignature = INPUT,
) -> np.ndarray:
    """Decay matrix Gamma(omega): block diagonal over the ports, each block
    gamma * [[1, -1], [-1, 1]] (rank one; the off-diagonal sign flip comes
    from the counter-rotating part of the system-bath interaction)."""
    bath_a, bath_b = _effective_baths(phase_data, params)
    ga = signature.sign_a * gamma_of(bath_a, omega)
    gb = signature.sign_b * gamma_of(bath_b, omega)
    out = np.zeros((4, 4), dtype=complex)
    out[0, 0] = out[1, 1] = ga
    out[0, 1] = out[1, 0] = -ga
    out[2, 2] = out[3, 3] = gb
    out[2, 3] = out[3, 2] = -gb
    return out


def m_matrix(
    phase_data: PhaseData,
    params: ModelParams,
    omega,
    signature: ZetaSignature = INPUT,
) -> np.ndarray:
    """M(omega) = A - i Gamma(omega)/2 - omega I for one complex frequency."""
    a = build_a_matrix(phase_data, params)
    gam = build_gamma(phase_data, params, omega, signature)
    return a - 0.5j * gam - omega * np.eye(4)


def _det4(m) -> complex:
    # Laplace expansion over the first two rows: branch free, fixed operation
    # count, no pivoting noise near zeta ~ 0 where the root finders operate.
    # Entries may be scalars or broadcastable arrays.
    c01 = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    c02 = m[0][0] * m[1][2] - m[0][2] * m[1][0]
    c03 = m[0][0] * m[1][3] - m[0][3] * m[1][0]
    c12 = m[0][1] * m[1][2] - m[0][2] * m[1][1]
    c13 = m[0][1] * m[1][3] - m[0][3] * m[1][1]
    c23 = m[0][2] * m[1][3] - m[0][3] * m[1][2]
    d01 = m[2][0] * m[3][1] - m[2][1] * m[3][0]
    d02 = m[2][0] * m[3][2] - m[2][2] * m[3][0]
    d03 = m[2][0] * m[3][3] - m[2][3] * m[3][0]
    d12 = m[2][1] * m[3][2] - m[2][2] * m[3][1]
    d13 = m[2][1] * m[3][3] - m[2][3] * m[3][1]
    d23 = m[2][2] * m[3][3] - m[2][3] * m[3][2]
    return c01 * d23 - c02 * d13 + c03 * d12 + c12 * d03 - c13 * d02 + c23 * d01


def zeta_from_system(system: BogoliubovSystem, omega, signature: ZetaSignature = INPUT):
    """zeta(omega) = det(A - i Gamma(omega)/2 - omega I).

    Scalar in, scalar out; ndarray in, elementwise ndarray out (the grid
    engines evaluate whole probe rows in one call). At omega = 0 exactly the
    damping drops out of the determinant for every admissible exponent
    (omega gamma(omega) -> 0), so the scalar call evaluates that limit
    directly; this keeps the constant term meaningful for subohmic baths
    whose gamma diverges at the origin.
    """
    if not isinstance(omega, np.ndarray) and omega == 0:
        ga = gb = 0.0
    else:
        ga = signature.sign_a * gamma_of(system.bath_a, omega)
        gb = signature.sign_b * gamma_of(system.bath_b, omega)
    ha = -0.5j * ga
    hb = -0.5j * gb
    a00, a02, a22, a23 = system.a_entries
    # Row pattern of M: diagonal picks up (h - omega), the partner column in
    # the same port block picks up -h, cross-port entries are bare A entries.
    m = (
        (a00 + ha - omega, -ha, a02, a02),
        (-ha, -a00 + ha - omega, -a02, -a02),
        (a02, a02, a22 + hb - omega, a23 - hb),
        (-a02, -a02, -a23 - hb, -a22 + hb - omega),
    )
    return _det4(m)


def zeta(
    phase_data: PhaseData,
    params: ModelParams,
    omega,
    signature: ZetaSignature = INPUT,
):
    """zeta at a point or over an array of frequencies (see zeta_from_system)."""
    return zeta_from_system(build_system(phase_data, params), omega, signature)


def zeta_quartic_coeffs(
    phase_data: PhaseData,
    params: ModelParams,
    signature: ZetaSignature = INPUT,
) -> np.ndarray:
    """Quartic coefficients of zeta for constant rates, omega^4 first.

    The product of the two port quadratics (module docstring), with the
    signature signs on the rates and the constant term taken from
    zeta_constant_term. Only defined for ohmic baths (s = 0 on both ports).
    """
    if params.bath_a.exponent_s != 0.0 or params.bath_b.exponent_s != 0.0:
        raise ValueError("quartic coefficients require ohmic baths (s = 0)")
    bath_a, bath_b = _effective_baths(phase_data, params)
    wa, wbt, d = params.omega_a, phase_data.omega_b_tilde, phase_data.d_term
    coeffs = np.polymul(
        [1.0, 1j * (signature.sign_a * bath_a.gamma0), -(wa**2)],
        [1.0, 1j * (signature.sign_b * bath_b.gamma0), -(wbt**2 + 4.0 * d * wbt)],
    )
    coeffs[-1] = zeta_constant_term(phase_data, params)
    return coeffs


def zeta_constant_term(phase_data: PhaseData, params: ModelParams) -> float:
    """zeta(0), which carries no damping for any well-behaved bath.

    omega_a^2 (omega_b~^2 + 4 d omega_b~) - 4 g~^2 omega_a omega_b~. In the
    normal phase (bare values, d = 0) its zero is the critical coupling;
    above the transition it is det(A), positive.
    """
    wa, wbt = params.omega_a, phase_data.omega_b_tilde
    gt, d = phase_data.g_tilde, phase_data.d_term
    return wa**2 * (wbt**2 + 4.0 * d * wbt) - 4.0 * gt**2 * wa * wbt
