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

Numerically zeta is one Laplace expansion over the two port blocks of M,
reading A from the four real entries a BogoliubovSystem holds. _photon_half
holds the photon-port entries, which depend only on omega_a, omega and
gamma_a; _matter_minors and _port_zeta hold the rest. zeta_from_system
composes them for one system, and s11_rows, S11 itself, shares the photon
entries across a block of systems with one omega_a and one photon bath.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import BathSpec, ModelParams, Phase, PhaseData, gamma_of

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
    "s11_rows",
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
    """Phase-resolved system: the 4x4 dynamical matrix A plus the effective
    per-port bath laws. The matter-port bath already carries the saturation
    replacement gamma0_b -> 4 gamma0_b / (lam + 1)^2 in the superradiant
    phase, so consumers never special-case the phase again.

    A is held as a_entries, its four real entries A[0, 0], A[0, 2], A[2, 2]
    and A[2, 3] (see _a_entries); build_a_matrix lays out the rest."""

    a_entries: tuple[float, float, float, float]
    bath_a: BathSpec
    bath_b: BathSpec


def _a_entries(phase_data: PhaseData, params: ModelParams) -> tuple[float, float, float, float]:
    """A[0, 0], A[0, 2], A[2, 2] and A[2, 3]: (omega_a, g~, omega_b~ + 2 d, 2 d)."""
    d2 = 2.0 * phase_data.d_term
    wb = phase_data.omega_b_tilde
    return float(params.omega_a), float(phase_data.g_tilde), float(wb + d2), float(d2)


def build_a_matrix(phase_data: PhaseData, params: ModelParams) -> np.ndarray:
    """Dynamical matrix whose eigenvalues are the closed excitation energies.

    PhaseData holds the bare (omega_b, g) and d_term = 0 in the normal (and
    critical) phase and the renormalized values in the superradiant phase,
    so the one matrix serves both.
    """
    wa, g, a22, a23 = _a_entries(phase_data, params)
    return np.array(
        [
            [wa, 0.0, g, g],
            [0.0, -wa, -g, -g],
            [g, g, a22, a23],
            [-g, -g, -a23, -a22],
        ],
        dtype=complex,
    )


def build_system(phase_data: PhaseData, params: ModelParams) -> BogoliubovSystem:
    bath_b = params.bath_b
    if phase_data.phase is Phase.SUPERRADIANT:
        bath_b = replace(bath_b, gamma0=phase_data.gamma_b_tilde_amp)
    return BogoliubovSystem(_a_entries(phase_data, params), params.bath_a, bath_b)


def build_gamma(
    phase_data: PhaseData,
    params: ModelParams,
    omega,
    signature: ZetaSignature = INPUT,
) -> np.ndarray:
    """Decay matrix Gamma(omega): block diagonal over the ports, each block
    gamma * [[1, -1], [-1, 1]] (rank one; the off-diagonal sign flip comes
    from the counter-rotating part of the system-bath interaction)."""
    system = build_system(phase_data, params)
    ga = signature.sign_a * gamma_of(system.bath_a, omega)
    gb = signature.sign_b * gamma_of(system.bath_b, omega)
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


def _matter_minors(a02, a22, a23, omega, gb) -> tuple:
    """The 2x2 minors d02, d03, d23 of M's rows 2, 3 (the matter port).

    Columns 0 and 1 of those rows are (a02, a02) and (-a02, -a02), so d12 and
    d13 are d02 and d03 exactly, and d01 vanishes (see _port_zeta). Each entry
    is dropped once spent, which lowers the peak of an S11 block by two probe
    rows (see s11_rows)."""
    hb = -0.5j * gb
    na02 = -a02
    m22 = a22 + hb - omega
    m23 = a23 - hb
    m32 = -a23 - hb
    m33 = -a22 + hb - omega
    del hb
    d23 = m22 * m33 - m23 * m32
    d02 = a02 * m32 - m22 * na02
    del m22, m32
    return d02, a02 * m33 - m23 * na02, d23


def _photon_half(a00, omega, ga) -> tuple:
    """The entries (nha, m00, m11) of M's rows 0, 1 (the photon port), which
    depend only on A[0, 0], omega and that port's rate ga (see _port_zeta).

    S11 grid rows share omega, A[0, 0] = omega_a and the photon bath, so
    s11_rows evaluates this once per block of rows."""
    ha = -0.5j * ga
    nha = -ha
    m00 = a00 + ha - omega
    m11 = -a00 + ha - omega
    return nha, m00, m11


def _port_zeta(a02, photon: tuple, matter: tuple):
    """det M by Laplace expansion over rows 0, 1 (the photon port), given
    that port's entries from _photon_half and the matter minors of
    _matter_minors.

    Row pattern of M: the diagonal picks up (h - omega), the partner column
    in the same port block picks up -h, and cross-port entries are bare A
    entries, so rows 0, 1 read (m00, -ha, a02, a02) and (-ha, m11, -a02, -a02).
    Hence c03 = c02, c13 = c12 and c23 = d01 = a02 (-a02) - a02 (-a02) = 0.
    Each minor and the six-term sum keep the operations, in order, of the
    generic 4x4 expansion over rows 0, 1, so every value is bit-identical to
    it (the golden digests pin those bits); the + c23 d01 term stays because
    it turns a -0.0 sum into +0.0. Entries may be scalars or arrays.
    """
    nha, m00, m11 = photon
    d02, d03, d23 = matter
    na02 = -a02
    c01 = m00 * m11 - nha * nha
    c02 = m00 * na02 - a02 * nha
    c12 = nha * na02 - a02 * m11
    c23 = a02 * na02 - a02 * na02
    return c01 * d23 - c02 * d03 + c02 * d02 + c12 * d03 - c12 * d02 + c23 * c23


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
    a00, a02, a22, a23 = system.a_entries
    matter = _matter_minors(a02, a22, a23, omega, gb)
    return _port_zeta(a02, _photon_half(a00, omega, ga), matter)


def s11_rows(systems, omega) -> list:
    """S11 = zeta(omega; FLIP_A) / zeta(omega; INPUT) of each system of a
    block, in order, bit-identical to the ratio of the two zeta_from_system
    calls of that system alone at any nonzero omega (S11 probes are
    positive).

    The systems of a block must share A[0, 0] = omega_a and the photon bath,
    as the rows of every spectrum sweep do; otherwise ValueError is raised at
    once. The photon rate and the photon entries at -gamma_a and +gamma_a
    are evaluated once per block. Each row then costs only the matter rate,
    the matter minors and the rest of the expansion.

    The photon minor c01 stays per row in _port_zeta: held across the block
    too, it would raise the peak of a one-system block (s11, lamb_shift) by
    two probe rows, past what the allocator keeps mapped after a grid, so
    that every later s11 call faults its rows in anew."""
    a00, bath_a = systems[0].a_entries[0], systems[0].bath_a
    if any(s.a_entries[0] != a00 or s.bath_a != bath_a for s in systems):
        raise ValueError("the systems of an S11 block must share omega_a and the photon bath")
    gamma_a = gamma_of(bath_a, omega)
    num_half = _photon_half(a00, omega, FLIP_A.sign_a * gamma_a)
    den_half = _photon_half(a00, omega, INPUT.sign_a * gamma_a)
    # For the same reason the photon rate is dropped once both halves exist,
    # and each row's matter minors once both terms exist: kept, the rate adds
    # half a probe row to a one-system peak and the minors live on into the
    # next row's, and the dip-scan pass faults 20k-66k pages instead of 16k.
    del gamma_a
    rows = []
    for system in systems:
        _, a02, a22, a23 = system.a_entries
        matter = _matter_minors(a02, a22, a23, omega, INPUT.sign_b * gamma_of(system.bath_b, omega))
        num, den = _port_zeta(a02, num_half, matter), _port_zeta(a02, den_half, matter)
        del matter
        # A real-axis denominator zero only happens at measure-zero parameter
        # coincidences (an undamped decoupled mode hit exactly on resonance);
        # there the numerator shares the vanishing factor, so the ratio is
        # recovered from an ulp-scale probe offset, for this row alone.
        if np.any(den == 0):
            shifted = omega * (1.0 + 1e-9)
            if isinstance(den, np.ndarray):
                shifted = np.where(den == 0, shifted, omega)
            num = zeta_from_system(system, shifted, FLIP_A)
            den = zeta_from_system(system, shifted, INPUT)
        rows.append(num / den)
    return rows


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
    system = build_system(phase_data, params)
    wa, wbt, d = params.omega_a, phase_data.omega_b_tilde, phase_data.d_term
    coeffs = np.polymul(
        [1.0, 1j * (signature.sign_a * system.bath_a.gamma0), -(wa**2)],
        [1.0, 1j * (signature.sign_b * system.bath_b.gamma0), -(wbt**2 + 4.0 * d * wbt)],
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
