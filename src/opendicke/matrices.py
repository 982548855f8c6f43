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
holds the photon-port quantities, which depend only on omega_a, omega and
gamma_a; _matter_minors and _port_zeta hold the rest. zeta_from_system
composes them for an array of frequencies; at one scalar frequency, the
Newton solver's hot call, it runs the same operations as one straight line
of Python arithmetic, pinned bit for bit to the helpers by
tests/test_matrices.py. s11_rows, S11 itself, shares the photon quantities
across a block of systems, S11_TILE probe points at a time.
"""

from __future__ import annotations

import math
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
    "zeta_from_system",
    "s11_rows",
    "zeta_constant_term",
]

# Probe points per s11_rows tile: 64 kB per complex temporary.
S11_TILE = 4096


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
    d13 are d02 and d03 exactly, and d01 vanishes (see _port_zeta)."""
    hb = -0.5j * gb
    na02 = -a02
    m22 = a22 + hb - omega
    m23 = a23 - hb
    m32 = -a23 - hb
    m33 = -a22 + hb - omega
    d23 = m22 * m33 - m23 * m32
    return a02 * m32 - m22 * na02, a02 * m33 - m23 * na02, d23


def _photon_half(a00, omega, ga) -> tuple:
    """The entries (nha, m00, m11) of M's rows 0, 1 (the photon port) and
    their minor c01, which depend only on A[0, 0], omega and that port's
    rate ga (see _port_zeta).

    S11 grid rows share omega, A[0, 0] = omega_a and the photon bath, so
    s11_rows evaluates this once per block tile."""
    ha = -0.5j * ga
    nha = -ha
    m00 = a00 + ha - omega
    m11 = -a00 + ha - omega
    return nha, m00, m11, m00 * m11 - nha * nha


def _port_zeta(a02, photon: tuple, matter: tuple):
    """det M by Laplace expansion over rows 0, 1 (the photon port), given
    that port's entries and minor c01 from _photon_half and the matter
    minors of _matter_minors.

    Row pattern of M: the diagonal picks up (h - omega), the partner column
    in the same port block picks up -h, and cross-port entries are bare A
    entries, so rows 0, 1 read (m00, -ha, a02, a02) and (-ha, m11, -a02, -a02).
    Hence c03 = c02, c13 = c12 and c23 = d01 = a02 (-a02) - a02 (-a02) = 0.
    Each minor and the six-term sum keep the operations, in order, of the
    generic 4x4 expansion over rows 0, 1, so every value is bit-identical to
    it (the golden digests pin those bits); the + c23 d01 term stays because
    it turns a -0.0 sum into +0.0. Entries may be scalars or arrays.
    """
    nha, m00, m11, c01 = photon
    d02, d03, d23 = matter
    na02 = -a02
    c02 = m00 * na02 - a02 * nha
    c12 = nha * na02 - a02 * m11
    c23 = a02 * na02 - a02 * na02
    return c01 * d23 - c02 * d03 + c02 * d02 + c12 * d03 - c12 * d02 + c23 * c23


def zeta_from_system(system: BogoliubovSystem, omega, signature: ZetaSignature = INPUT):
    """zeta(omega) = det(A - i Gamma(omega)/2 - omega I).

    Scalar in, scalar out; ndarray in, elementwise ndarray out. At omega = 0
    exactly the damping drops out of the determinant for every admissible
    exponent (omega gamma(omega) -> 0), so the scalar call evaluates that
    limit directly; this keeps the constant term meaningful for subohmic
    baths whose gamma diverges at the origin.

    An ndarray composes gamma_of, _matter_minors, _photon_half and
    _port_zeta. A scalar, the Newton solver's hot call, runs the same
    operations in one straight line of Python arithmetic: the port rates of
    gamma_of's scalar path (port a first), then the expansion, operation for
    operation and in order, so every value is bit-identical to the
    composition (tests/test_matrices.py pins it in float.hex). Only where
    the product gamma0 |omega|**s overflows but its power does not, so that
    gamma_of raises, does it return a value that is not finite instead, and
    _newton ends the solve with ConvergenceError("residual is not finite").
    """
    if isinstance(omega, np.ndarray):
        ga = signature.sign_a * gamma_of(system.bath_a, omega)
        gb = signature.sign_b * gamma_of(system.bath_b, omega)
        a00, a02, a22, a23 = system.a_entries
        matter = _matter_minors(a02, a22, a23, omega, gb)
        return _port_zeta(a02, _photon_half(a00, omega, ga), matter)
    if omega == 0:
        ga = gb = 0.0
    else:
        bath_a, bath_b = system.bath_a, system.bath_b
        ga, sa, gb, sb = bath_a.gamma0, bath_a.exponent_s, bath_b.gamma0, bath_b.exponent_s
        try:
            if isinstance(omega, complex) and omega.imag != 0.0:
                if omega.real == 0.0:
                    y = abs(omega.imag)
                    if sa != 0.0:
                        ga = ga * y**sa * math.cos(0.5 * math.pi * sa)
                    if sb != 0.0:
                        gb = gb * y**sb * math.cos(0.5 * math.pi * sb)
                else:
                    w2 = omega * omega
                    if sa != 0.0:
                        ga = ga * w2 ** (0.5 * sa)
                    if sb != 0.0:
                        gb = gb * w2 ** (0.5 * sb)
            else:
                r = abs(omega)
                if sa != 0.0:
                    ga = ga * r**sa
                if sb != 0.0:
                    gb = gb * r**sb
        except OverflowError:
            # gamma_of repeats the overflowing rate and raises its ValueError.
            gamma_of(bath_a, omega)
            gamma_of(bath_b, omega)
            raise
        # The int sign stays a multiply: 1 * complex can flip a signed zero.
        ga = signature.sign_a * ga
        gb = signature.sign_b * gb
    a00, a02, a22, a23 = system.a_entries
    hb = -0.5j * gb
    na02 = -a02
    m22 = a22 + hb - omega
    m23 = a23 - hb
    m32 = -a23 - hb
    m33 = -a22 + hb - omega
    d23 = m22 * m33 - m23 * m32
    d02 = a02 * m32 - m22 * na02
    d03 = a02 * m33 - m23 * na02
    ha = -0.5j * ga
    nha = -ha
    m00 = a00 + ha - omega
    m11 = -a00 + ha - omega
    c01 = m00 * m11 - nha * nha
    c02 = m00 * na02 - a02 * nha
    c12 = nha * na02 - a02 * m11
    c23 = a02 * na02 - a02 * na02
    return c01 * d23 - c02 * d03 + c02 * d02 + c12 * d03 - c12 * d02 + c23 * c23


@np.errstate(all="ignore")  # an overflow raises the ValueError of _s11_tile instead
def s11_rows(systems, omega):
    """S11 = zeta(omega; FLIP_A) / zeta(omega; INPUT) of each system of a
    block, in order, bit-identical to the ratio of the two array
    zeta_from_system calls of that system alone at any nonzero omega (S11
    probes are positive): one complex array of shape
    (len(systems), *omega.shape) for any array-like omega, so
    (len(systems),) for a scalar.

    The systems of a block must share A[0, 0] = omega_a and the photon bath,
    as the rows of every spectrum sweep do; otherwise ValueError is raised at
    once. omega is evaluated in tiles of S11_TILE points, which bound every
    temporary. Per tile the photon rate and the photon quantities at
    -gamma_a and +gamma_a are evaluated once for the block; each row then
    costs the matter rate, matter minors and the expansion. A row that is
    not finite raises ValueError naming the probe and rates."""
    a00, bath_a = systems[0].a_entries[0], systems[0].bath_a
    if any(s.a_entries[0] != a00 or s.bath_a != bath_a for s in systems):
        raise ValueError("the systems of an S11 block must share omega_a and the photon bath")
    omega = np.asarray(omega)
    out = np.empty((len(systems), omega.size), dtype=complex)
    probe = omega.reshape(-1)
    for i in range(0, probe.size, S11_TILE):
        for k, row in enumerate(_s11_tile(systems, probe[i : i + S11_TILE])):
            out[k, i : i + S11_TILE] = row
    return out.reshape(len(systems), *omega.shape)


def _s11_tile(systems, omega):
    """Yield S11 of each system of a block at one probe tile (see s11_rows)."""
    a00 = systems[0].a_entries[0]
    gamma_a = gamma_of(systems[0].bath_a, omega)
    num_half = _photon_half(a00, omega, FLIP_A.sign_a * gamma_a)
    den_half = _photon_half(a00, omega, INPUT.sign_a * gamma_a)
    for system in systems:
        _, a02, a22, a23 = system.a_entries
        gamma_b = gamma_of(system.bath_b, omega)
        matter = _matter_minors(a02, a22, a23, omega, INPUT.sign_b * gamma_b)
        num, den = _port_zeta(a02, num_half, matter), _port_zeta(a02, den_half, matter)
        # A real-axis denominator zero only happens at measure-zero parameter
        # coincidences (an undamped decoupled mode hit exactly on resonance);
        # there the numerator shares the vanishing factor, so the ratio is
        # recovered from an ulp-scale probe offset, for this row alone.
        if np.any(den == 0):
            shifted = np.where(den == 0, omega * (1.0 + 1e-9), omega)
            num = zeta_from_system(system, shifted, FLIP_A)
            den = zeta_from_system(system, shifted, INPUT)
        row = num / den
        if not np.isfinite(row).all():
            at = np.argmin(np.isfinite(row))
            w, ga, gb = (float(x[at]) for x in (omega, gamma_a, gamma_b))
            raise ValueError(
                f"S11 is not finite at probe frequency {w}, where the port rates are"
                f" gamma_a = {ga} and gamma_b = {gb}"
            )
        yield row


def zeta_constant_term(phase_data: PhaseData, params: ModelParams) -> float:
    """zeta(0), which carries no damping for any well-behaved bath.

    omega_a^2 (omega_b~^2 + 4 d omega_b~) - 4 g~^2 omega_a omega_b~. In the
    normal phase (bare values, d = 0) its zero is the critical coupling;
    above the transition it is det(A), positive.
    """
    wa, wbt = params.omega_a, phase_data.omega_b_tilde
    gt, d = phase_data.g_tilde, phase_data.d_term
    return wa**2 * (wbt**2 + 4.0 * d * wbt) - 4.0 * gt**2 * wa * wbt
