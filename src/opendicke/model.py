"""Physical parameters, phase classification, condensates, and bath spectral laws.

Conventions: hbar = 1 and every frequency, coupling, and damping rate carries
the same (arbitrary) frequency unit. The thermodynamic limit is taken
throughout, so only the intensive condensate ratios alpha/N, beta/N and the
bath density sigma/N ever appear; N itself is never a parameter.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

__all__ = [
    "CRITICAL_TOL",
    "Phase",
    "BathSpec",
    "ModelParams",
    "PhaseData",
    "AltCouplingParams",
    "AltCouplingResult",
    "gamma_of",
    "condensates",
    "derive_phase",
    "bath_condensate_density",
    "alt_coupling_renorm",
]

# |lambda - 1| below this is classified as sitting on the transition itself.
# The critical point is a measure-zero set, so the tolerance only has to
# absorb double-precision noise.
CRITICAL_TOL = 1e-12


class Phase(str, Enum):
    NORMAL = "normal"
    CRITICAL = "critical"
    SUPERRADIANT = "superradiant"


@dataclass(frozen=True)
class BathSpec:
    """Power-law damping of one loss port, gamma(w) = gamma0 * |w|**s.

    s = 0 is the ohmic case (constant rate), -1 < s < 0 subohmic, s > 0
    superohmic; the admissible range is -1 < s <= 2. Exponents s <= -1 are
    pathological (w * gamma(w) would not vanish at w = 0). Above s = 2 zeta
    gains a zero in the upper half plane, a growing mode that the exponent
    continuation never tracks. Gain (gamma0 < 0) is not supported.
    """

    gamma0: float
    exponent_s: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gamma0) and math.isfinite(self.exponent_s)):
            raise ValueError(f"bath parameters must be finite, got {self.gamma0}, {self.exponent_s}")
        if self.gamma0 < 0:
            raise ValueError(f"gain baths (gamma0 < 0) are not supported, got {self.gamma0}")
        if not self.exponent_s > -1:
            raise ValueError(f"bath exponent must satisfy s > -1, got {self.exponent_s}")
        if self.exponent_s > 2:
            raise ValueError(
                f"bath exponent must satisfy s <= 2, got {self.exponent_s}: above s = 2 "
                "zeta has a zero in the upper half plane (a growing mode)"
            )


def gamma_of(bath: BathSpec, omega):
    """Damping law of a bath at a real or complex frequency.

    On the real axis this is exactly gamma0 * |omega|**s, which is even and
    real. Off the axis the even continuation gamma0 * (omega**2)**(s/2) with
    the principal branch is used; it reproduces the real-axis law, stays even
    everywhere, and is analytic except on the imaginary axis, which is the
    branch cut. On the cut itself the two one-sided values are conjugates,
    and the symmetry gamma(-conj(w)) = conj(gamma(w)) (each axis point is its
    own mirror) forces the real principal value
    gamma0 * |Im w|**s * cos(pi s / 2) there. Accepts scalars or ndarrays.
    Raises ValueError at omega = 0 when s < 0, and where a scalar rate
    overflows.
    """
    s = bath.exponent_s
    g0 = bath.gamma0
    if isinstance(omega, np.ndarray):
        if s == 0.0:
            return np.full(omega.shape, g0)
        if s < 0 and np.any(omega == 0):
            raise ValueError("gamma(omega) is singular at omega = 0 for s < 0")
        if np.iscomplexobj(omega):
            vals = g0 * (omega * omega) ** (0.5 * s)
            on_axis = (omega.real == 0.0) & (omega.imag != 0.0)
            if np.any(on_axis):
                axis_vals = g0 * np.abs(omega.imag) ** s * math.cos(0.5 * math.pi * s)
                vals = np.where(on_axis, axis_vals, vals)
            return vals
        return g0 * np.abs(omega) ** s
    if s == 0.0:
        return g0
    if omega == 0:
        if s < 0:
            raise ValueError("gamma(omega) is singular at omega = 0 for s < 0")
        return 0.0
    try:
        if isinstance(omega, complex) and omega.imag != 0.0:
            if omega.real == 0.0:
                rate = g0 * abs(omega.imag) ** s * math.cos(0.5 * math.pi * s)
            else:
                rate = g0 * (omega * omega) ** (0.5 * s)
        else:
            rate = g0 * abs(omega) ** s
    except OverflowError:  # Python's ** raises where numpy's power gives inf
        rate = math.inf
    if cmath.isinf(rate):  # the power, or only its product with g0
        raise ValueError(f"gamma(omega) overflows at omega = {omega} for exponent s = {s}")
    return rate


def real_grid(values, name: str) -> np.ndarray:
    """values as a float array, or a ValueError naming the grid unless it
    is real, 1-D and nonempty. Nothing is cast: a complex grid raises."""
    arr = np.asarray(values)
    if np.iscomplexobj(arr) or arr.ndim != 1:
        raise ValueError(f"{name} must be real and 1-D, got {arr.dtype} of shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be nonempty")
    return arr.astype(float, copy=False)


def check_frequency(omega, name: str, *, scalar: bool = False) -> None:
    """Raise a ValueError naming the input and its first offending value unless
    every value of omega is real, finite and positive (one number with scalar)."""
    arr = np.asarray(omega)
    if scalar and arr.ndim != 0:
        raise ValueError(f"{name} must be a single value, got shape {arr.shape}")
    if np.iscomplexobj(arr):
        raise ValueError(f"{name} must be real, got {arr.dtype}")
    ok = np.isfinite(arr) & (arr > 0)
    if not ok.all():
        raise ValueError(f"{name} must be finite and positive, got {arr[~ok].flat[0]}")


@dataclass(frozen=True)
class ModelParams:
    """The five dials of the model: two bare frequencies, the collective
    coupling, and one bath law per port."""

    omega_a: float
    omega_b: float
    g: float
    bath_a: BathSpec = BathSpec(0.0)
    bath_b: BathSpec = BathSpec(0.0)

    def __post_init__(self) -> None:
        for name in ("omega_a", "omega_b", "g"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.omega_a > 0:
            raise ValueError(f"omega_a must be positive, got {self.omega_a}")
        if not self.omega_b > 0:
            raise ValueError(f"omega_b must be positive, got {self.omega_b}")
        if self.g < 0:
            raise ValueError(f"coupling g must be nonnegative, got {self.g}")
        # Every field of derive_phase must be finite. Its ** raises on an
        # overflow, and its lambda on an omega_a omega_b that underflows to 0.
        try:
            pd = derive_phase(self)
            fields = [v for v in vars(pd).values() if v is not pd.phase]
        except (OverflowError, ZeroDivisionError):
            fields = [math.inf]
        if not all(map(math.isfinite, fields)):
            raise ValueError(
                "every PhaseData field of the point must be finite, got"
                f" omega_a = {self.omega_a}, omega_b = {self.omega_b}, g = {self.g}"
            )


def resolve_point(
    params: ModelParams, axis: str, value: float, linear_gamma_b: bool = False
) -> ModelParams:
    """The model point of one sweep value. Axis 'g' or 'omega_b' sets that
    field; 'ratio' sets omega_b = value * omega_a and, with linear_gamma_b,
    scales the matter damping amplitude in proportion to omega_b. A value
    outside the model's domain raises a ValueError naming the axis and value."""
    try:
        if axis != "ratio":
            return replace(params, **{axis: value})
        omega_b = value * params.omega_a
        bath_b = params.bath_b
        if linear_gamma_b:
            bath_b = replace(bath_b, gamma0=bath_b.gamma0 * omega_b / params.omega_b)
        return replace(params, omega_b=omega_b, bath_b=bath_b)
    except ValueError as exc:
        raise ValueError(f"sweep leaves the model's domain at {axis} = {value}: {exc}") from exc


@dataclass(frozen=True)
class PhaseData:
    """Derived scalar quantities at one parameter point.

    lam = 4 g^2 / (omega_a omega_b) and g_c = sqrt(omega_a omega_b) / 2. In
    the superradiant phase (lam > 1) the matter branch is renormalized by the
    condensates:

        omega_b_tilde     = omega_b (lam + 1) / 2
        g_tilde           = g_c sqrt(2 / (lam + 1))
        d_term            = omega_b (lam - 1)(3 lam + 1) / (8 (lam + 1))
        gamma_b_tilde_amp = 4 gamma0_b / (lam + 1)^2

    In the normal phase these fields hold the bare values (d_term = 0), so
    every field is continuous across lam = 1.
    """

    lam: float
    g_c: float
    phase: Phase
    omega_b_tilde: float
    g_tilde: float
    d_term: float
    gamma_b_tilde_amp: float
    alpha_per_n: float
    beta_per_n: float


def _classify(lam: float) -> Phase:
    if abs(lam - 1.0) < CRITICAL_TOL:
        return Phase.CRITICAL
    return Phase.NORMAL if lam < 1.0 else Phase.SUPERRADIANT


def _superradiant_fields(lam: float, omega_b: float, g_c: float, gamma0_b: float):
    omega_b_tilde = omega_b * (lam + 1.0) / 2.0
    g_tilde = g_c * math.sqrt(2.0 / (lam + 1.0))
    d_term = omega_b * (lam - 1.0) * (3.0 * lam + 1.0) / (8.0 * (lam + 1.0))
    gamma_b_tilde = 4.0 * gamma0_b / (lam + 1.0) ** 2
    return omega_b_tilde, g_tilde, d_term, gamma_b_tilde


def condensates(params: ModelParams) -> tuple[float, float]:
    """Ground-state occupations per emitter, (alpha/N, beta/N).

    alpha/N = (g/omega_a)^2 (1 - 1/lam^2) and beta/N = (1 - 1/lam)/2 above
    the transition, zero at and below it. Only (omega_a, omega_b, g) enter;
    the bath laws cannot shift the condensates.
    """
    pd = derive_phase(params)
    return pd.alpha_per_n, pd.beta_per_n


def derive_phase(params: ModelParams) -> PhaseData:
    """Classify the phase and populate every derived scalar."""
    wa, wb, g = params.omega_a, params.omega_b, params.g
    lam = 4.0 * g**2 / (wa * wb)
    g_c = 0.5 * math.sqrt(wa * wb)
    phase = _classify(lam)
    if phase is Phase.SUPERRADIANT:
        omega_b_tilde, g_tilde, d_term, gamma_b_tilde = _superradiant_fields(
            lam, wb, g_c, params.bath_b.gamma0
        )
        alpha = (g / wa) ** 2 * (1.0 - 1.0 / lam**2)
        beta = 0.5 * (1.0 - 1.0 / lam)
    else:
        omega_b_tilde, g_tilde, d_term, gamma_b_tilde = wb, g, 0.0, params.bath_b.gamma0
        alpha = beta = 0.0
    return PhaseData(
        lam=lam,
        g_c=g_c,
        phase=phase,
        omega_b_tilde=omega_b_tilde,
        g_tilde=g_tilde,
        d_term=d_term,
        gamma_b_tilde_amp=gamma_b_tilde,
        alpha_per_n=alpha,
        beta_per_n=beta,
    )


def bath_condensate_density(params: ModelParams, port: str, omega: float) -> float:
    """Macroscopic bath occupation density sigma_j(omega)/N.

    The condensate leaks into the bath continuum as
    sigma_j(omega)/N = (2 gamma_j(omega) / pi) (condensate_j/N) / (omega omega_j)
    with condensate_a = alpha and condensate_b = beta; it vanishes in the
    normal phase. Requires a finite omega > 0 (for s < 0 the pointwise
    density diverges toward omega = 0 but is finite at any positive
    frequency).
    """
    check_frequency(omega, "bath frequency omega", scalar=True)
    alpha, beta = condensates(params)
    if port == "a":
        bath, cond, w_port = params.bath_a, alpha, params.omega_a
    elif port == "b":
        bath, cond, w_port = params.bath_b, beta, params.omega_b
    else:
        raise ValueError(f"port must be 'a' or 'b', got {port!r}")
    if cond == 0.0:
        return 0.0
    rate = gamma_of(bath, omega)
    try:
        sigma = 2.0 * rate / math.pi * cond / (omega * w_port)
    except ZeroDivisionError:
        sigma = math.inf
    if not math.isfinite(sigma):
        raise ValueError(
            f"sigma_{port}/N is not finite at bath frequency omega = {omega},"
            f" got omega_{port} = {w_port} and gamma_{port} = {rate}"
        )
    return sigma


@dataclass(frozen=True)
class AltCouplingParams:
    """Static coupling weights f_j(0) = sum_n k_jn of the bilinear
    (coordinate-product) system-bath interaction, one per port."""

    f_a0: float
    f_b0: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.f_a0) and math.isfinite(self.f_b0)):
            raise ValueError(f"coupling weights must be finite, got {self.f_a0}, {self.f_b0}")
        if self.f_a0 < 0 or self.f_b0 < 0:
            raise ValueError("coupling weights f_j(0) must be nonnegative")


@dataclass(frozen=True)
class AltCouplingResult:
    """Renormalized frequencies and couplings; primes are None on any port
    whose abnormal flag is set (the renormalized frequency is undefined)."""

    omega_a_prime: float | None
    omega_b_prime: float | None
    g_prime: float | None
    g_c_prime: float | None
    abnormal_a: bool
    abnormal_b: bool


def alt_coupling_renorm(params: ModelParams, alt: AltCouplingParams) -> AltCouplingResult:
    """Renormalization induced by a bilinear q.X system-bath interaction.

    Without a metastable minimum in the interaction potential the bath pulls
    the bare frequencies down, omega_j'^2 = omega_j^2 - f_j(0), the coupling
    rescales as g' = g sqrt(omega_a omega_b / (omega_a' omega_b')), and the
    transition moves to

        g_c' = g_c ((1 - f_a0/omega_a^2)(1 - f_b0/omega_b^2))^(1/4).

    When f_j(0) >= omega_j^2 the port is flagged abnormal instead of raising:
    the instability is a physical outcome, not an input error.
    """
    wa, wb = params.omega_a, params.omega_b
    wa2, wb2 = _square("omega_a", wa), _square("omega_b", wb)
    abnormal_a = not alt.f_a0 < wa2
    abnormal_b = not alt.f_b0 < wb2
    wa_p = math.sqrt(wa2 - alt.f_a0) if not abnormal_a else None
    wb_p = math.sqrt(wb2 - alt.f_b0) if not abnormal_b else None
    if abnormal_a or abnormal_b:
        return AltCouplingResult(wa_p, wb_p, None, None, abnormal_a, abnormal_b)
    g_prime = params.g * math.sqrt(wa * wb / (wa_p * wb_p))
    g_c = derive_phase(params).g_c
    g_c_prime = g_c * ((1.0 - alt.f_a0 / wa2) * (1.0 - alt.f_b0 / wb2)) ** 0.25
    return AltCouplingResult(wa_p, wb_p, g_prime, g_c_prime, abnormal_a, abnormal_b)


def _square(name: str, value: float) -> float:
    """value**2, or a ValueError naming the parameter where the square
    overflows or underflows to 0."""
    try:
        square = value**2
    except OverflowError:
        square = math.inf
    if not 0.0 < square < math.inf:
        raise ValueError(f"{name}**2 is not a positive finite float, got {name} = {value}")
    return square
