"""Spectra and scattering of the equilibrium open Dicke model without
weak-coupling approximations: phase classification and condensates, open
complex eigenfrequencies for ohmic and power-law baths, port reflection
spectra, and the output-field squeezing verdict."""

from .model import (
    AltCouplingParams,
    AltCouplingResult,
    BathSpec,
    ModelParams,
    Phase,
    PhaseData,
    alt_coupling_renorm,
    bath_condensate_density,
    condensates,
    derive_phase,
    gamma_of,
)
from .matrices import (
    FLIP_A,
    INPUT,
    OUTPUT,
    BogoliubovSystem,
    ZetaSignature,
    build_a_matrix,
    build_gamma,
    build_system,
    m_matrix,
    zeta,
    zeta_constant_term,
)
from .eigen import (
    BranchTable,
    ConvergenceError,
    EigenSet,
    closed_eigenfrequencies,
    locate_critical,
    open_eigenfrequencies,
    sweep_eigenfrequencies,
)
from .scattering import SpectrumGrid, find_minima, lamb_shift, s11, s_matrix, sweep_spectrum
from .squeezing import (
    QuadratureSpec,
    dispersive_output_coefficient,
    quadrature_variance,
    two_mode_variance,
)

__version__ = "0.1.0"

__all__ = [
    "AltCouplingParams",
    "AltCouplingResult",
    "BathSpec",
    "BogoliubovSystem",
    "BranchTable",
    "ConvergenceError",
    "EigenSet",
    "FLIP_A",
    "INPUT",
    "ModelParams",
    "OUTPUT",
    "Phase",
    "PhaseData",
    "QuadratureSpec",
    "SpectrumGrid",
    "ZetaSignature",
    "alt_coupling_renorm",
    "bath_condensate_density",
    "build_a_matrix",
    "build_gamma",
    "build_system",
    "closed_eigenfrequencies",
    "condensates",
    "derive_phase",
    "dispersive_output_coefficient",
    "find_minima",
    "gamma_of",
    "lamb_shift",
    "locate_critical",
    "m_matrix",
    "open_eigenfrequencies",
    "quadrature_variance",
    "s11",
    "s_matrix",
    "sweep_eigenfrequencies",
    "sweep_spectrum",
    "two_mode_variance",
    "zeta",
    "zeta_constant_term",
]
