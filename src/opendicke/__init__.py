"""Spectra and scattering of the equilibrium open Dicke model without
weak-coupling approximations: phase classification and condensates, open
complex eigenfrequencies for ohmic and power-law baths, port reflection
spectra, and the output-field squeezing verdict.

The package holds every name its modules declare in their __all__."""

from . import eigen, matrices, model, scattering, squeezing
from .model import *  # noqa: F401,F403
from .matrices import *  # noqa: F401,F403
from .eigen import *  # noqa: F401,F403
from .scattering import *  # noqa: F401,F403
from .squeezing import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *model.__all__, *matrices.__all__, *eigen.__all__, *scattering.__all__, *squeezing.__all__
]
