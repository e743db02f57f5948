"""Rigorous lower bounds on travelling-wave speeds, with simulators to match.

The package computes certified lower bounds on the invasion speed of
travelling waves in nonlinear reaction-diffusion models -- single
species with density-dependent diffusivity, the moving-boundary
(Stefan-type) logistic problem, and invaders weakly coupled to a
degrading substance -- and cross-checks every bound against built-in
finite-difference simulations.

Each module's ``__all__`` is its public API; the package republishes
those names unchanged.
"""

from . import errors, model, pde, twospecies, varbound
from .errors import *
from .model import *
from .pde import *
from .twospecies import *
from .varbound import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *model.__all__,
    *varbound.__all__,
    *twospecies.__all__,
    *pde.__all__,
]
