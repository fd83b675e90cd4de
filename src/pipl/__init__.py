"""pipl: a desk-scale numerical laboratory for parabolic inverse problems.

Synthesizes Dirichlet-to-Neumann boundary measurements for (semi)linear
parabolic equations on intervals and rectangles and reconstructs initial
data, potentials, and nonlinearity Taylor coefficients from them.
"""

__version__ = "0.1.0"

from .grid import BoundaryPortion, Field, SpaceTimeGrid, norm
from .model import DiffusionTensor, Nonlinearity

__all__ = [
    "BoundaryPortion",
    "DiffusionTensor",
    "Field",
    "Nonlinearity",
    "SpaceTimeGrid",
    "norm",
    "__version__",
]
