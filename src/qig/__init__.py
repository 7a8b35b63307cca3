"""Quantum information geometry toolkit.

SLD/RLD logarithmic derivatives and Fisher matrices, optimal local,
global and two-point reverse estimation, quantum divergences, and
randomized verification suites.
"""

__version__ = "0.1.0"

from .channels import Ensemble, KrausChannel, POVM
from .fisher import ClassicalFamilyPoint, QFisherMatrix
from .states import DensityMatrix, FamilyPoint

__all__ = [
    "ClassicalFamilyPoint",
    "DensityMatrix",
    "Ensemble",
    "FamilyPoint",
    "KrausChannel",
    "POVM",
    "QFisherMatrix",
    "__version__",
]
