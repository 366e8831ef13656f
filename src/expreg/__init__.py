"""Partition regularity of exponential equation systems.

Systems X_i ^ (Y_1^c1 ... Y_n^cn) = X_j are classified by linearizing over
a fundamental cycle basis of their relation digraph and applying Rado's
columns-property criterion; both verdicts come with machine-checkable
certificates (tower witnesses, or forbidding colourings with a mod-p
proof).
"""

from .eqsys import Edge, ExpSystem, normalize, validate
from .graphs import build_linear_system, fundamental_cycles, weak_components
from .rado import IntMatrix, columns_property, is_partition_regular, rado_colour
from .witness import (
    Witness,
    find_positive_solution,
    lift,
    prime_omega,
    verify_witness,
)

__version__ = "0.1.0"

__all__ = [
    "Edge",
    "ExpSystem",
    "IntMatrix",
    "Witness",
    "build_linear_system",
    "columns_property",
    "find_positive_solution",
    "fundamental_cycles",
    "is_partition_regular",
    "lift",
    "normalize",
    "prime_omega",
    "rado_colour",
    "validate",
    "verify_witness",
    "weak_components",
]
