"""Symmetric functions over the exact field Q(q,t).

Quick start:

    >>> from qtsym import SymmetricFunctions
    >>> S = SymmetricFunctions()
    >>> s = S["s"]
    >>> print(s([2, 1]) * s([1]))
    s[2,1,1] + s[2,2] + s[3,1]
"""

from .algebra import BasisHandle, SymElement, SymmetricFunctions
from .coeffs import ONE, Q, T, ZERO, Coeff
from .errors import (
    BasisError,
    CoefficientError,
    ExpressionError,
    PartitionError,
    QtSymError,
    ScalarProductError,
    SingularMatrixError,
    TableauError,
    UserInputError,
)
from .partitions import Partition, partitions_of
from .tableaux import Tableau, charge, kostka_poly, ssyt

__version__ = "0.1.0"

__all__ = [
    "SymmetricFunctions",
    "SymElement",
    "BasisHandle",
    "Coeff",
    "Partition",
    "partitions_of",
    "Tableau",
    "ssyt",
    "charge",
    "kostka_poly",
    "Q",
    "T",
    "ONE",
    "ZERO",
    "QtSymError",
    "UserInputError",
    "CoefficientError",
    "PartitionError",
    "TableauError",
    "BasisError",
    "SingularMatrixError",
    "ScalarProductError",
    "ExpressionError",
    "__version__",
]
