"""Exact sums-of-squares counting with analytic verification tools.

Submodules:
    repcount   exact representation-count tables and point evaluations
    expsum     quadratic Gauss sums, Weyl sums, and major-arc approximants
    singular   singular series terms, truncations, and the singular integral
    constants  B1 routes, C3, W_N, and the spectral assembly
    verify     partial-sum checkpoints, error fits, and truncation sweeps
    cli        command-line frontend (entry point: squaresums)

Submodules are imported on use (`from squaresums import repcount`), not by
this package, so a process loads only what it runs. The constants need no
mpmath: `_binary` evaluates them, at any precision, in Python ints. Nothing
here imports numpy, so `cli` can set up the environment numpy reads at
import.
"""

from .errors import (
    CountOverflowError,
    DomainError,
    InsufficientPointsError,
    NotCoprimeError,
    SquaresumsError,
    TableTooShortError,
)

__version__ = "0.1.0"

__all__ = [
    "constants",
    "expsum",
    "repcount",
    "singular",
    "verify",
    "CountOverflowError",
    "DomainError",
    "InsufficientPointsError",
    "NotCoprimeError",
    "SquaresumsError",
    "TableTooShortError",
    "__version__",
]
