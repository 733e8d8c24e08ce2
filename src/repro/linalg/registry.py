"""The one sparse factorization entry point: scipy SuperLU.

:func:`factorize` is how the rest of the repo factorizes a sparse system
(lint rule R5 flags raw ``splu``/``factorized`` calls outside
``repro.linalg``).  It keeps its historical home in this module because
per-layer tracing wraps ``repro.linalg.registry.factorize`` by name.

Ordering: columns are ordered by minimum degree on ``A + A^T``
(``MMD_AT_PLUS_A``) and SuperLU runs in SymmetricMode, which prefers the
diagonal pivot.  The pivot threshold stays at its default of 1.0, so this
is still partial pivoting: every production operator (upwind ``K + P A``,
its backward-Euler forms, the flow Laplacian) is column diagonally
dominant, where the diagonal already is the partial-pivot choice, and the
factorization gets the fill of an unpivoted symmetric ordering -- about
half of COLAMD's on the 4RM operator.  Operators that are not diagonally
dominant (the opt-in central advection scheme) still solve exactly, but
pivot off the diagonal and fill more than under COLAMD.  Counter
``linalg.lu_nnz`` sums the stored entries of every factor (SuperLU's
``nnz``).

Error contract: no SuperLU exception escapes.  An exactly singular system
(``RuntimeError``), a near-singular one (``MatrixRankWarning``), the
``ValueError``/``ArithmeticError`` shapes of other SuperLU failures, and
non-square or non-sparse input all surface as
:class:`~repro.errors.LinalgError`; callers translate that into their
domain error (``FlowError``/``ThermalError``).
"""

from __future__ import annotations

import warnings
from typing import Any

import numpy as np
from scipy.sparse.linalg import MatrixRankWarning, splu

from .. import profiling, telemetry
from ..errors import LinalgError


class Factorization:
    """A reusable SuperLU factorization of one sparse system matrix."""

    def __init__(self, lu: Any) -> None:
        self._lu = lu

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A x = rhs`` for one right-hand side, shape ``(n,)``."""
        return np.asarray(self._lu.solve(np.asarray(rhs, dtype=float)))

    def solve_many(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for a block of right-hand sides, shape ``(n, k)``."""
        # SuperLU's solve natively accepts an (n, k) block.  Not routed
        # through ``self.solve``: per-layer tracing wraps both methods on
        # each instance, and one call must make one span.
        return np.asarray(self._lu.solve(np.asarray(rhs, dtype=float)))


def factorize(matrix: Any) -> Factorization:
    """Factorize a square scipy sparse matrix (converted to CSC as needed).

    Raises:
        LinalgError: On non-sparse or non-square input, or a singular or
            otherwise failed factorization.
    """
    if not hasattr(matrix, "tocsc"):
        raise LinalgError(
            f"expected a scipy sparse matrix, got {type(matrix).__name__}"
        )
    system = matrix.tocsc()
    n = system.shape[0]
    if n != system.shape[1]:
        raise LinalgError(f"system matrix must be square, got {system.shape}")
    with telemetry.span("linalg.factorize", nodes=n):
        with profiling.timer("linalg.factorize"):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", MatrixRankWarning)
                    lu = splu(
                        system,
                        permc_spec="MMD_AT_PLUS_A",
                        options={"SymmetricMode": True},
                    )
            except (
                RuntimeError,
                ValueError,
                ArithmeticError,
                MatrixRankWarning,
            ) as exc:
                raise LinalgError(f"SuperLU factorization failed: {exc}") from exc
    profiling.increment("linalg.factorizations")
    profiling.increment("linalg.lu_nnz", lu.nnz)
    return Factorization(lu)
