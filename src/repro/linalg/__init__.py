"""Sparse linear algebra: one SuperLU factorization front door.

:func:`~repro.linalg.registry.factorize` is the single sanctioned entry
point for sparse factorizations (lint rule R5 flags raw ``splu`` calls
everywhere else); it returns a :class:`~repro.linalg.registry.
Factorization` answering single and multi-RHS solves.  The Woodbury
pressure-shift path that reuses one factorization across pressure probes
lives with the thermal systems (:mod:`repro.thermal.common`).  See
``docs/SOLVER_CACHES.md``.
"""

from __future__ import annotations

from .registry import Factorization, factorize

__all__ = ["Factorization", "factorize"]
