"""The front door's ordering contract: symmetric-mode minimum degree on
``A + A^T``, with partial pivoting kept.

:func:`repro.linalg.factorize` orders columns with ``MMD_AT_PLUS_A`` and
runs SuperLU in SymmetricMode, which prefers the diagonal pivot.  On the
repo's column diagonally dominant operators the diagonal *is* the partial
pivot, so the answers match a default (COLAMD) ``splu`` reference; these
tests pin that on the real case-1 operators, show partial pivoting still
rescues a matrix whose diagonal must not be used, and gate the fill the
ordering saves through the ``linalg.lu_nnz`` counter.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from repro import linalg, profiling
from repro.cooling.system import CoolingSystem
from repro.flow.network import clear_unit_cache
from repro.iccad2015 import load_case

from .test_backends import assert_parity

#: Fill of the 4RM operator relative to a default-``splu`` reference
#: (measured 0.50 on case 1 at 21x21; COLAMD's own fill is 1.0).
FILL_RATIO_BOUND = 0.6


@pytest.fixture(scope="module")
def case1():
    return load_case(1, grid_size=21)


def cooling_system(case, model: str, scheme: str = "upwind") -> CoolingSystem:
    return CoolingSystem.for_network(
        case.base_stack(),
        case.baseline_network(),
        case.coolant,
        model=model,
        inlet_temperature=case.inlet_temperature,
        advection_scheme=scheme,
    )


@pytest.mark.parametrize("p_sys", [1e2, 1e4])
@pytest.mark.parametrize("scheme", ["upwind", "central"])
@pytest.mark.parametrize("model", ["2rm", "4rm"])
def test_thermal_operator_matches_colamd_reference(case1, model, scheme, p_sys):
    thermal = cooling_system(case1, model, scheme).simulator.system
    matrix = thermal.system_matrix(p_sys)
    rhs = thermal.rhs(p_sys)
    reference = splu(matrix).solve(rhs)
    assert_parity(linalg.factorize(matrix).solve(rhs), reference)


def test_flow_laplacian_matches_colamd_reference(case1, monkeypatch):
    seen = []
    real_factorize = linalg.factorize

    def recording_factorize(matrix):
        seen.append(matrix)
        return real_factorize(matrix)

    clear_unit_cache()
    monkeypatch.setattr(linalg, "factorize", recording_factorize)
    cooling_system(case1, "2rm")
    monkeypatch.undo()
    assert seen, "building the flow fields factorized no pressure system"
    rng = np.random.default_rng(0)
    for laplacian in seen:
        rhs = rng.uniform(-1.0, 1.0, size=laplacian.shape[0])
        reference = splu(laplacian).solve(rhs)
        assert_parity(linalg.factorize(laplacian).solve(rhs), reference)


def pivot_needing_matrix(n: int = 12) -> csc_matrix:
    """Swap-coupled 2x2 blocks whose diagonals are zero or 1e-20.

    Taking those diagonals as pivots (no pivoting, or a zero pivot
    threshold) divides by 1e-20 and returns garbage; partial pivoting
    takes the unit off-diagonal entries instead.  A weak nonsymmetric
    chain couples the blocks into one system.
    """
    dense = np.zeros((n, n))
    for k in range(0, n, 2):
        dense[k, k + 1] = dense[k + 1, k] = 1.0
        tiny = 1e-20 if k % 4 == 0 else 0.0
        dense[k, k] = dense[k + 1, k + 1] = tiny
    for k in range(n - 1):
        dense[k, k + 1] += 0.3
        dense[k + 1, k] -= 0.2
    return csc_matrix(dense)


def test_partial_pivoting_is_kept():
    matrix = pivot_needing_matrix()
    rhs = np.arange(1.0, matrix.shape[0] + 1.0)
    x = linalg.factorize(matrix).solve(rhs)
    residual = np.max(np.abs(matrix @ x - rhs)) / np.max(np.abs(rhs))
    assert residual <= 1e-12


def test_fill_counter_gates_the_ordering(case1):
    thermal = cooling_system(case1, "4rm").simulator.system
    matrix = thermal.system_matrix(1e4)
    profiling.reset()
    linalg.factorize(matrix)
    fill = profiling.counter("linalg.lu_nnz")
    reference = splu(matrix).nnz
    assert 0 < fill <= FILL_RATIO_BOUND * reference
