"""Parity of the thermal pressure-shift (Woodbury) path against exact solves.

The thermal operator is ``K + P A``: between two pressures it differs by
``(P - P0) A``, a low-rank term over the advected rows.  The incremental
path answers search probes from the base factorization plus that
correction; these tests pin it against ``exact=True`` solves on a real
stack, prove the fallback ladder (tight residual tolerance, oversized row
rank) degrades to exact solves rather than wrong answers, and check the
exact-recompute bookkeeping that keeps SA trajectories bitwise identical.
The shift path has no run-time switch; tests that need it off, or need its
two guards tightened, patch the module constants or the method itself.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro import linalg, profiling
from repro.constants import CELL_WIDTH
from repro.cooling.system import CoolingSystem
from repro.geometry import build_contest_stack
from repro.materials import WATER
from repro.networks import serpentine_network
from repro.thermal import common
from repro.thermal.rc2 import RC2Simulator

PARITY_RTOL = 1e-10

PRESSURES = [800.0, 1200.0, 2000.0, 3500.0, 5000.0]


def small_stack():
    grid = serpentine_network(9, 9)
    power = np.full((9, 9), 0.01)
    return build_contest_stack(
        2, 2e-4, [power, power], lambda d: grid.copy(), 9, 9, CELL_WIDTH
    )


@pytest.fixture()
def simulator():
    return RC2Simulator(small_stack(), WATER, tile_size=4)


def disable_shift_path(monkeypatch) -> None:
    """Route every solve through the exact path."""
    monkeypatch.setattr(
        common.LinearThermalSystem,
        "_solve_incremental",
        lambda self, p_sys: None,
    )


def test_incremental_probe_matches_exact_solve(simulator):
    profiling.reset()
    system = simulator.system
    exact = {p: system.solve(p, exact=True)[0] for p in PRESSURES}
    fresh = RC2Simulator(small_stack(), WATER, tile_size=4).system
    # Prime one base factorization, then probe the rest incrementally.
    assert fresh.solve(PRESSURES[0], exact=True)[1] is True
    for p in PRESSURES[1:]:
        probe, is_exact = fresh.solve(p)
        assert is_exact is False
        scale = max(float(np.max(np.abs(exact[p]))), 1.0)
        assert float(np.max(np.abs(probe - exact[p]))) <= PARITY_RTOL * scale
    counters = profiling.snapshot()["counters"]
    assert counters.get("linalg.incremental_solves", 0) >= len(PRESSURES) - 1
    assert counters.get("linalg.shift_bases", 0) >= 1


def test_incremental_disabled_never_builds_shift(simulator, monkeypatch):
    profiling.reset()
    disable_shift_path(monkeypatch)
    for p in PRESSURES:
        simulator.system.solve(p)
    counters = profiling.snapshot()["counters"]
    assert counters.get("linalg.incremental_solves", 0) == 0
    assert counters.get("linalg.shift_bases", 0) == 0


def test_tight_residual_tolerance_falls_back_to_exact(simulator, monkeypatch):
    """An unmeetable residual bound must reject every incremental answer."""
    profiling.reset()
    reference = {p: simulator.system.solve(p, exact=True)[0] for p in PRESSURES}
    fresh = RC2Simulator(small_stack(), WATER, tile_size=4).system
    monkeypatch.setattr(common, "SHIFT_RESIDUAL_RTOL", 1e-300)
    for p in PRESSURES:
        result, is_exact = fresh.solve(p)
        assert is_exact is True
        np.testing.assert_array_equal(result, reference[p])
    counters = profiling.snapshot()["counters"]
    assert counters.get("linalg.incremental_solves", 0) == 0
    assert counters.get("linalg.incremental_fallbacks", 0) >= 1


def test_oversized_row_rank_disables_shift(simulator, monkeypatch):
    """When the advected-row count exceeds the threshold the shift path is
    disabled outright and every solve is exact."""
    profiling.reset()
    monkeypatch.setattr(common, "SHIFT_RANK_THRESHOLD", 1)
    for p in PRESSURES:
        simulator.system.solve(p)
    counters = profiling.snapshot()["counters"]
    assert counters.get("linalg.incremental_solves", 0) == 0
    assert counters.get("linalg.shift_bases", 0) == 0


def test_exact_solves_identical_with_and_without_incremental(monkeypatch):
    """exact=True must return bit-identical vectors either way."""
    with monkeypatch.context() as patch:
        disable_shift_path(patch)
        baseline = RC2Simulator(small_stack(), WATER, tile_size=4)
        expected = {p: baseline.system.solve(p, exact=True)[0] for p in PRESSURES}
    mixed = RC2Simulator(small_stack(), WATER, tile_size=4)
    for p in PRESSURES:
        mixed.system.solve(p)  # warm the incremental machinery
    for p in PRESSURES:
        np.testing.assert_array_equal(
            mixed.system.solve(p, exact=True)[0], expected[p]
        )


def test_cooling_system_exact_recompute_bookkeeping(monkeypatch):
    profiling.reset()
    system = CoolingSystem(small_stack(), WATER, model="2rm")
    probes = [system.evaluate(p) for p in PRESSURES]
    # The first probe factorizes (the Woodbury base); the rest are
    # answered through the shift path.
    assert probes[0].exact is True
    assert [r.exact for r in probes[1:]] == [False] * (len(PRESSURES) - 1)
    sims = system.n_simulations
    assert sims == len(PRESSURES)
    result = system.evaluate(PRESSURES[-1], exact=True)
    # The exact recompute replaced the cached probe without counting as a
    # new simulation -- SA bookkeeping stays identical across modes.
    assert result.exact is True
    assert system.n_simulations == sims
    assert np.isfinite(result.t_max) and np.isfinite(result.delta_t)
    again = system.evaluate(PRESSURES[-1], exact=True)
    assert again is result  # now cached as exact: a plain hit
    assert system.evaluate(PRESSURES[0], exact=True) is probes[0]
    counters = profiling.snapshot()["counters"]
    assert counters.get("cooling.exact_recomputes", 0) == 1

    exact = {p: system.evaluate(p, exact=True) for p in PRESSURES}
    assert all(r.exact is True for r in exact.values())
    assert profiling.counter("cooling.exact_recomputes") == len(PRESSURES) - 1
    assert system.n_simulations == sims
    with monkeypatch.context() as patch:
        disable_shift_path(patch)
        reference = CoolingSystem(small_stack(), WATER, model="2rm")
        for p in PRESSURES:
            expected = reference.evaluate(p, exact=True)
            assert expected.exact is True
            for got, want in zip(exact[p].layer_fields, expected.layer_fields):
                np.testing.assert_array_equal(got, want)


def track_factorizations(monkeypatch) -> "list[weakref.ref]":
    """Weak references to every factorization made from here on."""
    refs = []
    original = linalg.factorize

    def tracking(matrix):
        factor = original(matrix)
        refs.append(weakref.ref(factor))
        return factor

    monkeypatch.setattr(linalg, "factorize", tracking)
    return refs


def alive(refs) -> list:
    gc.collect()
    return [factor for factor in (ref() for ref in refs) if factor is not None]


def test_exact_only_system_keeps_no_factorization(case1_small, monkeypatch):
    """A 4RM system's advected rows exceed SHIFT_RANK_THRESHOLD, so every
    answer is exact: an exact re-request is a plain cache hit and no
    factorization outlives its solve."""
    system = CoolingSystem.for_network(
        case1_small.base_stack(),
        case1_small.baseline_network(),
        case1_small.coolant,
        model="4rm",
        inlet_temperature=case1_small.inlet_temperature,
    )
    refs = track_factorizations(monkeypatch)  # after the flow solves
    profiling.reset()
    pressures = [1e4, 2e4, 3e4, 5e4]
    probes = [system.evaluate(p) for p in pressures]
    assert all(r.exact is True for r in probes)
    factorizations = profiling.counter("linalg.factorizations")
    assert factorizations == len(pressures)
    assert profiling.counter("linalg.shift_bases") == 0
    for p, probe in zip(pressures, probes):
        assert system.evaluate(p, exact=True) is probe
    assert profiling.counter("cooling.exact_recomputes") == 0
    assert profiling.counter("linalg.factorizations") == factorizations
    assert len(refs) == len(pressures)
    assert alive(refs) == []


def test_shift_system_keeps_only_its_base(case1_small, monkeypatch):
    """On case 1 at 21x21 (2RM, default tree) the shift path fires; the
    first factorization is its base and the only one that stays alive,
    also after exact recomputes of the shift-path answers."""
    system = CoolingSystem.for_network(
        case1_small.base_stack(),
        case1_small.tree_plan().build(),
        case1_small.coolant,
        model="2rm",
        inlet_temperature=case1_small.inlet_temperature,
    )
    refs = track_factorizations(monkeypatch)
    profiling.reset()
    pressures = [1e4, 2e4, 3e4, 5e4]
    for p in pressures:
        system.evaluate(p)
    assert profiling.counter("linalg.incremental_solves") >= 1
    base = refs[0]()
    assert alive(refs) == [base]
    for p in pressures:
        system.evaluate(p, exact=True)
    assert profiling.counter("cooling.exact_recomputes") >= 1
    assert len(refs) > 1
    assert alive(refs) == [base]


def test_transient_and_steady_agree_after_incremental_probes():
    """The incremental path must not leak approximate state into the LU
    caches the transient integrator reuses."""
    sim = RC2Simulator(small_stack(), WATER, tile_size=4)
    for p in PRESSURES:
        sim.system.solve(p)  # populate shift machinery
    exact, _ = sim.system.solve(2000.0, exact=True)
    fresh = RC2Simulator(small_stack(), WATER, tile_size=4)
    np.testing.assert_array_equal(exact, fresh.system.solve(2000.0, exact=True)[0])


def test_production_design_engages_shift_path():
    """Pin the one incremental path production runs: a Problem-1 evaluation
    of the default tree on case 1 at 21x21 (66 advected rows, under
    SHIFT_RANK_THRESHOLD) must build a shift basis and answer probes
    through it.  Counts, not times, so the pin is machine independent."""
    from repro.cooling import evaluate_problem1
    from repro.iccad2015 import load_case

    case = load_case(1, grid_size=21)
    system = CoolingSystem.for_network(
        case.base_stack(),
        case.tree_plan().build(),
        case.coolant,
        model="2rm",
        inlet_temperature=case.inlet_temperature,
    )
    profiling.reset()
    evaluate_problem1(system, case.delta_t_star, case.t_max_star)
    counters = profiling.snapshot()["counters"]
    assert counters.get("linalg.shift_bases", 0) >= 1
    assert counters.get("linalg.incremental_solves", 0) >= 1
