"""SA under fire: the full staged flow with 30% injected worker deaths.

The acceptance bar of the fault-injection tentpole: a Problem-1 SA run in
which roughly a third of worker candidates kill their process must still
finish -- through worker replacement and, if the pool keeps failing, serial
degradation -- and must return the *same* feasible design and score as the
fault-free run, because retries redo work instead of dropping it.
"""

import pytest

from repro import profiling
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    SITE_PARALLEL_WORKER,
)
from repro.iccad2015 import load_case
from repro.optimize import optimize_problem1
from repro.optimize.parallel import shutdown_pools
from repro.optimize.stages import METRIC_LOWEST_FEASIBLE_POWER, StageConfig
from repro.thermal.common import LinearThermalSystem

WATCHDOG = 300.0

STAGES = [StageConfig("c", 3, 1, 4, METRIC_LOWEST_FEASIBLE_POWER, "2rm")]


@pytest.fixture(scope="module")
def case():
    return load_case(1, grid_size=21)


def run_sa(case):
    return optimize_problem1(
        case,
        stages=STAGES,
        directions=(0,),
        seed=0,
        n_workers=2,
        batch_size=3,
    )


def test_sa_survives_30pct_worker_deaths(watchdog, case):
    with watchdog(WATCHDOG):
        baseline = run_sa(case)
    assert baseline.evaluation is not None

    profiling.reset()
    chaos_plan = FaultPlan(
        [
            FaultSpec(
                site=SITE_PARALLEL_WORKER, kind="worker-death", rate=0.3
            )
        ],
        seed=42,
    )
    with watchdog(WATCHDOG), FaultInjector(chaos_plan):
        chaos = run_sa(case)

    # Same design, same score, still feasible: faults were absorbed by
    # retry/replacement/degradation, never by dropping or mis-scoring work.
    assert chaos.evaluation.score == baseline.evaluation.score
    assert chaos.evaluation.feasible == baseline.evaluation.feasible
    assert chaos.direction == baseline.direction
    assert (chaos.plan.params() == baseline.plan.params()).all()

    counters = profiling.snapshot()["counters"]
    # The chaos run really did lose workers (or degrade) along the way.
    assert (
        counters.get("parallel.worker_lost", 0) > 0
        or counters.get("parallel.degraded", 0) > 0
    )


def test_sa_incremental_updates_are_bitwise_invisible(
    watchdog, case, monkeypatch
):
    """Incremental solver updates never change what the SA flow returns.

    The staged flow with Woodbury pressure-shift solves (the production
    path) must return the *same* design with a bit-identical score as a
    run forced through fresh factorizations -- and keep doing so while 30%
    of worker candidates kill their process.
    """
    # Cached pools are keyed without solver state: close them so the exact
    # run forks fresh workers that inherit the patch, and close those again
    # so no later run reuses them.
    shutdown_pools()
    profiling.reset()
    with watchdog(WATCHDOG), monkeypatch.context() as patch:
        patch.setattr(
            LinearThermalSystem, "_solve_incremental", lambda self, p_sys: None
        )
        exact = run_sa(case)
        shutdown_pools()
    assert exact.evaluation is not None
    counters = profiling.snapshot()["counters"]
    assert counters.get("linalg.incremental_solves", 0) == 0

    profiling.reset()
    with watchdog(WATCHDOG):
        incremental = run_sa(case)
    counters = profiling.snapshot()["counters"]
    assert counters.get("linalg.incremental_solves", 0) > 0
    assert incremental.evaluation.score == exact.evaluation.score
    assert incremental.evaluation.feasible == exact.evaluation.feasible
    assert incremental.direction == exact.direction
    assert (incremental.plan.params() == exact.plan.params()).all()

    chaos_plan = FaultPlan(
        [FaultSpec(site=SITE_PARALLEL_WORKER, kind="worker-death", rate=0.3)],
        seed=42,
    )
    with watchdog(WATCHDOG), FaultInjector(chaos_plan):
        chaos = run_sa(case)
    assert chaos.evaluation.score == exact.evaluation.score
    assert (chaos.plan.params() == exact.plan.params()).all()
