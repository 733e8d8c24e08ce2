"""Fixture: R7-clean telemetry -- registered dot-namespaced literals."""

from repro import profiling, telemetry
from repro.telemetry import runlog, span


def emit_registered_metrics(seconds, kind):
    profiling.increment("thermal.factorizations")
    profiling.add_time("flow.unit_solve", seconds)
    with profiling.timer("parallel.batch"):
        pass
    profiling.observe("optimize.candidate", seconds)
    # Wildcard family: literal prefix ends exactly at the boundary.
    profiling.increment(f"faults.injected.{kind}")


def emit_registered_spans(n):
    with telemetry.span("thermal.rc2.solve", cells=n):
        telemetry.instant("parallel.retry", attempt=1)
    with span("checkpoint.save"):
        pass


def emit_registered_event(score):
    runlog.emit_event("round.end", best_cost=score)


def untracked_receivers(log, name):
    # Receivers outside the tracked set are someone else's API.
    log.emit(name, value=1)
