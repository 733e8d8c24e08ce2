"""The documented registry of telemetry names (spans, metrics, run events).

Every span, counter, timer, histogram, and run-event type used anywhere in
the repo is declared here, once, as a dot-namespaced string.  The R7 lint
rule (``repro.lint``, telemetry hygiene) checks every
``profiling.increment(...)`` / ``profiling.timer(...)`` /
``telemetry.span(...)`` / ``runlog.emit_event(...)`` call site against this
registry, so a typo'd or undocumented name fails the build instead of
silently forking the metric namespace.  ``docs/OBSERVABILITY.md`` renders
the same registry as prose tables.

Naming convention: ``<subsystem>.<noun_or_verb>[.<qualifier>]`` --
lowercase, underscores inside segments, dots between them, at least two
segments.  Dynamic suffixes (per-kind fault counters) are declared as
wildcard prefixes (``faults.injected.*``) and must be built from an f-string
whose literal prefix ends at the wildcard boundary.

This module is deliberately dependency-free (imported by the lint rule and
by ``repro.telemetry``); keep it pure data.
"""

from __future__ import annotations

from typing import FrozenSet

#: Span names recorded by the tracer (``telemetry.span`` / ``instant``).
SPAN_NAMES: FrozenSet[str] = frozenset(
    {
        "checkpoint.load",
        "checkpoint.resume",
        "checkpoint.save",
        "cooling.evaluate_problem1",
        "cooling.evaluate_problem2",
        "flow.unit_solve",
        "linalg.factorize",
        "optimize.direction",
        "optimize.final_eval",
        "optimize.rescore",
        "optimize.round",
        "portfolio.optimizer",
        "portfolio.promote",
        "server.http",
        "server.job",
        "parallel.batch",
        "parallel.candidate",
        "parallel.degraded",
        "parallel.retry",
        "parallel.timeout",
        "parallel.worker_lost",
        "thermal.factorize",
        "thermal.rc2.solve",
        "thermal.rc4.solve",
        "thermal.solve",
    }
)

#: Counter / timer / histogram names on :mod:`repro.profiling`.
METRIC_NAMES: FrozenSet[str] = frozenset(
    {
        "checkpoint.loads",
        "checkpoint.resumes",
        "checkpoint.saves",
        "cooling.cache_hits",
        "cooling.simulations",
        "faults.injected",
        "cooling.exact_recomputes",
        "flow.unit_cache_hits",
        "flow.unit_solve",
        "flow.unit_solves",
        "linalg.factorizations",
        "linalg.factorize",
        "linalg.incremental_fallbacks",
        "linalg.incremental_solve",
        "linalg.incremental_solves",
        "linalg.shift_bases",
        "optimize.batch_cache_hits",
        "optimize.candidate",
        "parallel.batch",
        "parallel.batch_size",
        "parallel.batches",
        "parallel.candidates",
        "parallel.crashed",
        "parallel.degraded",
        "parallel.infeasible",
        "parallel.pool_failures",
        "parallel.pool_starts",
        "parallel.retries",
        "parallel.serial_fallback",
        "parallel.timeouts",
        "parallel.worker_lost",
        "parallel.worker_replacements",
        "portfolio.high_evals",
        "portfolio.low_evals",
        "portfolio.promotions",
        "search.probes",
        "server.http_requests",
        "server.http_rejects",
        "server.job_duration",
        "server.jobs_completed",
        "server.jobs_failed",
        "server.jobs_quarantined",
        "server.jobs_submitted",
        "server.lease_reclaims",
        "server.orphaned_leases_cleared",
        "thermal.factorizations",
        "thermal.factorize",
        "thermal.lu_cache_hits",
        "thermal.solve",
        "thermal.solves",
    }
)

#: Typed run-event records emitted into the JSONL run log.
EVENT_TYPES: FrozenSet[str] = frozenset(
    {
        "checkpoint.resume",
        "direction.end",
        "job.claimed",
        "job.completed",
        "job.failed",
        "job.interrupted",
        "job.lease_reclaimed",
        "job.orphaned_lease_cleared",
        "job.quarantined",
        "job.resumed",
        "job.submitted",
        "pool.degraded",
        "pool.retry",
        "portfolio.optimizer.end",
        "portfolio.optimizer.start",
        "portfolio.promotion",
        "portfolio.resume",
        "portfolio.round",
        "round.end",
        "run.end",
        "run.metrics",
        "run.start",
        "sa.iteration",
        "server.drain",
        "stage.end",
        "stream.end",
    }
)

#: Point-in-time gauge samples exposed at ``GET /metrics`` (built with
#: :func:`repro.telemetry.promexpo.gauge`; the server's
#: ``JobStore.collect_gauges`` is the one collection point).
GAUGE_NAMES: FrozenSet[str] = frozenset(
    {
        "server.active_leases",
        "server.expired_leases",
        "server.oldest_pending_age_s",
        "server.queue_depth",
        "server.tenant_active_jobs",
        "server.worker_heartbeat_age_s",
    }
)

#: Dynamic name families: an f-string whose literal prefix is
#: ``"<prefix>."`` is accepted for a registered ``"<prefix>.*"`` entry.
WILDCARD_PREFIXES: FrozenSet[str] = frozenset({"faults.injected.*"})

#: Every registered literal name (the R7 lookup set).
REGISTERED_NAMES: FrozenSet[str] = (
    SPAN_NAMES | METRIC_NAMES | EVENT_TYPES | GAUGE_NAMES
)


def is_registered(name: str) -> bool:
    """Whether ``name`` is declared here (exactly or under a wildcard)."""
    if name in REGISTERED_NAMES:
        return True
    return matches_wildcard(name)


def matches_wildcard(name: str) -> bool:
    """Whether a registered ``prefix.*`` wildcard covers ``name``."""
    for pattern in WILDCARD_PREFIXES:
        if name.startswith(pattern[:-1]):
            return True
    return False
