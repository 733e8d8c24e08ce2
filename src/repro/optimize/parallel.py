"""Parallel candidate evaluation (the paper's 64-way neighbor evaluation).

The paper's server evaluates 64 neighboring network solutions simultaneously
in each SA iteration.  :func:`evaluate_population` reproduces that pattern:
score a batch of tree-parameter vectors, optionally across worker processes.

Workers are *persistent*: a :class:`PersistentEvaluationPool` ships the full
evaluation context (case, plan, stage, problem) to each worker exactly once
via the pool initializer, and every subsequent candidate costs only a tiny
``(n_trees, 2)`` int array on the wire.  Pools are kept alive in a small
module-level cache keyed by that context, so consecutive SA iterations --
and rounds, which share a stage -- reuse the same warm workers instead of
paying pool spin-up plus context re-pickling per batch.  Each worker's
:class:`~repro.optimize.runner._CandidateEvaluator` also keeps its
per-params cost cache across batches.

Error discipline (shared by the serial and parallel paths): a
:class:`~repro.errors.ReproError` means the candidate network is illegal or
infeasible and scores ``inf``; any other exception is a genuine bug and
surfaces as :class:`CandidateCrashError` carrying the offending parameters.
The ``parallel.infeasible`` / ``parallel.crashed`` profiling counters keep
the two populations distinguishable.

The grouped Problem-2 metric is inherently sequential (later candidates
re-use the group leader's optimal pressure), so it always evaluates serially;
the Problem-1 metrics parallelize freely.

Resilience (see ``docs/ROBUSTNESS.md``): batches run with a no-progress
timeout, bounded exponential-backoff retries that replace dead or hung
worker processes, and -- after enough consecutive pool failures -- a
permanent degradation to serial in-process evaluation.  Pool-level failures
surface as :class:`~repro.errors.PoolError` subclasses; per-candidate
results already collected before a failure are kept, so retries only redo
the missing work.
"""

from __future__ import annotations

import atexit
import math
import time
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import faults, profiling, telemetry
from ..constants import (
    CANDIDATE_TIMEOUT,
    POOL_BACKOFF_BASE,
    POOL_BACKOFF_MAX,
    POOL_DEGRADE_AFTER,
    POOL_MAX_RETRIES,
    quantize_key,
)
from ..errors import (
    CandidateCrashError,
    PoolError,
    ReproError,
    SearchError,
    WorkerLostError,
    WorkerTimeoutError,
    crash_boundary,
)
from ..faults import SITE_PARALLEL_DISPATCH, SITE_PARALLEL_WORKER
from ..iccad2015.cases import Case
from ..networks.tree import TreePlan
from ..telemetry import SIZE_BUCKET_BOUNDS, TelemetryConfig, runlog
from .stages import METRIC_MIN_GRADIENT_CAPPED, StageConfig

__all__ = [
    "CandidateCrashError",
    "PersistentEvaluationPool",
    "PoolError",
    "WorkerLostError",
    "WorkerTimeoutError",
    "evaluate_population",
    "shutdown_pools",
]


# ---------------------------------------------------------------------------
# Worker-side machinery
# ---------------------------------------------------------------------------

#: The evaluator owned by this worker process, installed once by
#: :func:`_init_worker`.  ``None`` in the parent process.
_WORKER_EVALUATOR = None


def _init_worker(
    case,
    plan,
    stage,
    problem,
    fixed_pressure,
    fault_plan=None,
    telemetry_config=None,
) -> None:
    """Pool initializer: build this worker's evaluator exactly once.

    Also re-arms the ambient fault plan and the parent's telemetry
    configuration (tracing on/off, span capacity), so respawned workers
    behave identically to the ones they replaced.
    """
    global _WORKER_EVALUATOR
    from .runner import _CandidateEvaluator

    if fault_plan is not None:
        faults.set_active_plan(fault_plan)
    if telemetry_config is not None:
        telemetry_config.apply()
    # Under the fork start method this process inherits the spawning
    # thread's lane (the service worker thread's); drop it so exported
    # spans group as a distinct pool-worker row, not the parent's.
    telemetry.set_thread_lane(None)
    _WORKER_EVALUATOR = _CandidateEvaluator(
        case, plan, stage, problem, fixed_pressure
    )


def _score_candidate(evaluator, params: np.ndarray) -> float:
    """Score one candidate with the shared error discipline.

    Library errors (illegal geometry, infeasible constraints, stalled
    searches) mean "this candidate is bad" and return ``inf``; anything else
    is a programming error and is re-raised with the candidate parameters in
    the message so a crashing point is reproducible.
    """
    params = np.asarray(params, dtype=int)
    try:
        with crash_boundary(f"candidate params {params.tolist()}"):
            return float(evaluator(params))
    except ReproError:
        return math.inf


def _score_in_worker(params: np.ndarray):
    """Worker entry point: score one candidate.

    Returns ``(cost, counters, spans)``: the worker's profiling counters
    are reset around each candidate so the returned snapshot is a
    per-candidate delta the parent can merge into its own profiler, and the
    worker's span buffer is drained the same way -- solver-reuse statistics
    and trace timelines both survive the process boundary.  ``spans`` is
    empty (and free) when tracing is off.

    The ``parallel.worker`` injection site lives here -- and only here, so
    worker-death faults can never fire in the parent's serial-degradation
    path.  An injected :class:`~repro.errors.ReproError` scores ``inf``
    like any infeasible candidate; an injected untyped crash is translated
    by :func:`~repro.errors.crash_boundary` and propagates.
    """
    profiling.reset()
    telemetry.clear_spans()
    try:
        with crash_boundary(f"fault injection at {SITE_PARALLEL_WORKER}"):
            faults.inject(SITE_PARALLEL_WORKER)
    except ReproError:
        return math.inf, profiling.snapshot(), telemetry.drain_spans()
    with telemetry.span("parallel.candidate"):
        cost = _score_candidate(_WORKER_EVALUATOR, params)
    return cost, profiling.snapshot(), telemetry.drain_spans()


# ---------------------------------------------------------------------------
# Persistent pool
# ---------------------------------------------------------------------------


class PersistentEvaluationPool:
    """A reusable worker pool bound to one evaluation context.

    Args:
        case / plan / stage / problem / fixed_pressure: As in the staged
            flow (:mod:`repro.optimize.runner`); pickled to each worker once.
        n_workers: Worker process count (>= 1).
        timeout: No-progress timeout per batch in seconds: the batch fails
            with :class:`~repro.errors.WorkerTimeoutError` when no candidate
            completes for this long (each completion resets the clock).
        max_retries: Batch retries (after the first attempt) before a pool
            failure propagates to the caller.
        backoff_base: First retry backoff in seconds; doubles per retry up
            to :data:`~repro.constants.POOL_BACKOFF_MAX`.
        degrade_after: Consecutive failed batches after which the pool
            permanently falls back to serial in-process evaluation.
        fault_plan: Optional :class:`~repro.faults.FaultPlan` shipped to
            every worker (chaos testing); workers re-arm it on (re)spawn.

    Use as a context manager or call :meth:`close` explicitly; pools cached
    by :func:`evaluate_population` are closed on eviction and at exit.
    """

    def __init__(
        self,
        case: Case,
        plan: TreePlan,
        stage: StageConfig,
        problem: str,
        fixed_pressure: Optional[float] = None,
        n_workers: int = 2,
        timeout: float = CANDIDATE_TIMEOUT,
        max_retries: int = POOL_MAX_RETRIES,
        backoff_base: float = POOL_BACKOFF_BASE,
        degrade_after: int = POOL_DEGRADE_AFTER,
        fault_plan=None,
    ):
        if n_workers < 1:
            raise SearchError(f"n_workers must be >= 1, got {n_workers}")
        if timeout <= 0:
            raise SearchError(f"timeout must be > 0, got {timeout}")
        if max_retries < 0:
            raise SearchError(f"max_retries must be >= 0, got {max_retries}")
        if degrade_after < 1:
            raise SearchError(
                f"degrade_after must be >= 1, got {degrade_after}"
            )
        #: Strong references keep ``id()``-based cache keys valid.
        self.context = (case, plan, stage, problem, fixed_pressure)
        self.fault_plan = fault_plan
        #: Captured once at construction and shipped to every worker
        #: (including respawns), like the fault plan.  Flipping tracing in
        #: the parent therefore requires a new pool -- which the module
        #: cache key guarantees.
        self.telemetry_config = TelemetryConfig.current()
        self.n_workers = int(n_workers)
        self.timeout = float(timeout)
        self.max_retries = int(max_retries)
        self.backoff_base = float(backoff_base)
        self.degrade_after = int(degrade_after)
        self._consecutive_failures = 0
        self._degraded = False
        self._serial_evaluator = None
        self._spawn_executor()
        self._closed = False
        profiling.increment("parallel.pool_starts")

    def _spawn_executor(self) -> None:
        self._executor = ProcessPoolExecutor(
            max_workers=self.n_workers,
            initializer=_init_worker,
            initargs=self.context + (self.fault_plan, self.telemetry_config),
        )

    def evaluate(self, params_list: Sequence[np.ndarray]) -> List[float]:
        """Score a batch of candidates; one cost per candidate, in order.

        Pool-level failures (hang, worker death) are retried with backoff
        and worker replacement; after ``degrade_after`` consecutive failures
        the batch -- and every later one -- completes serially in-process.
        A :class:`~repro.errors.PoolError` escapes only when retries are
        exhausted before degradation kicks in.
        """
        if self._closed:
            raise SearchError("persistent evaluation pool is closed")
        payloads = [np.asarray(p, dtype=int) for p in params_list]
        if not payloads:
            return []
        faults.inject(SITE_PARALLEL_DISPATCH)
        profiling.observe(
            "parallel.batch_size", len(payloads), bounds=SIZE_BUCKET_BOUNDS
        )
        with telemetry.span("parallel.batch", candidates=len(payloads)):
            with profiling.timer("parallel.batch"):
                costs = self._evaluate_resilient(payloads)
        profiling.increment("parallel.batches")
        profiling.increment("parallel.candidates", len(costs))
        profiling.increment(
            "parallel.infeasible", sum(1 for c in costs if math.isinf(c))
        )
        return costs

    # -- resilience ----------------------------------------------------

    def _evaluate_resilient(
        self, payloads: List[np.ndarray]
    ) -> List[float]:
        results: Dict[int, float] = {}
        retries = 0
        while len(results) < len(payloads):
            pending = [i for i in range(len(payloads)) if i not in results]
            if self._degraded:
                self._evaluate_serial(payloads, pending, results)
                continue
            try:
                self._collect_parallel(payloads, pending, results)
                self._consecutive_failures = 0
            except PoolError:
                self._consecutive_failures += 1
                profiling.increment("parallel.pool_failures")
                if self._consecutive_failures >= self.degrade_after:
                    self._degrade()
                elif retries >= self.max_retries:
                    # Leave the pool usable for the next batch: replace the
                    # (dead or hung) workers before propagating.
                    self._restart_executor()
                    raise
                else:
                    profiling.increment("parallel.retries")
                    telemetry.instant(
                        "parallel.retry",
                        attempt=retries + 1,
                        pending=len(payloads) - len(results),
                    )
                    runlog.emit_event(
                        "pool.retry",
                        attempt=retries + 1,
                        pending=len(payloads) - len(results),
                        consecutive_failures=self._consecutive_failures,
                    )
                    time.sleep(
                        min(
                            self.backoff_base * (2.0 ** retries),
                            POOL_BACKOFF_MAX,
                        )
                    )
                    retries += 1
                    self._restart_executor()
        return [results[i] for i in range(len(payloads))]

    def _collect_parallel(
        self,
        payloads: List[np.ndarray],
        pending: List[int],
        results: Dict[int, float],
    ) -> None:
        """One parallel attempt at the ``pending`` candidates.

        Completed candidates land in ``results`` even when the attempt
        fails part-way, so a retry only redoes the missing ones.
        """
        futures = {
            self._executor.submit(_score_in_worker, payloads[i]): i
            for i in pending
        }
        try:
            remaining = set(futures)
            while remaining:
                done, _ = wait(
                    remaining,
                    timeout=self.timeout,
                    return_when=FIRST_COMPLETED,
                )
                if not done:
                    profiling.increment("parallel.timeouts")
                    telemetry.instant(
                        "parallel.timeout", pending=len(remaining)
                    )
                    raise WorkerTimeoutError(
                        f"no candidate completed within {self.timeout:g} s "
                        f"({len(remaining)} of {len(futures)} still pending)"
                    )
                for future in done:
                    remaining.discard(future)
                    index = futures[future]
                    try:
                        cost, worker_snapshot, worker_spans = future.result()
                    except BrokenProcessPool as exc:
                        profiling.increment("parallel.worker_lost")
                        telemetry.instant(
                            "parallel.worker_lost", candidate=index
                        )
                        raise WorkerLostError(
                            f"worker process died while scoring candidate "
                            f"{index}"
                        ) from exc
                    except CandidateCrashError:
                        profiling.increment("parallel.crashed")
                        raise
                    results[index] = float(cost)
                    profiling.merge(worker_snapshot)
                    telemetry.extend_spans(worker_spans)
        finally:
            for future in futures:
                future.cancel()

    def _evaluate_serial(
        self,
        payloads: List[np.ndarray],
        pending: List[int],
        results: Dict[int, float],
    ) -> None:
        """Degraded path: score the pending candidates in-process."""
        if self._serial_evaluator is None:
            from .runner import _CandidateEvaluator

            case, plan, stage, problem, fixed_pressure = self.context
            self._serial_evaluator = _CandidateEvaluator(
                case, plan, stage, problem, fixed_pressure
            )
        for index in pending:
            results[index] = _score_candidate(
                self._serial_evaluator, payloads[index]
            )
            profiling.increment("parallel.serial_fallback")

    def _degrade(self) -> None:
        """Permanently switch to serial evaluation (correctness first)."""
        if self._degraded:
            return
        self._degraded = True
        profiling.increment("parallel.degraded")
        telemetry.instant(
            "parallel.degraded",
            consecutive_failures=self._consecutive_failures,
        )
        runlog.emit_event(
            "pool.degraded",
            consecutive_failures=self._consecutive_failures,
            n_workers=self.n_workers,
        )
        self._terminate_workers()
        self._executor.shutdown(wait=False, cancel_futures=True)

    def _restart_executor(self) -> None:
        """Replace every worker process with a fresh one."""
        self._terminate_workers()
        self._executor.shutdown(wait=False, cancel_futures=True)
        self._spawn_executor()
        profiling.increment("parallel.worker_replacements")

    def _terminate_workers(self) -> None:
        """Forcibly kill worker processes (hung workers ignore shutdown)."""
        processes = getattr(self._executor, "_processes", None) or {}
        for process in list(processes.values()):
            process.terminate()

    @property
    def degraded(self) -> bool:
        """Whether the pool has fallen back to serial evaluation."""
        return self._degraded

    def close(self) -> None:
        """Shut the worker processes down (idempotent).

        Workers are terminated, not joined: a hung worker must not be able
        to stall interpreter exit.
        """
        if not self._closed:
            self._closed = True
            self._terminate_workers()
            self._executor.shutdown(wait=False, cancel_futures=True)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` was called."""
        return self._closed

    def __enter__(self) -> "PersistentEvaluationPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


#: Live pools kept warm across :func:`evaluate_population` calls.  Two slots
#: cover the common shape of the staged flow (current stage plus the
#: next-stage re-scorer) without hoarding idle processes.
_POOL_CACHE_SIZE = 2
_pool_cache: "OrderedDict[tuple, PersistentEvaluationPool]" = OrderedDict()


class _IdentityKey:
    """Cache-key component comparing by object identity.

    Replaces raw ``id(...)`` in the pool-cache key: an integer id can be
    recycled by a *different* object once the original dies, and ids leak
    run-to-run nondeterminism into anything the key reaches.  The wrapper
    pins its referent (so no recycling) and equals only a wrapper around
    the very same object; the hash is the interpreter's identity hash,
    which only ever needs to be stable within the owning process.
    """

    __slots__ = ("obj",)

    def __init__(self, obj: object) -> None:
        self.obj = obj

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _IdentityKey) and self.obj is other.obj

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return object.__hash__(self.obj)


def _cached_pool(
    case: Case,
    plan: TreePlan,
    stage: StageConfig,
    problem: str,
    fixed_pressure: Optional[float],
    n_workers: int,
) -> PersistentEvaluationPool:
    # Identity-based keys are safe because each cached pool holds strong
    # references to its context objects (via the key's _IdentityKey
    # wrappers), pinning them alive.  The pressure is quantized like every
    # other float cache key in the repo, so an epsilon-perturbed context
    # reuses the warm pool.  The ambient fault plan (chaos runs) and the
    # telemetry configuration join the key so a plan change -- or flipping
    # tracing on/off -- never reuses workers armed with a stale setup.
    fault_plan = faults.active_plan()
    quantized_pressure = (
        None if fixed_pressure is None else quantize_key(fixed_pressure)
    )
    key = (
        _IdentityKey(case),
        _IdentityKey(plan),
        stage,
        problem,
        quantized_pressure,
        n_workers,
        None if fault_plan is None else _IdentityKey(fault_plan),
        TelemetryConfig.current(),
    )
    pool = _pool_cache.get(key)
    if pool is not None and not pool.closed:
        _pool_cache.move_to_end(key)
        return pool
    pool = PersistentEvaluationPool(
        case,
        plan,
        stage,
        problem,
        fixed_pressure,
        n_workers=n_workers,
        fault_plan=fault_plan,
    )
    _pool_cache[key] = pool
    while len(_pool_cache) > _POOL_CACHE_SIZE:
        _, evicted = _pool_cache.popitem(last=False)
        evicted.close()
    return pool


def shutdown_pools() -> None:
    """Close every cached worker pool (also registered at interpreter exit)."""
    while _pool_cache:
        _, pool = _pool_cache.popitem(last=False)
        pool.close()


atexit.register(shutdown_pools)


# ---------------------------------------------------------------------------
# Public entry point
# ---------------------------------------------------------------------------


def evaluate_population(
    case: Case,
    plan: TreePlan,
    stage: StageConfig,
    problem: str,
    params_list: Sequence[np.ndarray],
    fixed_pressure: Optional[float] = None,
    n_workers: int = 1,
    pool: Optional[PersistentEvaluationPool] = None,
) -> List[float]:
    """Score a batch of candidate parameter vectors.

    Args:
        case / plan / stage / problem / fixed_pressure: As in the staged
            flow (:mod:`repro.optimize.runner`).
        params_list: Candidate (n_trees, 2) arrays.
        n_workers: Worker processes; 1 evaluates serially in-process.
        pool: An explicit :class:`PersistentEvaluationPool` to dispatch to
            (its context must match the other arguments); by default a
            module-cached pool for this context is created or reused.

    Returns:
        One cost per candidate (``inf`` for illegal/infeasible networks).
        Unexpected worker exceptions propagate as
        :class:`CandidateCrashError` -- they are bugs, not infeasibility.
    """
    if n_workers < 1:
        raise SearchError(f"n_workers must be >= 1, got {n_workers}")
    if not params_list:
        return []
    # The grouped metric is stateful across candidates and must stay serial
    # no matter what was requested; otherwise go parallel when a pool was
    # handed in or more than one worker was asked for.
    if stage.metric == METRIC_MIN_GRADIENT_CAPPED or (
        pool is None and n_workers == 1
    ):
        from .runner import _CandidateEvaluator

        evaluator = _CandidateEvaluator(
            case, plan, stage, problem, fixed_pressure
        )
        costs = [_score_candidate(evaluator, params) for params in params_list]
        profiling.increment("parallel.candidates", len(costs))
        profiling.increment(
            "parallel.infeasible", sum(1 for c in costs if math.isinf(c))
        )
        return costs

    if pool is None:
        pool = _cached_pool(
            case, plan, stage, problem, fixed_pressure, n_workers
        )
    return pool.evaluate(params_list)
