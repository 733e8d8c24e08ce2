"""Shared machinery for the Table 3 / Table 4 benches, plus the perf harness.

Runs, for every benchmark case: the straight-channel baseline (best of the
global directions), the manual-design comparator (stand-in for the contest
winner; see DESIGN.md), and the staged-SA tree-like design flow.  Formats the
paper's row layout and improvement percentages.

This module is also executable -- ``python benchmarks/harness.py --bench
parallel_eval --json`` runs the persistent-pool evaluation benchmark and
writes ``benchmarks/out/BENCH_parallel_eval.json`` (timings, speedup,
profiling counters), giving future PRs a machine-readable perf trajectory.
"""

from __future__ import annotations

import argparse
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro import profiling, telemetry
from repro.analysis import format_table, result_row
from repro.checkpoint import atomic_write_json
from repro.telemetry.export import write_chrome_trace
from repro.analysis.tables import improvement_percent
from repro.errors import ReproError
from repro.iccad2015 import CASE_NUMBERS, load_case
from repro.optimize import (
    best_manual_design,
    best_straight_baseline,
    optimize_problem1,
    optimize_problem2,
)


@dataclass
class CaseOutcome:
    """Results of one case: baseline / manual / ours evaluations."""

    case_number: int
    baseline: Optional[object]
    manual: Optional[object]
    ours: Optional[object]
    ours_network: Optional[object]
    seconds: float


def run_problem(
    problem: str,
    grid_size: int,
    quick: bool,
    directions,
    cases=CASE_NUMBERS,
    include_manual: bool = True,
    seed: int = 0,
) -> List[CaseOutcome]:
    """Run one problem's full comparison across benchmark cases."""
    outcomes = []
    for number in cases:
        case = load_case(number, grid_size=grid_size)
        start = time.time()
        baseline = _try(lambda: best_straight_baseline(case, problem, model="4rm"))
        manual = (
            _try(lambda: best_manual_design(case, problem, model="4rm"))
            if include_manual
            else None
        )
        if problem == "problem1":
            ours = _try(
                lambda: optimize_problem1(
                    case, quick=quick, directions=directions, seed=seed
                )
            )
        else:
            ours = _try(
                lambda: optimize_problem2(
                    case, quick=quick, directions=directions, seed=seed
                )
            )
        outcomes.append(
            CaseOutcome(
                case_number=number,
                baseline=baseline.evaluation if baseline else None,
                manual=manual.evaluation if manual else None,
                ours=ours.evaluation if ours else None,
                ours_network=ours.network if ours else None,
                seconds=time.time() - start,
            )
        )
    return outcomes


def format_results(
    outcomes: List[CaseOutcome],
    objective: str,
    title: str,
    include_manual: bool = True,
) -> str:
    """Render Table 3/4-style blocks plus the improvement summary."""
    metrics = ["P_sys (kPa)", "T_max (K)", "DeltaT (K)", "W_pump (mW)"]
    blocks = [("Baseline (straight)", "baseline")]
    if include_manual:
        blocks.append(("Manual (comparator)", "manual"))
    blocks.append(("Ours (tree-like SA)", "ours"))

    rows = []
    for block_name, attr in blocks:
        for metric in metrics:
            row = [block_name if metric == metrics[0] else "", metric]
            for outcome in outcomes:
                evaluation = getattr(outcome, attr)
                cells = result_row(
                    evaluation
                    if evaluation is not None and evaluation.feasible
                    else None
                )
                row.append(cells[metric])
            rows.append(row)
    headers = ["design", "metric"] + [f"case {o.case_number}" for o in outcomes]
    table = format_table(headers, rows, title=title)

    summary = []
    for outcome in outcomes:
        if (
            outcome.baseline is not None
            and outcome.ours is not None
            and outcome.baseline.feasible
            and outcome.ours.feasible
        ):
            if objective == "w_pump":
                gain = improvement_percent(
                    outcome.baseline.w_pump, outcome.ours.w_pump
                )
                summary.append(
                    f"case {outcome.case_number}: {gain:.1f}% pumping power "
                    f"saving vs baseline ({outcome.seconds:.0f} s)"
                )
            else:
                gain = improvement_percent(
                    outcome.baseline.delta_t, outcome.ours.delta_t
                )
                summary.append(
                    f"case {outcome.case_number}: {gain:.1f}% thermal gradient "
                    f"reduction vs baseline ({outcome.seconds:.0f} s)"
                )
        else:
            feasible = (
                "ours feasible"
                if outcome.ours is not None and outcome.ours.feasible
                else "ours infeasible"
            )
            summary.append(
                f"case {outcome.case_number}: baseline infeasible (N/A), "
                f"{feasible} ({outcome.seconds:.0f} s)"
            )
    return table + "\n\n" + "\n".join(summary)


def _try(fn):
    try:
        return fn()
    except ReproError:
        return None


# ---------------------------------------------------------------------------
# Persistent-pool evaluation benchmark (BENCH_parallel_eval.json)
# ---------------------------------------------------------------------------


def _score_one_seed(payload):
    """The seed implementation's worker body, kept verbatim as the baseline:
    the full context rides along with *every* candidate, a fresh evaluator is
    built per candidate, and every exception is silently swallowed."""
    case, plan, stage, problem, fixed_pressure, params = payload
    from repro.optimize.runner import _CandidateEvaluator

    evaluator = _CandidateEvaluator(case, plan, stage, problem, fixed_pressure)
    try:
        return float(evaluator(params))
    except Exception:
        return math.inf


def _seed_evaluate_batch(case, plan, stage, problem, fixed_pressure, batch, n_workers):
    """One batch the way the seed ``evaluate_population`` ran it: a brand-new
    process pool per call, full-context payloads per candidate."""
    payloads = [
        (case, plan, stage, problem, fixed_pressure, np.asarray(p, dtype=int))
        for p in batch
    ]
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(_score_one_seed, payloads))


def make_sa_batches(plan, n_batches, batch_size, seed=0, step=2):
    """SA-shaped candidate batches: each batch perturbs a drifting current
    state, mirroring how ``simulated_annealing_batch`` proposes neighbors."""
    rng = np.random.default_rng(seed)
    batches, current = [], plan.params()
    for _ in range(n_batches):
        batch = [
            plan.clamp_params(
                current + step * rng.integers(-2, 3, size=current.shape)
            )
            for _ in range(batch_size)
        ]
        current = batch[0]
        batches.append(batch)
    return batches


def run_parallel_eval_bench(
    grid_size: int = 21,
    n_batches: int = 16,
    batch_size: int = 4,
    n_workers: int = 4,
    case_number: int = 1,
    seed: int = 0,
) -> dict:
    """Benchmark the persistent pool against the seed per-batch pool.

    The workload is the SA loop's real shape: ``n_batches`` consecutive
    batches of ``batch_size`` neighbor candidates (the runner defaults to
    ``batch_size = n_workers``), scored with the paper's stage-1 metric
    (thermal gradient at a fixed pressure) on the 2RM model.  The seed
    implementation pays pool spin-up and full-context pickling for every
    batch; the persistent pool pays them once.  Also checks all three paths
    (seed / persistent / serial) return identical costs.
    """
    from repro.optimize.parallel import evaluate_population, shutdown_pools
    from repro.optimize.stages import METRIC_FIXED_PRESSURE_GRADIENT, StageConfig

    if n_workers < 1:
        raise SystemExit(f"--workers must be >= 1, got {n_workers}")
    if n_batches < 1 or batch_size < 1:
        raise SystemExit(
            f"need at least one batch and one candidate per batch, got "
            f"--batches {n_batches} --batch-size {batch_size}"
        )
    case = load_case(case_number, grid_size=grid_size)
    plan = case.tree_plan()
    stage = StageConfig(
        "bench-stage1", 4, 1, 8, METRIC_FIXED_PRESSURE_GRADIENT, "2rm"
    )
    fixed_pressure = 2e4
    batches = make_sa_batches(plan, n_batches, batch_size, seed=seed)
    n_candidates = n_batches * batch_size

    shutdown_pools()
    start = time.perf_counter()
    seed_costs = [
        _seed_evaluate_batch(
            case, plan, stage, "problem1", fixed_pressure, batch, n_workers
        )
        for batch in batches
    ]
    seed_seconds = time.perf_counter() - start

    profiling.reset()
    start = time.perf_counter()
    persistent_costs = [
        evaluate_population(
            case,
            plan,
            stage,
            "problem1",
            batch,
            fixed_pressure=fixed_pressure,
            n_workers=n_workers,
        )
        for batch in batches
    ]
    persistent_seconds = time.perf_counter() - start
    counters_snapshot = profiling.snapshot()
    shutdown_pools()

    serial_costs = [
        evaluate_population(
            case,
            plan,
            stage,
            "problem1",
            batch,
            fixed_pressure=fixed_pressure,
            n_workers=1,
        )
        for batch in batches
    ]

    return {
        "benchmark": "parallel_eval",
        "config": {
            "case_number": case_number,
            "grid_size": grid_size,
            "n_batches": n_batches,
            "batch_size": batch_size,
            "n_candidates": n_candidates,
            "n_workers": n_workers,
            "metric": stage.metric,
            "model": stage.model,
            "fixed_pressure": fixed_pressure,
            "seed": seed,
        },
        "seed_seconds": seed_seconds,
        "persistent_seconds": persistent_seconds,
        "speedup": seed_seconds / persistent_seconds,
        "seed_candidates_per_sec": n_candidates / seed_seconds,
        "persistent_candidates_per_sec": n_candidates / persistent_seconds,
        "parity_seed_vs_persistent": seed_costs == persistent_costs,
        "parity_serial_vs_persistent": serial_costs == persistent_costs,
        "counters": counters_snapshot["counters"],
        "timers": counters_snapshot["timers"],
        # p50/p90/p99 summaries (not raw buckets) per latency histogram, so
        # BENCH_*.json generations stay diffable at a glance.
        "histograms": profiling.histogram_summaries(counters_snapshot),
    }


# ---------------------------------------------------------------------------
# Pressure-shift benchmark (BENCH_pressure_shift.json)
# ---------------------------------------------------------------------------


def _percentile_ms(samples: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples) * 1e3, q))


def _latency_summary(samples: List[float]) -> dict:
    return {
        "p50_ms": _percentile_ms(samples, 50),
        "p90_ms": _percentile_ms(samples, 90),
        "p99_ms": _percentile_ms(samples, 99),
        "n": len(samples),
    }


def run_pressure_shift_bench(
    grid_size: int = 21,
    n_batches: int = 16,  # accepted for CLI uniformity
    batch_size: int = 4,  # accepted for CLI uniformity
    n_workers: int = 4,  # accepted for CLI uniformity; single-process bench
    case_number: int = 1,
) -> dict:
    """Benchmark the thermal pressure-shift (Woodbury) path.

    The staged flow's inner loop on case ``case_number`` at ``grid_size``:
    one :class:`~repro.thermal.common.LinearThermalSystem` probed across a
    drifting pressure schedule through the incremental pressure-shift path
    (production settings: :data:`~repro.thermal.common.
    SHIFT_RANK_THRESHOLD`), against ``exact=True`` solves that pay a fresh
    factorization per distinct pressure, with per-probe parity.  The shift
    path only engages while the advected-row count fits the threshold, so
    the default grid is the 21x21 the quick design flow runs at.
    """
    from repro.materials import WATER
    from repro.thermal.common import SHIFT_RANK_THRESHOLD
    from repro.thermal.rc2 import RC2Simulator

    stack = load_case(case_number, grid_size=grid_size).base_stack()
    base_pressure = 2e4
    n_probes = 60
    pressures = base_pressure * (
        1.0 + 0.3 * np.sin(np.linspace(0.0, 9.0, n_probes))
    )

    profiling.reset()
    shift_system = RC2Simulator(stack, WATER, tile_size=4).system
    shift_system.solve(base_pressure, exact=True)  # prime the base factor
    shift_times = []
    shift_results = []
    for p in pressures:
        start = time.perf_counter()
        shift_results.append(shift_system.solve(float(p)))
        shift_times.append(time.perf_counter() - start)
    counters = profiling.snapshot()["counters"]
    advection = shift_system.advection.tocoo()
    advected_rows = int(np.unique(advection.row[advection.data != 0.0]).size)

    exact_system = RC2Simulator(stack, WATER, tile_size=4).system
    exact_times = []
    parity = 0.0
    # Every probe pressure is distinct, so each exact solve pays a full
    # factorization (the per-pressure LU cache never hits).
    for p, probe in zip(pressures, shift_results):
        start = time.perf_counter()
        exact = exact_system.solve(float(p), exact=True)
        exact_times.append(time.perf_counter() - start)
        scale = max(float(np.max(np.abs(exact))), 1.0)
        parity = max(parity, float(np.max(np.abs(probe - exact))) / scale)

    pressure_sweep = {
        "n_probes": n_probes,
        "rank_threshold": SHIFT_RANK_THRESHOLD,
        "advected_rows": advected_rows,
        "incremental_solves": counters.get("linalg.incremental_solves", 0),
        "shift_bases": counters.get("linalg.shift_bases", 0),
        "incremental": _latency_summary(shift_times),
        "exact": _latency_summary(exact_times),
        "speedup_p50": _percentile_ms(exact_times, 50)
        / _percentile_ms(shift_times, 50),
        "parity_max_err": parity,
    }
    return {
        "benchmark": "pressure_shift",
        "config": {
            "case_number": case_number,
            "grid_size": grid_size,
            "n_nodes": shift_system.n_nodes,
            "n_probes": n_probes,
            "base_pressure": base_pressure,
        },
        "pressure_sweep": pressure_sweep,
        "summary": (
            f"{shift_system.n_nodes} nodes, {advected_rows} advected rows "
            f"(threshold {SHIFT_RANK_THRESHOLD}); pressure sweep p50 "
            f"incremental {pressure_sweep['incremental']['p50_ms']:.3f} ms vs "
            f"exact {pressure_sweep['exact']['p50_ms']:.3f} ms "
            f"({pressure_sweep['speedup_p50']:.1f}x); parity {parity:.2e}"
        ),
    }


# ---------------------------------------------------------------------------
# Multi-fidelity portfolio benchmark (BENCH_portfolio.json)
# ---------------------------------------------------------------------------


def run_portfolio_bench(
    grid_size: int = 0,  # 0: let each generated case draw its own footprint
    n_batches: int = 2,
    batch_size: int = 3,
    n_workers: int = 1,  # accepted for CLI uniformity; cases are tiny
    n_cases: int = 100,
    seed: int = 0,
) -> dict:
    """Benchmark ``multi_fidelity`` against the pure-4RM comparator.

    Runs both strategies -- identical annealer, identical seeds, identical
    candidate budget -- on ``n_cases`` procedurally generated cases
    (:mod:`repro.cases`, per-case seeds ``0..n_cases-1``) and records, per
    case, the verified 4RM scores and how many *distinct* 4RM evaluations
    each strategy paid.  ``n_batches`` maps to portfolio rounds and
    ``batch_size`` to SA batch width.

    Acceptance (gated by ``tests/optimize/test_bench_portfolio.py`` on the
    committed artifact):

    * aggregate 4RM-evaluation ratio (comparator / multi-fidelity) >= 2x;
    * per-case, the multi-fidelity score is within the case's calibrated
      offset-model envelope of the comparator's score (or strictly
      better) on at least 90% of cases.
    """
    import math

    from repro.cases import generate_case
    from repro.optimize.portfolio import PortfolioConfig, run_portfolio

    cases = []
    mf_high_total = ref_high_total = 0
    within = wins = infeasible = 0
    start_all = time.time()
    for case_seed in range(n_cases):
        case = generate_case(
            case_seed, grid_size=grid_size if grid_size else None
        )
        config = PortfolioConfig(
            rounds=max(n_batches, 1),
            iterations=3,
            batch_size=batch_size,
            seed=case_seed,
        )
        start = time.time()
        result = run_portfolio(case, ("multi_fidelity", "sa_4rm"), config)
        seconds = time.time() - start
        mf = result.outcomes["multi_fidelity"]
        ref = result.outcomes["sa_4rm"]
        envelope = mf.envelope if mf.envelope is not None else 0.5
        if math.isinf(mf.score) or math.isinf(ref.score):
            case_within = math.isinf(mf.score) == math.isinf(ref.score)
            infeasible += 1
        else:
            # One-sided: better-than-reference is never a violation.
            case_within = math.log(mf.score / ref.score) <= envelope
        within += case_within
        wins += mf.score < ref.score
        mf_high_total += mf.high_evals
        ref_high_total += ref.high_evals
        cases.append(
            {
                "case_seed": case_seed,
                "grid_size": case.nrows,
                "mf_score": mf.score,
                "ref_score": ref.score,
                "mf_high_evals": mf.high_evals,
                "ref_high_evals": ref.high_evals,
                "mf_low_evals": mf.low_evals,
                "envelope": envelope,
                "within_envelope": bool(case_within),
                "seconds": round(seconds, 3),
            }
        )
    ratio = ref_high_total / max(mf_high_total, 1)
    payload = {
        "benchmark": "portfolio",
        "config": {
            "n_cases": n_cases,
            "rounds": max(n_batches, 1),
            "iterations": 3,
            "batch_size": batch_size,
            "comparator": "sa_4rm",
            "seed_policy": "config.seed = case_seed",
        },
        "high_eval_ratio": ratio,
        "within_envelope_fraction": within / n_cases,
        "mf_wins_fraction": wins / n_cases,
        "mf_high_evals_total": mf_high_total,
        "ref_high_evals_total": ref_high_total,
        "infeasible_cases": infeasible,
        "seconds_total": round(time.time() - start_all, 2),
        "cases": cases,
        "summary": (
            f"{n_cases} generated cases: {ratio:.2f}x fewer 4RM evals "
            f"({mf_high_total} vs {ref_high_total}), "
            f"{within}/{n_cases} within envelope, "
            f"{wins}/{n_cases} outright wins"
        ),
    }
    return payload


# ---------------------------------------------------------------------------
# Service observability overhead benchmark (BENCH_service_overhead.json)
# ---------------------------------------------------------------------------


def run_service_overhead_bench(
    grid_size: int = 9,
    n_batches: int = 2,
    batch_size: int = 1,
    n_workers: int = 1,  # accepted for CLI uniformity; single-worker service
    repeats: int = 3,
    seed: int = 0,
) -> dict:
    """Measure what the service and its observability surface cost a job.

    Three legs, identical deterministic spec (a tiny generated case so the
    orchestration term is visible next to the compute term), median wall
    time over ``repeats``:

    * **baseline** -- ``SimulationExecutor.execute`` called directly: no
      queue, no HTTP, no telemetry consumers.
    * **disabled** -- the same spec as a job through a full
      :class:`DesignService` with every observability feature at its
      default (tracing off, nobody scraping): submit -> terminal state.
    * **enabled** -- the works: ``trace_jobs=True``, a live ``follow=1``
      event stream consumed end to end, and a parsed ``/metrics`` scrape
      per round event.

    The committed artifact is gated by
    ``tests/server/test_bench_service_overhead.py`` on machine-independent
    *ratios*: the service leg must track the direct leg within queue-poll
    noise, and the fully-observed leg must stay close to the unobserved
    one -- "observability is near-free unless armed, and cheap when armed".
    """
    import statistics
    import tempfile

    from repro.server import (
        DesignService,
        ServiceClient,
        SimulationExecutor,
        validate_submission,
    )
    from repro.telemetry.promexpo import parse_prometheus_text

    payload = {
        "case_seed": 7,
        "grid": grid_size,
        "rounds": max(n_batches, 1),
        "iterations": 1,
        "batch_size": batch_size,
        "seed": seed,
        "optimizers": ["multi_fidelity"],
    }
    spec = validate_submission(dict(payload))

    def run_direct() -> float:
        executor = SimulationExecutor()
        with tempfile.TemporaryDirectory() as ckpt:
            start = time.perf_counter()
            executor.execute(dict(spec), ckpt)
            return time.perf_counter() - start

    def run_service_leg(trace_jobs: bool, observe: bool) -> List[float]:
        times: List[float] = []
        with tempfile.TemporaryDirectory() as root:
            service = DesignService(
                root,
                n_workers=1,
                lease_ttl=30.0,
                trace_jobs=trace_jobs,
                stream_heartbeat=1.0,
            )
            service.start()
            try:
                client = ServiceClient(
                    f"http://127.0.0.1:{service.port}", timeout=30.0
                )
                for _ in range(repeats):
                    start = time.perf_counter()
                    job_id = client.submit(dict(payload))["job_id"]
                    if observe:
                        for event in client.follow_events(job_id):
                            if event["type"] == "portfolio.round":
                                parse_prometheus_text(client.metrics())
                    else:
                        client.wait(
                            job_id, timeout=600.0, poll_interval=0.05
                        )
                    times.append(time.perf_counter() - start)
                    if observe:
                        client.trace(job_id)  # must exist; not timed above
            finally:
                service.stop()
        return times

    baseline = [run_direct() for _ in range(repeats)]
    disabled = run_service_leg(trace_jobs=False, observe=False)
    enabled = run_service_leg(trace_jobs=True, observe=True)

    baseline_s = statistics.median(baseline)
    disabled_s = statistics.median(disabled)
    enabled_s = statistics.median(enabled)
    return {
        "benchmark": "service_overhead",
        "config": {
            "spec": payload,
            "repeats": repeats,
            "legs": ["baseline", "disabled", "enabled"],
        },
        "baseline_seconds": baseline_s,
        "disabled_seconds": disabled_s,
        "enabled_seconds": enabled_s,
        "baseline_runs": [round(t, 4) for t in baseline],
        "disabled_runs": [round(t, 4) for t in disabled],
        "enabled_runs": [round(t, 4) for t in enabled],
        "disabled_over_baseline": disabled_s / baseline_s,
        "enabled_over_disabled": enabled_s / disabled_s,
        "summary": (
            f"direct {baseline_s:.2f}s, service(quiet) {disabled_s:.2f}s "
            f"({disabled_s / baseline_s:.2f}x), service(observed) "
            f"{enabled_s:.2f}s ({enabled_s / disabled_s:.2f}x over quiet)"
        ),
    }


def write_bench_json(name: str, payload: dict, out_dir: Optional[Path] = None) -> Path:
    """Persist a benchmark payload as ``benchmarks/out/BENCH_<name>.json``.

    Written atomically (temp file + ``os.replace``) so a benchmark killed
    mid-write never leaves a torn artifact for trend tooling to half-parse.
    """
    out_dir = Path(__file__).parent / "out" if out_dir is None else Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{name}.json"
    atomic_write_json(path, payload)
    return path


_BENCHES = {
    "parallel_eval": run_parallel_eval_bench,
    "portfolio": run_portfolio_bench,
    "pressure_shift": run_pressure_shift_bench,
    "service_overhead": run_service_overhead_bench,
}


def main(argv=None) -> int:
    """CLI: run a named perf benchmark, optionally writing BENCH_*.json."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--bench", choices=sorted(_BENCHES), default="parallel_eval",
        help="which perf benchmark to run",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="write benchmarks/out/BENCH_<name>.json",
    )
    parser.add_argument("--grid", type=int, default=21, help="grid size")
    parser.add_argument("--batches", type=int, default=16, help="batch count")
    parser.add_argument("--batch-size", type=int, default=4, help="candidates per batch")
    parser.add_argument("--workers", type=int, default=4, help="worker processes")
    parser.add_argument(
        "--cases", type=int, default=None,
        help="generated-case count (portfolio bench only; default 100)",
    )
    parser.add_argument("--out", type=Path, default=None, help="output directory")
    parser.add_argument(
        "--trace-out", type=Path, default=None, metavar="TRACE.json",
        help="also record spans and export a Chrome trace-event JSON here",
    )
    args = parser.parse_args(argv)

    if args.trace_out is not None:
        telemetry.set_tracing(True)
    kwargs = dict(
        grid_size=args.grid,
        n_batches=args.batches,
        batch_size=args.batch_size,
        n_workers=args.workers,
    )
    if args.bench == "portfolio":
        # Generated cases draw their own footprints; --grid stays with the
        # single-case benches.  --batches maps to portfolio rounds.
        kwargs["grid_size"] = 0
        kwargs["n_batches"] = min(args.batches, 4)
        if args.cases is not None:
            kwargs["n_cases"] = args.cases
    elif args.bench == "service_overhead":
        # Orchestration overhead, not solve time: a tiny job keeps the
        # compute term small so the overhead term is visible.
        kwargs["grid_size"] = 9 if args.grid == 21 else args.grid
        kwargs["n_batches"] = min(args.batches, 4)
    result = _BENCHES[args.bench](**kwargs)
    if args.trace_out is not None:
        write_chrome_trace(args.trace_out)
        telemetry.set_tracing(False)
        telemetry.clear_spans()
        print(f"[trace: {args.trace_out}]")
    if "summary" in result:
        print(f"{args.bench}: {result['summary']}")
    else:
        print(
            f"{args.bench}: seed {result['seed_seconds']:.2f}s, persistent "
            f"{result['persistent_seconds']:.2f}s, speedup "
            f"{result['speedup']:.2f}x, parity="
            f"{result['parity_seed_vs_persistent']}"
        )
    if "counters" in result:
        print(profiling.format_snapshot(
            {"counters": result["counters"], "timers": result["timers"]}
        ))
    if args.json:
        path = write_bench_json(args.bench, result, out_dir=args.out)
        print(f"[artifact: {path}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
