"""Benchmark of the repro design flow: one command per workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload design_quick --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the cycle's first operation twice untraced, then the
whole cycle with every layer wrapped (see ``layers.py``), and reports the
per-layer metrics plus the tracing overhead; the spans go to
``.perfbench_runs/trace-*.json`` (Chrome trace format, opens in Perfetto).

Human-readable lines start with ``#``; the last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # a setup probe times itself from here

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

# BLAS at one thread, set before numpy loads (the set-up probes inherit it).
# On a 2-vCPU host a second BLAS thread spins against the other threads and
# the host's other tenants: it made a quick design about 10% slower and its
# time noisier, for 10-18% more CPU time than wall time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

#: Fresh interpreters per run that import the program and build the
#: workload's inputs; ``setup_s`` is the median of their scaled times.
SETUP_PROBES = 5
#: [unit: s] A setup probe that takes longer than this has hung.
SETUP_PROBE_TIMEOUT = 60

#: The counters whose per-cycle totals must repeat exactly for a seed.
CENSUS = (
    "linalg.factorizations",
    "search.probes",
    "cooling.simulations",
    "linalg.incremental_solves",
    "linalg.shift_bases",
    "checkpoint.saves",
)

SERVICE_PHASES = ("admit_s", "queue_wait_s", "run_s", "notify_s")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="only import the program and build the inputs; print the seconds",
    )
    return parser.parse_args(argv)


# -- counters and the census ---------------------------------------------------


def counters() -> dict:
    """Every profiling counter, plus each timer's call count as ``<name>#calls``."""
    from repro import profiling

    snap = profiling.snapshot()
    out = dict(snap["counters"])
    for name, timer in snap["timers"].items():
        out[f"{name}#calls"] = timer["count"]
    return out


def source_digest() -> str:
    """Digest of the program's and the benchmark's sources: census files are
    compared only between runs of the same code."""
    digest = hashlib.sha256()
    here = Path(__file__).resolve().parent
    for path in sorted([*SRC.rglob("*.py"), *here.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_census(workload: str, seed: int, censuses: list) -> list:
    """Every cycle's census must equal the first, and an earlier run's."""
    census = censuses[0]
    problems = [
        f"cycle {i} census {other} != cycle 0 census {census}"
        for i, other in enumerate(censuses)
        if other != census
    ]
    path = RUNS / "census" / f"{workload}-seed{seed}-{source_digest()}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != census:
            problems.append(f"census {census} != an earlier run's {earlier}")
        return problems
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(census, sort_keys=True))
    os.replace(tmp, path)
    return problems


# -- running cycles ------------------------------------------------------------


class Cycles:
    """Runs a workload's cycles and keeps what each produced."""

    def __init__(self, workload, state, seed: int):
        self.workload = workload
        self.state = state
        self.batch = workload.batch(seed)
        self.ops = []
        self.censuses = []

    def run(self, count=None) -> dict:
        """One cycle (or its first ``count`` ops); returns the counter changes."""
        from repro.flow.network import clear_unit_cache

        import speed

        # Every cycle starts as a fresh process would, so all cycles of a
        # run, traced or not, do the same work and repeat the same census.
        clear_unit_cache()
        before = counters()
        ops = self.workload.run(self.state, self.batch[:count])
        # Each op was timed after a calibration reading; the reading after
        # it is the next op's, and the last op's is taken here.
        readings = [op.kernel_before for op in ops[1:]] + [speed.kernel_seconds()]
        for op, reading in zip(ops, readings):
            op.kernel_after = reading
        self.ops += ops
        after = counters()
        change = {k: v - before.get(k, 0) for k, v in after.items()}
        if count is None:
            self.censuses.append({name: change.get(name, 0) for name in CENSUS})
        return change

    def run_for(self, seconds: float) -> None:
        """The cycle's first operation as a warm-up, then at least one cycle,
        and more while another fits in ``seconds``.

        The warm-up pays the process's one-time costs, so that every timed
        cycle is a warm one whether a run fits one cycle or two; its output
        is checked but its time is not in ``op_s``.
        """
        start = time.perf_counter()
        self.run(count=1)
        cycle_walls = []
        while True:
            cycle_start = time.perf_counter()
            self.run()
            cycle_walls.append(time.perf_counter() - cycle_start)
            elapsed = time.perf_counter() - start
            if elapsed + statistics.fmean(cycle_walls) > seconds:
                return


def check_ops(workload, state, ops) -> int:
    """Check every output; returns the number of failed operations."""
    failed = 0
    for op in ops:
        problems = [op.error] if op.error else workload.check(state, op)
        if problems:
            failed += 1
            print(f"# FAILED {workload.op_label} {op.arg!r}: {'; '.join(problems)}")
    return failed


def setup_probes(args) -> list:
    """``setup_s`` samples: each a fresh interpreter timing its own set-up,
    scaled by the calibration reading it takes right after."""
    import speed

    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
    ]
    times = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True,
            timeout=SETUP_PROBE_TIMEOUT, check=True,
        )
        seconds, kernel = map(float, probe.stdout.split()[-2:])
        times.append(speed.scaled(seconds, kernel))
    return times


# -- metrics -------------------------------------------------------------------


def summary(workload, seed: int, ops, setup_times) -> None:
    """Print each operation and the workload's named figures."""
    import speed

    good = [op for op in ops if not op.error]
    print(f"# {workload.name} seed {seed}: {len(ops)} {workload.op_label}s")
    for op in good:
        figures = " ".join(f"{k}={v:.6g}" for k, v in op.figures.items())
        print(
            f"#   {workload.op_label} {op.arg!r}: {op.scaled_seconds:.4f} s scaled, "
            f"{op.seconds:.4f} s wall, peak {op.peak_rss_mb:.1f} MB {figures}"
        )
    print(
        f"# setup_s median {statistics.median(setup_times):.4f} s "
        f"over {len(setup_times)} fresh interpreters"
    )
    if not good:
        return
    times = [op.scaled_seconds for op in good]
    walls = [op.seconds for op in good]
    print(
        f"# {workload.op_metric} scaled: mean {statistics.fmean(times):.4f} s, "
        f"median {statistics.median(times):.4f} s, n={len(times)} "
        f"(too few for a percentile with 10 samples beyond it); "
        f"wall: mean {statistics.fmean(walls):.4f} s"
    )
    peaks = [op.peak_rss_mb for op in good]
    print(
        f"# peak_rss_mb per {workload.op_label}: median {statistics.median(peaks):.1f} MB, "
        f"mean {statistics.fmean(peaks):.1f} MB, max {max(peaks):.1f} MB, n={len(peaks)}"
    )
    kernels = [reading for op in good for reading in (op.kernel_before, op.kernel_after)]
    print(
        f"# calibration kernel: median {statistics.median(kernels):.5f} s, "
        f"min {min(kernels):.5f} s, max {max(kernels):.5f} s "
        f"(reference {speed.REFERENCE_S} s)"
    )
    for name in sorted({name for op in good for name in op.figures}):
        values = [op.figures[name] for op in good if name in op.figures]
        print(f"# {name} median {statistics.median(values):.6g} over {len(values)}")


def end_to_end(ops, setup_times) -> dict:
    # Failed operations time only up to their failure; they count only when
    # nothing succeeded (the run then reports itself not correct).
    counted = [op for op in ops if not op.error] or ops
    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "op_s": {"value": statistics.fmean(op.scaled_seconds for op in counted), "unit": "s"},
        "peak_rss_mb": {
            "value": statistics.median(op.peak_rss_mb for op in counted),
            "unit": "MB",
        },
    }


def per_layer(layers, change: dict, wall: float, overhead: float, ops) -> dict:
    """Per-layer metrics of the traced cycle."""
    seconds = layers.seconds
    count = layers.count
    evaluations = count("cooling.search")
    factorizations = count("linalg.factorize")
    sims = change.get("cooling.simulations", 0)
    hits = change.get("cooling.cache_hits", 0)
    phases = {
        phase: sum(op.figures.get(phase, 0.0) for op in ops) for phase in SERVICE_PHASES
    }
    # Waiting no span covers: the job sits in the queue, and the finished
    # job's last event travels to the client.  Admission is inside the
    # client's submit span, the run inside the worker thread's spans.
    waiting = phases["queue_wait_s"] + phases["notify_s"]
    unattributed = wall - layers.total_self_seconds() - waiting
    metrics = {
        "networks.build_calls": (count("networks.build"), "count"),
        "networks.build_s": (seconds("networks.build"), "s"),
        "flow.solve_calls": (count("flow.solve"), "count"),
        "flow.solve_s": (seconds("flow.solve"), "s"),
        "flow.unit_cache_hits": (change.get("flow.unit_cache_hits", 0), "count"),
        "thermal.rc2.assemble_s": (seconds("thermal.rc2.assemble"), "s"),
        "thermal.rc4.assemble_s": (seconds("thermal.rc4.assemble"), "s"),
        "thermal.rc2.solve_self_s": (seconds("thermal.rc2.solve"), "s"),
        "thermal.rc4.solve_self_s": (seconds("thermal.rc4.solve"), "s"),
        "linalg.factorize_calls": (factorizations, "count"),
        "linalg.factorize_s": (seconds("linalg.factorize"), "s"),
        "linalg.solve_s": (seconds("linalg.solve"), "s"),
        "linalg.incremental_solves": (change.get("linalg.incremental_solves", 0), "count"),
        "linalg.shift_bases": (change.get("linalg.shift_bases", 0), "count"),
        "cooling.evaluations": (evaluations, "count"),
        "cooling.simulations": (sims, "count"),
        "cooling.cache_hit_ratio": (hits / (hits + sims) if hits + sims else 0.0, "1"),
        "cooling.probes_per_eval": (
            change.get("search.probes", 0) / evaluations if evaluations else 0.0,
            "1",
        ),
        "cooling.factorizations_per_eval": (
            factorizations / evaluations if evaluations else 0.0,
            "1",
        ),
        "cooling.search_self_s": (seconds("cooling.search"), "s"),
        "cooling.system_self_s": (seconds("cooling.system"), "s"),
        "optimize.candidates": (change.get("optimize.candidate#calls", 0), "count"),
        "optimize.self_s": (seconds("optimize"), "s"),
        "optimize.low_evals": (layers.evals_by_model.get("2rm", 0), "count"),
        "optimize.high_evals": (layers.evals_by_model.get("4rm", 0), "count"),
        "checkpoint.saves": (change.get("checkpoint.saves", 0), "count"),
        "checkpoint.save_s": (seconds("checkpoint.save"), "s"),
        **{f"server.{phase}": (phases[phase], "s") for phase in SERVICE_PHASES},
        "server.http_requests": (change.get("server.http_requests", 0), "count"),
        "wall_s": (wall, "s"),
        "unattributed_s": (unattributed, "s"),
        "unattributed_frac": (unattributed / wall, "1"),
        "trace_overhead_frac": (overhead, "1"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


# -- main ----------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import layers as layer_mod
    import speed
    import workloads
    from repro.optimize.parallel import shutdown_pools
    from repro.telemetry.export import write_chrome_trace
    from repro.telemetry.spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    RUNS.mkdir(exist_ok=True)
    run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}-{time.time_ns()}"
    tracer = Tracer(enabled=True, trace_id=run_id)
    layers = layer_mod.LayerTracer(tracer, run_id)
    scratch = RUNS / run_id
    scratch.mkdir()
    workload = workloads.build(args.workload, scratch, layers.call)
    state = None
    try:
        state = workload.setup(args.seed)
        if args.setup_probe:
            seconds = time.perf_counter() - STARTED
            print(seconds, speed.kernel_seconds())
            return 0
        setup_times = setup_probes(args)
        cycles = Cycles(workload, state, args.seed)
        if args.trace:
            # The cycle's first operation twice untraced: a warm-up that pays
            # the process's one-time costs, then the overhead's baseline.
            cycles.run(count=1)
            cycles.run(count=1)
            layers.install()
            layers.active = True
            try:
                change = cycles.run()
            finally:
                layers.active = False
                layers.uninstall()
        else:
            cycles.run_for(args.seconds)
        print(f"# census per cycle: {json.dumps(cycles.censuses[0], sort_keys=True)}")
        problems = check_census(args.workload, args.seed, cycles.censuses)
        failed = check_ops(workload, state, cycles.ops)
    finally:
        if state is not None:
            workload.close(state)
        shutdown_pools()
        shutil.rmtree(scratch, ignore_errors=True)

    # Both modes start with one warm-up operation, left out of the figures.
    summary(workload, args.seed, cycles.ops[1:], setup_times)
    if args.trace:
        baseline, traced = cycles.ops[1], cycles.ops[2:]
        overhead = traced[0].scaled_seconds / baseline.scaled_seconds - 1.0
        # The traced operations' own time: calibration readings, collection
        # and trimming between them belong to no layer.
        wall = sum(op.seconds for op in traced)
        metrics = per_layer(layers, change, wall, overhead, traced)
        trace_path = RUNS / f"trace-{run_id}.json"
        write_chrome_trace(trace_path, tracer)
        print(f"# trace: {trace_path.relative_to(ROOT)} ({len(tracer.snapshot())} spans)")
    else:
        metrics = end_to_end(cycles.ops[1:], setup_times)
    for problem in problems:
        print(f"# FAILED check: {problem}")
    attempted = len(cycles.ops)
    failed = min(attempted, failed + len(problems))
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"# error_rate = {failed / attempted:.6g} ({failed} of {attempted} failed)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
