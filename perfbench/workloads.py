"""The benchmark workloads, driven through public entry points only.

Every workload runs in *cycles*.  A cycle is one batch of operations
(design runs, service jobs or 4RM simulations); ``--seed`` builds the
inputs and sets the order the batch runs in.  The run times each
operation and checks every output afterwards.

Why the design and job batches are fixed: a quick design run costs 2-3x
more on one SA seed than on another, and a portfolio job 3x more on one
generated case than on another.  A run holds only a handful of them, so a
batch drawn fresh from every seed would make the run-to-run spread
measure the seed, not the program.  Those batches are therefore fixed
sets, and the seed picks their order (and with it which operation meets
which warm cache).  The 4RM workload's seed picks the network itself.

``BENCHMARK.json`` lists ``design_quick`` and ``service_jobs``;
``ref4rm_101`` (the paper's 101x101 scale, about 1.5 GB) is run by hand.
"""

from __future__ import annotations

import ctypes
import gc
import math
import re
import shutil
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.constants import PRESSURE_SEARCH_RTOL
from repro.cooling import CoolingSystem
from repro.iccad2015 import load_case
from repro.optimize import optimize_problem1, optimize_problem2, perturb_tree_params
from repro.server import DesignService, ServiceClient
from repro.verify import verify_thermal_result

import speed

#: Relative agreement required between a design's reported 4RM metrics and
#: an independent exact re-simulation of the same network and pressure.
RESIM_RTOL = 1e-6


@dataclass
class Op:
    """One timed operation and what it produced."""

    arg: Any
    seconds: float
    output: Any = None
    error: Optional[str] = None
    #: Workload-specific figures filled in by the output check.
    figures: Dict[str, float] = field(default_factory=dict)
    #: [unit: s] Calibration readings right before and right after the op.
    kernel_before: float = 0.0
    kernel_after: float = 0.0
    #: [unit: MB] Peak resident memory of the process while the op ran.
    peak_rss_mb: float = 0.0

    @property
    def scaled_seconds(self) -> float:
        """The op's time at the reference machine speed (see ``speed.py``)."""
        return speed.scaled(self.seconds, self.kernel_before, self.kernel_after)


def rotated(pool, seed: int) -> list:
    """``pool`` in the order ``seed`` picks (a rotation)."""
    pool = list(pool)
    start = seed % len(pool)
    return pool[start:] + pool[:start]


def _malloc_trim() -> Callable[[int], int]:
    """glibc's ``malloc_trim``, or a no-op where the C library has none."""
    try:
        return ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return lambda pad: 0


MALLOC_TRIM = _malloc_trim()


def reset_peak_rss() -> None:
    """Reset the process's resident-memory high-water mark (Linux >= 4.0)."""
    with open("/proc/self/clear_refs", "w") as clear_refs:
        clear_refs.write("5")


def peak_rss_mb() -> float:
    """The resident-memory high-water mark since the last reset."""
    with open("/proc/self/status") as status:
        return int(re.search(r"VmHWM:\s+(\d+) kB", status.read()).group(1)) / 1024.0


def timed(fn: Callable[[], Any], arg: Any) -> Op:
    """Run ``fn`` once; an exception is recorded as the op's error.

    Garbage from earlier operations is collected and the freed heap handed
    back to the OS first, so neither the time nor the peak memory of this
    one depends on when the collector ran or on how much free memory the
    allocator kept from earlier operations (without the trim, the service
    workload's peak over one fixed batch ranged from 186 to 262 MB).  Then
    a calibration reading is taken (the reading after the op is the next
    op's, or the cycle's closing one; see ``run.Cycles``), the heap is
    trimmed again, and the memory high-water mark is reset, so that the
    op's peak is its own: not the reading's, a check's or an earlier op's.
    """
    gc.collect()
    MALLOC_TRIM(0)
    kernel = speed.kernel_seconds()
    MALLOC_TRIM(0)
    reset_peak_rss()
    start = time.perf_counter()
    try:
        output = fn()
    except Exception as exc:  # noqa: BLE001 -- counted as a failed op
        op = Op(arg, time.perf_counter() - start, error=f"{type(exc).__name__}: {exc}")
    else:
        op = Op(arg, time.perf_counter() - start, output)
    op.peak_rss_mb = peak_rss_mb()
    op.kernel_before = kernel
    return op


class Workload:
    """Interface every workload implements."""

    name = ""
    #: Human name of one operation.
    op_label = "op"
    #: What ``op_s`` is called on this workload in the printed summary.
    op_metric = "op_s"

    def __init__(self, scratch: Path, call: Callable[..., Any]):
        # ``call(span_name, fn, *args)`` runs fn, as a span when tracing.
        self.scratch = scratch
        self.call = call

    def setup(self, seed: int) -> Any:
        """Build the inputs (timed as ``setup_s``); returns the run state."""
        raise NotImplementedError

    def close(self, state: Any) -> None:
        """Release what :meth:`setup` started (default: nothing)."""

    def batch(self, seed: int) -> list:
        """The arguments of one cycle's operations, in run order."""
        raise NotImplementedError

    def run(self, state: Any, args: list) -> List[Op]:
        """Run the operations for ``args`` (a cycle or its first part)."""
        raise NotImplementedError

    def check(self, state: Any, op: Op) -> List[str]:
        """Check one output (untimed); returns the problems found."""
        raise NotImplementedError


# -- Problem 1 / Problem 2 design runs ---------------------------------------


class DesignWorkload(Workload):
    """Quick staged SA design flow on ICCAD case 1, direction 0, in-process.

    One cycle alternates Problem-1 and Problem-2 designs, so one run times
    both pressure searches: Algorithm 3's bisection and Problem 2's
    golden-section search with grouped evaluation.
    """

    name = "design_quick"
    op_label = "design"
    op_metric = "design_s"
    CASE = 1
    GRID = 21
    #: (problem, SA seed) of the batch's designs, in cycle order.
    DESIGNS = ((1, 0), (2, 0), (1, 1), (2, 1))

    def setup(self, seed: int) -> Any:
        case = load_case(self.CASE, grid_size=self.GRID)
        case.tree_plan(direction=0).build()
        return case

    def batch(self, seed: int) -> list:
        return rotated(self.DESIGNS, seed)

    def run(self, case, args: list) -> List[Op]:
        flows = {1: optimize_problem1, 2: optimize_problem2}
        return [
            timed(
                lambda p=problem, s=sa_seed: self.call(
                    "optimize.flow", flows[p], case, quick=True, directions=(0,), seed=s
                ),
                (problem, sa_seed),
            )
            for problem, sa_seed in args
        ]

    def check(self, case, op: Op) -> List[str]:
        problem = op.arg[0]
        evaluation = op.output.evaluation
        failures = []
        if not evaluation.feasible or not math.isfinite(evaluation.score):
            failures.append(f"final design infeasible (score {evaluation.score})")
        limits = [("T_max", evaluation.t_max, case.t_max_star)]
        if problem == 1:
            limits.append(("DeltaT", evaluation.delta_t, case.delta_t_star))
        else:
            limits.append(("W_pump", evaluation.w_pump, case.w_pump_star()))
        for label, value, limit in limits:
            if value > limit * (1.0 + PRESSURE_SEARCH_RTOL):
                failures.append(f"{label} {value:.6g} exceeds {limit:.6g}")
        system = CoolingSystem.for_network(
            case.base_stack(), op.output.network, case.coolant, model="4rm"
        )
        thermal = system.evaluate(evaluation.p_sys, exact=True)
        failures += verify_thermal_result(thermal).violations
        for label, mine, theirs in (
            ("DeltaT", thermal.delta_t, evaluation.delta_t),
            ("T_max", thermal.t_max, evaluation.t_max),
        ):
            if abs(mine - theirs) > RESIM_RTOL * abs(theirs):
                failures.append(
                    f"4RM re-simulation {label} {mine:.9g} != reported {theirs:.9g}"
                )
        op.figures = {
            f"p{problem}.w_pump_mw": evaluation.w_pump * 1e3,
            f"p{problem}.delta_t_k": evaluation.delta_t,
            f"p{problem}.t_max_k": evaluation.t_max,
            f"p{problem}.design_s": op.scaled_seconds,
        }
        return failures


# -- 4RM reference simulations at 101 x 101 ----------------------------------


class Ref4rmWorkload(Workload):
    """Exact 4RM solves of one seed-chosen tree network at a pressure sweep."""

    name = "ref4rm_101"
    op_label = "4RM simulation"
    op_metric = "sim_s"
    CASE = 1
    GRID = 101
    #: [unit: Pa] The fixed sweep; one cycle simulates each pressure once.
    PRESSURES = (5e3, 1e4, 2e4, 4e4)
    #: Columns the seed's SA-style move shifts the uniform plan's branches.
    MOVE_STEP = 8

    def setup(self, seed: int) -> Any:
        case = load_case(self.CASE, grid_size=self.GRID)
        plan = case.tree_plan(direction=0)
        rng = np.random.default_rng(seed)
        plan = plan.with_params(perturb_tree_params(plan.params(), self.MOVE_STEP, rng))
        network = plan.build()
        # Set-up ends with a built simulator; each cycle builds its own (see
        # run), so every sweep starts with an empty factorization cache.
        CoolingSystem.for_network(case.base_stack(), network, case.coolant, model="4rm")
        return case, network

    def batch(self, seed: int) -> list:
        return rotated(self.PRESSURES, seed)

    def run(self, state, args: list) -> List[Op]:
        case, network = state
        # One system per sweep: its factorization cache keeps every factor,
        # as in ``repro evaluate --model 4rm`` and the flow's final
        # verification, and is freed when the sweep ends.
        system = CoolingSystem.for_network(
            case.base_stack(), network, case.coolant, model="4rm"
        )
        return [timed(lambda p=p: system.evaluate(p, exact=True), p) for p in args]

    def check(self, state, op: Op) -> List[str]:
        thermal = op.output
        op.figures = {"delta_t_k": thermal.delta_t, "t_max_k": thermal.t_max}
        return list(verify_thermal_result(thermal).violations)


# -- design service: closed loop, one client ----------------------------------


class ServiceWorkload(Workload):
    """Portfolio jobs through an in-process DesignService over loopback HTTP."""

    name = "service_jobs"
    op_label = "job"
    op_metric = "job_latency_s"
    GRID = 13
    #: Generated-case seeds of the batch; one cycle submits each once.
    CASE_SEEDS = tuple(range(12))
    JOB = {
        "grid": GRID,
        "optimizers": ["multi_fidelity"],
        "rounds": 2,
        "iterations": 4,
        "batch_size": 4,
        "seed": 0,
    }
    READY_TIMEOUT = 30.0

    def setup(self, seed: int) -> Any:
        root = self.scratch / f"store-{time.monotonic_ns()}"
        service = DesignService(root, n_workers=1)
        service.start()
        url = f"http://127.0.0.1:{service.port}"
        deadline = time.monotonic() + self.READY_TIMEOUT
        while True:
            try:
                with urllib.request.urlopen(url + "/readyz", timeout=5) as reply:
                    if reply.status == 200:
                        break
            except OSError:
                if time.monotonic() > deadline:
                    service.stop()
                    raise
            time.sleep(0.005)
        return service, ServiceClient(url), root

    def close(self, state) -> None:
        service, _, root = state
        service.stop()
        shutil.rmtree(root, ignore_errors=True)

    def batch(self, seed: int) -> list:
        return rotated(self.CASE_SEEDS, seed)

    def run(self, state, args: list) -> List[Op]:
        _, client, _ = state
        return [timed(lambda s=case_seed: self._job(client, s), case_seed) for case_seed in args]

    def _job(self, client: ServiceClient, case_seed: int) -> Dict[str, Any]:
        """Submit one job and follow its event stream to the end."""
        t_submit = time.time()
        job_id = client.submit({"case_seed": case_seed, **self.JOB})["job_id"]
        end = {}
        for event in client.follow_events(job_id):
            end = event
        return {
            "job_id": job_id,
            "t_submit": t_submit,
            "t_end": time.time(),
            "stream_end": end.get("reason"),
        }

    def check(self, state, op: Op) -> List[str]:
        _, client, _ = state
        job = op.output
        failures = []
        if job["stream_end"] != "completed":
            failures.append(f"event stream ended {job['stream_end']!r}")
        record = client.status(job["job_id"])
        if record["state"] != "completed":
            return failures + [f"job ended {record['state']}: {record.get('error')}"]
        result = client.result(job["job_id"])
        if not math.isfinite(result["score"]) or not result["feasible"]:
            failures.append(f"best score {result['score']} (feasible {result['feasible']})")
        stamps = {}
        for event in client.events(job["job_id"])["events"]:
            stamps.setdefault(event["type"], event["t_wall"])
        try:
            op.figures = {
                "score": result["score"],
                "admit_s": stamps["job.submitted"] - job["t_submit"],
                "queue_wait_s": stamps["job.claimed"] - stamps["job.submitted"],
                "run_s": stamps["job.completed"] - stamps["job.claimed"],
                "notify_s": job["t_end"] - stamps["job.completed"],
            }
        except KeyError as missing:
            failures.append(f"job event {missing} missing")
        return failures


WORKLOADS = {
    cls.name: cls for cls in (DesignWorkload, ServiceWorkload, Ref4rmWorkload)
}


def build(name: str, scratch: Path, call) -> Workload:
    """The workload called ``name``."""
    return WORKLOADS[name](scratch, call)
