"""Fault plans: which faults fire where, when, and how often.

A :class:`FaultPlan` is a validated, picklable schedule of
:class:`FaultSpec` entries.  Determinism is the design center: every spec
owns a ``random.Random`` stream seeded from ``(plan seed, spec index, site,
kind)``, so a plan replays the same fire/skip decisions on every run, and a
worker process that unpickles the plan re-arms the identical schedule.

This module is a sanctioned error boundary (``repro-lint-scope:
error-boundary``): the ``raise-crash`` kind deliberately raises a *builtin*
``RuntimeError`` to simulate an untyped programming error, which is exactly
what the R4 lint rule forbids everywhere else -- the chaos suite needs it to
prove :func:`~repro.errors.crash_boundary` translates such crashes into
:class:`~repro.errors.CandidateCrashError` instead of swallowing them.
"""

from __future__ import annotations

import os
import random
import time
import zlib
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, TypeVar, cast

import numpy as np

from .. import profiling
from ..errors import FaultConfigError, InjectedFaultError

_T = TypeVar("_T")

# ---------------------------------------------------------------------------
# Sites
# ---------------------------------------------------------------------------

#: The assembled sparse pressure system, just before factorization.
SITE_FLOW_MATRIX = "flow.unit_solve.matrix"
#: The unit-pressure solution vector, just after the sparse solve.
SITE_FLOW_PRESSURES = "flow.unit_solve.pressures"
#: The 2RM temperature vector returned by the steady solve.
SITE_THERMAL_RC2 = "thermal.rc2.solve"
#: The 4RM temperature vector returned by the steady solve.
SITE_THERMAL_RC4 = "thermal.rc4.solve"
#: Entry of the Problem-1 network evaluation (Algorithm 2).
SITE_COOLING_PROBLEM1 = "cooling.evaluate_problem1"
#: Entry of the Problem-2 network evaluation.
SITE_COOLING_PROBLEM2 = "cooling.evaluate_problem2"
#: Each per-die power map parsed by ``iccad2015.io.read_floorplan``.
SITE_IO_POWER_MAP = "iccad2015.read_floorplan"
#: Inside a pool worker, before it scores a candidate.
SITE_PARALLEL_WORKER = "parallel.worker"
#: In the parent, before a batch is dispatched to the pool.
SITE_PARALLEL_DISPATCH = "parallel.dispatch"
#: The solution of a Woodbury pressure-shift solve, before the finiteness
#: guard (``repro.thermal.common``).
SITE_LINALG_UPDATE = "linalg.update"
#: The serialized job-record bytes, just before the atomic write
#: (``repro.server.records``); the ``torn-write`` kind truncates them so
#: the reader's CRC validation path can be proven.
SITE_SERVER_RECORD = "server.jobstore.record"
#: A worker's lease-renewal heartbeat (``repro.server.leases``).
SITE_SERVER_LEASE_RENEW = "server.lease.renew"
#: Inside a queue worker, between claiming a job and finishing it
#: (``repro.server.worker``); ``worker-death`` here is a SIGKILL mid-job.
SITE_SERVER_WORKER = "server.worker.job"

#: Every injection site, mapped to whether its hook carries a value
#: (:func:`repro.faults.corrupt`) or is action-only
#: (:func:`repro.faults.inject`).
KNOWN_SITES: Mapping[str, bool] = MappingProxyType(
    {
        SITE_FLOW_MATRIX: True,
        SITE_FLOW_PRESSURES: True,
        SITE_THERMAL_RC2: True,
        SITE_THERMAL_RC4: True,
        SITE_COOLING_PROBLEM1: False,
        SITE_COOLING_PROBLEM2: False,
        SITE_IO_POWER_MAP: True,
        SITE_PARALLEL_WORKER: False,
        SITE_PARALLEL_DISPATCH: False,
        SITE_LINALG_UPDATE: True,
        SITE_SERVER_RECORD: True,
        SITE_SERVER_LEASE_RENEW: False,
        SITE_SERVER_WORKER: False,
    }
)

# ---------------------------------------------------------------------------
# Kinds
# ---------------------------------------------------------------------------

#: Zero the sparse system: ``splu`` sees an exactly singular matrix.
KIND_SINGULAR = "singular-system"
#: Cut cell 0 out of the flow graph (zero its row/column): disconnected.
KIND_DISCONNECT = "disconnect"
#: Overwrite one array element with NaN.
KIND_NAN = "nan"
#: Overwrite one array element with +inf.
KIND_INF = "inf"
#: Overwrite one array element with a negative value.
KIND_NEGATIVE = "negative"
#: Raise :class:`~repro.errors.InjectedFaultError` (a typed library error).
KIND_RAISE_INFEASIBLE = "raise-infeasible"
#: Raise a builtin ``RuntimeError`` (an untyped programming error).
KIND_RAISE_CRASH = "raise-crash"
#: Sleep briefly (default 0.05 s) -- a slow worker, not a hung one.
KIND_SLOW = "slow"
#: Sleep long (default 30 s) -- a hang, recoverable only via timeouts.
KIND_HANG = "hang"
#: ``os._exit`` the current process -- a worker killed mid-candidate.
KIND_WORKER_DEATH = "worker-death"
#: Truncate the serialized bytes mid-record -- a torn artifact write.
KIND_TORN_WRITE = "torn-write"

#: Kinds that act (raise, sleep, exit) rather than corrupt a value.
ACTION_KINDS = frozenset(
    {
        KIND_RAISE_INFEASIBLE,
        KIND_RAISE_CRASH,
        KIND_SLOW,
        KIND_HANG,
        KIND_WORKER_DEATH,
    }
)

_MATRIX_SITES = frozenset({SITE_FLOW_MATRIX})
_ARRAY_SITES = frozenset(
    {
        SITE_FLOW_PRESSURES,
        SITE_THERMAL_RC2,
        SITE_THERMAL_RC4,
        SITE_IO_POWER_MAP,
        SITE_LINALG_UPDATE,
    }
)
_ALL_SITES = frozenset(KNOWN_SITES)

#: Sites each kind may attach to.
KNOWN_KINDS: Mapping[str, "frozenset[str]"] = MappingProxyType(
    {
        KIND_SINGULAR: _MATRIX_SITES,
        KIND_DISCONNECT: _MATRIX_SITES,
        KIND_NAN: _ARRAY_SITES,
        KIND_INF: _ARRAY_SITES,
        KIND_NEGATIVE: _ARRAY_SITES,
        KIND_RAISE_INFEASIBLE: _ALL_SITES,
        KIND_RAISE_CRASH: _ALL_SITES,
        KIND_SLOW: _ALL_SITES,
        KIND_HANG: _ALL_SITES,
        KIND_WORKER_DEATH: frozenset(
            {SITE_PARALLEL_WORKER, SITE_SERVER_WORKER}
        ),
        KIND_TORN_WRITE: frozenset({SITE_SERVER_RECORD}),
    }
)

_SLOW_DELAY = 0.05  #: [unit: s]
_HANG_DELAY = 30.0  #: [unit: s]

#: Exit status of a worker killed by :data:`KIND_WORKER_DEATH`.
_DEATH_EXIT_CODE = 17  #: [unit: 1]


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    Attributes:
        site: Injection site, one of :data:`KNOWN_SITES`.
        kind: Fault kind, one of :data:`KNOWN_KINDS` (must be compatible
            with the site).
        rate: Probability a due hit actually fires, in [0, 1].
        max_fires: Cap on total fires (per armed plan copy); ``None`` means
            unlimited.
        after: Number of initial site hits to let pass before the fault can
            fire (0 fires from the first hit).
        delay: Sleep length in seconds for ``slow``/``hang``; ``None`` picks
            the kind's default.
    """

    site: str
    kind: str
    rate: float = 1.0
    max_fires: Optional[int] = None
    after: int = 0
    delay: Optional[float] = None


class FaultPlan:
    """A validated, deterministic, picklable schedule of faults.

    Args:
        specs: The :class:`FaultSpec` entries; validated eagerly so a typo
            fails at construction, not silently never-fires.
        seed: Master seed; each spec derives its own independent stream.

    Pickling ships only ``(specs, seed)`` and re-arms counters and RNG
    streams on unpickle, so a respawned worker replays the same schedule
    from the top.
    """

    def __init__(self, specs: Sequence[FaultSpec], seed: int = 0):
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self.seed = int(seed)
        self._validate()
        self._arm()

    # -- construction --------------------------------------------------

    def _validate(self) -> None:
        if not self.specs:
            raise FaultConfigError("fault plan has no specs")
        for i, spec in enumerate(self.specs):
            label = f"spec {i} ({spec.site!r}, {spec.kind!r})"
            if spec.site not in KNOWN_SITES:
                raise FaultConfigError(
                    f"{label}: unknown site; known: {sorted(KNOWN_SITES)}"
                )
            allowed = KNOWN_KINDS.get(spec.kind)
            if allowed is None:
                raise FaultConfigError(
                    f"{label}: unknown kind; known: {sorted(KNOWN_KINDS)}"
                )
            if spec.site not in allowed:
                raise FaultConfigError(
                    f"{label}: kind {spec.kind!r} cannot attach to site "
                    f"{spec.site!r}; allowed sites: {sorted(allowed)}"
                )
            if not 0.0 <= spec.rate <= 1.0:
                raise FaultConfigError(
                    f"{label}: rate must be in [0, 1], got {spec.rate}"
                )
            if spec.max_fires is not None and spec.max_fires < 1:
                raise FaultConfigError(
                    f"{label}: max_fires must be >= 1 or None, "
                    f"got {spec.max_fires}"
                )
            if spec.after < 0:
                raise FaultConfigError(
                    f"{label}: after must be >= 0, got {spec.after}"
                )
            if spec.delay is not None and spec.delay < 0:
                raise FaultConfigError(
                    f"{label}: delay must be >= 0, got {spec.delay}"
                )

    def _arm(self) -> None:
        """(Re)set hit/fire counters and per-spec RNG streams."""
        self._hits = [0] * len(self.specs)
        self._fired = [0] * len(self.specs)
        self._rngs = [
            random.Random(
                zlib.crc32(f"{self.seed}:{i}:{s.site}:{s.kind}".encode())
            )
            for i, s in enumerate(self.specs)
        ]

    # -- pickling ------------------------------------------------------

    def __getstate__(self) -> Dict[str, Any]:
        return {"specs": self.specs, "seed": self.seed}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__init__(state["specs"], state["seed"])  # type: ignore[misc]

    # -- bookkeeping ---------------------------------------------------

    def hits(self, site: Optional[str] = None) -> int:
        """Total site hits seen (optionally restricted to one site)."""
        return sum(
            h
            for h, s in zip(self._hits, self.specs)
            if site is None or s.site == site
        )

    def fired(self, site: Optional[str] = None) -> int:
        """Total faults fired so far (optionally restricted to one site)."""
        return sum(
            f
            for f, s in zip(self._fired, self.specs)
            if site is None or s.site == site
        )

    def _due(self, index: int) -> bool:
        """Account one hit against spec ``index``; True when it fires."""
        spec = self.specs[index]
        self._hits[index] += 1
        if spec.max_fires is not None and self._fired[index] >= spec.max_fires:
            return False
        if self._hits[index] <= spec.after:
            return False
        if spec.rate < 1.0 and self._rngs[index].random() >= spec.rate:
            return False
        self._fired[index] += 1
        profiling.increment("faults.injected")
        profiling.increment(f"faults.injected.{spec.kind}")
        return True

    # -- execution -----------------------------------------------------

    def fire(self, site: str) -> None:
        """Run every due action fault at an action-only site."""
        for i, spec in enumerate(self.specs):
            if spec.site == site and self._due(i):
                self._act(spec)

    def transform(self, site: str, value: _T) -> _T:
        """Run every due fault at a value-carrying site.

        Action kinds may raise or sleep; corruption kinds return a damaged
        *copy* of ``value`` (the caller's object is never mutated in place,
        so solver caches cannot be poisoned behind the hook's back).
        """
        for i, spec in enumerate(self.specs):
            if spec.site != site or not self._due(i):
                continue
            if spec.kind in ACTION_KINDS:
                self._act(spec)
            else:
                value = cast(_T, _corrupt_value(spec.kind, value))
        return value

    def _act(self, spec: FaultSpec) -> None:
        if spec.kind == KIND_RAISE_INFEASIBLE:
            raise InjectedFaultError(
                f"injected infeasibility at {spec.site}"
            )
        if spec.kind == KIND_RAISE_CRASH:
            # Deliberately untyped: simulates a genuine programming error
            # that crash_boundary must translate, never swallow.
            raise RuntimeError(f"injected crash at {spec.site}")
        if spec.kind in (KIND_SLOW, KIND_HANG):
            default = _SLOW_DELAY if spec.kind == KIND_SLOW else _HANG_DELAY
            time.sleep(default if spec.delay is None else spec.delay)
            return
        if spec.kind == KIND_WORKER_DEATH:
            os._exit(_DEATH_EXIT_CODE)


def _corrupt_value(kind: str, value: Any) -> Any:
    """Return a damaged copy of ``value`` according to ``kind``."""
    if kind == KIND_TORN_WRITE:
        # Cut serialized bytes mid-record: the write itself stays atomic,
        # but the artifact that lands on disk is truncated, which is what a
        # reader sees after a torn in-place write or silent fs corruption.
        return bytes(value)[: max(len(value) // 2, 1)]
    if kind == KIND_SINGULAR:
        return value * 0.0
    if kind == KIND_DISCONNECT:
        damaged = value.tolil(copy=True)
        damaged[0, :] = 0.0
        damaged[:, 0] = 0.0
        return damaged.tocsc()
    arr = np.array(value, dtype=float, copy=True)
    if kind == KIND_NAN:
        arr.flat[0] = np.nan
    elif kind == KIND_INF:
        arr.flat[0] = np.inf
    elif kind == KIND_NEGATIVE:
        arr.flat[0] = -abs(float(arr.flat[0])) - 1.0
    return arr
