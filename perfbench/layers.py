"""Per-layer tracing from outside the program.

The traced run wraps the public functions of each ``repro`` module at the
name every caller looks up -- a module-level function is rebound in every
``repro`` module that imported it, a method is replaced on its class -- so
the program runs unmodified apart from the wrappers.  Each wrapped call
becomes one span with a span id, a parent link, its thread id and the
run id shared by every span of the run.  Parents are tracked per thread,
so spans of the design service's worker thread nest under that thread's
own calls and never under the client's.

Spans are kept in memory (in a :class:`repro.telemetry.spans.Tracer`
buffer) and written once at the end with the program's own Chrome trace
exporter, so the file opens in Perfetto next to traces the program writes
itself.  Self time -- a span's duration minus the time its children on the
same thread cover -- is accumulated per span name as the spans close.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time
import weakref
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

#: Span name -> (owner, attribute).  ``owner`` is a class path for methods
#: (patched on the class) or the defining module for functions (rebound in
#: every ``repro`` module that holds the same function object).
WRAPPED = {
    "networks.build": ("repro.networks.tree:TreePlan", "build"),
    "flow.solve": ("repro.flow.network:FlowField", "__init__"),
    "thermal.rc2.assemble": ("repro.thermal.rc2:RC2Simulator", "__init__"),
    "thermal.rc4.assemble": ("repro.thermal.rc4:RC4Simulator", "__init__"),
    "thermal.rc2.solve": ("repro.thermal.rc2:RC2Simulator", "solve"),
    "thermal.rc4.solve": ("repro.thermal.rc4:RC4Simulator", "solve"),
    "linalg.factorize": ("repro.linalg.registry", "factorize"),
    "cooling.system": ("repro.cooling.system:CoolingSystem", "evaluate"),
    "cooling.search.problem1": ("repro.cooling.evaluation", "evaluate_problem1"),
    "cooling.search.problem2": ("repro.cooling.evaluation", "evaluate_problem2"),
    "optimize.portfolio": ("repro.optimize.portfolio", "run_portfolio"),
    "checkpoint.save": ("repro.checkpoint.format", "write_checkpoint"),
    "server.submit": ("repro.server.client:ServiceClient", "submit"),
}

#: Spans of the triangular solves of a returned factorization.
SOLVE_SPAN = "linalg.solve"


def _under(key: str, name: str) -> bool:
    return key == name or key.startswith(name + ".")


def _resolve(owner: str) -> Any:
    module_name, _, class_name = owner.partition(":")
    module = sys.modules[module_name]
    return getattr(module, class_name) if class_name else module


class LayerTracer:
    """Installs the wrappers and accumulates spans while ``active``.

    Args:
        tracer: An enabled :class:`repro.telemetry.spans.Tracer` that keeps
            the span dicts for the export at the end of the run.
        run_id: Identifier shared by every span of this run.
    """

    def __init__(self, tracer: Any, run_id: str):
        self.tracer = tracer
        self.run_id = run_id
        self.active = False
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.evals_by_model: Dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- spans -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` as span ``name`` (a plain call while inactive)."""
        if not self.active:
            return fn(*args, **kwargs)
        stack = self._stack()
        span_id = next(self._ids)
        parent_id = stack[-1][1] if stack else 0
        frame = [0, span_id]  # [child ns, span id]
        stack.append(frame)
        start = time.monotonic_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.monotonic_ns()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][0] += duration
            with self._lock:
                self.calls[name] += 1
                self.self_ns[name] += duration - frame[0]
            self.tracer.record(
                {
                    "name": name,
                    "ph": "X",
                    "ts": start,
                    "dur": duration,
                    "pid": os.getpid(),
                    "tid": threading.get_ident(),
                    "lane": None,
                    "args": {
                        "span_id": span_id,
                        "parent_id": parent_id,
                        "run_id": self.run_id,
                    },
                }
            )

    # -- wrappers --------------------------------------------------------

    def _wrap(self, name: str, original: Callable) -> Callable:
        if name == "linalg.factorize":

            @functools.wraps(original)
            def factorize(*args: Any, **kwargs: Any) -> Any:
                factor = self.call(name, original, *args, **kwargs)
                self._wrap_solves(factor)
                return factor

            return factorize
        if name.startswith("cooling.search."):

            @functools.wraps(original)
            def search(system: Any, *args: Any, **kwargs: Any) -> Any:
                if self.active:
                    with self._lock:
                        self.evals_by_model[system.model] += 1
                return self.call(name, original, system, *args, **kwargs)

            return search

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, original, *args, **kwargs)

        return wrapper

    def _wrap_solves(self, factor: Any) -> None:
        """Time the returned factorization's ``solve``/``solve_many``.

        The wrappers hold the factorization weakly.  A bound method would
        make a reference cycle that only the garbage collector frees, so
        every factorization's LU data would outlive its last use (a traced
        ``service_jobs`` cycle grew past 1.3 GB, against about 0.2 GB
        untraced).
        """
        ref = weakref.ref(factor)
        for method in ("solve", "solve_many"):
            unbound = getattr(type(factor), method)

            def timed(rhs: Any, _unbound: Callable = unbound) -> Any:
                return self.call(SOLVE_SPAN, _unbound, ref(), rhs)

            setattr(factor, method, timed)

    def install(self) -> None:
        """Patch every wrapped name; :meth:`uninstall` undoes it."""
        modules = [
            module
            for key, module in list(sys.modules.items())
            if (key == "repro" or key.startswith("repro.")) and module
        ]
        for name, (owner, attr) in WRAPPED.items():
            target = _resolve(owner)
            original = target.__dict__[attr]
            wrapper = self._wrap(name, original)
            if isinstance(target, type):
                self._restore.append((target, attr, original))
                setattr(target, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        """Undo every patch :meth:`install` made."""
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    # -- results ---------------------------------------------------------

    def seconds(self, name: str) -> float:
        """Self time of the spans called ``name`` or ``name.<anything>``."""
        return sum(v for k, v in self.self_ns.items() if _under(k, name)) / 1e9

    def count(self, name: str) -> int:
        """Calls of the spans :meth:`seconds` sums for ``name``."""
        return sum(v for k, v in self.calls.items() if _under(k, name))

    def total_self_seconds(self) -> float:
        """Self time summed over every span: the attributed wall time."""
        return sum(self.self_ns.values()) / 1e9

