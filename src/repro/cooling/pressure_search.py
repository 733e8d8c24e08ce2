"""Pressure searches over the thermal curves (Section 4.1 / Algorithm 3).

As ``P_sys`` grows, every node temperature decreases monotonically toward an
asymptote, each with its own *turning point* (upstream regions turn earlier).
Consequently ``h(P_sys) = T_max`` is monotonically decreasing while
``f(P_sys) = DeltaT`` is either uni-modal (a minimum exists) or monotonically
decreasing (Fig. 6).  Three searches exploit those shapes:

* :func:`minimize_pressure_for_gradient` -- Algorithm 3: the smallest
  ``P_sys`` with ``f(P_sys) <= DeltaT*``, or the minimizer of ``f`` when no
  feasible pressure exists (which certifies infeasibility);
* :func:`golden_section_minimize` -- the minimum of uni-modal ``f`` on an
  interval (the Problem 2 inner search);
* :func:`min_pressure_for_peak` -- binary search on the monotone ``h`` for
  the smallest ``P_sys`` with ``T_max <= T_max*``.

Every search memoizes probes, so the expensive simulator is called once per
distinct pressure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from .. import profiling
from ..constants import (
    PRESSURE_INIT,
    PRESSURE_INIT_STEP_RATIO,
    PRESSURE_MAX,
    PRESSURE_MIN,
    PRESSURE_SEARCH_RTOL,
    quantize_key,
)
from ..errors import SearchError

#: Consecutive flat right-moves before Algorithm 3 declares a plateau.
_PLATEAU_MOVES = 3  #: [unit: 1]

#: Golden ratio section constant.
_INV_PHI = 0.6180339887498949  #: [unit: 1]


@dataclass
class PressureSearchResult:
    """Outcome of a pressure search.

    Attributes:
        p_sys: The returned pressure drop, Pa.
        value: Objective value at ``p_sys`` (``f`` or ``h``).
        feasible: Whether the constraint is met at ``p_sys``.
        at_minimum: True when the search returned the curve's minimizer
            because no pressure satisfies the constraint.
        evaluations: Number of distinct simulator probes spent.
    """

    p_sys: float
    value: float
    feasible: bool
    at_minimum: bool
    evaluations: int


class _Memo:
    """Counting memoizer around the probe function.

    Pressures are quantized (1e-6 Pa) before keying, matching the result
    cache of :class:`~repro.cooling.system.CoolingSystem`: two probes that
    differ by floating-point noise are one simulation, not two.
    """

    def __init__(self, fn: Callable[[float], float]):
        self._fn = fn
        self._cache: Dict[float, float] = {}

    def __call__(self, p: float) -> float:
        key = quantize_key(p)
        if key not in self._cache:
            profiling.increment("search.probes")
            self._cache[key] = float(self._fn(key))
        return self._cache[key]

    @property
    def evaluations(self) -> int:
        return len(self._cache)

    def items(self):
        """All (pressure, value) probes made so far."""
        return self._cache.items()


def minimize_pressure_for_gradient(
    f: Callable[[float], float],
    target: float,
    p_init: float = PRESSURE_INIT,
    r_init: float = PRESSURE_INIT_STEP_RATIO,
    rtol: float = PRESSURE_SEARCH_RTOL,
    p_min: float = PRESSURE_MIN,
    p_max: float = PRESSURE_MAX,
    max_evaluations: int = 200,
) -> PressureSearchResult:
    """Algorithm 3: minimize ``P_sys`` subject to ``f(P_sys) <= target``.

    Moves three probing points to find either the smaller crossing of
    ``f(P_sys) = target`` or, when the constraint is unachievable, the
    pressure minimizing ``f`` (whose value then certifies infeasibility).

    Args:
        f: The gradient curve ``DeltaT(P_sys)``; uni-modal or monotonically
            decreasing per Section 4.1.
        target: The gradient constraint ``DeltaT*``.  [unit: K]
        p_init: First probed pressure (``P_init`` in the paper).  [unit: Pa]
        r_init: Initial step ratio (``r_init``).  [unit: 1]
        rtol: Relative convergence tolerance on pressures.  [unit: 1]
        p_min: Lower physical pressure bound.  [unit: Pa]
        p_max: Upper physical pressure bound.  [unit: Pa]
        max_evaluations: Probe budget; exceeding it raises
            :class:`~repro.errors.SearchError`.
    """
    probe = _Memo(f)

    def check_budget() -> None:
        if probe.evaluations > max_evaluations:
            raise SearchError(
                f"Algorithm 3 exceeded {max_evaluations} probe evaluations"
            )

    # Lines 1-4: place P0 on the high-gradient left side with f decreasing.
    p0 = float(p_init)
    while True:
        while probe(p0) < target:
            check_budget()
            p0 /= 2.0
            if p0 < p_min:
                # Feasible all the way down: the smallest physical pressure
                # already satisfies the constraint.
                return PressureSearchResult(
                    p_sys=p_min,
                    value=probe(p_min),
                    feasible=probe(p_min) <= target,
                    at_minimum=False,
                    evaluations=probe.evaluations,
                )
        step = p0 * r_init
        p1 = p0 + step
        check_budget()
        if probe(p0) < probe(p1):
            # Rising already: the minimum sits at or left of P0; back off.
            p0 /= 2.0
            if p0 < p_min:
                return PressureSearchResult(
                    p_sys=p_min,
                    value=probe(p_min),
                    feasible=probe(p_min) <= target,
                    at_minimum=True,
                    evaluations=probe.evaluations,
                )
            continue
        break

    # Lines 5-11: expand right looking for f <= target, shrinking onto the
    # minimum whenever the curve turns upward.
    flat_moves = 0
    while probe(p1) > target:
        check_budget()
        step *= 2.0
        p2 = p1 + step
        if p2 > p_max:
            return PressureSearchResult(
                p_sys=p1,
                value=probe(p1),
                feasible=False,
                at_minimum=False,
                evaluations=probe.evaluations,
            )
        while probe(p1) < probe(p2):
            check_budget()
            if (
                abs(1.0 - p0 / p1) < rtol
                and abs(1.0 - p2 / p1) < rtol
            ):
                value = probe(p1)
                return PressureSearchResult(
                    p_sys=p1,
                    value=value,
                    feasible=value <= target,
                    at_minimum=True,
                    evaluations=probe.evaluations,
                )
            p2 = p1
            p1 = 0.5 * (p0 + p2)
            step = p2 - p1
        rel_change = abs(1.0 - probe(p0) / probe(p1)) if probe(p1) else 0.0
        p0, p1 = p1, p2
        if rel_change < rtol:
            flat_moves += 1
            if flat_moves >= _PLATEAU_MOVES:
                value = probe(p1)
                return PressureSearchResult(
                    p_sys=p1,
                    value=value,
                    feasible=value <= target,
                    at_minimum=True,
                    evaluations=probe.evaluations,
                )
        else:
            flat_moves = 0

    # Lines 12-13: bisect to the crossing.  The paper brackets with
    # [P0, P1], but the shrink-right phase can move P0 past the *left*
    # crossing onto feasible ground (a gap in the pseudocode, found by
    # property-based testing); bracketing from all memoized probes -- the
    # smallest feasible pressure and the largest infeasible pressure below
    # it -- restores minimality at no extra simulation cost.
    feasible_probes = [p for p, v in probe.items() if v <= target]
    hi = min(feasible_probes)
    infeasible_below = [
        p for p, v in probe.items() if v > target and p < hi
    ]
    lo = max(infeasible_below) if infeasible_below else max(hi / 2.0, p_min)
    while abs(1.0 - lo / hi) > rtol:
        check_budget()
        mid = 0.5 * (lo + hi)
        if probe(mid) > target:
            lo = mid
        else:
            hi = mid
    return PressureSearchResult(
        p_sys=hi,
        value=probe(hi),
        feasible=True,
        at_minimum=False,
        evaluations=probe.evaluations,
    )


def golden_section_minimize(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    rtol: float = PRESSURE_SEARCH_RTOL,
    max_evaluations: int = 200,
) -> PressureSearchResult:
    """Golden-section search for the minimum of uni-modal ``f`` on [lo, hi].

    Used by the Problem 2 network evaluation when the pressure cap lands on
    the rising side of the gradient curve (Section 5).

    Args:
        f: The curve to minimize (gradient vs. pressure).
        lo: Lower bracket pressure.  [unit: Pa]
        hi: Upper bracket pressure.  [unit: Pa]
        rtol: Relative convergence tolerance on pressures.  [unit: 1]
        max_evaluations: Probe budget.
    """
    if not 0 < lo < hi:
        raise SearchError(f"need 0 < lo < hi, got [{lo}, {hi}]")
    probe = _Memo(f)
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    while abs(1.0 - a / b) > rtol:
        if probe.evaluations > max_evaluations:
            raise SearchError(
                f"golden-section search exceeded {max_evaluations} evaluations"
            )
        if probe(c) < probe(d):
            b, d = d, c
            c = b - _INV_PHI * (b - a)
        else:
            a, c = c, d
            d = a + _INV_PHI * (b - a)
    best = 0.5 * (a + b)
    return PressureSearchResult(
        p_sys=best,
        value=probe(best),
        feasible=True,
        at_minimum=True,
        evaluations=probe.evaluations,
    )


def min_pressure_for_peak(
    h: Callable[[float], float],
    t_max_star: float,
    p_lo: float,
    rtol: float = PRESSURE_SEARCH_RTOL,
    p_max: float = PRESSURE_MAX,
    max_evaluations: int = 200,
) -> PressureSearchResult:
    """Binary search on monotone ``h(P_sys) = T_max`` (Algorithm 2, line 4).

    Finds the smallest pressure at or above ``p_lo`` whose peak temperature
    satisfies ``T_max <= T_max*``.  Because ``h`` decreases monotonically and
    saturates, infeasibility is declared when even ``p_max`` stays hot.

    Args:
        h: The peak-temperature curve ``T_max(P_sys)``.
        t_max_star: Peak-temperature constraint ``T_max*``.  [unit: K]
        p_lo: Starting (lower-bound) pressure.  [unit: Pa]
        rtol: Relative convergence tolerance on pressures.  [unit: 1]
        p_max: Upper physical pressure bound.  [unit: Pa]
        max_evaluations: Probe budget.
    """
    probe = _Memo(h)
    if probe(p_lo) <= t_max_star:
        return PressureSearchResult(
            p_sys=p_lo,
            value=probe(p_lo),
            feasible=True,
            at_minimum=False,
            evaluations=probe.evaluations,
        )
    lo = p_lo
    # Doubling bracket, clamped to p_max: a crossing between the last
    # doubling and p_max is bisected like any other, not rounded up to p_max.
    hi = min(max(2.0 * p_lo, 2.0 * PRESSURE_MIN), p_max)
    while probe(hi) > t_max_star:
        if hi >= p_max:
            return PressureSearchResult(
                p_sys=hi,
                value=probe(hi),
                feasible=False,
                at_minimum=False,
                evaluations=probe.evaluations,
            )
        if probe.evaluations > max_evaluations:
            raise SearchError(
                f"peak-temperature search exceeded {max_evaluations} evaluations"
            )
        lo = hi
        hi = min(2.0 * hi, p_max)
    while abs(1.0 - lo / hi) > rtol:
        if probe.evaluations > max_evaluations:
            raise SearchError(
                f"peak-temperature search exceeded {max_evaluations} evaluations"
            )
        mid = 0.5 * (lo + hi)
        if probe(mid) > t_max_star:
            lo = mid
        else:
            hi = mid
    return PressureSearchResult(
        p_sys=hi,
        value=probe(hi),
        feasible=True,
        at_minimum=False,
        evaluations=probe.evaluations,
    )
