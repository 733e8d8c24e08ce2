"""A cooling system: one network simulated across pressures, with caching.

Both optimization problems repeatedly probe the same network at different
system pressure drops (Algorithms 2/3 and the golden-section search).
:class:`CoolingSystem` builds the thermal simulator once per network and
memoizes :class:`~repro.thermal.result.ThermalResult` objects per pressure,
so the searches only pay for the linear solves they genuinely need.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set, Union

from .. import profiling
from ..constants import (
    EDGE_CONDUCTANCE_FACTOR,
    INLET_TEMPERATURE,
    quantize_key,
)
from ..errors import ThermalError
from ..geometry.grid import ChannelGrid
from ..geometry.stack import Stack
from ..materials import Coolant
from ..thermal.common import ADVECTION_SCHEME_DEFAULT
from ..thermal.rc2 import RC2Simulator
from ..thermal.rc4 import RC4Simulator
from ..thermal.result import ThermalResult


class CoolingSystem:
    """Evaluation wrapper around one stack + cooling network.

    Args:
        stack: Stack with the candidate network(s) already installed (use
            ``stack.with_channel_grids`` to swap networks).
        coolant: Working fluid.
        model: ``"2rm"`` (fast, inner loops) or ``"4rm"`` (reference).
        tile_size: 2RM thermal-cell size in basic cells (ignored for 4RM).
        edge_factor / inlet_temperature / advection_scheme: Forwarded to the
            simulator.
    """

    #: Fidelity tags by model: the multi-fidelity portfolio searches with
    #: ``"low"`` (2RM surrogate) scores and verifies elites at ``"high"``.
    FIDELITY_BY_MODEL = {"2rm": "low", "4rm": "high"}

    def __init__(
        self,
        stack: Stack,
        coolant: Coolant,
        model: str = "2rm",
        tile_size: int = 4,
        edge_factor: float = EDGE_CONDUCTANCE_FACTOR,
        inlet_temperature: float = INLET_TEMPERATURE,
        advection_scheme: str = ADVECTION_SCHEME_DEFAULT,
    ):
        model = model.lower()
        if model == "2rm":
            self.simulator: Union[RC2Simulator, RC4Simulator] = RC2Simulator(
                stack,
                coolant,
                tile_size=tile_size,
                edge_factor=edge_factor,
                inlet_temperature=inlet_temperature,
                advection_scheme=advection_scheme,
            )
        elif model == "4rm":
            self.simulator = RC4Simulator(
                stack,
                coolant,
                edge_factor=edge_factor,
                inlet_temperature=inlet_temperature,
                advection_scheme=advection_scheme,
            )
        else:
            raise ThermalError(f"unknown model {model!r}; use '2rm' or '4rm'")
        self.stack = stack
        self.coolant = coolant
        self.model = model
        self._cache: Dict[float, ThermalResult] = {}
        self._exact_keys: Set[float] = set()
        self.n_simulations = 0

    # ------------------------------------------------------------------

    @classmethod
    def for_network(
        cls,
        base_stack: Stack,
        network: "ChannelGrid | Sequence[ChannelGrid]",
        coolant: Coolant,
        **kwargs,
    ) -> "CoolingSystem":
        """Install ``network`` into every channel layer and wrap the result.

        A single grid is replicated (copied) across all channel layers --
        the matched-ports convention; a sequence supplies one grid per layer.
        """
        n_channels = len(base_stack.channel_layer_indices())
        if isinstance(network, ChannelGrid):
            grids = [network.copy() for _ in range(n_channels)]
        else:
            grids = list(network)
        return cls(base_stack.with_channel_grids(grids), coolant, **kwargs)

    # ------------------------------------------------------------------

    @property
    def fidelity(self) -> str:
        """``"low"`` (2RM surrogate) or ``"high"`` (4RM reference)."""
        return self.FIDELITY_BY_MODEL[self.model]

    @property
    def r_sys(self) -> float:
        """Total system fluid resistance (channel layers in parallel)."""
        q_unit = sum(f.q_sys(1.0) for f in self.simulator.flow_fields)
        return 1.0 / q_unit

    def w_pump(self, p_sys: float) -> float:
        """Pumping power at ``p_sys`` (Eq. 10); no simulation needed."""
        return p_sys * p_sys / self.r_sys

    def p_sys_for_power(self, w_pump: float) -> float:
        """The pressure drop that spends exactly ``w_pump``."""
        return (w_pump * self.r_sys) ** 0.5

    def evaluate(self, p_sys: float, exact: bool = False) -> ThermalResult:
        """Simulate (or fetch the cached result) at one pressure drop.

        Pressures are quantized to :data:`~repro.constants.
        PRESSURE_KEY_DECIMALS` decimal places (1e-6 Pa) before keying and
        solving, so an epsilon-perturbed re-probe of a pressure the searches
        already visited is a cache hit instead of a fresh simulation.

        ``exact=True`` guarantees the returned result came from an exact
        factorization: a cached entry produced by the incremental solver
        path is recomputed exactly (and replaces the approximate entry), so
        final scores never depend on which path answered a search probe.
        The recompute does not count as a new simulation -- it revisits a
        pressure already paid for.
        """
        key = quantize_key(p_sys)
        cached = self._cache.get(key)
        if cached is not None and (not exact or key in self._exact_keys):
            profiling.increment("cooling.cache_hits")
            return cached
        result = self.simulator.solve(key, exact=exact)
        if cached is None:
            self.n_simulations += 1
            profiling.increment("cooling.simulations")
        else:
            profiling.increment("cooling.exact_recomputes")
        self._cache[key] = result
        if exact:
            self._exact_keys.add(key)
        return result

    def delta_t(self, p_sys: float) -> float:
        """``f(P_sys)``: the thermal gradient at one pressure drop."""
        return self.evaluate(p_sys).delta_t

    def t_max(self, p_sys: float) -> float:
        """``h(P_sys)``: the peak temperature at one pressure drop."""
        return self.evaluate(p_sys).t_max

    def clear_cache(self) -> None:
        """Drop memoized thermal results."""
        self._cache.clear()
        self._exact_keys.clear()
