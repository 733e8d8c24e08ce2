"""Thermal simulation results and the paper's summary metrics.

The three quantities the problem formulations optimize or constrain
(Section 3):

* peak temperature ``T_max`` -- the maximum thermal-node temperature (it can
  only occur in a source layer, by energy conservation);
* thermal gradient ``DeltaT = max_i(DeltaT_i)`` where ``DeltaT_i`` is the
  range of node temperatures in the ``i``-th source layer;
* pumping power ``W_pump = P_sys Q_sys``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..errors import ThermalError


@dataclass
class ThermalResult:
    """Steady-state temperatures of one simulation.

    Attributes:
        p_sys: System pressure drop, Pa.
        q_sys: System flow rate summed over all channel layers, m^3/s.
        w_pump: Pumping power ``P_sys * Q_sys``, W.
        layer_fields: One cell-resolution (nrows, ncols) temperature array
            per stack layer, bottom to top.  For 2RM results these are tile
            temperatures broadcast to cell resolution.
        layer_names: Stack layer names, aligned with ``layer_fields``.
        source_layer_indices: Indices into ``layer_fields`` of source layers.
        inlet_temperature: Coolant inlet temperature, K.
        liquid_fields: Coolant temperature per channel layer (NaN at solid
            cells), keyed by layer index.
        total_power: Heat injected by all source layers, W.
        exact: Whether the temperatures came from an exact factorization
            (``False`` for an incremental pressure-shift answer).
    """

    p_sys: float
    q_sys: float
    w_pump: float
    layer_fields: List[np.ndarray]
    layer_names: List[str]
    source_layer_indices: List[int]
    inlet_temperature: float
    total_power: float
    liquid_fields: Dict[int, np.ndarray] = field(default_factory=dict)
    #: Coolant enthalpy rise rate (W); equals total_power at a converged
    #: steady solution of an adiabatic stack.
    coolant_heat_removed: Optional[float] = None
    exact: bool = True

    # ------------------------------------------------------------------

    @property
    def n_layers(self) -> int:
        """Number of stack layers in the result."""
        return len(self.layer_fields)

    def layer_field(self, layer: "int | str") -> np.ndarray:
        """Temperature field of one layer, by index or name."""
        if isinstance(layer, str):
            try:
                layer = self.layer_names.index(layer)
            except ValueError:
                raise ThermalError(
                    f"no layer named {layer!r}; have {self.layer_names}"
                ) from None
        return self.layer_fields[layer]

    def source_fields(self) -> List[np.ndarray]:
        """Temperature fields of the source layers, bottom to top."""
        return [self.layer_fields[i] for i in self.source_layer_indices]

    # ------------------------------------------------------------------
    # Paper metrics
    # ------------------------------------------------------------------

    @property
    def t_max(self) -> float:
        """Peak temperature over all thermal nodes, K."""
        return max(float(np.nanmax(f)) for f in self.layer_fields)

    @property
    def delta_t(self) -> float:
        """Thermal gradient: the largest per-source-layer temperature range."""
        ranges = self.delta_t_per_source_layer()
        if not ranges:
            raise ThermalError("stack has no source layers; DeltaT undefined")
        return max(ranges)

    def delta_t_per_source_layer(self) -> List[float]:
        """``DeltaT_i`` for each source layer, bottom to top."""
        out = []
        for f in self.source_fields():
            out.append(float(np.nanmax(f) - np.nanmin(f)))
        return out

    @property
    def t_max_source(self) -> float:
        """Peak temperature restricted to source layers, K."""
        fields = self.source_fields()
        if not fields:
            raise ThermalError("stack has no source layers")
        return max(float(np.nanmax(f)) for f in fields)

    def energy_balance_error(self) -> float:
        """|power in - heat carried out by coolant| / power in.

        Only available when the simulator recorded the coolant enthalpy rise.
        """
        if self.coolant_heat_removed is None:
            raise ThermalError("simulator did not record coolant heat removal")
        if self.total_power == 0:
            return abs(self.coolant_heat_removed)
        return abs(self.total_power - self.coolant_heat_removed) / self.total_power

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"P_sys={self.p_sys / 1e3:.2f} kPa  "
            f"W_pump={self.w_pump * 1e3:.2f} mW  "
            f"T_max={self.t_max:.2f} K  "
            f"DeltaT={self.delta_t:.2f} K"
        )
