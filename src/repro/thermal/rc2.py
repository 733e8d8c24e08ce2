"""2-register-model (2RM) porous-medium thermal simulator (Section 2.3).

The fast model the paper contributes: the horizontal discretization is
coarsened to ``m x m``-cell tiles.  In channel layers each tile becomes *two*
thermal nodes -- one solid, one liquid -- because of their diverse properties;
in plain solid layers each tile is one node.  The conductances are:

* tile-to-tile solid conduction through **complete conducting paths** only:
  a row (column) of basic cells counts towards the effective conductance
  between a channel-layer solid node and the tile interface only if it is
  solid the whole way from the node's half-tile to the interface; the two
  half-tile conductances combine in series (Eq. 7);
* solid-liquid transfer in the **vertical direction only**: the side-wall
  area is folded into the top/bottom wall convection,
  ``g*_sl,top/bottom = h_conv (A_top/bottom + A_side / 2)`` (Eq. 8), in series
  with the half-slab conduction of the adjacent layer (Eq. 5);
* liquid-liquid advection driven by the **net** flow rate across each tile
  interface, with the same Eq. 6 discretization as the 4RM model.

An ``m x m`` coarsening shrinks the linear system by about ``m^2`` and
accelerates simulation by more than ``m^2`` (Fig. 9), which is what makes the
paper's inner-loop network evaluation affordable.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..constants import (
    EDGE_CONDUCTANCE_FACTOR,
    INLET_TEMPERATURE,
    NUSSELT_NUMBER,
)
from .. import telemetry
from ..errors import GeometryError, ThermalError
from ..faults import SITE_THERMAL_RC2, corrupt
from ..flow.network import FlowField
from ..geometry.layers import ChannelLayer, SolidLayer, SourceLayer
from ..geometry.stack import Stack
from ..materials import Coolant
from .common import (
    ADVECTION_SCHEME_DEFAULT,
    AdvectionSpec,
    ConductanceBuilder,
    LinearThermalSystem,
    assemble_advection,
    h_conv,
    slab_half_conductance,
)
from .mesh import Tiling
from .result import ThermalResult


class RC2Simulator:
    """Steady-state 2RM simulator for one stack.

    Args:
        stack: The 3D IC stack to simulate.
        coolant: Working fluid shared by all channel layers.
        tile_size: Thermal-cell edge in basic cells (``m``); the paper adopts
            ``m = 4`` (400 um tiles on the 100 um contest grid) as the
            accuracy/runtime sweet spot.
        edge_factor / inlet_temperature / nusselt / top_bc /
            tsv_material: As in :class:`~repro.thermal.rc4.RC4Simulator`
            (TSV cells contribute area-weighted vertical conduction per
            tile when ``tsv_material`` is set).
        advection_scheme: ``"upwind"`` (monotone, default) or ``"central"``
            (the paper's Eq. 6); see
            :func:`~repro.thermal.common.assemble_advection`.
    """

    model_name = "2RM"

    def __init__(
        self,
        stack: Stack,
        coolant: Coolant,
        tile_size: int = 4,
        edge_factor: float = EDGE_CONDUCTANCE_FACTOR,
        inlet_temperature: float = INLET_TEMPERATURE,
        nusselt: float = NUSSELT_NUMBER,
        top_bc: Optional[Tuple[float, float]] = None,
        tsv_material=None,
        advection_scheme: str = ADVECTION_SCHEME_DEFAULT,
    ) -> None:
        if tile_size < 1:
            raise ThermalError(f"tile size must be >= 1, got {tile_size}")
        self.stack = stack
        self.coolant = coolant
        self.tile_size = int(tile_size)
        self.edge_factor = float(edge_factor)
        self.inlet_temperature = float(inlet_temperature)
        self.nusselt = float(nusselt)
        self.top_bc = top_bc
        self.tsv_material = tsv_material
        self.advection_scheme = str(advection_scheme)
        self._check_stack()
        self.nrows, self.ncols = stack.nrows, stack.ncols
        self.tiling = Tiling(self.nrows, self.ncols, self.tile_size)
        self.flow_fields: List[FlowField] = [
            FlowField(layer.grid, layer.channel_height, coolant, self.edge_factor)
            for layer in stack.channel_layers()
        ]
        self._allocate_nodes()
        self._build_system()

    # ------------------------------------------------------------------

    def _check_stack(self) -> None:
        layers = self.stack.layers
        for below, above in zip(layers, layers[1:]):
            if isinstance(below, ChannelLayer) and isinstance(above, ChannelLayer):
                raise GeometryError(
                    f"adjacent channel layers {below.name!r} / {above.name!r} "
                    "are not supported"
                )

    def _allocate_nodes(self) -> None:
        """Assign global node ids per layer.

        Solid layers get one node per tile.  Channel layers get a solid node
        for every tile containing at least one solid cell and a liquid node
        for every tile containing at least one liquid cell (-1 marks absent
        nodes).
        """
        shape = self.tiling.shape
        counter = 0
        self._solid_ids: List[np.ndarray] = []
        self._liquid_ids: List[Optional[np.ndarray]] = []
        self._solid_counts: List[Optional[np.ndarray]] = []
        self._liquid_counts: List[Optional[np.ndarray]] = []
        for layer in self.stack.layers:
            if isinstance(layer, ChannelLayer):
                liquid_count = self.tiling.aggregate_count(layer.grid.liquid)
                solid_count = self.tiling.aggregate_count(~layer.grid.liquid)
                solid = np.full(shape, -1, dtype=np.int64)
                n_solid = int((solid_count > 0).sum())
                solid[solid_count > 0] = counter + np.arange(n_solid)
                counter += n_solid
                liquid = np.full(shape, -1, dtype=np.int64)
                n_liquid = int((liquid_count > 0).sum())
                liquid[liquid_count > 0] = counter + np.arange(n_liquid)
                counter += n_liquid
                self._solid_ids.append(solid)
                self._liquid_ids.append(liquid)
                self._solid_counts.append(solid_count)
                self._liquid_counts.append(liquid_count)
            else:
                ids = counter + np.arange(self.tiling.n_tiles, dtype=np.int64)
                counter += self.tiling.n_tiles
                self._solid_ids.append(ids.reshape(shape))
                self._liquid_ids.append(None)
                self._solid_counts.append(None)
                self._liquid_counts.append(None)
        self.n_nodes = counter

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------

    def _build_system(self) -> None:
        builder = ConductanceBuilder(self.n_nodes)
        rhs_static = np.zeros(self.n_nodes)

        for k, layer in enumerate(self.stack.layers):
            if isinstance(layer, ChannelLayer):
                self._add_channel_horizontal(builder, k, layer)
            else:
                self._add_solid_horizontal(builder, k, layer)
                if isinstance(layer, SourceLayer):
                    tile_power = self.tiling.aggregate_sum(layer.power_map)
                    rhs_static[self._solid_ids[k].ravel()] += tile_power.ravel()

        for k in range(self.stack.n_layers - 1):
            self._add_vertical(builder, k)

        if self.top_bc is not None:
            self._add_top_bc(builder, rhs_static)

        specs = self._advection_specs()
        advection, rhs_adv = assemble_advection(
            self.n_nodes,
            specs,
            self.coolant.volumetric_heat_capacity,
            self.inlet_temperature,
            scheme=self.advection_scheme,
        )
        self._specs = specs
        self.system = LinearThermalSystem(
            builder.build(), advection, rhs_static, rhs_adv
        )

    # -- horizontal conduction in plain solid layers ---------------------

    def _add_solid_horizontal(
        self, builder: ConductanceBuilder, k: int, layer: SolidLayer
    ) -> None:
        t = self.tiling
        w = self.stack.cell_width
        ids = self._solid_ids[k]
        k_mat = layer.material.thermal_conductivity
        heights = t.tile_heights().astype(float)
        widths = t.tile_widths().astype(float)
        # East-west pairs: interface height heights[R]*w, half lengths
        # widths[C]*w/2 and widths[C+1]*w/2.
        if t.n_tile_cols > 1:
            area = heights[:, None] * w * layer.thickness  # (Rn, 1)
            g_a = k_mat * area / (widths[None, :-1] * w / 2.0)
            g_b = k_mat * area / (widths[None, 1:] * w / 2.0)
            g = _series_arr(g_a, g_b)
            builder.add_pairs(
                ids[:, :-1].ravel(), ids[:, 1:].ravel(), g.ravel()
            )
        # North-south pairs.
        if t.n_tile_rows > 1:
            area = widths[None, :] * w * layer.thickness  # (1, Cn)
            g_a = k_mat * area / (heights[:-1, None] * w / 2.0)
            g_b = k_mat * area / (heights[1:, None] * w / 2.0)
            g = _series_arr(g_a, g_b)
            builder.add_pairs(
                ids[:-1, :].ravel(), ids[1:, :].ravel(), g.ravel()
            )

    # -- horizontal conduction in channel layers (complete paths) --------

    def _add_channel_horizontal(
        self, builder: ConductanceBuilder, k: int, layer: ChannelLayer
    ) -> None:
        t = self.tiling
        w = self.stack.cell_width
        h_c = layer.channel_height
        k_wall = layer.wall_material.thermal_conductivity
        solid = ~layer.grid.liquid
        ids = self._solid_ids[k]

        east_paths, west_paths = _complete_paths(solid, t, axis=1)
        south_paths, north_paths = _complete_paths(solid, t, axis=0)
        widths = t.tile_widths().astype(float)
        heights = t.tile_heights().astype(float)

        if t.n_tile_cols > 1:
            # Tile (R, C) east half -> interface -> tile (R, C+1) west half.
            g_a = east_paths[:, :-1] * k_wall * (w * h_c) / (
                widths[None, :-1] * w / 2.0
            )
            g_b = west_paths[:, 1:] * k_wall * (w * h_c) / (
                widths[None, 1:] * w / 2.0
            )
            g = _series_arr(g_a, g_b)
            a = ids[:, :-1].ravel()
            b = ids[:, 1:].ravel()
            valid = (a >= 0) & (b >= 0)
            builder.add_pairs(a[valid], b[valid], g.ravel()[valid])
        if t.n_tile_rows > 1:
            g_a = south_paths[:-1, :] * k_wall * (w * h_c) / (
                heights[:-1, None] * w / 2.0
            )
            g_b = north_paths[1:, :] * k_wall * (w * h_c) / (
                heights[1:, None] * w / 2.0
            )
            g = _series_arr(g_a, g_b)
            a = ids[:-1, :].ravel()
            b = ids[1:, :].ravel()
            valid = (a >= 0) & (b >= 0)
            builder.add_pairs(a[valid], b[valid], g.ravel()[valid])

    # -- vertical conduction ---------------------------------------------

    def _add_vertical(self, builder: ConductanceBuilder, k: int) -> None:
        stack = self.stack
        w = stack.cell_width
        t = self.tiling
        below = stack.layers[k]
        above = stack.layers[k + 1]
        tile_areas = (
            t.tile_heights()[:, None] * t.tile_widths()[None, :]
        ).astype(float) * w * w

        def material_of(layer: Any) -> Any:
            return (
                layer.wall_material
                if isinstance(layer, ChannelLayer)
                else layer.material
            )

        channel = None
        if isinstance(below, ChannelLayer):
            channel, other, other_k = below, above, k + 1
        elif isinstance(above, ChannelLayer):
            channel, other, other_k = above, below, k
        if channel is None:
            # Plain solid-solid interface: full tile area, series halves.
            g_a = slab_half_conductance(
                material_of(below).thermal_conductivity, 1.0, below.thickness
            )
            g_b = slab_half_conductance(
                material_of(above).thermal_conductivity, 1.0, above.thickness
            )
            g = _series_arr(
                g_a * tile_areas, g_b * tile_areas
            )
            builder.add_pairs(
                self._solid_ids[k].ravel(),
                self._solid_ids[k + 1].ravel(),
                g.ravel(),
            )
            return

        channel_k = k if channel is below else k + 1
        solid_counts = self._solid_counts[channel_k].astype(float)
        liquid_counts = self._liquid_counts[channel_k].astype(float)
        other_ids = self._solid_ids[other_k]
        k_other = material_of(other).thermal_conductivity

        # Channel solid node <-> other layer node through the solid footprint.
        solid_area = solid_counts * w * w
        if self.tsv_material is not None:
            tsv_counts = self.tiling.aggregate_count(
                channel.grid.tsv_mask & ~channel.grid.liquid
            ).astype(float)
            plain_counts = solid_counts - tsv_counts
            g_chan = (
                slab_half_conductance(
                    channel.wall_material.thermal_conductivity,
                    1.0,
                    channel.thickness,
                )
                * plain_counts
                * w
                * w
                + slab_half_conductance(
                    self.tsv_material.thermal_conductivity,
                    1.0,
                    channel.thickness,
                )
                * tsv_counts
                * w
                * w
            )
        else:
            g_chan = np.where(
                solid_area > 0,
                slab_half_conductance(
                    channel.wall_material.thermal_conductivity,
                    1.0,
                    channel.thickness,
                )
                * solid_area,
                0.0,
            )
        g_oth = slab_half_conductance(k_other, 1.0, other.thickness) * solid_area
        g = _series_arr(g_chan, g_oth)
        a = self._solid_ids[channel_k].ravel()
        b = other_ids.ravel()
        valid = a >= 0
        builder.add_pairs(a[valid], b[valid], g.ravel()[valid])

        # Channel liquid node <-> other layer node: Eq. 8 folded side walls.
        liquid_area = liquid_counts * w * w
        side_area = (
            self._side_wall_pairs(channel_k, channel).astype(float)
            * w
            * channel.channel_height
        )
        h = h_conv(self.coolant, w, channel.channel_height, self.nusselt)
        g_conv = h * (liquid_area + side_area / 2.0)
        g_oth = slab_half_conductance(k_other, 1.0, other.thickness) * liquid_area
        g = _series_arr(g_conv, g_oth)
        a = self._liquid_ids[channel_k].ravel()
        valid = a >= 0
        builder.add_pairs(a[valid], b[valid], g.ravel()[valid])

    def _side_wall_pairs(self, channel_k: int, channel: ChannelLayer) -> np.ndarray:
        """Count interior solid-liquid walls per tile.

        Each solid-liquid 4-adjacency on the basic-cell grid is one side wall;
        it is attributed to the tile of the *liquid* cell (halved between top
        and bottom transfer by the caller, per Eq. 8).  Cached per layer.
        """
        cache = getattr(self, "_side_wall_cache", None)
        if cache is None:
            cache = {}
            self._side_wall_cache = cache
        if channel_k in cache:
            return cache[channel_k]
        liq = channel.grid.liquid
        counts = np.zeros(liq.shape, dtype=np.int64)
        counts[:, :-1] += (liq[:, :-1] & ~liq[:, 1:]).astype(np.int64)
        counts[:, 1:] += (liq[:, 1:] & ~liq[:, :-1]).astype(np.int64)
        counts[:-1, :] += (liq[:-1, :] & ~liq[1:, :]).astype(np.int64)
        counts[1:, :] += (liq[1:, :] & ~liq[:-1, :]).astype(np.int64)
        per_tile = self.tiling.aggregate_sum(counts.astype(float))
        cache[channel_k] = per_tile
        return per_tile

    def _add_top_bc(
        self, builder: ConductanceBuilder, rhs_static: np.ndarray
    ) -> None:
        h_amb, t_amb = self.top_bc
        if h_amb < 0:
            raise ThermalError(
                f"ambient heat transfer coefficient must be >= 0, got {h_amb}"
            )
        t = self.tiling
        w = self.stack.cell_width
        tile_areas = (
            t.tile_heights()[:, None] * t.tile_widths()[None, :]
        ).astype(float) * w * w
        top_k = self.stack.n_layers - 1
        top = self.stack.layers[top_k]
        if isinstance(top, ChannelLayer):
            # Expose only the solid footprint of the channel layer to ambient.
            solid_area = self._solid_counts[top_k].astype(float) * w * w
            ids = self._solid_ids[top_k].ravel()
            g = (h_amb * solid_area).ravel()
            valid = ids >= 0
            builder.add_grounded(ids[valid], g[valid])
            rhs_static[ids[valid]] += g[valid] * t_amb
        else:
            ids = self._solid_ids[top_k].ravel()
            g = (h_amb * tile_areas).ravel()
            builder.add_grounded(ids, g)
            rhs_static[ids] += g * t_amb

    # -- advection ---------------------------------------------------------

    def _advection_specs(self) -> List[AdvectionSpec]:
        specs = []
        t = self.tiling
        channel_indices = self.stack.channel_layer_indices()
        for layer_index, field in zip(channel_indices, self.flow_fields):
            grid = self.stack.layers[layer_index].grid
            liquid_ids = self._liquid_ids[layer_index]
            cells = list(grid.liquid_cells())
            rows = np.array([r for r, _ in cells], dtype=np.int64)
            cols = np.array([c for _, c in cells], dtype=np.int64)
            cell_tile = (
                t.row_of_cell[rows] * t.n_tile_cols + t.col_of_cell[cols]
            )
            tile_node_flat = liquid_ids.ravel()
            cell_node = tile_node_flat[cell_tile]
            unit = field.at_pressure(1.0)

            # Net flow between distinct tile liquid nodes.
            net: Dict[Tuple[int, int], float] = {}
            node_a = cell_node[unit.edge_cells[:, 0]]
            node_b = cell_node[unit.edge_cells[:, 1]]
            for a, b, q in zip(
                node_a.tolist(), node_b.tolist(), unit.edge_flows.tolist()
            ):
                if a == b:
                    continue
                if a < b:
                    net[(a, b)] = net.get((a, b), 0.0) + q
                else:
                    net[(b, a)] = net.get((b, a), 0.0) - q
            if net:
                pair_nodes = np.array(list(net.keys()), dtype=np.int64)
                pair_flows = np.array(list(net.values()))
            else:
                pair_nodes = np.zeros((0, 2), dtype=np.int64)
                pair_flows = np.zeros(0)

            # Aggregate inlet/outlet flows onto tile liquid nodes.
            node_list = np.unique(cell_node)
            remap = {int(n): i for i, n in enumerate(node_list)}
            inlet = np.zeros(len(node_list))
            outlet = np.zeros(len(node_list))
            for cell_i, node in enumerate(cell_node.tolist()):
                idx = remap[node]
                inlet[idx] += unit.inlet_flows[cell_i]
                outlet[idx] += unit.outlet_flows[cell_i]
            specs.append(
                AdvectionSpec(
                    pair_nodes=pair_nodes,
                    pair_flows=pair_flows,
                    node_ids=node_list,
                    inlet_flows=inlet,
                    outlet_flows=outlet,
                )
            )
        return specs

    # ------------------------------------------------------------------
    # Solve
    # ------------------------------------------------------------------

    def solve(self, p_sys: float, exact: bool = False) -> ThermalResult:
        """Steady temperatures at system pressure drop ``p_sys`` (Pa).

        ``exact=True`` bypasses the incremental solver path (final scoring);
        the result's ``exact`` says which path answered.
        """
        with telemetry.span("thermal.rc2.solve", cells=self.n_nodes):
            temperatures, is_exact = self.system.solve(p_sys, exact=exact)
            temperatures = corrupt(SITE_THERMAL_RC2, temperatures)
            if not np.all(np.isfinite(temperatures)):
                raise ThermalError(
                    "2RM solve produced non-finite temperatures"
                )
            return self._package(p_sys, temperatures, exact=is_exact)

    def node_capacitances(self) -> np.ndarray:
        """Heat capacity of every thermal node in J/K (transient extension)."""
        w = self.stack.cell_width
        cell_area = w * w
        caps = np.zeros(self.n_nodes)
        for k, layer in enumerate(self.stack.layers):
            if isinstance(layer, ChannelLayer):
                volume = cell_area * layer.channel_height
                solid_ids = self._solid_ids[k]
                mask = solid_ids >= 0
                caps[solid_ids[mask]] = (
                    self._solid_counts[k][mask]
                    * volume
                    * layer.wall_material.volumetric_heat_capacity
                )
                liquid_ids = self._liquid_ids[k]
                mask = liquid_ids >= 0
                caps[liquid_ids[mask]] = (
                    self._liquid_counts[k][mask]
                    * volume
                    * self.coolant.volumetric_heat_capacity
                )
            else:
                t = self.tiling
                tile_cells = (
                    t.tile_heights()[:, None] * t.tile_widths()[None, :]
                ).astype(float)
                caps[self._solid_ids[k].ravel()] = (
                    tile_cells.ravel()
                    * cell_area
                    * layer.thickness
                    * layer.material.volumetric_heat_capacity
                )
        return caps

    def _package(
        self, p_sys: float, temperatures: np.ndarray, exact: bool = True
    ) -> ThermalResult:
        stack = self.stack
        fields = []
        liquid_fields = {}
        for k, layer in enumerate(stack.layers):
            if isinstance(layer, ChannelLayer):
                solid_tile = _lookup(temperatures, self._solid_ids[k])
                liquid_tile = _lookup(temperatures, self._liquid_ids[k])
                solid_cells = self.tiling.expand(solid_tile)
                liquid_cells = self.tiling.expand(liquid_tile)
                field = np.where(layer.grid.liquid, liquid_cells, solid_cells)
                liquid_fields[k] = np.where(layer.grid.liquid, liquid_cells, np.nan)
            else:
                field = self.tiling.expand(
                    _lookup(temperatures, self._solid_ids[k])
                )
            fields.append(field)
        q_sys = sum(f.q_sys(p_sys) for f in self.flow_fields)
        removed = 0.0
        c_v = self.coolant.volumetric_heat_capacity
        for spec in self._specs:
            t_nodes = temperatures[spec.node_ids]
            removed += c_v * p_sys * float(
                np.dot(spec.outlet_flows, t_nodes)
                - spec.inlet_flows.sum() * self.inlet_temperature
            )
        return ThermalResult(
            p_sys=float(p_sys),
            q_sys=q_sys,
            w_pump=float(p_sys) * q_sys,
            layer_fields=fields,
            layer_names=[layer.name for layer in stack.layers],
            source_layer_indices=stack.source_layer_indices(),
            inlet_temperature=self.inlet_temperature,
            total_power=stack.total_power,
            liquid_fields=liquid_fields,
            coolant_heat_removed=removed,
            exact=exact,
        )


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _series_arr(g_a: np.ndarray, g_b: np.ndarray) -> np.ndarray:
    """Element-wise series combination; zero where either side is blocked."""
    g_a = np.asarray(g_a, dtype=float)
    g_b = np.asarray(g_b, dtype=float)
    total = g_a + g_b
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(total > 0, g_a * g_b / np.where(total > 0, total, 1.0), 0.0)
    return out


def _lookup(values: np.ndarray, ids: "np.ndarray | None") -> np.ndarray:
    """Map node ids to values; -1 (absent node) becomes NaN."""
    if ids is None:
        raise ThermalError("no node ids for this layer")
    out = np.full(ids.shape, np.nan)
    mask = ids >= 0
    out[mask] = values[ids[mask]]
    return out


def _complete_paths(
    solid: np.ndarray, tiling: Tiling, axis: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Count complete conducting paths per tile toward each interface.

    For ``axis == 1`` (east-west conduction) returns ``(east, west)`` arrays
    of shape (n_tile_rows, n_tile_cols): ``east[R, C]`` counts the rows of
    tile (R, C) that are solid across the entire half of the tile nearest its
    east interface, and ``west`` likewise for the west half.  ``axis == 0``
    returns ``(south, north)`` counting columns toward the south/north
    interfaces.
    """
    if axis == 0:
        south, north = _complete_paths(solid.T, _transposed(tiling), axis=1)
        return south.T, north.T
    t = tiling
    east = np.zeros(t.shape, dtype=np.int64)
    west = np.zeros(t.shape, dtype=np.int64)
    for tile_col in range(t.n_tile_cols):
        c0 = int(t.col_starts[tile_col])
        c1 = int(t.col_starts[tile_col + 1])
        width = c1 - c0
        half = (width + 1) // 2  # near half includes the center column
        east_block = solid[:, c1 - half : c1].all(axis=1)
        west_block = solid[:, c0 : c0 + half].all(axis=1)
        east[:, tile_col] = np.add.reduceat(
            east_block.astype(np.int64), t.row_starts[:-1]
        )
        west[:, tile_col] = np.add.reduceat(
            west_block.astype(np.int64), t.row_starts[:-1]
        )
    return east, west


def _transposed(tiling: Tiling) -> Tiling:
    """A tiling of the transposed grid (same tile size)."""
    return Tiling(tiling.ncols, tiling.nrows, tiling.tile_size)
