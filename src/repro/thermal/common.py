"""Shared thermal-conductance formulas and the simulator base class.

The individual conductance expressions follow Section 2.2 of the paper:

* Eq. 4 -- solid-solid conduction ``g = k A / l``.
* Eq. 5 -- solid-liquid transfer: the convective wall conductance in series
  with the half-cell solid conduction, ``g_sl = (g_sl* g_ss*) / (g_sl* + g_ss*)``.
* Eq. 6 -- liquid-liquid advection under the central differencing scheme,
  ``q_ll = (C_v / 2) sum_j Q_ji T_j`` (plus the inlet/outlet closure terms).

Both simulators reduce to one sparse linear system ``(K + P_sys * A) T =
b0 + P_sys * b1``: ``K`` collects every conductance (pressure independent),
``A``/``b1`` collect the advection terms which scale linearly with ``P_sys``
because all local flow rates do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.sparse import coo_matrix, csc_matrix

from .. import linalg, profiling, telemetry
from ..constants import NUSSELT_NUMBER
from ..errors import LinalgError, ThermalError
from ..faults import SITE_LINALG_UPDATE, corrupt
from ..flow.conductance import hydraulic_diameter
from ..materials import Coolant


def series_conductance(g_a: float, g_b: float) -> float:
    """Two thermal conductances in series (Eqs. 5 and 7).

    Returns 0 if either path is blocked (zero conductance).
    [unit-return: W/K]
    """
    if g_a <= 0 or g_b <= 0:
        return 0.0
    return g_a * g_b / (g_a + g_b)


def h_conv(
    coolant: Coolant,
    channel_width: float,
    channel_height: float,
    nusselt: float = NUSSELT_NUMBER,
) -> float:
    """Convective heat transfer coefficient ``h = Nu k_liquid / D_h``.
    [unit-return: W/(m^2 K)]
    """
    d_h = hydraulic_diameter(channel_width, channel_height)
    return nusselt * coolant.thermal_conductivity / d_h


def convective_conductance(
    area: float,
    coolant: Coolant,
    channel_width: float,
    channel_height: float,
    nusselt: float = NUSSELT_NUMBER,
) -> float:
    """Wall-to-coolant conductance ``g_sl* = h A`` (the Eq. 5 building block).
    [unit-return: W/K]
    """
    if area < 0:
        raise ThermalError(f"wall area must be non-negative, got {area}")
    return h_conv(coolant, channel_width, channel_height, nusselt) * area


def slab_half_conductance(k: float, area: float, thickness: float) -> float:
    """Conductance from a slab's center plane to its face, ``k A / (t/2)``.
    [unit-return: W/K]
    """
    if thickness <= 0:
        raise ThermalError(f"thickness must be positive, got {thickness}")
    return k * area / (0.5 * thickness)


@dataclass
class AdvectionSpec:
    """Advection terms of one channel layer at *unit* system pressure.

    Attributes:
        pair_nodes: (e, 2) global node ids of liquid entities exchanging
            coolant; flow is signed from column 0 to column 1.
        pair_flows: (e,) signed volumetric flow rates at ``P_sys = 1``.
        node_ids: (n,) global node ids of the layer's liquid entities.
        inlet_flows: (n,) inlet inflow per entity at ``P_sys = 1`` (>= 0).
        outlet_flows: (n,) outlet outflow per entity at ``P_sys = 1`` (>= 0).
    """

    pair_nodes: np.ndarray
    pair_flows: np.ndarray
    node_ids: np.ndarray
    inlet_flows: np.ndarray
    outlet_flows: np.ndarray


#: Advection discretization schemes for :func:`assemble_advection`.
ADVECTION_UPWIND = "upwind"
ADVECTION_CENTRAL = "central"

#: The default scheme.  Upwind is monotone (an M-matrix row pattern), so the
#: discrete maximum principle holds and liquid temperatures can never fall
#: below the inlet -- the central scheme of the paper's Eq. 6 is not, and
#: produces sub-inlet temperatures whenever a low-flow connector's cell
#: Peclet number exceeds 2 (ROADMAP item 6).
ADVECTION_SCHEME_DEFAULT = ADVECTION_UPWIND

ADVECTION_SCHEMES = (ADVECTION_UPWIND, ADVECTION_CENTRAL)


def assemble_advection(
    n_nodes: int,
    specs: "list[AdvectionSpec]",
    c_v: float,
    inlet_temperature: float,
    scheme: str = ADVECTION_SCHEME_DEFAULT,
) -> Tuple[csc_matrix, np.ndarray]:
    """Build the unit advection operator ``A`` and its RHS vector ``b1``.

    Two discretizations of the steady liquid-node energy balance are
    supported; both scale linearly with pressure (``P * A`` and ``P * b1``
    at pressure ``P``) because flow *signs* are pressure independent, which
    is what keeps the Woodbury pressure-shift path valid.

    ``scheme="central"`` is the paper's Eq. 6 (after the volume-conservation
    substitution)::

        A[i, j] = -C_v Q_ji / 2          for each liquid neighbor j
        A[i, i] = +C_v (Q_in,i + Q_out,i) / 2
        b1[i]   = +C_v Q_in,i * T_in

    It is second-order accurate but not monotone: a positive downstream
    off-diagonal appears whenever advective coupling exceeds the conduction
    anchoring a node (cell Peclet > 2), which can push liquid temperatures
    *below* the inlet on low-flow connectors.

    ``scheme="upwind"`` (the default) transports the *donor* node's
    temperature across each interface: for a pair ``(i, j)`` with signed
    flow ``q`` (positive i -> j), with donor ``d`` and receiver ``r``::

        A[d, d] += C_v |q|
        A[r, d] -= C_v |q|
        A[i, i] += C_v Q_out,i           per node
        b1[i]    = C_v Q_in,i * T_in     per node

    Every row then has a non-negative diagonal and non-positive
    off-diagonals summing to ``C_v Q_in,i`` (an M-matrix with ``K`` added),
    so the discrete maximum principle guarantees ``T >= T_in`` for
    heat-source-only steady states.  Both schemes conserve energy exactly:
    the column sums are ``C_v Q_out,j`` either way, so the coolant removes
    ``C_v P (sum_j Q_out,j T_j - Q_in_total T_in)``.
    """
    if scheme not in ADVECTION_SCHEMES:
        raise ThermalError(
            f"unknown advection scheme {scheme!r}; known: {ADVECTION_SCHEMES}"
        )
    rows: list = []
    cols: list = []
    vals: list = []
    b1 = np.zeros(n_nodes)
    for spec in specs:
        if spec.pair_nodes.size:
            i = spec.pair_nodes[:, 0]
            j = spec.pair_nodes[:, 1]
            q = spec.pair_flows
            if scheme == ADVECTION_CENTRAL:
                # For node i, neighbor j: Q_{j,i} = -q  =>  A[i, j] += C_v q / 2.
                rows.append(i)
                cols.append(j)
                vals.append(0.5 * c_v * q)
                # For node j, neighbor i: Q_{i,j} = +q  =>  A[j, i] -= C_v q / 2.
                rows.append(j)
                cols.append(i)
                vals.append(-0.5 * c_v * q)
            else:
                donor = np.where(q >= 0.0, i, j)
                receiver = np.where(q >= 0.0, j, i)
                flow = np.abs(q)
                rows.append(donor)
                cols.append(donor)
                vals.append(c_v * flow)
                rows.append(receiver)
                cols.append(donor)
                vals.append(-c_v * flow)
        if scheme == ADVECTION_CENTRAL:
            diag = 0.5 * c_v * (spec.inlet_flows + spec.outlet_flows)
        else:
            diag = c_v * spec.outlet_flows
        rows.append(spec.node_ids)
        cols.append(spec.node_ids)
        vals.append(diag)
        np.add.at(b1, spec.node_ids, c_v * spec.inlet_flows * inlet_temperature)
    if rows:
        row_arr = np.concatenate(rows)
        col_arr = np.concatenate(cols)
        val_arr = np.concatenate(vals)
    else:
        row_arr = np.zeros(0, dtype=np.int64)
        col_arr = np.zeros(0, dtype=np.int64)
        val_arr = np.zeros(0)
    matrix = coo_matrix(
        (val_arr, (row_arr, col_arr)), shape=(n_nodes, n_nodes)
    ).tocsc()
    return matrix, b1


class ConductanceBuilder:
    """Accumulates pairwise conductances into a sparse stiffness matrix ``K``."""

    def __init__(self, n_nodes: int) -> None:
        self.n_nodes = n_nodes
        self._rows: list = []
        self._cols: list = []
        self._vals: list = []
        self._diag = np.zeros(n_nodes)

    def add_pairs(
        self, node_a: np.ndarray, node_b: np.ndarray, conductance: np.ndarray
    ) -> None:
        """Add conductances between node pairs (vectorized)."""
        node_a = np.asarray(node_a, dtype=np.int64)
        node_b = np.asarray(node_b, dtype=np.int64)
        g = np.asarray(conductance, dtype=float)
        keep = g > 0
        if not keep.all():
            node_a, node_b, g = node_a[keep], node_b[keep], g[keep]
        if node_a.size == 0:
            return
        np.add.at(self._diag, node_a, g)
        np.add.at(self._diag, node_b, g)
        self._rows.extend((node_a, node_b))
        self._cols.extend((node_b, node_a))
        self._vals.extend((-g, -g))

    def add_grounded(self, nodes: np.ndarray, conductance: np.ndarray) -> None:
        """Add conductances from nodes to a fixed-temperature reservoir."""
        nodes = np.asarray(nodes, dtype=np.int64)
        g = np.asarray(conductance, dtype=float)
        np.add.at(self._diag, nodes, g)

    def build(self) -> csc_matrix:
        """Assemble the accumulated conductances into a CSC matrix."""
        rows = list(self._rows)
        cols = list(self._cols)
        vals = list(self._vals)
        rows.append(np.arange(self.n_nodes, dtype=np.int64))
        cols.append(np.arange(self.n_nodes, dtype=np.int64))
        vals.append(self._diag)
        return coo_matrix(
            (
                np.concatenate(vals),
                (np.concatenate(rows), np.concatenate(cols)),
            ),
            shape=(self.n_nodes, self.n_nodes),
        ).tocsc()


class _PressureShiftState:
    """Cached Woodbury data for incremental solves across pressures.

    The operator family ``A(P) = K + P A_adv`` differs from the base
    ``A(P0)`` by ``(P - P0) A_adv``, and the advection matrix has nonzero
    rows only at liquid nodes: ``A_adv = U V^T`` with ``U`` the selector of
    those ``r`` rows and ``V^T = A_adv[rows, :]``.  One base factorization
    plus ``W = A(P0)^{-1} U`` (an ``r``-column multi-RHS solve, paid once)
    turns every later pressure probe into a single triangular solve and an
    ``r x r`` dense solve -- instead of a fresh sparse factorization.
    """

    __slots__ = ("p0", "factor", "rows", "vt", "w", "m")

    def __init__(
        self,
        p0: float,
        factor: "linalg.Factorization",
        rows: np.ndarray,
        vt: csc_matrix,
        w: np.ndarray,
        m: np.ndarray,
    ) -> None:
        self.p0 = p0
        self.factor = factor
        self.rows = rows
        self.vt = vt
        self.w = w
        self.m = m


#: Largest advected-row count (the Woodbury rank) for which the
#: pressure-shift path is built; above it every probe refactorizes exactly.
SHIFT_RANK_THRESHOLD = 96  #: [unit: 1]
#: Relative residual an incremental solve must meet on the true operator,
#: else it is discarded in favor of an exact solve.
SHIFT_RESIDUAL_RTOL = 1e-8  #: [unit: 1]


class LinearThermalSystem:
    """Solves ``(K + P A) T = b0 + P b1`` for the node temperature vector.

    Shared back end of both simulators; subclass meshes provide the matrices
    and interpret the solution vector.

    Solver reuse: on first use, ``K`` and ``A`` are aligned onto the union
    sparsity pattern once, so assembling the operator at a new pressure is a
    single fused-data sum instead of a full sparse addition.  The system
    keeps no per-pressure state: results are memoized per pressure one level
    up, by :class:`~repro.cooling.system.CoolingSystem`, which reads the
    exactness each :meth:`solve` reports.

    Incremental solves: the advected rows are counted once, at construction.
    When the count fits :data:`SHIFT_RANK_THRESHOLD`, the first factorization
    is kept as the Woodbury base and later pressure probes are answered
    through the pressure-shift path (see :class:`_PressureShiftState`)
    instead of refactorizing, guarded by a relative-residual check
    (:data:`SHIFT_RESIDUAL_RTOL`) that falls back to the exact path on any
    doubt.  Above the threshold the system is exact-only and keeps no
    factorization after a solve.  ``solve(..., exact=True)`` bypasses the
    incremental path entirely -- final scoring uses it so results are
    bitwise identical whether or not a probe went through the shift path.
    """

    def __init__(
        self,
        stiffness: csc_matrix,
        advection: csc_matrix,
        rhs_static: np.ndarray,
        rhs_advection: np.ndarray,
    ) -> None:
        self.stiffness = stiffness
        self.advection = advection
        self.rhs_static = rhs_static
        self.rhs_advection = rhs_advection
        self.n_nodes = stiffness.shape[0]
        self._k_aligned: Optional[csc_matrix] = None
        self._a_aligned: Optional[csc_matrix] = None
        coo = advection.tocoo()
        self._advected_rows = np.unique(coo.row[coo.data != 0.0])
        #: ``(p0, factor)``: the first factorization, kept as the Woodbury
        #: base only while the advected rows fit the rank threshold.
        self._base: Optional[Tuple[float, linalg.Factorization]] = None
        self._shift: Optional[_PressureShiftState] = None

    # -- operator assembly with structure reuse -------------------------

    def _build_aligned(self) -> None:
        """Expand ``K`` and ``A`` onto their shared (union) sparsity pattern.

        Both matrices are rebuilt from one concatenated COO triplet list, so
        their CSC ``indices``/``indptr`` come out identical; the operator at
        any pressure is then just ``K.data + P * A.data`` on that pattern.
        """
        k_coo = self.stiffness.tocoo()
        a_coo = self.advection.tocoo()
        rows = np.concatenate([k_coo.row, a_coo.row])
        cols = np.concatenate([k_coo.col, a_coo.col])
        shape = (self.n_nodes, self.n_nodes)
        k_data = np.concatenate([k_coo.data, np.zeros(a_coo.nnz)])
        a_data = np.concatenate([np.zeros(k_coo.nnz), a_coo.data])
        self._k_aligned = coo_matrix((k_data, (rows, cols)), shape=shape).tocsc()
        self._a_aligned = coo_matrix((a_data, (rows, cols)), shape=shape).tocsc()
        # Identical triplet coordinates guarantee identical structure.
        assert self._k_aligned.nnz == self._a_aligned.nnz

    def _operator(self, p_sys: float) -> csc_matrix:
        """``K + P A`` assembled on the cached shared sparsity pattern."""
        if self._k_aligned is None:
            self._build_aligned()
        return csc_matrix(
            (
                self._k_aligned.data + p_sys * self._a_aligned.data,
                self._a_aligned.indices,
                self._a_aligned.indptr,
            ),
            shape=(self.n_nodes, self.n_nodes),
        )

    def _factorize(self, p_sys: float) -> "linalg.Factorization":
        """An exact LU factorization of the operator at ``p_sys``.

        The first one is kept as the Woodbury base when the shift path
        applies; no other factorization outlives its solve.
        """
        try:
            lu = linalg.factorize(self._operator(p_sys))
        except LinalgError as exc:
            raise ThermalError(
                "thermal system is singular; some nodes may be "
                "thermally isolated from the coolant"
            ) from exc
        profiling.increment("thermal.factorizations")
        if (
            self._base is None
            and self._advected_rows.size <= SHIFT_RANK_THRESHOLD
        ):
            self._base = (p_sys, lu)
        return lu

    # -- solves ----------------------------------------------------------

    def solve(
        self, p_sys: float, exact: bool = False
    ) -> Tuple[np.ndarray, bool]:
        """Node temperatures at one system pressure drop.

        Args:
            p_sys: System pressure drop in Pa (> 0).
            exact: Bypass the incremental pressure-shift path and solve
                through an exact factorization.  Final scoring passes
                ``True`` so results never depend on whether incremental
                updates are enabled.

        Returns:
            ``(temperatures, exact)``: the node temperatures and whether
            they came from an exact factorization (``False`` for a
            Woodbury answer).
        """
        if p_sys <= 0:
            raise ThermalError(
                f"system pressure must be positive for a steady solution, "
                f"got {p_sys}"
            )
        temperatures = None if exact else self._solve_incremental(p_sys)
        is_exact = temperatures is None
        if temperatures is None:
            lu = self._factorize(p_sys)
            with telemetry.span("thermal.solve", nodes=self.n_nodes):
                with profiling.timer("thermal.solve"):
                    temperatures = lu.solve(self.rhs(p_sys))
        if not np.all(np.isfinite(temperatures)):
            raise ThermalError("thermal solve produced non-finite temperatures")
        return temperatures, is_exact

    # -- incremental pressure-shift path ---------------------------------

    def _solve_incremental(self, p_sys: float) -> Optional[np.ndarray]:
        """A Woodbury solve at ``p_sys``, or ``None`` to use the exact path.

        Applicable once a base factorization was kept (the advected rows fit
        :data:`SHIFT_RANK_THRESHOLD`).  The result is accepted only if its
        relative residual on the *true* operator at ``p_sys`` meets
        :data:`SHIFT_RESIDUAL_RTOL`; otherwise the caller refactorizes
        exactly (and the fallback is counted).
        """
        shift = self._shift
        if shift is None:
            if self._base is None:
                return None  # no base yet, or an exact-only system
            shift = self._build_shift(*self._base)
        rhs = self.rhs(p_sys)
        dp = p_sys - shift.p0
        with profiling.timer("linalg.incremental_solve"):
            y = shift.factor.solve(rhs)
            if shift.rows.size == 0 or dp == 0.0:
                x = y
            else:
                r = shift.rows.size
                cap = shift.m + np.eye(r) / dp
                try:
                    z = np.linalg.solve(cap, shift.vt @ y)
                except np.linalg.LinAlgError:
                    profiling.increment("linalg.incremental_fallbacks")
                    return None
                x = y - shift.w @ z
        residual = self._operator(p_sys) @ x - rhs
        scale = max(float(np.max(np.abs(rhs))), 1.0)
        if (
            not np.all(np.isfinite(x))
            or float(np.max(np.abs(residual))) > SHIFT_RESIDUAL_RTOL * scale
        ):
            profiling.increment("linalg.incremental_fallbacks")
            return None
        profiling.increment("linalg.incremental_solves")
        return corrupt(SITE_LINALG_UPDATE, x)

    def _build_shift(
        self, p0: float, factor: "linalg.Factorization"
    ) -> _PressureShiftState:
        """Build the pressure-shift state around the base factorization."""
        rows = self._advected_rows
        vt = self.advection.tocsr()[rows, :]
        if rows.size:
            unit = np.zeros((self.n_nodes, rows.size))
            unit[rows, np.arange(rows.size)] = 1.0
            w = factor.solve_many(unit)
            m = np.asarray(vt @ w)
        else:
            w = np.zeros((self.n_nodes, 0))
            m = np.zeros((0, 0))
        shift = _PressureShiftState(
            p0=float(p0), factor=factor, rows=rows, vt=vt, w=w, m=m
        )
        self._shift = shift
        profiling.increment("linalg.shift_bases")
        return shift

    def system_matrix(self, p_sys: float) -> csc_matrix:
        """The assembled operator at ``p_sys`` (used by the transient solver)."""
        return self._operator(p_sys)

    def rhs(self, p_sys: float) -> np.ndarray:
        """Right-hand side (sources + inlet enthalpy) at ``p_sys``."""
        return self.rhs_static + p_sys * self.rhs_advection
