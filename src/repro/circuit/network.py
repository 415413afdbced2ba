"""Sparse nonlinear resistive-network solver (modified nodal analysis).

This is the exact-solution substrate the fast cross-point models are
validated against.  A network is a set of nodes connected by linear
resistors and nonlinear two-terminal devices (the bipolar selectors of
:mod:`repro.circuit.selector`); some nodes are pinned to fixed voltages
(write driver outputs, grounds, half-select rails).

The solver runs damped Newton iterations on the nodal KCL system.  The
linear part of the conductance matrix is assembled once; each iteration
stamps the device linearisations on top and solves the sparse system
with SuperLU.  Steep exponential selectors overshoot badly under plain
Newton, so the per-step voltage update is clamped (the standard SPICE
junction-limiting trick) and the step is halved until the residual norm
decreases.  Devices sharing a model are evaluated as vectorised groups,
which keeps full 512x512-array solves (500k+ nodes, 260k+ devices)
tractable in NumPy.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .selector import SelectorModel

__all__ = ["GROUND", "Network", "Solution", "ConvergenceError"]

GROUND = -1
"""Sentinel node index for the 0 V reference."""


class ConvergenceError(RuntimeError):
    """Raised when Newton iteration fails to converge."""


@dataclass
class Solution:
    """Result of a network solve.

    ``voltages`` holds the solved potential of every node (fixed nodes
    included); :meth:`voltage` resolves the :data:`GROUND` sentinel.
    """

    voltages: np.ndarray
    iterations: int
    residual_norm: float

    def voltage(self, node: int) -> float:
        """Potential of ``node`` (0 for :data:`GROUND`)."""
        if node == GROUND:
            return 0.0
        return float(self.voltages[node])


def _node_array(nodes) -> np.ndarray:
    """Node handles from any iterable, as a fresh int64 array."""
    if not isinstance(nodes, (list, tuple, np.ndarray)):
        nodes = list(nodes)
    return np.array(nodes, dtype=np.int64)


class _Column:
    """An append-only element list kept as array chunks plus a list tail."""

    def __init__(self, dtype: type) -> None:
        self._dtype = dtype
        self._chunks = [np.empty(0, dtype=dtype)]
        self._tail: list = []

    def _flush(self) -> None:
        if self._tail:
            self._chunks.append(np.asarray(self._tail, dtype=self._dtype))
            self._tail = []

    def append(self, value) -> None:
        self._tail.append(value)

    def extend(self, values: np.ndarray) -> None:
        self._flush()
        self._chunks.append(values)

    def array(self) -> np.ndarray:
        self._flush()
        if len(self._chunks) > 1:
            self._chunks = [np.concatenate(self._chunks)]
        return self._chunks[0]

    def copy(self) -> "_Column":
        """An independent column over this one's elements.

        The two share one array, which neither ever writes to: appends
        land in each column's own chunks.
        """
        clone = _Column(self._dtype)
        clone._chunks = [self.array()]
        return clone

    def __len__(self) -> int:
        return sum(chunk.size for chunk in self._chunks) + len(self._tail)


class _DeviceGroup:
    """All devices sharing one selector model, stored as index arrays."""

    def __init__(self, model: SelectorModel) -> None:
        self.model = model
        self.n1 = _Column(np.int64)
        self.n2 = _Column(np.int64)

    def frozen(self) -> tuple[SelectorModel, np.ndarray, np.ndarray]:
        return self.model, self.n1.array(), self.n2.array()

    def copy(self) -> "_DeviceGroup":
        clone = _DeviceGroup(self.model)
        clone.n1 = self.n1.copy()
        clone.n2 = self.n2.copy()
        return clone


class Network:
    """A resistive network under construction.

    Nodes are integer handles returned by :meth:`add_node`; the constant
    :data:`GROUND` may be used anywhere a node is expected.
    """

    def __init__(self) -> None:
        self._node_count = 0
        self._res_n1 = _Column(np.int64)
        self._res_n2 = _Column(np.int64)
        self._res_g = _Column(np.float64)
        self._groups: dict[int, _DeviceGroup] = {}
        # Device handles come in runs: (first handle, model id, first slot).
        self._runs: list[tuple[int, int, int]] = []
        self._device_count = 0
        self._fixed: dict[int, float] = {}
        self._revision = 0  # bumped on any mutation; guards signature memos
        self._pattern_memo: tuple[int, str] | None = None

    # -- construction ---------------------------------------------------------

    def add_node(self) -> int:
        """Create a node and return its handle."""
        handle = self._node_count
        self._node_count += 1
        return handle

    def add_nodes(self, count: int) -> list[int]:
        """Create ``count`` nodes and return their handles."""
        start = self._node_count
        self._node_count += count
        return list(range(start, start + count))

    def _check_node(self, node: int) -> None:
        if node != GROUND and not 0 <= node < self._node_count:
            raise ValueError(f"unknown node handle {node}")

    def add_resistor(self, n1: int, n2: int, resistance: float) -> None:
        """Connect ``n1`` and ``n2`` with a linear resistor (ohm)."""
        self._check_node(n1)
        self._check_node(n2)
        if resistance <= 0:
            raise ValueError(f"resistance must be positive, got {resistance}")
        self._res_n1.append(n1)
        self._res_n2.append(n2)
        self._res_g.append(1.0 / resistance)
        self._revision += 1

    def add_device(self, n1: int, n2: int, model: SelectorModel) -> int:
        """Connect a nonlinear selector stack between ``n1`` and ``n2``.

        Positive current flows from ``n1`` to ``n2`` when
        ``V(n1) > V(n2)``.  Returns a device handle usable with
        :meth:`device_current`.
        """
        self._check_node(n1)
        self._check_node(n2)
        group = self._groups.setdefault(id(model), _DeviceGroup(model))
        group.n1.append(n1)
        group.n2.append(n2)
        return self._new_handles(group, 1)[0]

    def _check_nodes(self, nodes: np.ndarray) -> None:
        bad = (nodes != GROUND) & ((nodes < 0) | (nodes >= self._node_count))
        if bad.any():
            raise ValueError(f"unknown node handle {int(nodes[bad][0])}")

    def add_resistors(self, n1s, n2s, resistance: float) -> None:
        """Bulk :meth:`add_resistor`: many equal-valued resistors at once.

        Produces exactly the element lists the equivalent loop of
        single calls would — results are byte-identical — while paying
        Python call overhead once instead of per resistor.
        """
        a1 = _node_array(n1s)
        a2 = _node_array(n2s)
        if a1.shape != a2.shape:
            raise ValueError("endpoint lists must have equal length")
        self._check_nodes(a1)
        self._check_nodes(a2)
        if resistance <= 0:
            raise ValueError(f"resistance must be positive, got {resistance}")
        self._res_n1.extend(a1)
        self._res_n2.extend(a2)
        self._res_g.extend(np.full(a1.size, 1.0 / resistance))
        self._revision += 1

    def add_devices(self, n1s, n2s, model: SelectorModel) -> list[int]:
        """Bulk :meth:`add_device`: many devices sharing one model.

        Returns the device handles in order; byte-identical to the
        equivalent loop of single calls.
        """
        a1 = _node_array(n1s)
        a2 = _node_array(n2s)
        if a1.shape != a2.shape:
            raise ValueError("endpoint lists must have equal length")
        self._check_nodes(a1)
        self._check_nodes(a2)
        group = self._groups.setdefault(id(model), _DeviceGroup(model))
        group.n1.extend(a1)
        group.n2.extend(a2)
        return self._new_handles(group, a1.size)

    def _new_handles(self, group: _DeviceGroup, count: int) -> list[int]:
        """Handles of the ``count`` devices just added to ``group``."""
        start = self._device_count
        self._runs.append((start, id(group.model), len(group.n1) - count))
        self._device_count += count
        self._revision += 1
        return list(range(start, self._device_count))

    def fix_voltage(self, node: int, voltage: float) -> None:
        """Pin ``node`` to an ideal voltage source of ``voltage`` volts."""
        self._check_node(node)
        if node == GROUND:
            raise ValueError("the ground reference is already fixed at 0 V")
        self._fixed[node] = float(voltage)
        self._revision += 1

    def redriven(self, values: dict[int, float]) -> "Network":
        """A copy of this network with new values at some pinned nodes.

        ``values`` maps already-pinned nodes to their new voltages.  The
        copy has the same elements and the same pinned nodes, in the
        same order, so it shares this network's :meth:`pattern_signature`
        (memoised here once for both).  Its element arrays are this
        network's own, never written to; either network may still grow
        afterwards without changing the other.
        """
        unknown = values.keys() - self._fixed.keys()
        if unknown:
            raise ValueError(f"nodes {sorted(unknown)} are not pinned")
        self.pattern_signature()  # flushes every column, then memoises
        clone = Network.__new__(Network)
        clone.__dict__.update(self.__dict__)
        clone._res_n1 = self._res_n1.copy()
        clone._res_n2 = self._res_n2.copy()
        clone._res_g = self._res_g.copy()
        clone._groups = {key: group.copy() for key, group in self._groups.items()}
        clone._runs = list(self._runs)
        clone._fixed = self._fixed | {
            node: float(value) for node, value in values.items()
        }
        return clone

    @property
    def node_count(self) -> int:
        return self._node_count

    @property
    def device_count(self) -> int:
        return self._device_count

    @property
    def revision(self) -> int:
        """Mutation counter: bumped by every structural change."""
        return self._revision

    def pattern_signature(self) -> str:
        """Stable hash of the network's sparsity pattern and elements.

        Covers the node count, every resistor (endpoints *and*
        conductance), every device (endpoints and model parameters) and
        the set of pinned nodes — but **not** the pinned voltage values,
        so two RESET networks that differ only in drive level share a
        signature and a cached factorisation structure.  Memoised per
        :attr:`revision`: any mutation (say a fault-injected cell
        swapping its device model mid-sweep) yields a fresh hash, which
        is what forces the structure caches to rebuild instead of
        reusing a stale Jacobian structure.
        """
        if self._pattern_memo is not None and self._pattern_memo[0] == self._revision:
            return self._pattern_memo[1]
        digest = hashlib.blake2b(digest_size=16)
        digest.update(struct.pack("<qqq", self._node_count, len(self._res_g),
                                  len(self._groups)))
        digest.update(self._res_n1.array().tobytes())
        digest.update(self._res_n2.array().tobytes())
        digest.update(self._res_g.array().tobytes())
        for group in self._groups.values():
            model = group.model
            digest.update(type(model).__name__.encode())
            digest.update(
                repr(tuple(dataclasses.astuple(model))).encode()
                if dataclasses.is_dataclass(model)
                else repr(model).encode()
            )
            digest.update(group.n1.array().tobytes())
            digest.update(group.n2.array().tobytes())
        digest.update(np.asarray(sorted(self._fixed), dtype=np.int64).tobytes())
        signature = digest.hexdigest()
        self._pattern_memo = (self._revision, signature)
        return signature

    # -- solving --------------------------------------------------------------

    def solve(
        self,
        initial: np.ndarray | None = None,
        tol: float = 1e-10,
        max_iterations: int = 200,
        v_step_limit: float = 0.25,
        backend: "str | None" = None,
    ) -> Solution:
        """Solve the network with damped Newton iteration.

        Parameters
        ----------
        initial:
            Optional starting voltages for all nodes; defaults to the
            mean of the fixed voltages, a safe interior point for
            half-select biased arrays.
        tol:
            Convergence threshold on the KCL residual norm (amps).
        max_iterations:
            Newton iteration budget before :class:`ConvergenceError`.
        v_step_limit:
            Maximum per-node voltage change applied in one Newton step.
        backend:
            Solver backend name (or instance); ``None`` uses the
            default backend.  A one-network solve gives the same bytes
            on every backend.  See :mod:`repro.circuit.solvers`.
        """
        from .solvers import get_backend

        return get_backend(backend).solve(
            self,
            initial=initial,
            tol=tol,
            max_iterations=max_iterations,
            v_step_limit=v_step_limit,
        )

    # -- post-solve queries ---------------------------------------------------

    def device_current(self, solution: Solution, handle: int) -> float:
        """Current through the device returned by :meth:`add_device`."""
        if not 0 <= handle < self._device_count:
            raise IndexError(f"unknown device handle {handle}")
        start, model_id, first_slot = self._runs[
            bisect_right(self._runs, handle, key=lambda run: run[0]) - 1
        ]
        slot = first_slot + handle - start
        group = self._groups[model_id]
        v1 = solution.voltage(int(group.n1.array()[slot]))
        v2 = solution.voltage(int(group.n2.array()[slot]))
        return float(group.model.current(v1 - v2))

    def resistor_current(self, solution: Solution, index: int) -> float:
        """Current through the ``index``-th resistor (n1 -> n2)."""
        v1 = solution.voltage(int(self._res_n1.array()[index]))
        v2 = solution.voltage(int(self._res_n2.array()[index]))
        return (v1 - v2) * float(self._res_g.array()[index])


class _Drive(NamedTuple):
    """One solve's pinned voltages (by sorted node) and source injections."""

    fixed_values: np.ndarray
    inject_vals: np.ndarray


class _SolverState:
    """Pre-vectorised, immutable view of a :class:`Network`'s pattern.

    It serves every network with that pattern; the pinned voltage
    *values* of a solve live in its :class:`_Drive`.
    """

    def __init__(self, network: Network) -> None:
        n = self.node_count = network.node_count
        fixed = network._fixed
        self.fixed_nodes = np.array(sorted(fixed), dtype=np.intp)
        is_free = np.ones(n, dtype=bool)
        is_free[self.fixed_nodes] = False
        self.free = np.flatnonzero(is_free)
        if self.free.size == 0:
            raise ValueError("network has no free nodes to solve for")
        index_of = np.full(n, -1, dtype=np.intp)
        index_of[self.free] = np.arange(self.free.size)

        self._assemble_linear(index_of, ~is_free, network)
        # Pre-map device endpoints to free-node row indices (-1 when not
        # free).  Node -1 is GROUND, which reads the 0 V slot appended to
        # the voltage vector in device_voltages.
        self._dev_maps = []
        for group in network._groups.values():
            model, n1, n2 = group.frozen()
            self._dev_maps.append(
                (
                    model,
                    n1,
                    n2,
                    np.where(n1 >= 0, index_of[np.maximum(n1, 0)], -1),
                    np.where(n2 >= 0, index_of[np.maximum(n2, 0)], -1),
                )
            )

    def _assemble_linear(
        self, index_of: np.ndarray, fixed_mask: np.ndarray, network: Network
    ) -> None:
        """Reduced linear conductance matrix + fixed-voltage injection map."""
        size = self.free.size
        res_n1 = network._res_n1.array()
        res_n2 = network._res_n2.array()
        res_g = network._res_g.array()
        i1 = np.where(res_n1 >= 0, index_of[np.maximum(res_n1, 0)], -1)
        i2 = np.where(res_n2 >= 0, index_of[np.maximum(res_n2, 0)], -1)
        rows: list[np.ndarray] = []
        cols: list[np.ndarray] = []
        vals: list[np.ndarray] = []
        for a, b, sign in ((i1, i1, 1.0), (i2, i2, 1.0), (i1, i2, -1.0), (i2, i1, -1.0)):
            keep = (a >= 0) & (b >= 0)
            rows.append(a[keep])
            cols.append(b[keep])
            vals.append(sign * res_g[keep])
        self._linear = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(size, size),
        ).tocsc()

        # Resistors from a free node to a pinned node inject -g * v_pinned.
        inject_rows: list[np.ndarray] = []
        inject_src: list[np.ndarray] = []
        inject_g: list[np.ndarray] = []
        for a, other in ((i1, res_n2), (i2, res_n1)):
            crossing = (a >= 0) & (other >= 0) & fixed_mask[np.maximum(other, 0)]
            inject_rows.append(a[crossing])
            inject_src.append(other[crossing])
            inject_g.append(res_g[crossing])
        self._inject_rows = np.concatenate(inject_rows)
        self._inject_src = np.concatenate(inject_src)
        self._inject_g = np.concatenate(inject_g)

    def drive(self, fixed: dict[int, float]) -> _Drive:
        """The pinned values and source injections of ``fixed``."""
        values = np.array([fixed[n] for n in self.fixed_nodes.tolist()], dtype=float)
        voltage_of = np.zeros(self.node_count + 1, dtype=float)
        voltage_of[self.fixed_nodes] = values
        return _Drive(values, -self._inject_g * voltage_of[self._inject_src])

    def device_voltages(self, voltages: np.ndarray) -> list[np.ndarray]:
        """``V(n1) - V(n2)`` of every device group, in ``_dev_maps`` order."""
        grounded = np.append(voltages, 0.0)  # GROUND (-1) reads 0 V
        return [grounded[n1] - grounded[n2] for _m, n1, n2, _f1, _f2 in self._dev_maps]

    def residual(self, voltages: np.ndarray, drive: _Drive) -> np.ndarray:
        """KCL residual at the free nodes (amps leaving each node)."""
        residual = self._linear @ voltages[self.free]
        np.add.at(residual, self._inject_rows, drive.inject_vals)
        for (model, _n1, _n2, f1, f2), v in zip(
            self._dev_maps, self.device_voltages(voltages)
        ):
            current = np.asarray(model.current(v))
            keep1 = f1 >= 0
            keep2 = f2 >= 0
            np.add.at(residual, f1[keep1], current[keep1])
            np.add.at(residual, f2[keep2], -current[keep2])
        return residual
