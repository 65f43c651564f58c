"""Extraction of memory layouts and DMA transfer schedules from a
solved MILP, plus the runtime queries the protocol needs.

The central type is :class:`AllocationResult`: the memory map of every
label and local copy, the ordered DMA transfers at the synchronous
release s_0, and derived per-instant schedules and data acquisition
latencies for the whole hyperperiod.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.let.communication import Communication
from repro.let.grouping import communications_at
from repro.milp.result import Solution, SolveStatus
from repro.model.application import Application

__all__ = [
    "FallbackAttempt",
    "MemoryLayout",
    "DmaTransfer",
    "AllocationResult",
    "extract_result",
]


@dataclass(frozen=True)
class FallbackAttempt:
    """One rung of a solver portfolio, as attempted for a solve.

    A portfolio solve (see :mod:`repro.runtime.portfolio`) records one
    attempt per rung it ran, in order; the last attempt is the one that
    produced the returned result.

    Attributes:
        backend: Rung name ("highs", "bnb", "greedy").
        status: The rung's :class:`SolveStatus` value (or ``"error"``
            when the rung raised instead of returning).
        runtime_seconds: Wall-clock time spent in the rung.
        reason: Why the portfolio moved past this rung (empty for the
            accepted rung).
    """

    backend: str
    status: str
    runtime_seconds: float = 0.0
    reason: str = ""

    def to_dict(self) -> dict:
        """JSON-compatible representation (telemetry / serialization)."""
        return {
            "backend": self.backend,
            "status": self.status,
            "runtime_seconds": self.runtime_seconds,
            "reason": self.reason,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FallbackAttempt":
        """Inverse of :meth:`to_dict`."""
        return cls(
            backend=data["backend"],
            status=data["status"],
            runtime_seconds=float(data.get("runtime_seconds", 0.0)),
            reason=data.get("reason", ""),
        )

    def __str__(self) -> str:
        suffix = f" ({self.reason})" if self.reason else ""
        return f"{self.backend}:{self.status}{suffix}"


@dataclass(frozen=True)
class MemoryLayout:
    """The address map of one memory.

    Attributes:
        memory_id: The memory this layout describes.
        order: Slot identifiers in ascending address order (shared label
            names in the global memory, local-copy ids in scratchpads).
        addresses: Start address of each slot, bytes from the base.
        sizes: Size of each slot in bytes.
    """

    memory_id: str
    order: tuple[str, ...]
    addresses: dict[str, int]
    sizes: dict[str, int]

    @property
    def total_bytes(self) -> int:
        return sum(self.sizes.values())

    def position(self, slot: str) -> int:
        """Zero-based position of a slot in the address order."""
        return self.order.index(slot)

    def end_address(self, slot: str) -> int:
        return self.addresses[slot] + self.sizes[slot]

    def is_contiguous_run(self, slots: list[str]) -> bool:
        """True when ``slots`` occupy consecutive positions, in order."""
        if not slots:
            return True
        positions = [self.position(slot) for slot in slots]
        return positions == list(range(positions[0], positions[0] + len(slots)))


@dataclass(frozen=True)
class DmaTransfer:
    """One DMA transfer: an ordered run of label copies on one route.

    Attributes:
        index: Execution order g of the transfer within its instant.
        source_memory: M_s.
        dest_memory: M_d.
        communications: The communications served, in address order.
        total_bytes: Bytes moved.
        source_address: Start address a_{g,s} of the run in M_s.
        dest_address: Start address a_{g,d} of the run in M_d.
    """

    index: int
    source_memory: str
    dest_memory: str
    communications: tuple[Communication, ...]
    total_bytes: int
    source_address: int = 0
    dest_address: int = 0

    def duration_us(self, app: Application) -> float:
        """Worst-case duration: programming + ISR + per-byte copy cost."""
        return app.platform.dma.transfer_duration_us(self.total_bytes)

    def tasks(self) -> set[str]:
        return {comm.task for comm in self.communications}

    def __str__(self) -> str:
        comms = ", ".join(str(c) for c in self.communications)
        return (
            f"d{self.index}({self.source_memory}->{self.dest_memory}: {comms}; "
            f"{self.total_bytes} B)"
        )


@dataclass
class AllocationResult:
    """A solved LET-DMA allocation: layouts, schedule, and statistics.

    Attributes:
        status: Solver status (check :attr:`feasible` before using the
            layouts or transfers).
        objective_value: Objective value (0.0 for NO-OBJ).
        runtime_seconds: MILP solve time.
        layouts: Memory layout per memory id.
        transfers: Ordered DMA transfers at the synchronous release s_0.
        latencies_us: Data acquisition latency of each communicating
            task at s_0 as accounted by Constraint 9.
        num_variables / num_constraints: Model size, for Table I-style
            reporting.
        backend: The solver that produced this result ("highs", "bnb",
            "greedy"); empty when solved outside the runtime layer.
        fallback_chain: Portfolio attempts leading to this result, in
            order (empty for direct single-backend solves).
        best_bound: Solver's proven dual bound on the objective, when
            it reported one (None for heuristic results).
        mip_gap: Relative optimality gap the solver achieved, when
            known (0.0 for proven optima).
        node_count: Branch-and-bound nodes explored by the solver.
        cuts_added: Cutting planes added by the cut layer
            (:mod:`repro.milp.cuts`); 0 when the layer was off or the
            solve never separated.
        cut_rounds: Cut-separation rounds executed (root + node).
        warm_start: Incremental-re-solve provenance: ``"none"`` (cold
            solve), ``"reused"`` (a proven prior answer to a provably
            identical MILP was returned verbatim), or ``"repaired"``
            (a repaired prior solution was validated and supplied to
            the solver as a MIP start).  Warm starts affect speed only,
            never the answer; see :mod:`repro.incremental`.
    """

    status: SolveStatus
    objective_value: float = 0.0
    runtime_seconds: float = 0.0
    layouts: dict[str, MemoryLayout] = field(default_factory=dict)
    transfers: tuple[DmaTransfer, ...] = ()
    latencies_us: dict[str, float] = field(default_factory=dict)
    num_variables: int = 0
    num_constraints: int = 0
    backend: str = ""
    fallback_chain: tuple[FallbackAttempt, ...] = ()
    best_bound: float | None = None
    mip_gap: float | None = None
    node_count: int = 0
    cuts_added: int = 0
    cut_rounds: int = 0
    warm_start: str = "none"

    @property
    def feasible(self) -> bool:
        return self.status.has_solution

    @property
    def nodes_per_second(self) -> float:
        """Tree-search throughput (0.0 when no nodes or no wall time —
        certificate and heuristic results explore no tree)."""
        if self.node_count <= 0 or self.runtime_seconds <= 0.0:
            return 0.0
        return self.node_count / self.runtime_seconds

    @property
    def num_transfers(self) -> int:
        """Number of DMA transfers at the synchronous release."""
        return len(self.transfers)

    # ------------------------------------------------------------------
    # Per-instant schedules (the protocol's set D(t))
    # ------------------------------------------------------------------

    def transfers_at(self, app: Application, t: int) -> list[DmaTransfer]:
        """D(t): the DMA transfers dispatched at instant t.

        Each s_0 transfer is restricted to the communications actually
        required at t; empty restrictions are skipped.  Contiguity of
        the restricted runs is guaranteed by Constraint 6 (enforced for
        every distinct subset) and re-checked by the verifier.
        """
        needed = set(communications_at(app, t))
        schedule: list[DmaTransfer] = []
        for transfer in self.transfers:
            kept = tuple(c for c in transfer.communications if c in needed)
            if not kept:
                continue
            total = sum(c.size_bytes(app) for c in kept)
            layout = self.layouts[transfer.source_memory]
            dest_layout = self.layouts[transfer.dest_memory]
            src_slot, dst_slot = _slots_of(app, kept[0])
            schedule.append(
                DmaTransfer(
                    index=transfer.index,
                    source_memory=transfer.source_memory,
                    dest_memory=transfer.dest_memory,
                    communications=kept,
                    total_bytes=total,
                    source_address=layout.addresses[src_slot],
                    dest_address=dest_layout.addresses[dst_slot],
                )
            )
        return schedule

    def latencies_at(self, app: Application, t: int) -> dict[str, float]:
        """Data acquisition latency of each task with communications at
        instant t, under the proposed protocol (rules R1-R3).

        Transfers execute back to back in index order; a task becomes
        ready at the completion of the last transfer carrying one of
        its communications.
        """
        elapsed = 0.0
        ready: dict[str, float] = {}
        for transfer in self.transfers_at(app, t):
            elapsed += transfer.duration_us(app)
            for task in transfer.tasks():
                ready[task] = elapsed
        return ready

    def worst_case_latencies(self, app: Application) -> dict[str, float]:
        """lambda_i: worst data acquisition latency of each task over
        one full hyperperiod under the proposed protocol."""
        worst: dict[str, float] = {task.name: 0.0 for task in app.tasks}
        from repro.let.grouping import active_instants

        for t in active_instants(app):
            for task, latency in self.latencies_at(app, t).items():
                worst[task] = max(worst[task], latency)
        return worst

    def objective_of(self, app: Application, objective) -> float:
        """The value a paper objective (a
        :class:`~repro.core.formulation.Objective`) takes on this
        allocation: Eq. (4) ``max_i RGI_i``, the index of the last
        transfer at s_0 (``num_transfers - 1``); Eq. (5)
        ``max_i lambda_i / T_i`` over the hyperperiod; 0.0 for NO-OBJ."""
        from repro.core.formulation import Objective

        if objective is Objective.MIN_TRANSFERS:
            return float(max((t.index for t in self.transfers), default=0))
        if objective is Objective.MIN_DELAY_RATIO:
            latencies = self.worst_case_latencies(app)
            return max(latencies[task.name] / task.period_us for task in app.tasks)
        return 0.0

    def summary(self) -> str:
        lines = [
            f"status: {self.status.value}"
            + (f" ({self.backend})" if self.backend else ""),
            f"objective: {self.objective_value:.4f}",
            f"transfers at s0: {self.num_transfers}",
            f"solve time: {self.runtime_seconds:.2f} s",
        ]
        for transfer in self.transfers:
            lines.append(f"  {transfer}")
        return "\n".join(lines)


def _slots_of(app: Application, comm: Communication) -> tuple[str, str]:
    """(source slot, destination slot) identifiers of a communication."""
    memory_id = comm.local_memory_id(app)
    local = f"{comm.label}@{memory_id}#{comm.task}"
    if comm.is_write:
        return local, comm.label
    return comm.label, local


def extract_result(formulation, solution: Solution) -> AllocationResult:
    """Build an :class:`AllocationResult` from a solved formulation."""
    if not solution.status.has_solution:
        return AllocationResult(
            status=solution.status,
            runtime_seconds=solution.runtime_seconds,
            num_variables=formulation.model.num_variables,
            num_constraints=formulation.model.num_constraints,
            best_bound=solution.best_bound,
            mip_gap=solution.mip_gap,
            node_count=solution.node_count,
            cuts_added=solution.cuts_added,
            cut_rounds=solution.cut_rounds,
        )

    app = formulation.app
    layouts = _extract_layouts(formulation, solution)
    transfers = _extract_transfers(formulation, solution, layouts)
    result = AllocationResult(
        status=solution.status,
        objective_value=solution.objective,
        runtime_seconds=solution.runtime_seconds,
        layouts=layouts,
        transfers=tuple(transfers),
        num_variables=formulation.model.num_variables,
        num_constraints=formulation.model.num_constraints,
        best_bound=solution.best_bound,
        mip_gap=solution.mip_gap,
        node_count=solution.node_count,
        cuts_added=solution.cuts_added,
        cut_rounds=solution.cut_rounds,
    )
    # The model's lambda variables are only *lower*-bounded (Constraint
    # 9) and may float above the true value when the objective does not
    # press on them; replaying the extracted schedule is authoritative.
    result.latencies_us = result.latencies_at(app, 0)
    return result


def _extract_layouts(formulation, solution: Solution) -> dict[str, MemoryLayout]:
    layouts: dict[str, MemoryLayout] = {}
    for memory_id, slots in formulation.slots.items():
        if not slots:
            layouts[memory_id] = MemoryLayout(memory_id, (), {}, {})
            continue
        ordered = sorted(
            slots, key=lambda slot: solution.value(formulation.pl[(memory_id, slot)])
        )
        addresses: dict[str, int] = {}
        sizes: dict[str, int] = {}
        cursor = 0
        for slot in ordered:
            size = formulation.slot_sizes[(memory_id, slot)]
            addresses[slot] = cursor
            sizes[slot] = size
            cursor += size
        layouts[memory_id] = MemoryLayout(memory_id, tuple(ordered), addresses, sizes)
    return layouts


def _extract_transfers(
    formulation, solution: Solution, layouts: dict[str, MemoryLayout]
) -> list[DmaTransfer]:
    app = formulation.app
    by_index: dict[int, list[int]] = {}
    for z in range(len(formulation.comms)):
        g = round(solution.value(formulation.cgi[z]))
        by_index.setdefault(g, []).append(z)

    transfers = []
    for g in sorted(by_index):
        zs = by_index[g]
        comms = [formulation.comms[z] for z in zs]
        source, dest = comms[0].route(app)
        # Order the run by source address.
        source_layout = layouts[source]
        comms.sort(key=lambda c: source_layout.addresses[_slots_of(app, c)[0]])
        total = sum(c.size_bytes(app) for c in comms)
        src_slot, dst_slot = _slots_of(app, comms[0])
        transfers.append(
            DmaTransfer(
                index=g,
                source_memory=source,
                dest_memory=dest,
                communications=tuple(comms),
                total_bytes=total,
                source_address=source_layout.addresses[src_slot],
                dest_address=layouts[dest].addresses[dst_slot],
            )
        )
    return transfers
