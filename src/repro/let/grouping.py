"""Grouping of LET communications (Algorithm 1 and Section V-A).

Given an application and a release instant t, this module computes:

* ``G^W(t, tau_i)`` / ``G^R(t, tau_i)``: the necessary LET writes and
  reads of task tau_i at t (Algorithm 1 of the paper);
* ``C^W(t, M_k)`` / ``C^R(t, M_k)``: all writes/reads at t touching the
  local memory M_k;
* ``C(t)``: all LET communications at t;
* ``T*``: the release instants that require at least one communication.

All of them are lookups into one :class:`LetSchedule` per application:
the communications of every instant of the hyperperiod H, computed
once by pair enumeration.  Each producer/consumer pair's necessary
write and read instants (the corrected Eqs. (1)-(2)) repeat with
``LCM(T_w, T_r)``, which divides H, so one cycle tiled over H gives the
pair's share of every instant; instants ``t >= H`` are reduced modulo H.
"""

from __future__ import annotations

import weakref

from repro.let.communication import Communication
from repro.let.skipping import read_instants, write_instants
from repro.model.application import Application

__all__ = [
    "LetSchedule",
    "let_schedule",
    "carry_schedule",
    "let_groups",
    "write_group",
    "read_group",
    "communications_at",
    "writes_at_memory",
    "reads_at_memory",
    "active_instants",
]


class LetSchedule:
    """The LET communications of one hyperperiod of an application.

    Attributes:
        hyperperiod_us: H, the period with which the schedule repeats.
        instants: The active instants of ``[0, H)`` (T*), ascending.
        patterns: The distinct communication sets C(t) over T*, each a
            tuple sorted by :attr:`Communication.sort_key`; instants
            with equal C(t) share one pattern.
        pattern_ids: ``pattern_ids[k]`` indexes ``patterns`` for
            ``instants[k]``.
    """

    __slots__ = (
        "hyperperiod_us",
        "instants",
        "patterns",
        "pattern_ids",
        "_pattern_at",
        "_by_task",
    )

    def __init__(self, app: Application):
        self.hyperperiod_us = app.tasks.hyperperiod_us()
        # Every communication the application can perform, indexed in
        # sort_key order so that a bitmask of indices decodes sorted.
        pairs = []
        comms: set[Communication] = set()
        for producer, consumer in app.communicating_pairs():
            labels = app.shared_between(producer, consumer)
            writes = [Communication.write(producer, label.name) for label in labels]
            reads = [Communication.read(label.name, consumer) for label in labels]
            comms.update(writes)
            comms.update(reads)
            pairs.append((producer, consumer, writes, reads))
        ordered = sorted(comms, key=lambda c: c.sort_key)
        bit = {comm: 1 << i for i, comm in enumerate(ordered)}

        masks: dict[int, int] = {}
        horizon = self.hyperperiod_us
        for producer, consumer, writes, reads in pairs:
            producer_task, consumer_task = app.tasks[producer], app.tasks[consumer]
            for instants, group in (
                (write_instants(producer_task, consumer_task, horizon), writes),
                (read_instants(consumer_task, producer_task, horizon), reads),
            ):
                mask = 0
                for comm in group:
                    mask |= bit[comm]
                for t in instants:
                    masks[t] = masks.get(t, 0) | mask

        self.instants = tuple(sorted(masks))
        pattern_of_mask: dict[int, int] = {}
        patterns: list[tuple[Communication, ...]] = []
        pattern_ids = []
        for t in self.instants:
            mask = masks[t]
            pid = pattern_of_mask.get(mask)
            if pid is None:
                pid = pattern_of_mask[mask] = len(patterns)
                patterns.append(
                    tuple(comm for i, comm in enumerate(ordered) if mask >> i & 1)
                )
            pattern_ids.append(pid)
        self.patterns = tuple(patterns)
        self.pattern_ids = tuple(pattern_ids)
        self._pattern_at = dict(zip(self.instants, self.pattern_ids))
        #: Per pattern, ``task -> (writes, reads)``; filled on demand.
        self._by_task: dict[int, dict[str, tuple[tuple, tuple]]] = {}

    def at(self, t: int) -> tuple[Communication, ...]:
        """C(t), sorted; empty for an instant outside T* (mod H)."""
        pid = self._pattern_at.get(t % self.hyperperiod_us)
        return () if pid is None else self.patterns[pid]

    def groups(self, t: int, task_name: str) -> tuple[tuple, tuple]:
        """(G^W(t, task), G^R(t, task)) as sorted tuples."""
        pid = self._pattern_at.get(t % self.hyperperiod_us)
        if pid is None:
            return (), ()
        by_task = self._by_task.get(pid)
        if by_task is None:
            split: dict[str, tuple[list, list]] = {}
            for comm in self.patterns[pid]:
                writes, reads = split.setdefault(comm.task, ([], []))
                (writes if comm.is_write else reads).append(comm)
            by_task = {
                task: (tuple(writes), tuple(reads))
                for task, (writes, reads) in split.items()
            }
            self._by_task[pid] = by_task
        return by_task.get(task_name, ((), ()))

    def instants_before(self, horizon_us: int) -> list[int]:
        """T* tiled over ``[0, horizon_us)``."""
        result = []
        for offset in range(0, horizon_us, self.hyperperiod_us):
            for t in self.instants:
                if offset + t >= horizon_us:
                    break
                result.append(offset + t)
        return result


#: One schedule per live application (applications are immutable after
#: construction).  Weak keys: a schedule lives exactly as long as its
#: application and is never pickled along with it.
_SCHEDULES: "weakref.WeakKeyDictionary[Application, LetSchedule]" = (
    weakref.WeakKeyDictionary()
)


def let_schedule(app: Application) -> LetSchedule:
    """The application's :class:`LetSchedule`, computed on first use."""
    schedule = _SCHEDULES.get(app)
    if schedule is None:
        schedule = _SCHEDULES[app] = LetSchedule(app)
    return schedule


def _schedule_inputs(app: Application) -> tuple:
    """Everything a schedule depends on: periods, core mapping, labels."""
    tasks = tuple((task.name, task.period_us, task.core_id) for task in app.tasks)
    return tasks, app.labels


def carry_schedule(source: Application, derived: Application) -> None:
    """Give ``derived`` the schedule of ``source`` instead of recomputing it.

    For applications derived from another by changes outside the
    schedule's inputs (e.g. a degraded DMA engine).  Raises
    ``ValueError`` when the two differ in periods, core mapping or
    labels.
    """
    if _schedule_inputs(source) != _schedule_inputs(derived):
        raise ValueError(
            "applications differ in periods, core mapping or labels; "
            "their LET schedules differ"
        )
    _SCHEDULES[derived] = let_schedule(source)


def let_groups(
    app: Application, t: int, task_name: str
) -> tuple[list[Communication], list[Communication]]:
    """Algorithm 1: the sets G^W(t, tau_i) and G^R(t, tau_i).

    Returns the necessary LET writes and reads of ``task_name`` at the
    absolute release instant ``t`` (microseconds).  Instants that are
    not releases of the task yield empty groups.  Results are sorted
    deterministically (by peer task, then label name).
    """
    if t < 0:
        raise ValueError(f"release instant must be non-negative, got {t}")
    app.tasks[task_name]  # unknown tasks raise KeyError
    writes, reads = let_schedule(app).groups(t, task_name)
    return list(writes), list(reads)


def write_group(app: Application, t: int, task_name: str) -> list[Communication]:
    """G^W(t, tau_i): the necessary LET writes of a task at instant t."""
    writes, _ = let_groups(app, t, task_name)
    return writes


def read_group(app: Application, t: int, task_name: str) -> list[Communication]:
    """G^R(t, tau_i): the necessary LET reads of a task at instant t."""
    _, reads = let_groups(app, t, task_name)
    return reads


def communications_at(app: Application, t: int) -> list[Communication]:
    """C(t): all LET communications required at instant t, over all tasks,
    sorted by :attr:`Communication.sort_key`."""
    if t < 0:
        raise ValueError(f"release instant must be non-negative, got {t}")
    return list(let_schedule(app).at(t))


def writes_at_memory(app: Application, t: int, memory_id: str) -> list[Communication]:
    """C^W(t, M_k): LET writes at t whose source is local memory M_k."""
    return [
        comm
        for comm in communications_at(app, t)
        if comm.is_write and comm.local_memory_id(app) == memory_id
    ]


def reads_at_memory(app: Application, t: int, memory_id: str) -> list[Communication]:
    """C^R(t, M_k): LET reads at t whose destination is local memory M_k."""
    return [
        comm
        for comm in communications_at(app, t)
        if comm.is_read and comm.local_memory_id(app) == memory_id
    ]


def active_instants(app: Application, horizon_us: int | None = None) -> list[int]:
    """T*: release instants in ``[0, horizon)`` with at least one
    LET communication.

    Defaults to one full hyperperiod.
    """
    schedule = let_schedule(app)
    if horizon_us is None or horizon_us == schedule.hyperperiod_us:
        return list(schedule.instants)
    return schedule.instants_before(horizon_us)
