"""MILP presolve: bound propagation, fixing, big-M tightening, symmetry.

Runs before any backend (HiGHS or the pure-Python branch and bound) and
produces a smaller, equivalent model plus the bookkeeping needed to map
a solution of the reduced model back onto the original variables.

The passes are the classic activity-based ones (Achterberg et al.,
"Presolve reductions in mixed integer programming"):

* **bound propagation** — for every row, the minimum activity of all
  but one variable implies a bound on that variable; integer bounds are
  rounded inward.  Iterated to a fixpoint, this fixes the trivially
  decided binaries (e.g. the ``CG[z][g]`` columns killed by Constraint
  10's transfer-index caps, and the ``AD`` adjacencies excluded by
  pinned positions).
* **redundant row removal** — rows satisfied by the variable bounds
  alone (dominated ordering constraints, vacuous big-M rows) are
  dropped.
* **big-M coefficient tightening** — in a row ``S + a*x <= b`` with
  binary ``x`` and ``M0 = max S``, a coefficient larger than needed to
  enforce the ``x = 1`` case is shrunk (``a' = a - (b - M0)``,
  ``b' = M0`` for ``a > 0``; ``a' = b - M0`` for ``a < 0``), which
  keeps the integer feasible set identical while cutting the LP
  relaxation.
* **substitution** — variables whose bounds collapse are fixed and
  folded into the right-hand sides; their objective contribution is
  kept as an offset restored after the solve.

Symmetry breaking is formulation-aware and lives in
:func:`pin_free_slots`: memory slots that never participate in a
contiguity (Constraint 6) subset are interchangeable, so they are
pinned to the tail of the allocation chain in a canonical order, after
which propagation fixes the associated ``AD`` adjacency binaries.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

from repro.milp.expr import (
    LinExpr,
    Sense,
    Var,
    VarType,
    bounds_signature,
)
from repro.milp.model import MilpModel
from repro.milp.result import Solution, SolveStatus

__all__ = [
    "PresolveStats",
    "PresolvedModel",
    "presolve_model",
    "pin_free_slots",
    "label_orbits",
    "add_label_orbit_rows",
]

logger = logging.getLogger("repro.milp.presolve")

#: Constraint feasibility slack (matches the backends' LP tolerance).
_FEAS_TOL = 1e-7
#: Minimum improvement for a bound/coefficient change to count.
_TIGHT_TOL = 1e-7
#: Integrality slack when rounding integer bounds inward.
_INT_TOL = 1e-6

_INF = math.inf


@dataclass
class PresolveStats:
    """What one presolve run did to the formulation."""

    cols_before: int = 0
    cols_after: int = 0
    rows_before: int = 0
    rows_after: int = 0
    binaries_fixed: int = 0
    vars_fixed: int = 0
    bounds_tightened: int = 0
    coefficients_tightened: int = 0
    rows_dropped: int = 0
    rounds: int = 0
    seconds: float = 0.0

    def summary(self) -> str:
        return (
            f"presolve: {self.cols_before}x{self.rows_before} -> "
            f"{self.cols_after}x{self.rows_after} (vars x rows), "
            f"{self.vars_fixed} fixed ({self.binaries_fixed} binary), "
            f"{self.bounds_tightened} bounds and "
            f"{self.coefficients_tightened} coefficients tightened, "
            f"{self.rows_dropped} rows dropped, {self.rounds} rounds, "
            f"{self.seconds * 1e3:.1f} ms"
        )


class _Row:
    """One normalized constraint row (``GE`` rows are negated to ``LE``)."""

    __slots__ = ("coeffs", "rhs", "eq", "name", "alive")

    def __init__(self, coeffs: dict[int, float], rhs: float, eq: bool, name: str):
        self.coeffs = coeffs
        self.rhs = rhs
        self.eq = eq
        self.name = name
        self.alive = True


@dataclass
class PresolvedModel:
    """A reduced model plus the mapping back to the original one."""

    original: MilpModel
    reduced: MilpModel | None
    fixed: dict[int, float]
    var_map: dict[int, Var]
    objective_offset: float
    stats: PresolveStats
    infeasible: bool = False
    _restored_vars: dict = field(default_factory=dict, repr=False)

    def trivial_solution(self) -> Solution:
        """The solution when presolve fixed every variable."""
        values = {var: self.fixed[var.index] for var in self.original.variables}
        return Solution(
            status=SolveStatus.OPTIMAL,
            objective=self.objective_offset,
            values=values,
            runtime_seconds=self.stats.seconds,
            message="presolve: all variables fixed",
            best_bound=self.objective_offset,
            mip_gap=0.0,
        )

    def restore(self, solution: Solution) -> Solution:
        """Map a solution of the reduced model back to the original."""
        best_bound = solution.best_bound
        if best_bound is not None:
            best_bound += self.objective_offset
        if not solution.status.has_solution:
            return Solution(
                status=solution.status,
                runtime_seconds=solution.runtime_seconds + self.stats.seconds,
                message=solution.message,
                best_bound=best_bound,
                mip_gap=solution.mip_gap,
                node_count=solution.node_count,
                lp_calls=solution.lp_calls,
                incumbent_seconds=solution.incumbent_seconds,
                seeded=solution.seeded,
                cuts_added=solution.cuts_added,
                cut_rounds=solution.cut_rounds,
            )
        values = {}
        for var in self.original.variables:
            if var.index in self.fixed:
                values[var] = self.fixed[var.index]
            else:
                values[var] = solution.values[self.var_map[var.index]]
        objective = solution.objective + self.objective_offset
        gap = solution.mip_gap
        if best_bound is not None:
            gap = abs(objective - best_bound) / max(1.0, abs(objective))
        return Solution(
            status=solution.status,
            objective=objective,
            values=values,
            runtime_seconds=solution.runtime_seconds + self.stats.seconds,
            message=solution.message,
            best_bound=best_bound,
            mip_gap=gap,
            node_count=solution.node_count,
            lp_calls=solution.lp_calls,
            incumbent_seconds=solution.incumbent_seconds,
            seeded=solution.seeded,
            cuts_added=solution.cuts_added,
            cut_rounds=solution.cut_rounds,
        )

    def translate_start(self, start: dict) -> "dict | None":
        """Map a warm start over the original variables onto the
        reduced model.

        Returns None when the start is incomplete, contradicts a value
        presolve proved fixed, or violates a tightened bound — the
        caller then solves cold.  Presolve fixings are implied by the
        constraints, so any genuinely feasible start must agree with
        them; a disagreement means the start is stale.
        """
        tol = 1e-6
        translated: dict = {}
        for var in self.original.variables:
            value = start.get(var)
            if value is None:
                return None
            if var.index in self.fixed:
                if abs(value - self.fixed[var.index]) > tol:
                    return None
                continue
            reduced_var = self.var_map[var.index]
            if value < reduced_var.lower - tol or value > reduced_var.upper + tol:
                return None
            translated[reduced_var] = min(
                max(value, reduced_var.lower), reduced_var.upper
            )
        return translated


#: Presolve results kept per model instance.  The transfer ladder
#: (:mod:`repro.milp.cuts`) probes a handful of bound profiles and the
#: portfolio re-visits them across rungs, so a few entries cover the
#: working set without holding every probe's reduction alive.
_PRESOLVE_CACHE_MAX = 6


def presolve_model(model: MilpModel, max_rounds: int = 10) -> PresolvedModel:
    """Run the presolve passes and return the reduced model.

    The result is cached on the model instance — keyed by its column
    count, its row-store revision *and* a bounds fingerprint, because
    variable bounds mutate in place (the cut layer's transfer ladder)
    without changing the rows — so portfolio rungs sharing one
    formulation presolve each bound profile once.
    """
    cache_key = (
        model.num_variables,
        model.rows.revision,
        bounds_signature(model.variables),
    )
    cache = model.__dict__.setdefault("_presolve_cache", {})
    cached = cache.get(cache_key)
    if cached is not None:
        return cached
    presolved = _Presolver(model, max_rounds).run()
    while len(cache) >= _PRESOLVE_CACHE_MAX:
        cache.pop(next(iter(cache)))
    cache[cache_key] = presolved
    logger.debug("%s: %s", model.name, presolved.stats.summary())
    return presolved


class _Presolver:
    def __init__(self, model: MilpModel, max_rounds: int):
        self.model = model
        self.max_rounds = max_rounds
        self.lower = [float(var.lower) for var in model.variables]
        self.upper = [float(var.upper) for var in model.variables]
        self.is_int = [
            var.var_type in (VarType.INTEGER, VarType.BINARY)
            for var in model.variables
        ]
        self.fixed: dict[int, float] = {}
        self.stats = PresolveStats(
            cols_before=model.num_variables, rows_before=model.num_constraints
        )
        self.infeasible = False

        self.rows: list[_Row] = []
        self.col_rows: dict[int, list[_Row]] = {}
        store = model.rows
        for i, sense in enumerate(store.senses):
            indices, coefs = store.terms(i)
            rhs = store.rhs[i]
            if sense is Sense.GE:
                coeffs = {j: -float(a) for j, a in zip(indices, coefs) if a != 0.0}
                rhs = -rhs
            else:
                coeffs = {j: float(a) for j, a in zip(indices, coefs) if a != 0.0}
            row = _Row(coeffs, rhs, sense is Sense.EQ, store.names[i])
            self.rows.append(row)
            for j in coeffs:
                self.col_rows.setdefault(j, []).append(row)

    # -- passes --------------------------------------------------------

    def run(self) -> PresolvedModel:
        start = time.perf_counter()
        self._round_integer_bounds()
        for round_index in range(self.max_rounds):
            if self.infeasible:
                break
            self.stats.rounds = round_index + 1
            changed = False
            for row in self.rows:
                if not row.alive:
                    continue
                changed |= self._sweep_row(row)
                if self.infeasible:
                    break
            changed |= self._substitute_fixed()
            if not changed:
                break
        self.stats.seconds = time.perf_counter() - start
        return self._finish()

    def _round_integer_bounds(self) -> None:
        for j, integral in enumerate(self.is_int):
            if not integral:
                continue
            lo, hi = self.lower[j], self.upper[j]
            if lo > -_INF:
                self.lower[j] = math.ceil(lo - _INT_TOL)
            if hi < _INF:
                self.upper[j] = math.floor(hi + _INT_TOL)
            if self.lower[j] > self.upper[j]:
                self.infeasible = True

    def _sweep_row(self, row: _Row) -> bool:
        changed = self._propagate_le(row, negate=False)
        if self.infeasible or not row.alive:
            return changed
        if row.eq:
            changed |= self._propagate_le(row, negate=True)
        else:
            changed |= self._tighten_coefficients(row)
        return changed

    def _activity(self, row: _Row, negate: bool):
        """(min_sum, n_min_inf, max_sum, n_max_inf) of the row's lhs."""
        min_sum = 0.0
        max_sum = 0.0
        n_min_inf = 0
        n_max_inf = 0
        sign = -1.0 if negate else 1.0
        for j, raw in row.coeffs.items():
            a = sign * raw
            if a > 0:
                lo_c, hi_c = a * self.lower[j], a * self.upper[j]
            else:
                lo_c, hi_c = a * self.upper[j], a * self.lower[j]
            if lo_c == -_INF:
                n_min_inf += 1
            else:
                min_sum += lo_c
            if hi_c == _INF:
                n_max_inf += 1
            else:
                max_sum += hi_c
        return min_sum, n_min_inf, max_sum, n_max_inf

    def _propagate_le(self, row: _Row, negate: bool) -> bool:
        """Feasibility, redundancy, and bound propagation for one ``<=``
        view of a row (``negate=True`` is the ``>=`` direction of an
        equality)."""
        sign = -1.0 if negate else 1.0
        rhs = sign * row.rhs
        min_sum, n_min_inf, max_sum, n_max_inf = self._activity(row, negate)

        if n_min_inf == 0 and min_sum > rhs + _FEAS_TOL:
            self.infeasible = True
            return False
        if row.eq:
            if not negate and n_max_inf == 0 and max_sum < row.rhs - _FEAS_TOL:
                self.infeasible = True
                return False
            redundant = (
                n_min_inf == 0
                and n_max_inf == 0
                and min_sum >= row.rhs - _FEAS_TOL
                and max_sum <= row.rhs + _FEAS_TOL
            )
        else:
            redundant = n_max_inf == 0 and max_sum <= rhs + _FEAS_TOL
        if redundant:
            row.alive = False
            self.stats.rows_dropped += 1
            return True

        changed = False
        for j, raw in row.coeffs.items():
            a = sign * raw
            lo_c = a * self.lower[j] if a > 0 else a * self.upper[j]
            if n_min_inf == 0:
                rest = min_sum - lo_c
            elif n_min_inf == 1 and lo_c == -_INF:
                rest = min_sum
            else:
                continue
            bound = (rhs - rest) / a
            if a > 0:
                if self.is_int[j]:
                    bound = math.floor(bound + _INT_TOL)
                if bound < self.upper[j] - _TIGHT_TOL:
                    self.upper[j] = bound
                    self.stats.bounds_tightened += 1
                    changed = True
            else:
                if self.is_int[j]:
                    bound = math.ceil(bound - _INT_TOL)
                if bound > self.lower[j] + _TIGHT_TOL:
                    self.lower[j] = bound
                    self.stats.bounds_tightened += 1
                    changed = True
            if self.lower[j] > self.upper[j] + _FEAS_TOL:
                self.infeasible = True
                return changed
        return changed

    def _is_free_binary(self, j: int) -> bool:
        return self.is_int[j] and self.lower[j] == 0.0 and self.upper[j] == 1.0

    def _tighten_coefficients(self, row: _Row) -> bool:
        """Big-M tightening on a ``<=`` row: shrink binary coefficients
        that over-enforce.  Preserves the integer feasible set exactly;
        only the LP relaxation shrinks."""
        _, _, max_sum, n_max_inf = self._activity(row, negate=False)
        if n_max_inf > 0:
            return False
        changed = False
        for j, a in list(row.coeffs.items()):
            if not self._is_free_binary(j):
                continue
            contrib = a if a > 0 else 0.0
            others_max = max_sum - contrib
            if a > 0 and others_max < row.rhs - _TIGHT_TOL:
                new_a = a - (row.rhs - others_max)
                if new_a <= _TIGHT_TOL:
                    continue  # the x=1 case is vacuous: redundancy handles it
                row.coeffs[j] = new_a
                row.rhs = others_max
                max_sum = others_max + new_a
                self.stats.coefficients_tightened += 1
                changed = True
            elif a < 0 and others_max > row.rhs + _TIGHT_TOL:
                if others_max < row.rhs - a - _TIGHT_TOL:
                    new_a = row.rhs - others_max
                    row.coeffs[j] = new_a
                    self.stats.coefficients_tightened += 1
                    changed = True
        return changed

    def _substitute_fixed(self) -> bool:
        changed = False
        for j in range(len(self.lower)):
            if j in self.fixed:
                continue
            if self.upper[j] - self.lower[j] > _FEAS_TOL:
                continue
            value = (
                float(round(self.lower[j]))
                if self.is_int[j]
                else 0.5 * (self.lower[j] + self.upper[j])
            )
            self.fixed[j] = value
            self.stats.vars_fixed += 1
            if self.model.variables[j].var_type is VarType.BINARY:
                self.stats.binaries_fixed += 1
            changed = True
            for row in self.col_rows.get(j, ()):
                coef = row.coeffs.pop(j, None)
                if coef is None or not row.alive:
                    continue
                row.rhs -= coef * value
                if not row.coeffs:
                    self._close_empty_row(row)
        return changed

    def _close_empty_row(self, row: _Row) -> None:
        if row.eq:
            feasible = abs(row.rhs) <= _FEAS_TOL
        else:
            feasible = row.rhs >= -_FEAS_TOL
        if not feasible:
            self.infeasible = True
        row.alive = False
        self.stats.rows_dropped += 1

    # -- output --------------------------------------------------------

    def _finish(self) -> PresolvedModel:
        model = self.model
        if self.infeasible:
            self.stats.cols_after = 0
            self.stats.rows_after = 0
            return PresolvedModel(
                original=model,
                reduced=None,
                fixed=dict(self.fixed),
                var_map={},
                objective_offset=0.0,
                stats=self.stats,
                infeasible=True,
            )
        reduced = MilpModel(f"{model.name}+pre")
        var_map: dict[int, Var] = {}
        for var in model.variables:
            if var.index in self.fixed:
                continue
            if var.var_type is VarType.BINARY:
                new_var = reduced.add_binary(var.name)
            else:
                new_var = reduced.add_var(
                    var.name,
                    var.var_type,
                    self.lower[var.index],
                    self.upper[var.index],
                )
            var_map[var.index] = new_var
        for row in self.rows:
            if not row.alive or not row.coeffs:
                continue
            reduced.add_row(
                [var_map[j] for j in row.coeffs],
                list(row.coeffs.values()),
                Sense.EQ if row.eq else Sense.LE,
                row.rhs,
                row.name,
            )

        # Backends report sum(coef * value) without the expression
        # constant, so the offset tracks only fixed-variable terms.
        offset = 0.0
        obj_terms: dict[Var, float] = {}
        for var, coef in model.objective.terms.items():
            if var.index in self.fixed:
                offset += coef * self.fixed[var.index]
            else:
                obj_terms[var_map[var.index]] = (
                    obj_terms.get(var_map[var.index], 0.0) + coef
                )
        reduced.objective = LinExpr(obj_terms)
        reduced.objective_sense = model.objective_sense

        self.stats.cols_after = reduced.num_variables
        self.stats.rows_after = reduced.num_constraints
        return PresolvedModel(
            original=model,
            reduced=reduced,
            fixed=dict(self.fixed),
            var_map=var_map,
            objective_offset=offset,
            stats=self.stats,
        )


# ----------------------------------------------------------------------
# Formulation-aware symmetry breaking
# ----------------------------------------------------------------------


def pin_free_slots(formulation) -> int:
    """Break slot-permutation symmetry in the positional variables.

    A memory slot is *free* when it never appears in a Constraint 6
    contiguity subset (any direction, any active instant): no ``PADJ``
    or ``LG`` variable references its adjacency, so the only constraints
    on its position are the chain equations (Constraints 4-5).  Any
    feasible layout can be rearranged — splicing the free slots out and
    appending them at the tail in a canonical order — without touching
    a single adjacency that Constraint 6 can use, so pinning them costs
    no solutions and no objective value.

    Adds ``PL == position`` equalities for the free slots (tail
    positions, declaration order) and ``PL <= first tail position - 1``
    caps for the constrained slots; presolve's bound propagation then
    fixes the excluded ``AD`` binaries through Constraints 4-5.

    Duck-typed on :class:`repro.core.formulation.LetDmaFormulation`
    (avoids a core -> milp -> core import cycle).  The formulation's
    ``slot_position_base`` says which position its first slot occupies
    (1 in the paper's chain encoding, where 0 is the HEAD sentinel; 0
    in the positional one-hot encoding).  Returns the number of pinned
    slots.
    """
    model = formulation.model
    base = getattr(formulation, "slot_position_base", 1)
    global_id = formulation.app.platform.global_memory.memory_id
    constrained: set[tuple[str, str]] = set()
    for variants in formulation._distinct_group_subsets().values():
        for zs in variants:
            if len(zs) < 2:
                continue
            for z in zs:
                constrained.add((global_id, formulation.global_slot[z]))
                constrained.add(
                    (formulation.local_memory[z], formulation.local_slot[z])
                )
    pinned = 0
    for memory_id, slots in formulation.slots.items():
        if not slots:
            continue
        free = [slot for slot in slots if (memory_id, slot) not in constrained]
        if not free:
            continue
        tail_start = base + len(slots) - len(free)
        for offset, slot in enumerate(free):
            model.add(
                formulation.pl[(memory_id, slot)] == tail_start + offset,
                name=f"SYM_pin[{memory_id}][{slot}]",
            )
        if len(free) < len(slots):
            for slot in slots:
                if (memory_id, slot) in constrained:
                    model.add(
                        formulation.pl[(memory_id, slot)] <= tail_start - 1,
                        name=f"SYM_cap[{memory_id}][{slot}]",
                    )
        pinned += len(free)
    return pinned


def label_orbits(formulation) -> list[list[str]]:
    """Permutation orbits of interchangeable shared labels.

    Two labels are in one orbit when they have equal ``size_bytes`` and
    the same multiset of ``(task, direction, local memory)`` over their
    communications.  Swapping two such labels everywhere — global slot,
    per-task local slots, and the transfer memberships of their
    communications — maps any feasible assignment to a feasible
    assignment with the same objective: every constraint family is
    generated from exactly that data (variant membership depends only
    on the tasks, Constraint 10 caps and acquisition deadlines only on
    task identity and byte sizes).

    Orbit members whose global slot is *free* (pinned by
    :func:`pin_free_slots`) are dropped: their positions are already
    fixed, so there is no symmetry left to break.  Only orbits with at
    least two remaining members are returned, members sorted by name.
    """
    app = formulation.app
    global_id = app.platform.global_memory.memory_id
    constrained: set[tuple[str, str]] = set()
    for variants in formulation._distinct_group_subsets().values():
        for zs in variants:
            if len(zs) < 2:
                continue
            for z in zs:
                constrained.add((global_id, formulation.global_slot[z]))
    comms_of: dict[str, list[tuple]] = {}
    for z, comm in enumerate(formulation.comms):
        comms_of.setdefault(comm.label, []).append(
            (comm.task, comm.direction.value, formulation.local_memory[z])
        )
    fingerprints: dict[tuple, list[str]] = {}
    for label in app.shared_labels:
        name = label.name
        if (global_id, name) not in constrained:
            continue
        key = (label.size_bytes, tuple(sorted(comms_of.get(name, []))))
        fingerprints.setdefault(key, []).append(name)
    return sorted(
        sorted(members) for members in fingerprints.values() if len(members) >= 2
    )


def add_label_orbit_rows(formulation) -> int:
    """Add lexicographic ordering rows for each label orbit.

    For consecutive members ``a < b`` (by name) of one orbit, requires
    ``PL[MG][a] + 1 <= PL[MG][b]``: of all assignments reachable by
    permuting an orbit, only the one placing its members in name order
    along the global-memory chain survives.  These are *symmetry* rows,
    not valid inequalities — they deliberately cut feasible (symmetric)
    integer points, which is why they are added to the formulation here
    and never emitted through the cut pool (whose rows must preserve
    every feasible point; see the cut property test).

    Stores the orbits on the formulation (``_label_orbits``) so the
    cut layer's constructive heuristic can canonicalize its assignment
    to respect these rows.  Returns the number of rows added.
    """
    model = formulation.model
    global_id = formulation.app.platform.global_memory.memory_id
    orbits = label_orbits(formulation)
    formulation._label_orbits = orbits
    rows = 0
    for members in orbits:
        for a, b in zip(members, members[1:]):
            model.add(
                formulation.pl[(global_id, a)] + 1
                <= formulation.pl[(global_id, b)],
                name=f"SYM_orbit[{a}][{b}]",
            )
            rows += 1
    return rows
