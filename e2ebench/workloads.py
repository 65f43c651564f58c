"""The benchmark's three workloads: seeded inputs, one request, checks.

Every workload follows one shape:

* ``setup()`` builds what all requests share (base applications, the
  chaos base allocation) and pays the solver's lazy set-up;
* ``make_input(i)`` draws request ``i`` from the workload's own
  ``random.Random`` seeded by ``(name, seed)`` — the program under
  test only ever sees these generated inputs;
* ``run(input)`` is the one public call a caller waits for, and the
  only part the benchmark times;
* ``check(input, answer)`` verifies the answer outside the timed
  window and returns an :class:`Answer` with its quality figures.

Inputs cycle through a fixed mix (``cycle`` requests: α values or
fault intensities) so every run covers the mix evenly; the seed varies
the WCETs and fault seeds inside it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

import repro
import repro.faults
from repro import FormulationConfig, Objective, verify_allocation
from repro.analysis import assign_acquisition_deadlines
from repro.api import SolveRequest
from repro.faults import FaultSpec, evaluate_robustness
from repro.model import Application, TaskSet
from repro.sim.batch import verify_batch_differential
from repro.waters import waters_application
from repro.workloads.waters_like import WatersLikeSpec, generate_waters_like

__all__ = ["Answer", "WORKLOADS", "delay_ratio", "warm_up"]

#: Per-rung budget of the OBJ-DEL portfolio: both exact rungs run out
#: of it on WATERS today, so a request is two timeouts plus greedy.
#: Each rung still runs its presolve and root work (0.5-1 s) before it
#: first looks at the clock, so the request is mostly computation; a
#: budget of seconds would make it mostly waiting, which the host's
#: speed does not scale.
DEL_RUNG_SECONDS = 0.1

#: Budget of the solves expected to finish (a safety net, never hit).
SOLVE_SECONDS = 60.0

#: Statuses of a proven answer.
PROVEN = ("optimal", "infeasible")


@dataclass
class Answer:
    """What the checks concluded about one request's answer."""

    ok: bool
    reason: str = ""
    variants: int = 1
    transfers: float | None = None
    delay_ratio: float | None = None


def delay_ratio(app: Application, result) -> float:
    """max_i λ_i / T_i, recomputed from the allocation's schedule."""
    latencies = result.worst_case_latencies(app)
    return max(latencies[task.name] / task.period_us for task in app.tasks)


def scale_one_wcet(app: Application, rng: random.Random) -> Application:
    """``app`` with one task's WCET scaled by U(0.8, 1.2)."""
    tasks = list(app.tasks)
    index = rng.randrange(len(tasks))
    task = tasks[index]
    tasks[index] = replace(task, wcet_us=task.wcet_us * rng.uniform(0.8, 1.2))
    return Application(app.platform, TaskSet(tasks), app.labels)


def warm_up() -> None:
    """Solve a tiny instance on every rung, untimed, so scipy/HiGHS
    lazy set-up is paid in set-up and not by the first request."""
    tiny = assign_acquisition_deadlines(
        generate_waters_like(
            WatersLikeSpec(num_perception=1, num_control=2, seed=0)
        ),
        0.3,
    )
    for objective, backend in (
        (Objective.NONE, "highs"),
        (Objective.NONE, "bnb"),
        (Objective.NONE, "greedy"),
        (Objective.MIN_TRANSFERS, "highs"),
        (Objective.MIN_DELAY_RATIO, "highs"),
    ):
        config = FormulationConfig(objective=objective, time_limit_seconds=10.0)
        result = repro.solve(tiny, config, backend=backend)
        if not result.feasible:
            raise RuntimeError(
                f"warm-up {objective.value}/{backend}: {result.status.value}"
            )


class SolveWorkload:
    """``repro.solve`` of seeded variants of a cycled set of bases."""

    name = ""
    objective = Objective.NONE
    time_limit = SOLVE_SECONDS
    #: The first rung proves every answer today (optimal or infeasible).
    must_prove = True

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.bases: list[tuple[Application, float]] = []

    def setup(self) -> None:
        warm_up()
        self.bases = self.make_bases()

    @property
    def cycle(self) -> int:
        return len(self.bases)

    def make_input(self, i: int) -> SolveRequest:
        base, alpha = self.bases[i % self.cycle]
        app = assign_acquisition_deadlines(scale_one_wcet(base, self.rng), alpha)
        config = FormulationConfig(
            objective=self.objective, time_limit_seconds=self.time_limit
        )
        return SolveRequest(app=app, config=config)

    def run(self, request: SolveRequest):
        return repro.solve(request.app, request.config, backend=request.backend)

    def check(self, request: SolveRequest, result) -> Answer:
        status = result.status.value
        # A rung that raised or broke is passed over like a timed-out
        # one and a later rung still answers: only a timeout may be.
        for attempt in result.fallback_chain[:-1]:
            if attempt.status != "timeout":
                return Answer(
                    ok=False,
                    reason=f"rung {attempt.backend} {attempt.status}: "
                    f"{attempt.reason}",
                )
        if self.must_prove and status not in PROVEN:
            return Answer(ok=False, reason=f"not proven: {status} "
                          f"from {result.backend}")
        if status == "infeasible":
            return Answer(ok=True)
        if not result.feasible:
            return Answer(ok=False, reason=f"no allocation: {status}")
        report = verify_allocation(request.app, result)
        if not report.ok:
            return Answer(ok=False, reason="; ".join(report.violations[:3]))
        return Answer(
            ok=True,
            transfers=result.num_transfers,
            delay_ratio=delay_ratio(request.app, result),
        )


class WatersDmat(SolveWorkload):
    name = "waters_dmat"
    objective = Objective.MIN_TRANSFERS

    def make_bases(self):
        return [(waters_application(), alpha) for alpha in (0.2, 0.3, 0.4)]


class WatersDel(SolveWorkload):
    name = "waters_del"
    objective = Objective.MIN_DELAY_RATIO
    time_limit = DEL_RUNG_SECONDS
    #: The exact rungs time out and greedy answers, unproven.
    must_prove = False

    def make_bases(self):
        return [(waters_application(), alpha) for alpha in (0.2, 0.4)]


class ChaosWaters:
    """``evaluate_robustness_batch`` of one WATERS OBJ-DMAT allocation
    over a seeded fault grid shaped as ``chaos_grid(batch=True)`` sends
    it — intensities x fault seeds x policies in one batch — with two
    intensities a batch: the null-fault control point 0 and one of the
    other ``ChaosConfig`` intensities, cycled.  A cycle covers every
    intensity; the seed draws the fault seeds.

    No MILP runs in a request, so set-up skips the solver warm-up; the
    base solve is its own warm-up."""

    name = "chaos_waters"
    ALPHA = 0.3
    #: ``repro.faults.ChaosConfig``'s default intensities; each batch
    #: holds the first (0, the control point) and one of the others.
    INTENSITIES = (0.0, 0.25, 0.5, 1.0)
    FAULT_SEEDS = 3
    POLICIES = ("stale-data", "fail-stop")
    #: One input class per faulty intensity.
    cycle = len(INTENSITIES) - 1
    #: Variants of each grid replayed through the scalar engine (the
    #: first of the shuffled grid).
    REPLAYS = 1

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.scalar_checked = False

    def setup(self) -> None:
        self.app = assign_acquisition_deadlines(waters_application(), self.ALPHA)
        config = FormulationConfig(
            objective=Objective.MIN_TRANSFERS, time_limit_seconds=SOLVE_SECONDS
        )
        self.base = repro.solve(self.app, config)
        report = verify_allocation(self.app, self.base)
        if not report.ok:
            raise RuntimeError(f"chaos base allocation: {report.violations}")
        self.transfers = self.base.num_transfers
        self.delay_ratio = delay_ratio(self.app, self.base)

    def make_input(self, i: int) -> list[tuple[FaultSpec, str]]:
        seeds = [self.rng.randrange(1 << 31) for _ in range(self.FAULT_SEEDS)]
        grid = [
            (FaultSpec.from_intensity(intensity, seed=s), policy)
            for intensity in (self.INTENSITIES[0],
                              self.INTENSITIES[1 + i % self.cycle])
            for s in seeds
            for policy in self.POLICIES
        ]
        # Shuffled, so the variants the checks replay are a seeded sample.
        self.rng.shuffle(grid)
        return grid

    def run(self, grid):
        # Called through the package attribute, which the tracer patches.
        return repro.faults.evaluate_robustness_batch(self.app, self.base, grid)

    def check(self, grid, outcome) -> Answer:
        reports = outcome.reports
        if len(reports) != len(grid):
            return Answer(ok=False, reason="one report per variant expected")
        for (spec, policy), report in zip(grid, reports):
            if report.spec != spec or report.policy != policy:
                return Answer(ok=False, reason="reports out of grid order")
            if not 0 <= report.deadline_misses <= report.total_jobs:
                return Answer(ok=False, reason="deadline misses out of range")
        try:
            verify_batch_differential(
                self.app, outcome.timelines, outcome.batch, sample=self.REPLAYS
            )
        except AssertionError as exc:
            return Answer(ok=False, reason=str(exc))
        # The first grid of a run also re-evaluates one variant's whole
        # report with the scalar engine (about half a request's cost).
        if not self.scalar_checked:
            self.scalar_checked = True
            middle = len(grid) // 2
            spec, policy = grid[middle]
            scalar = evaluate_robustness(self.app, self.base, spec, policy)
            if scalar != reports[middle]:
                return Answer(ok=False, reason="batch report differs from scalar")
        return Answer(
            ok=True,
            variants=len(grid),
            transfers=self.transfers,
            delay_ratio=self.delay_ratio,
        )


#: Workload name -> class.
WORKLOADS = {
    cls.name: cls for cls in (WatersDmat, WatersDel, ChaosWaters)
}
