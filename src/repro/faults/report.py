"""Robustness evaluation: simulate one allocation under fault.

:func:`evaluate_robustness` is the single-run core of the chaos
harness.  Given a solved allocation and a
:class:`~repro.faults.spec.FaultSpec`, it

1. degrades the platform's DMA rate (scaled omega_c) and rebuilds the
   communication timeline from the *same* allocation — the schedule was
   optimized for the nominal rate, the faults hit at runtime;
2. threads a :class:`~repro.faults.injector.FaultInjector` through the
   protocol's per-dispatch hook (transient transfer retries) and the
   simulator's job hooks (WCET overruns, release jitter);
3. runs the chosen graceful-degradation policy
   (:mod:`repro.faults.policies`) on top of the injector;
4. reruns the allocation verifier in diagnostic mode against the
   degraded platform, so Property-3 and acquisition-deadline violations
   under fault are counted per category rather than raised.

The resulting :class:`RobustnessReport` aggregates deadline misses,
acquisition misses, per-label staleness, and verifier violations, and
serializes to a telemetry record via :meth:`RobustnessReport.to_record`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.solution import AllocationResult
from repro.core.verifier import VerificationReport, verify_allocation
from repro.faults.injector import FaultInjector
from repro.faults.policies import PolicyStats, make_policy
from repro.faults.spec import FaultSpec
from repro.let.grouping import carry_schedule
from repro.model.application import Application
from repro.sim.dma_device import degrade_dma_parameters
from repro.sim.engine import simulate
from repro.sim.timeline import proposed_timeline
from repro.sim.trace import SimulationResult

__all__ = ["RobustnessReport", "degraded_application", "evaluate_robustness"]


def degraded_application(app: Application, spec: FaultSpec) -> Application:
    """The application on a platform with the spec's DMA slowdown.

    With ``dma_slowdown == 1`` the original object is returned
    untouched, preserving the byte-identical zero-intensity guarantee.
    Only the DMA engine changes, so the derived application carries
    ``app``'s LET schedule instead of recomputing it.
    """
    if spec.dma_slowdown == 1.0:
        return app
    platform = replace(
        app.platform,
        dma=degrade_dma_parameters(app.platform.dma, spec.dma_slowdown),
    )
    degraded = Application(platform, app.tasks, app.labels)
    carry_schedule(app, degraded)
    return degraded


@dataclass
class RobustnessReport:
    """Outcome of one robustness run (one allocation, one fault spec).

    Attributes:
        spec: The injected fault configuration.
        policy: Name of the degradation policy that ran.
        total_jobs: Jobs simulated over the horizon.
        deadline_misses: Jobs past their absolute deadline (includes
            dropped jobs, whose completion is never set).
        acquisition_misses: Jobs whose LET inputs overran gamma_i.
        dropped_jobs: Jobs the fail-stop policy refused to run.
        max_staleness: Per label, longest consecutive run of stale
            consumptions under the stale-data policy.
        property3_violations: Verifier diagnostic count: instants whose
            transfers no longer fit before the next active instant at
            the degraded DMA rate.
        deadline_violations: Verifier diagnostic count: analytic
            acquisition-deadline violations at the degraded DMA rate.
        simulation: The full fault-run simulation result.
        diagnostic: The verifier's diagnostic report under fault.
    """

    spec: FaultSpec
    policy: str
    total_jobs: int
    deadline_misses: int
    acquisition_misses: int
    dropped_jobs: int
    max_staleness: dict[str, int] = field(default_factory=dict)
    property3_violations: int = 0
    deadline_violations: int = 0
    simulation: SimulationResult | None = None
    diagnostic: VerificationReport | None = None

    @property
    def clean(self) -> bool:
        """True when the run shows no degradation at all."""
        return (
            self.deadline_misses == 0
            and self.acquisition_misses == 0
            and self.dropped_jobs == 0
            and self.property3_violations == 0
            and self.deadline_violations == 0
        )

    @property
    def worst_staleness(self) -> int:
        """The largest per-label staleness, 0 when nothing went stale."""
        return max(self.max_staleness.values(), default=0)

    def to_record(self) -> dict:
        """JSON-ready metrics (embedded in chaos telemetry records)."""
        return {
            "policy": self.policy,
            "fault_spec": self.spec.to_dict(),
            "total_jobs": self.total_jobs,
            "deadline_misses": self.deadline_misses,
            "acquisition_misses": self.acquisition_misses,
            "dropped_jobs": self.dropped_jobs,
            "max_staleness": dict(self.max_staleness),
            "worst_staleness": self.worst_staleness,
            "property3_violations": self.property3_violations,
            "deadline_violations": self.deadline_violations,
            "clean": self.clean,
        }

    def summary(self) -> str:
        """One line per metric, for the CLI."""
        lines = [
            f"robustness ({self.policy}): {self.total_jobs} jobs, "
            f"{self.deadline_misses} deadline miss(es), "
            f"{self.acquisition_misses} acquisition miss(es), "
            f"{self.dropped_jobs} dropped",
            f"  Property-3 violations under fault: {self.property3_violations}",
            f"  analytic deadline violations under fault: {self.deadline_violations}",
        ]
        if self.max_staleness:
            worst = sorted(
                self.max_staleness.items(), key=lambda kv: (-kv[1], kv[0])
            )
            rendered = ", ".join(f"{label}={age}" for label, age in worst[:5])
            lines.append(f"  max staleness per label: {rendered}")
        return "\n".join(lines)


def evaluate_robustness(
    app: Application,
    result: AllocationResult,
    spec: FaultSpec,
    policy: str = "stale-data",
    horizon_us: int | None = None,
    keep_simulation: bool = False,
) -> RobustnessReport:
    """Simulate one allocation under one fault spec; see module doc.

    ``keep_simulation`` retains the full
    :class:`~repro.sim.trace.SimulationResult` and diagnostic
    :class:`~repro.core.verifier.VerificationReport` on the returned
    report (dropped by default to keep campaign records light).
    """
    injector = FaultInjector(spec)
    faulty_app = degraded_application(app, spec)
    timeline = proposed_timeline(
        faulty_app, result, horizon_us, transfer_hook=injector
    )
    hooks = make_policy(policy, app, inner=injector)
    simulation = simulate(app, timeline, horizon_us, hooks=hooks)
    diagnostic = verify_allocation(
        faulty_app, result, check_theorem1=False
    )
    stats: PolicyStats = hooks.stats
    report = RobustnessReport(
        spec=spec,
        policy=policy,
        total_jobs=len(simulation.jobs),
        deadline_misses=len(simulation.deadline_misses()),
        acquisition_misses=stats.total_acquisition_misses,
        dropped_jobs=stats.total_dropped_jobs,
        max_staleness=dict(stats.max_staleness),
        property3_violations=diagnostic.count("property3"),
        deadline_violations=diagnostic.count("deadline"),
    )
    if keep_simulation:
        report.simulation = simulation
        report.diagnostic = diagnostic
    return report
