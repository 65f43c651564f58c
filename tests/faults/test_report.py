"""Tests for robustness evaluation and reporting."""

import pytest

from repro.core import Objective
from repro.faults import FaultSpec, degraded_application, evaluate_robustness
from repro.reporting import solve_instance


@pytest.fixture(scope="module")
def solved():
    return solve_instance(
        Objective.MIN_TRANSFERS, 0.2, backend="greedy", verify=False
    )


class TestDegradedApplication:
    def test_slowdown_scales_copy_cost(self, solved):
        app, _ = solved
        degraded = degraded_application(app, FaultSpec(dma_slowdown=2.0))
        assert degraded.platform.dma.copy_cost_us_per_byte == pytest.approx(
            2.0 * app.platform.dma.copy_cost_us_per_byte
        )
        # Tasks and labels are shared, only the platform is rebuilt.
        assert degraded.tasks is app.tasks
        assert degraded.labels is app.labels

    def test_carries_the_let_schedule(self, solved):
        from repro.let.grouping import LetSchedule, let_schedule

        app, _ = solved
        degraded = degraded_application(app, FaultSpec(dma_slowdown=2.0))
        carried = let_schedule(degraded)
        assert carried is let_schedule(app)
        fresh = LetSchedule(degraded)
        assert carried.instants == fresh.instants
        assert carried.patterns == fresh.patterns
        assert carried.pattern_ids == fresh.pattern_ids

    def test_slowdown_below_one_rejected(self, solved):
        app, _ = solved
        with pytest.raises(ValueError):
            degraded_application(app, FaultSpec(dma_slowdown=0.5))


class TestEvaluateRobustness:
    def test_wcet_overrun_produces_deadline_misses(self, solved):
        app, result = solved
        spec = FaultSpec.from_intensity(1.0, seed=0)
        report = evaluate_robustness(app, result, spec)
        assert report.total_jobs > 0
        assert report.deadline_misses > 0
        assert not report.clean

    def test_jitter_beyond_gamma_triggers_policy(self, solved):
        app, result = solved
        spec = FaultSpec(release_jitter_us=5_000.0, seed=3)
        stale = evaluate_robustness(app, result, spec, policy="stale-data")
        stop = evaluate_robustness(app, result, spec, policy="fail-stop")
        assert stale.acquisition_misses > 0
        assert stale.deadline_misses == 0  # late readers ran on stale data
        assert stale.worst_staleness >= 1
        # Fail-stop drops exactly the jobs stale-data salvaged.
        assert stop.acquisition_misses == stale.acquisition_misses
        assert stop.dropped_jobs == stop.acquisition_misses
        assert stop.deadline_misses >= stop.dropped_jobs

    def test_dma_slowdown_surfaces_in_diagnostics(self, solved):
        app, result = solved
        report = evaluate_robustness(
            app, result, FaultSpec(dma_slowdown=25.0, seed=3)
        )
        assert report.property3_violations > 0
        assert report.deadline_violations > 0

    def test_simulation_dropped_unless_requested(self, solved):
        app, result = solved
        spec = FaultSpec.none()
        light = evaluate_robustness(app, result, spec)
        full = evaluate_robustness(app, result, spec, keep_simulation=True)
        assert light.simulation is None and light.diagnostic is None
        assert full.simulation is not None and full.diagnostic is not None

    def test_record_and_summary(self, solved):
        import json

        app, result = solved
        spec = FaultSpec.from_intensity(0.5, seed=1)
        report = evaluate_robustness(app, result, spec)
        record = json.loads(json.dumps(report.to_record()))
        assert record["policy"] == "stale-data"
        assert record["fault_spec"]["seed"] == 1
        assert record["total_jobs"] == report.total_jobs
        assert "deadline miss(es)" in report.summary()

    def test_unknown_policy_rejected(self, solved):
        app, result = solved
        with pytest.raises(ValueError, match="unknown degradation policy"):
            evaluate_robustness(app, result, FaultSpec.none(), policy="nope")


class TestVerifierDiagnosticMode:
    def test_categories_partition_violations(self, solved):
        from repro.core import verify_allocation

        app, result = solved
        degraded = degraded_application(app, FaultSpec(dma_slowdown=25.0))
        report = verify_allocation(degraded, result, check_theorem1=False)
        assert not report.ok
        categorized = sum(len(v) for v in report.by_category.values())
        assert categorized == len(report.violations)
        assert report.count("property3") == len(
            report.by_category.get("property3", [])
        )
        assert report.count("no-such-category") == 0
