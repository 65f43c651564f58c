"""Tests for the graceful-degradation solver portfolio."""

import pytest

from repro.core import FormulationConfig, Objective, verify_allocation
from repro.milp import SolveStatus
from repro.runtime import PORTFOLIO_RUNGS, solve_with_portfolio

pytestmark = pytest.mark.runtime


class TestHappyPath:
    def test_first_rung_wins(self, simple_app):
        result = solve_with_portfolio(simple_app)
        assert result.status is SolveStatus.OPTIMAL
        assert result.backend == "highs"
        assert len(result.fallback_chain) == 1
        assert result.fallback_chain[0].backend == "highs"
        assert result.fallback_chain[0].status == "optimal"

    def test_result_verifies(self, simple_app):
        result = solve_with_portfolio(simple_app)
        verify_allocation(simple_app, result).raise_if_failed()

    def test_infeasible_is_definitive(self, simple_app):
        # INFEASIBLE is an answer, not a failure: the ladder must stop.
        result = solve_with_portfolio(
            simple_app, FormulationConfig(max_transfers=1)
        )
        assert result.status is SolveStatus.INFEASIBLE
        assert result.backend == "highs"
        assert len(result.fallback_chain) == 1

    def test_default_rungs(self):
        assert PORTFOLIO_RUNGS == ("highs", "bnb", "greedy")


class TestDegradation:
    def test_falls_to_greedy_on_timeout(self, timeout_app, timeout_config):
        result = solve_with_portfolio(timeout_app, timeout_config)
        assert result.feasible
        assert result.backend == "greedy"
        assert [a.backend for a in result.fallback_chain] == [
            "highs",
            "bnb",
            "greedy",
        ]
        assert result.fallback_chain[0].status == "timeout"
        assert result.fallback_chain[1].status == "timeout"
        assert "time limit" in result.fallback_chain[0].reason

    @pytest.mark.parametrize(
        "objective", [Objective.NONE, Objective.MIN_TRANSFERS, Objective.MIN_DELAY_RATIO]
    )
    def test_greedy_reports_its_objective(self, timeout_app, objective):
        result = solve_with_portfolio(
            timeout_app, FormulationConfig(objective=objective), rungs=("greedy",)
        )
        assert result.backend == "greedy"
        if objective is Objective.MIN_TRANSFERS:
            # Eq. (4): max_i RGI_i, the index of the last transfer.
            assert result.objective_value == result.num_transfers - 1
        elif objective is Objective.MIN_DELAY_RATIO:
            # Eq. (5): max_i lambda_i / T_i over the hyperperiod.
            latencies = result.worst_case_latencies(timeout_app)
            expected = max(
                latencies[task.name] / task.period_us for task in timeout_app.tasks
            )
            assert expected > 0.0
            assert result.objective_value == pytest.approx(expected)
        else:
            assert result.objective_value == 0.0

    def test_greedy_fallback_is_feasible_layout(self, timeout_app, timeout_config):
        result = solve_with_portfolio(timeout_app, timeout_config)
        assert result.num_transfers >= 1
        assert result.layouts

    def test_single_rung_keeps_timeout_verbatim(self, timeout_app, timeout_config):
        # Direct-backend solves keep their non-raising contract: a
        # time limit without an incumbent is TIMEOUT, not ERROR.
        result = solve_with_portfolio(timeout_app, timeout_config, rungs=("highs",))
        assert result.status is SolveStatus.TIMEOUT
        assert result.backend == "highs"
        assert len(result.fallback_chain) == 1


class TestContract:
    def test_empty_rungs_rejected(self, simple_app):
        with pytest.raises(ValueError):
            solve_with_portfolio(simple_app, rungs=())

    def test_unknown_last_rung_raises(self, simple_app):
        with pytest.raises(ValueError):
            solve_with_portfolio(simple_app, rungs=("bogus",))

    def test_unknown_rung_falls_through(self, simple_app):
        result = solve_with_portfolio(simple_app, rungs=("bogus", "highs"))
        assert result.status is SolveStatus.OPTIMAL
        assert result.backend == "highs"
        assert result.fallback_chain[0].status == "error"
        assert "ValueError" in result.fallback_chain[0].reason

    def test_config_backend_field_is_overridden(self, simple_app):
        # The rung decides the backend, not config.backend.
        result = solve_with_portfolio(
            simple_app,
            FormulationConfig(backend="bnb"),
            rungs=("highs",),
        )
        assert result.backend == "highs"
