"""Golden models: the LP text of the paper's formulation is pinned.

The hashes are the sha256 of :func:`repro.milp.lp_writer.lp_string`
recorded before the formulation emitted its rows as index/coefficient
arrays; the row store must reproduce the expression-built rows bit for
bit (term order, coefficients, signed zeros of the right-hand sides).
The second half checks that the vectorized
:meth:`MilpModel.check_assignment` flags exactly the rows a row-by-row
evaluation flags.
"""

import hashlib
import random

import pytest

from repro.analysis import assign_acquisition_deadlines
from repro.core import FormulationConfig, LetDmaFormulation, Objective
from repro.core.positional import PositionalLetDmaFormulation
from repro.milp import MilpModel, Sense
from repro.milp.lp_writer import lp_string
from repro.waters import waters_application
from repro.workloads import WorkloadSpec, generate_application

GOLDEN = {
    "waters-NO-OBJ": "9fafa3734e072641d0f7753991b7c86eca75cb4e39be43266473fda69ac460c8",
    "waters-OBJ-DMAT": "3e006cfd7d2ba8f331fc1d12efe4c00aff97db738e12c8a6b73d5f91cb0e68e2",
    "waters-OBJ-DEL": "6c872e6c324fbb91e091fab1724f6f92884b003c68f5de1a5f65678eae5c47c8",
    "positional-multirate": "de1c790ac82ad494392fb3918eed308a7bbcb7bb5f7483a3a31b014ec0dead35",
    "fig1-OBJ-DEL": "484330705702cd401ebe01acc006e01c795d69f17091f2735f4510805d8e00a8",
    "generated-seed7": "4563461402f06878d6b9d0282ec617de907485bea5210251158cae89855a04c6",
}


@pytest.fixture(scope="module")
def waters():
    return assign_acquisition_deadlines(waters_application(), 0.3)


def _sha(model) -> str:
    return hashlib.sha256(lp_string(model).encode()).hexdigest()


class TestGoldenLpText:
    @pytest.mark.parametrize("objective", list(Objective))
    def test_waters(self, waters, objective):
        formulation = LetDmaFormulation(waters, FormulationConfig(objective=objective))
        assert _sha(formulation.model) == GOLDEN[f"waters-{objective.value}"]
        if objective is not Objective.NONE:
            assert formulation.model.num_variables == 2591
            assert formulation.model.num_constraints == 14665

    def test_positional_encoding(self, multirate_app):
        formulation = PositionalLetDmaFormulation(
            multirate_app, FormulationConfig(objective=Objective.MIN_TRANSFERS)
        )
        assert _sha(formulation.model) == GOLDEN["positional-multirate"]

    def test_multichannel_model(self, fig1_app):
        # The model the multi-channel extension schedules from.
        formulation = LetDmaFormulation(
            fig1_app, FormulationConfig(objective=Objective.MIN_DELAY_RATIO)
        )
        assert _sha(formulation.model) == GOLDEN["fig1-OBJ-DEL"]

    def test_generated_instance(self):
        app = generate_application(
            WorkloadSpec(
                num_tasks=4,
                num_cores=2,
                total_utilization=0.5,
                communication_density=0.6,
                periods_ms=(5, 10, 20),
                seed=7,
            )
        )
        formulation = LetDmaFormulation(
            app, FormulationConfig(objective=Objective.MIN_DELAY_RATIO)
        )
        assert _sha(formulation.model) == GOLDEN["generated-seed7"]


def _row_by_row(model, assignment, tol=1e-6):
    """The reference: every row as an expression, evaluated on its own."""
    rows = (model.rows.constraint(i) for i in range(model.num_constraints))
    return [repr(c) for c in rows if not c.is_satisfied(assignment, tol)]


def _vectorized(model, assignment, tol=1e-6):
    return [repr(c) for c in model.check_assignment(assignment, tol)]


class TestVectorizedCheck:
    def test_random_assignments(self, fig1_app):
        model = LetDmaFormulation(
            fig1_app, FormulationConfig(objective=Objective.MIN_DELAY_RATIO)
        ).model
        rng = random.Random(5)
        for _ in range(20):
            assignment = {
                var: float(rng.randint(0, 1))
                if var.upper <= 1.0
                else rng.uniform(var.lower, min(var.upper, 50.0))
                for var in model.variables
            }
            expected = _row_by_row(model, assignment)
            assert expected  # random points violate something
            assert _vectorized(model, assignment) == expected

    def test_certificate_assignment(self, waters):
        formulation = LetDmaFormulation(
            waters, FormulationConfig(objective=Objective.MIN_TRANSFERS)
        )
        solution = formulation.model.solve(backend="highs", cuts=True)
        assert "certificate" in solution.message
        assert _vectorized(formulation.model, solution.values) == []
        assert _row_by_row(formulation.model, solution.values) == []

    @pytest.mark.parametrize("tol", [1e-6, 2.0**-10])
    def test_tolerance_boundary(self, tol):
        model = MilpModel("boundary")
        x = model.add_continuous("x", lower=-10, upper=10)
        y = model.add_continuous("y", lower=-10, upper=10)
        model.add(x <= 1, name="le")
        model.add(x + y >= 2, name="ge")
        model.add_row([x, y], [1.0, -1.0], Sense.EQ, 0.0, "eq")
        # Slack exactly at the tolerance, and twice it, on both sides.
        for slack in (tol, -tol, 2 * tol, -2 * tol):
            for assignment in (
                {x: 1.0 + slack, y: 1.0},
                {x: 0.5, y: 1.5 + slack},
                {x: slack, y: 0.0},
            ):
                assert _vectorized(model, assignment, tol) == _row_by_row(
                    model, assignment, tol
                )
        assert model.check_assignment({x: 1.0 + tol, y: 1.0}, tol) == []
        violated = model.check_assignment({x: 1.0 + 2 * tol, y: 1.0}, tol)
        assert [c.name for c in violated] == ["le", "eq"]

    def test_missing_variable_violates_its_rows(self):
        model = MilpModel("partial")
        x = model.add_continuous("x", upper=5)
        y = model.add_continuous("y", upper=5)
        model.add(x <= 1, name="x_only")
        model.add(y <= 1, name="y_only")
        assert [c.name for c in model.check_assignment({x: 0.0})] == ["y_only"]
