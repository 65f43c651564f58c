"""Tests for the CSR row store behind MilpModel (repro.milp.rows)."""

import numpy as np

from repro.milp import MilpModel
from repro.milp.expr import Sense


def _model():
    model = MilpModel("rows")
    x = model.add_continuous("x", upper=10)
    y = model.add_continuous("y", upper=10)
    z = model.add_continuous("z", upper=10)
    model.add_row([x, y], [1.0, 2.0], Sense.LE, 4.0, "keep")
    return model, x, y, z


def _assert_consistent(rows):
    assert len(rows.coefs) == len(rows.indices) == rows.indptr[-1]
    assert len(rows.indptr) == len(rows) + 1
    assert len(rows.senses) == len(rows.rhs) == len(rows.names) == len(rows)


class TestRollback:
    def test_rollback_restores_rows_and_revision(self):
        model, x, y, z = _model()
        rows = model.rows
        mark = rows.mark()
        model.add_row([x, y, z], [5.0, 6.0, 7.0], Sense.GE, 1.0, "probe")
        assert len(rows) == 2
        rows.rollback(mark)
        _assert_consistent(rows)
        assert rows.mark() == mark
        assert rows.names == ["keep"]
        assert rows.terms(0) == ([x.index, y.index], [1.0, 2.0])

    def test_row_appended_after_rollback_keeps_its_coefficients(self):
        model, x, y, z = _model()
        rows = model.rows
        mark = rows.mark()
        model.add_row([x, z], [5.0, 6.0], Sense.GE, 1.0, "probe")
        # Cache the arrays at the probe's revision, as a solve would.
        rows.arrays()
        rows.rollback(mark)
        model.add_row([y, z], [-3.0, 0.5], Sense.EQ, 2.0, "after")
        _assert_consistent(rows)

        assert rows.terms(1) == ([y.index, z.index], [-3.0, 0.5])
        assert repr(rows.constraint(1)) == "[after] -3*y +0.5*z -2 == 0"

        indices, coefs, row_of_entry, rhs, codes = rows.arrays()
        assert indices.tolist() == [x.index, y.index, y.index, z.index]
        assert coefs.tolist() == [1.0, 2.0, -3.0, 0.5]
        assert row_of_entry.tolist() == [0, 0, 1, 1]
        assert rhs.tolist() == [4.0, 2.0]
        assert codes.tolist() == [-1, 0]

        dense = rows.matrix().toarray()
        assert dense.tolist() == [[1.0, 2.0, 0.0], [0.0, -3.0, 0.5]]

        # x=0, y=0, z=4: row 0 holds (0 <= 4), row 1 holds (2 == 2).
        assert rows.violated(np.array([0.0, 0.0, 4.0]), 1e-6) == []
        # z=0 breaks only the equality row.
        assert rows.violated(np.array([0.0, 0.0, 0.0]), 1e-6) == [1]

    def test_rollback_after_arrays_cached_at_a_later_revision(self):
        model, x, y, z = _model()
        rows = model.rows
        mark = rows.mark()
        model.add_row([x, y, z], [1.0, 1.0, 1.0], Sense.LE, 0.0, "probe")
        model.add_row([z], [1.0], Sense.GE, 9.0, "probe2")
        rows.arrays()
        rows.rollback(mark)
        # The cached arrays belong to the probe; the rolled-back store
        # must rebuild arrays matching its own rows.
        indices, coefs, _, _, _ = rows.arrays()
        assert indices.tolist() == [x.index, y.index]
        assert coefs.tolist() == [1.0, 2.0]
        assert model.check_assignment({x: 1.0, y: 1.0, z: 0.0}) == []
        assert [c.name for c in model.check_assignment({x: 4.0, y: 1.0, z: 0.0})] == [
            "keep"
        ]
