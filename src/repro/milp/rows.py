"""The constraint rows of a :class:`~repro.milp.model.MilpModel`.

Rows live in one compressed-sparse-row store (the python-mip
``Constr``/``Column`` idiom: a row references variable *indices* and
coefficients, not expression objects).  Row ``i`` reads::

    sum(coefs[k] * x[indices[k]] for k in range(indptr[i], indptr[i + 1]))
        (senses[i])  rhs[i]

The store is append-only apart from :meth:`RowStore.rollback` to an
earlier :meth:`RowStore.mark`, which is how the cut layer strips the
rows it appends for one probe.  Every change moves :attr:`revision` to
a value never used before (a rollback restores the marked one, because
the rows are then exactly those that carried it), so caches derived
from the rows key on it.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

import numpy as np

from repro.milp.expr import Constraint, LinExpr, Sense, Var

__all__ = ["RowStore"]

#: Revisions are drawn from one process-wide counter, so two stores (or
#: one store before and after a rollback and new rows) never share one.
_REVISIONS = itertools.count()


class RowStore:
    """Constraint rows as index/coefficient arrays; see the module docstring."""

    __slots__ = (
        "variables",
        "indptr",
        "indices",
        "coefs",
        "senses",
        "rhs",
        "names",
        "revision",
        "_arrays",
    )

    def __init__(self, variables: Sequence[Var]):
        #: The owning model's variable list (row indices point into it).
        self.variables = variables
        self.indptr: list[int] = [0]
        self.indices: list[int] = []
        self.coefs: list[float] = []
        self.senses: list[Sense] = []
        self.rhs: list[float] = []
        self.names: list[str] = []
        self.revision = next(_REVISIONS)
        self._arrays = None

    def __len__(self) -> int:
        return len(self.senses)

    def append(
        self,
        indices: Sequence[int],
        coefs: Sequence[float],
        sense: Sense,
        rhs: float,
        name: str = "",
    ) -> None:
        """Add the row ``sum(coefs[k] * x[indices[k]]) (sense) rhs``.

        ``indices`` must be distinct; their order is kept (it is the
        order the LP writer prints the terms in).
        """
        if len(indices) != len(coefs):
            raise ValueError("a row needs one coefficient per variable index")
        self.indices.extend(indices)
        self.coefs.extend(coefs)
        self.indptr.append(len(self.indices))
        self.senses.append(sense)
        self.rhs.append(rhs)
        self.names.append(name)
        self.revision = next(_REVISIONS)

    def terms(self, i: int) -> tuple[list[int], list[float]]:
        """(indices, coefficients) of row ``i``."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.coefs[lo:hi]

    def constraint(self, i: int) -> Constraint:
        """Row ``i`` as a :class:`Constraint` (a fresh copy)."""
        indices, coefs = self.terms(i)
        variables = self.variables
        expr = LinExpr(
            {variables[j]: coef for j, coef in zip(indices, coefs)}, -self.rhs[i]
        )
        return Constraint(expr, self.senses[i], self.names[i])

    # -- truncation ------------------------------------------------------

    def mark(self) -> tuple[int, int]:
        """A point to :meth:`rollback` to: (row count, revision)."""
        return len(self), self.revision

    def rollback(self, mark: tuple[int, int]) -> None:
        """Drop every row appended since ``mark`` was taken."""
        count, revision = mark
        end = self.indptr[count]
        del self.indices[end:]
        del self.coefs[end:]
        del self.indptr[count + 1 :]
        for column in (self.senses, self.rhs, self.names):
            del column[count:]
        self.revision = revision

    # -- array views -----------------------------------------------------

    def arrays(self) -> tuple[np.ndarray, ...]:
        """``(indices, coefs, row_of_entry, rhs, sense_codes)`` as numpy
        arrays, cached per revision; a sense code is -1 for ``<=``, 1
        for ``>=`` and 0 for ``==``."""
        if self._arrays is not None and self._arrays[0] == self.revision:
            return self._arrays[1]
        code = {Sense.LE: -1, Sense.GE: 1, Sense.EQ: 0}
        arrays = (
            np.array(self.indices, dtype=np.int64),
            np.array(self.coefs, dtype=float),
            np.repeat(
                np.arange(len(self), dtype=np.int64),
                np.diff(np.array(self.indptr, dtype=np.int64)),
            ),
            np.array(self.rhs, dtype=float),
            np.array([code[sense] for sense in self.senses], dtype=np.int8),
        )
        self._arrays = (self.revision, arrays)
        return arrays

    def matrix(self):
        """The rows as a scipy CSR matrix, terms in row order (built on
        demand: importing scipy costs memory most callers never need)."""
        from scipy import sparse

        indices, coefs, _, _, _ = self.arrays()
        return sparse.csr_matrix(
            (coefs.copy(), indices.copy(), np.array(self.indptr, dtype=np.int64)),
            shape=(len(self), len(self.variables)),
        )

    def violated(self, x: np.ndarray, tol: float) -> list[int]:
        """Indices of the rows that ``x`` violates by more than ``tol``
        (a NaN entry of ``x`` violates every row that uses it).

        Each row's activity is summed term by term in row order, as a
        row-by-row evaluation sums it, so the two agree exactly."""
        indices, coefs, row_of_entry, rhs, codes = self.arrays()
        activity = np.bincount(
            row_of_entry, weights=coefs * x[indices], minlength=len(self)
        )
        slack = activity - rhs
        ok = np.where(
            codes < 0,
            slack <= tol,
            np.where(codes > 0, slack >= -tol, np.abs(slack) <= tol),
        )
        return np.flatnonzero(~ok).tolist()
