"""The one place plqp calls HiGHS (Huangfu & Hall, Math. Prog. Comp. 2018).

`Model` holds a linear program

    minimize cost . x  subject to  row_lower <= A x <= row_upper,
                                   col_lower <= x <= col_upper

on the HiGHS object that scipy ships (`scipy.optimize._highspy._core`),
with A given column-wise.  It sets the options `scipy.optimize.linprog`
sets for method="highs" (no output, the dual simplex, and the caller's
presolve and tolerances), so on the same LP it returns the same primal
values and row duals as `linprog`, without its input checks and sparse
conversions.  A solved model can grow by columns (`add_cols`) and run
again: HiGHS then starts from the last optimal basis.

`scipy.optimize._highspy` is private to scipy; pyproject.toml pins the
scipy range tested with it, and a test checks that every name used here
exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize._highspy import _core

_STATUS = _core.HighsModelStatus
INF = _core.kHighsInf


@dataclass(frozen=True)
class Solution:
    """What one run returned.  x and row_dual are set only when `optimal`;
    `unbounded` means HiGHS proved the objective unbounded below."""

    optimal: bool
    unbounded: bool
    message: str
    x: np.ndarray | None
    row_dual: np.ndarray | None
    simplex_iterations: int


class Model:
    """A column-wise LP on one HiGHS object: `run` solves it, `add_cols`
    appends columns to it.

    start, index, value: the constraint matrix in compressed-column form,
    column j holding value[start[j]:start[j+1]] in rows
    index[start[j]:start[j+1]].  options: `presolve` (bool) and optionally
    `primal_feasibility_tolerance` and `dual_feasibility_tolerance`.
    """

    def __init__(self, cost, col_lower, col_upper, start, index, value, row_lower, row_upper, options):
        self._highs = h = _core._Highs()
        h.setOptionValue("output_flag", False)
        h.setOptionValue("simplex_strategy", int(_core.simplex_constants.SimplexStrategy.kSimplexStrategyDual))
        for key, val in options.items():
            if key == "presolve":
                h.setOptionValue(key, "on" if val else "off")
            else:
                h.setOptionValue(key, float(val))
        ncol = len(cost)
        # the array form of passModel: setting the fields of a HighsLp copies
        # its matrix element by element, 9 of 11 ms on 14,400 columns
        status = h.passModel(
            ncol, len(row_lower), len(index), int(_core.MatrixFormat.kColwise),
            int(_core.ObjSense.kMinimize), 0.0, cost, col_lower, col_upper,
            row_lower, row_upper, start, index, value,
            np.zeros(ncol, dtype=np.int32),  # every column continuous
        )
        if status == _core.HighsStatus.kError:
            raise ValueError("HiGHS rejected the LP")

    def add_cols(self, cost, col_lower, col_upper, start, index, value) -> None:
        """Append columns; `start` indexes into this call's index/value."""
        status = self._highs.addCols(
            len(cost), cost, col_lower, col_upper, len(index), start[:-1], index, value
        )
        if status == _core.HighsStatus.kError:
            raise ValueError("HiGHS rejected the added columns")

    def run(self) -> Solution:
        h = self._highs
        h.run()
        status = h.getModelStatus()
        iterations = int(h.getInfo().simplex_iteration_count)
        message = h.modelStatusToString(status)
        if status != _STATUS.kOptimal:
            return Solution(False, status == _STATUS.kUnbounded, message, None, None, iterations)
        sol = h.getSolution()
        return Solution(True, False, message, np.array(sol.col_value), np.array(sol.row_dual), iterations)
