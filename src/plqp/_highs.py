"""The one place plqp calls HiGHS (Huangfu & Hall, Math. Prog. Comp. 2018).

`Model` holds a linear program

    minimize cost . x  subject to  row_lower <= A x <= row_upper,
                                   col_lower <= x <= col_upper

on the HiGHS object that scipy ships (`scipy.optimize._highspy._core`),
with A given column-wise.  It sets the options `scipy.optimize.linprog`
sets for method="highs" (no output, the dual simplex, and the caller's
presolve, tolerances and dual edge-weight rule, under linprog's names and
values), so on the same LP it returns the same primal values and row duals
as `linprog`, without its input checks and sparse conversions.  An option
that HiGHS rejects raises ValueError, where linprog would warn and drop it.
A solved model can grow by columns (`add_cols`), or change its column
bounds and costs (`change_cols`), its row bounds (`change_rows`) or one
column's entries (`replace_col`), and run again: HiGHS then starts from the
last basis.

`scipy.optimize._highspy` is private to scipy; pyproject.toml pins the
scipy range tested with it, and a test checks that every name used here
exists.  HiGHS loads with the first `Model` (`load_extension(CORE)`), so
a process that solves no LP never imports it.  It loads alone: `_core`
comes from its extension file in scipy's `optimize/_highspy/` directory,
not through the `scipy.optimize` package, which imports much of scipy.  A
fresh `plqp dist --q 2` on 32^2 ramp balls took 0.80 s at 87 MB peak RSS
through the package and takes 0.30 s at 48 MB (medians of 8 alternated
runs, 2-vCPU x86_64 VM).  A later `import scipy.optimize` reuses this
module.
"""

from __future__ import annotations

import importlib.util
import itertools
import math
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import numpy as np

INF = math.inf  # HiGHS's kHighsInf
# the values linprog(method="highs") takes for simplex_dual_edge_weight_strategy,
# as HiGHS's SimplexEdgeWeightStrategy names them
EDGE_WEIGHT_STRATEGIES = {
    "dantzig": "kSimplexEdgeWeightStrategyDantzig",
    "devex": "kSimplexEdgeWeightStrategyDevex",
    "steepest-devex": "kSimplexEdgeWeightStrategyChoose",
    "steepest": "kSimplexEdgeWeightStrategySteepestEdge",
}


CORE = "scipy.optimize._highspy._core"


def load_extension(name: str):
    """The scipy extension module `name` (a dotted name), loaded from its
    file on the first call without importing the packages above it.

    Two load this way: HiGHS's binding `scipy.optimize._highspy._core`
    (`Model`) and the max-flow `scipy.sparse.csgraph._flow`
    (`bottleneck.maximum_flow`).  Neither needs its package's `__init__`,
    which for `scipy.optimize` imports much of scipy, and for
    `scipy.sparse.csgraph` imports `scipy.sparse.linalg` and `scipy.linalg`.
    `_flow` still imports `scipy.sparse` itself.

    The module goes into `sys.modules` before it runs, so any later import
    of it, scipy's own included, gets this object and not a second module
    holding the same types; a copy the process already holds is returned
    as it is.  Only the attribute naming it on its package, if that package
    is imported later, stays unset.
    """
    module = sys.modules.get(name)
    if module is None:
        top, *packages, leaf = name.split(".")
        where = Path(importlib.util.find_spec(top).submodule_search_locations[0], *packages)
        path = next((p for p in (where / f"{leaf}{s}" for s in EXTENSION_SUFFIXES) if p.is_file()), None)
        if path is None:
            raise ImportError(f"no extension module {leaf} in {where}")
        spec = importlib.util.spec_from_file_location(name, path)
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        try:
            spec.loader.exec_module(module)
        except BaseException:
            del sys.modules[name]
            raise
    return module


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
    """A column-wise LP on one HiGHS object: `run` solves it, and the other
    methods change it in place for the next `run`.

    start, index, value: the constraint matrix in compressed-column form,
    column j holding value[start[j]:start[j+1]] in rows
    index[start[j]:start[j+1]].  options: `presolve` (bool), optionally
    `simplex_dual_edge_weight_strategy` (a key of EDGE_WEIGHT_STRATEGIES),
    and any other HiGHS option under its own name, with a value of its own
    type (such as `primal_feasibility_tolerance` and
    `dual_feasibility_tolerance`).  Raises ValueError naming an option that
    HiGHS rejects: an unknown name, a value out of range or of another type.
    """

    def __init__(self, cost, col_lower, col_upper, start, index, value, row_lower, row_upper, options):
        self._core = _core = load_extension(CORE)
        self._highs = h = _core._Highs()
        h.setOptionValue("output_flag", False)
        h.setOptionValue("simplex_strategy", int(_core.simplex_constants.SimplexStrategy.kSimplexStrategyDual))
        for key, val in options.items():
            if key == "presolve":
                val = "on" if val else "off"
            elif key == "simplex_dual_edge_weight_strategy":
                if val not in EDGE_WEIGHT_STRATEGIES:
                    raise ValueError(f"unknown {key} {val!r}: use one of {sorted(EDGE_WEIGHT_STRATEGIES)}")
                val = int(getattr(_core.simplex_constants.SimplexEdgeWeightStrategy, EDGE_WEIGHT_STRATEGIES[val]))
            if h.setOptionValue(key, val) == _core.HighsStatus.kError:
                raise ValueError(f"HiGHS rejected the option {key} = {val!r}")
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
        if status == self._core.HighsStatus.kError:
            raise ValueError("HiGHS rejected the added columns")

    def change_cols(self, index, col_lower, col_upper, cost=None) -> None:
        """Set the bounds, and the costs if given, of the columns `index`."""
        h = self._highs
        index = np.asarray(index, dtype=np.int32)
        status = [h.changeColsBounds(len(index), index, col_lower, col_upper)]
        if cost is not None:
            status.append(h.changeColsCost(len(index), index, cost))
        if self._core.HighsStatus.kError in status:
            raise ValueError("HiGHS rejected the column change")

    def change_rows(self, row_lower, row_upper) -> None:
        """Set the bounds of every row, one changeRowBounds call per row:
        the binding has no array form of changeRowsBounds."""
        rows = range(len(row_lower))
        status = set(map(self._highs.changeRowBounds, rows, row_lower.tolist(), row_upper.tolist()))
        if self._core.HighsStatus.kError in status:
            raise ValueError("HiGHS rejected the row bounds")

    def replace_col(self, col: int, index, value) -> None:
        """Make column `col` hold `value` in the rows `index` and 0 in every
        other row: one changeCoeff call per entry set or cleared."""
        h = self._highs
        index = np.asarray(index, dtype=np.int32)
        cleared = np.setdiff1d(h.getColEntries(col)[1], index)
        cols = itertools.repeat(col)
        status = set(map(h.changeCoeff, cleared.tolist(), cols, itertools.repeat(0.0)))
        status.update(map(h.changeCoeff, index.tolist(), cols, np.asarray(value).tolist()))
        if self._core.HighsStatus.kError in status:
            raise ValueError("HiGHS rejected the column entries")

    def run(self) -> Solution:
        HighsModelStatus = self._core.HighsModelStatus
        h = self._highs
        h.run()
        status = h.getModelStatus()
        iterations = int(h.getInfo().simplex_iteration_count)
        message = h.modelStatusToString(status)
        if status != HighsModelStatus.kOptimal:
            return Solution(False, status == HighsModelStatus.kUnbounded, message, None, None, iterations)
        sol = h.getSolution()
        return Solution(True, False, message, np.array(sol.col_value), np.array(sol.row_dual), iterations)
