"""LP models and a HiGHS solve with one dual per stated row.

solve hands an LpModel to HiGHS, the LP solver that scipy bundles, whose
dual simplex is that of Huangfu & Hall (Math. Prog. Comp. 2018): variable
bounds stay bounds and the relations become row bounds, so each stated row
gets exactly one multiplier.  It takes one of two paths:

  * cold, for a model without a WarmStart, or whose cost breaks its
    WarmStart's symmetry: the model is filled into a fresh HighsLp and
    HiGHS's dual simplex starts from scratch;
  * warm, for a model with one whose cost is constant on every column orbit
    of its WarmStart.  A WarmStart holds the quotient of an LP by a
    symmetry: a partition of the columns and one of the rows into orbits
    such that every row of an orbit has the same coefficient sums over each
    column orbit, every column of an orbit the same sums over each row
    orbit, and the rhs, relations and bounds are constant on orbits.  The
    quotient has one variable z(J) per column orbit J and one row per row
    orbit R, its representative's coefficients summed over each J; the cost
    of z(J) is |J| times the cost at J's representative.  The first warm
    solve fills one HighsLp of the quotient, solves it cold at the
    WarmStart's reference cost and keeps the optimal basis.  Every solve
    then passes that HighsLp, changes its cost with changeColsCost and runs
    the primal simplex from that basis: a change of cost keeps a basis
    primal feasible, so the primal simplex starts in its phase 2.  The
    optimum (z, w) lifts to x = z(J(j)) and y = w(R(i)) / |R(i)|: x meets
    every row, as its orbit's sums are its representative's; A^T y - c is
    (A_red^T w - c_red)(J(j)) / |J(j)|, as a column's sums are its orbit's;
    and rhs y = rhs_red w.  So the lifted pair is an optimal primal and a
    dual certificate of the full model, of its size.

Each thread holds one HiGHS instance, made at the thread's first solve and
run single-threaded with its output off.  Every solve resets it with passModel, which
drops the previous model, basis and solution, so a result depends on the
model (and its WarmStart's reference) alone, never on earlier solves or on
the thread; the instance keeps its last LP until the thread's next solve.
No instance is shared between threads.  The extension
scipy/optimize/_highspy/_core is loaded alone, by file path, on the first
solve: importing it by name runs scipy/optimize/__init__ (about +0.3 s and
+23 MB of peak RSS, against +0.02 s and +2.5 MB alone).  No fbconv module
imports scipy, so fbconv loads no scipy module until the first solve, and
callers that solve no LP load none.  That path is private to scipy, so
pyproject.toml sets the scipy version it was tested on, and a missing
extension, or one without the calls and the option the warm path uses,
raises SolverUnavailable.

The duals of an optimal solve are a certificate of its value.  Write c for
the objective, A for a_matrix, y for solve(model).dual and r = c - A^T y for
the reduced costs.  For a max model, y_i >= 0 on <= rows and y_i <= 0 on >=
rows; a min model flips both signs; = rows are free.  Then every feasible x
has c x <= rhs y + sum_j max{r_j x_j : lower_j <= x_j <= upper_j} (>= and
min for a min model), each r_j is nonzero only where the bound that term
reads is finite, and the right side equals the optimal value.  The tests
check all three on every optimal solve.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

RELATIONS = ("<=", "=", ">=")


class LpError(Exception):
    pass


class DimensionMismatch(LpError):
    """Model arrays disagree in shape, or contain non-finite data where finite is required."""


class NumericalBreakdown(LpError):
    """The solver stopped short of optimal, infeasible or unbounded."""


class SolverUnavailable(LpError):
    """scipy's bundled HiGHS extension could not be found or loaded."""


class OrbitMismatch(LpError):
    """A partition of a model's columns and rows that is no symmetry of it."""


def _read_only(a, dtype=float) -> np.ndarray:
    """`a` as a read-only array of `dtype`: kept as given when it already is
    one, copied otherwise."""
    if not (isinstance(a, np.ndarray) and a.dtype == dtype and not a.flags.writeable):
        a = np.array(a, dtype=dtype)
        a.setflags(write=False)
    return a


def _row_arrays(row, col, value, num_rows: int):
    """HiGHS's row-wise (start, index, value) of entries (row, col, value), by (row, col)."""
    order = np.lexsort((col, row))
    start = np.concatenate([[0], np.cumsum(np.bincount(row, minlength=num_rows))])
    return start, np.asarray(col)[order], np.asarray(value, dtype=float)[order]


def _dense_rows(a_matrix):
    """_row_arrays of the nonzeros of a small dense 2-D matrix."""
    A = np.asarray(a_matrix, dtype=float)
    if A.ndim != 2:
        raise DimensionMismatch(f"a dense matrix must be 2-D, got shape {A.shape}")
    return _row_arrays(*np.nonzero(A), A[A != 0], A.shape[0])


@dataclass(frozen=True)
class LpModel:
    """min or max of objective @ x subject to A @ x (relations) rhs and bounds.

    A is held only as HiGHS's row-wise a_rows = (start, index, value): row i
    has value[start[i]:start[i+1]] in columns index[start[i]:start[i+1]],
    strictly increasing.  lower/upper default to [0, +inf) per variable, and
    -inf/+inf make a variable free on that side.  Every array is checked, and
    held as given when read-only of its dtype (int for start and index, float
    otherwise), else as a frozen copy.  `warm`, the WarmStart of the models
    with this model's rows, rhs and bounds, sends its solves down the warm
    path while the objective is constant on its column orbits;
    fbconv.relaxations sets it, and None solves cold.
    _with_objective makes a model that differs in its objective and
    WarmStart alone, checking only the new objective.
    """

    sense: str
    objective: np.ndarray
    a_rows: Tuple[np.ndarray, np.ndarray, np.ndarray]
    relations: Tuple[str, ...]
    rhs: np.ndarray
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None
    warm: Optional["WarmStart"] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.sense not in ("max", "min"):
            raise DimensionMismatch(f"sense must be 'max' or 'min', got {self.sense!r}")
        c = np.atleast_1d(_read_only(self.objective))
        start, index, value = (_read_only(a, t) for a, t in zip(self.a_rows, (int, int, float)))
        b = np.atleast_1d(_read_only(self.rhs))
        rel = tuple(self.relations)
        m, n = b.size, c.size
        if (c.ndim, b.ndim, index.ndim, len(rel), start.shape, value.shape) != \
                (1, 1, 1, m, (m + 1,), index.shape):
            raise DimensionMismatch(
                f"shapes disagree: objective {c.shape}, start {start.shape}, index "
                f"{index.shape}, value {value.shape}, rhs {b.shape}, relations {len(rel)}")
        for r in rel:
            if r not in RELATIONS:
                raise DimensionMismatch(f"unknown relation {r!r}")
        if start[0] != 0 or start[-1] != index.size or (np.diff(start) < 0).any():
            raise DimensionMismatch(f"start must rise from 0 to the entry count {index.size}")
        pos = np.repeat(np.arange(m) * n, np.diff(start)) + index   # row-major position of each entry
        if ((index < 0) | (index >= n)).any() or (np.diff(pos) <= 0).any():
            raise DimensionMismatch(f"columns must lie in [0, {n}) and rise within each row")
        lo = _read_only(np.zeros(n) if self.lower is None else self.lower)
        up = _read_only(np.full(n, np.inf) if self.upper is None else self.upper)
        if lo.shape != (n,) or up.shape != (n,):
            raise DimensionMismatch("bound arrays must match the variable count")
        if not (np.isfinite(c).all() and np.isfinite(value).all() and np.isfinite(b).all()):
            raise DimensionMismatch("objective, matrix values and rhs must be finite")
        if np.any(np.isnan(lo)) or np.any(np.isnan(up)) or np.any(lo > up):
            raise DimensionMismatch("bounds must satisfy lower <= upper and not be NaN")
        for name, val in (("objective", c), ("a_rows", (start, index, value)), ("rhs", b),
                          ("lower", lo), ("upper", up), ("relations", rel)):
            object.__setattr__(self, name, val)

    def _with_objective(self, objective, warm: Optional["WarmStart"]) -> "LpModel":
        """This model with another objective and WarmStart.  Every other
        field is held as the same object, already checked, so only the
        objective's shape and finiteness are."""
        c = _read_only(objective)
        if c.shape != self.objective.shape or not np.isfinite(c).all():
            raise DimensionMismatch(f"objective must be {self.objective.shape} and finite, "
                                    f"got shape {c.shape}")
        model = object.__new__(LpModel)   # skips __init__, so __post_init__ too
        model.__dict__.update(self.__dict__, objective=c, warm=warm)
        return model

    @property
    def num_variables(self) -> int:
        return self.objective.size

    @property
    def a_matrix(self) -> np.ndarray:
        """A, assembled dense on each access for checks; fbconv never reads it."""
        start, index, value = self.a_rows
        A = np.zeros((self.rhs.size, self.num_variables))
        A[np.repeat(np.arange(self.rhs.size), np.diff(start)), index] = value
        return A


@dataclass(frozen=True)
class LpSolution:
    """A solve's outcome; solve returns primal and dual read-only."""

    status: str  # "Optimal" | "Infeasible" | "Unbounded"
    value: float
    primal: Optional[np.ndarray]
    dual: Optional[np.ndarray]


def _orbit_sums(row, col, value, row_orbit, col_orbit):
    """The entries (R, J, s) of a quotient matrix, by (R, J): s is the sum of
    the values of row orbit R's representative row over column orbit J.
    OrbitMismatch unless every row of R has that sum over every J."""
    num_j = int(col_orbit.max(initial=-1)) + 1
    keys, at = np.unique(row * num_j + col_orbit[col], return_inverse=True)
    at = at.reshape(-1)   # flat whatever shape this numpy gives the inverse
    sums = np.bincount(at, weights=value, minlength=keys.size)   # per (row, J)
    keys, sums = keys[sums != 0], sums[sums != 0]
    orbit_keys, at = np.unique(row_orbit[keys // num_j] * num_j + keys % num_j,
                               return_inverse=True)
    at = at.reshape(-1)
    count = np.bincount(at, minlength=orbit_keys.size)
    mean = np.bincount(at, weights=sums, minlength=orbit_keys.size) / count
    R = orbit_keys // num_j
    if (mean[at] != sums).any() or (count != np.bincount(row_orbit)[R]).any():
        raise OrbitMismatch("the rows of an orbit differ in their sums over a column orbit")
    return R, orbit_keys % num_j, mean


def _representatives(orbit: np.ndarray) -> np.ndarray:
    """The first member of each orbit; OrbitMismatch unless the orbits are
    numbered 0, 1, ... without a gap."""
    ids, first = np.unique(orbit, return_index=True)
    if ids.size and (ids[0] != 0 or ids[-1] != ids.size - 1):
        raise OrbitMismatch("orbits must be numbered 0, 1, ... without a gap")
    return first


class WarmStart:
    """Solver state shared by the models that differ in their cost alone, on
    the quotient of their LP by a symmetry (see the module docstring).
    WarmStart(model, col_orbit, row_orbit) checks that the partitions are a
    symmetry of the model's rows, rhs, relations and bounds, raising
    OrbitMismatch if not, and builds `quotient`, the quotient LpModel at a
    zero cost.  The identity partitions give the model itself.

    `reference` is a reduced cost to minimize, set by the caller.  The first
    warm solve fills `lp` from the quotient at that cost, keeps as `basis`
    the optimal basis there, and then drops `quotient`, which `lp` now
    holds: lp and basis are set before quotient is dropped, so a solve that
    finds it None finds them set.  No solve writes to lp or basis after
    that: each solve passes `lp` to its thread's HiGHS instance and sets its
    own reduced cost there."""

    __slots__ = ("quotient", "col_orbit", "row_orbit", "col_rep", "col_size", "row_size",
                 "reference", "lp", "basis")

    def __init__(self, model: LpModel, col_orbit, row_orbit):
        col_orbit, row_orbit = _read_only(col_orbit, int), _read_only(row_orbit, int)
        if col_orbit.shape != model.objective.shape or row_orbit.shape != model.rhs.shape:
            raise DimensionMismatch(f"orbit maps of shapes {col_orbit.shape} and "
                                    f"{row_orbit.shape} for a {model.rhs.size} x "
                                    f"{model.num_variables} model")
        col_rep, row_rep = _representatives(col_orbit), _representatives(row_orbit)
        relations = np.array(model.relations)
        for orbit, rep, arrays in ((col_orbit, col_rep, (model.lower, model.upper)),
                                   (row_orbit, row_rep, (model.rhs, relations))):
            if any((a[rep][orbit] != a).any() for a in arrays):
                raise OrbitMismatch("the bounds, rhs or relations differ within an orbit")
        start, index, value = model.a_rows
        row = np.repeat(np.arange(model.rhs.size), np.diff(start))
        R, J, s = _orbit_sums(row, index, value, row_orbit, col_orbit)
        _orbit_sums(index, row, value, col_orbit, row_orbit)   # by columns, for the dual
        self.quotient = LpModel(model.sense, np.zeros(col_rep.size),
                                _row_arrays(R, J, s, row_rep.size),
                                tuple(model.relations[i] for i in row_rep), model.rhs[row_rep],
                                model.lower[col_rep], model.upper[col_rep])
        self.col_orbit, self.row_orbit, self.col_rep = col_orbit, row_orbit, col_rep
        self.col_size, self.row_size = np.bincount(col_orbit), np.bincount(row_orbit)
        self.reference = self.lp = self.basis = None

    def reduce(self, cost: np.ndarray) -> Optional[np.ndarray]:
        """The quotient's cost of a full `cost`, each column orbit's sum, or
        None unless `cost` is constant on every column orbit."""
        at_rep = cost[self.col_rep]
        if not np.array_equal(at_rep[self.col_orbit], cost):
            return None
        return at_rep * self.col_size


_HIGHS_NAME = "scipy.optimize._highspy._core"


def _checked(module):
    """`module`, unless it lacks a call or an option the warm path uses."""
    missing = [name for name in ("changeColsCost", "getBasis", "setBasis")
               if not hasattr(module._Highs, name)]
    if not hasattr(module.HighsOptions(), "simplex_strategy"):
        missing.append("simplex_strategy")
    if missing:
        raise SolverUnavailable(f"the HiGHS extension lacks {', '.join(missing)}; needs scipy>=1.17")
    return module


@functools.lru_cache(maxsize=None)
def _load_highs(directory: Optional[str] = None):
    """The HiGHS extension, loaded from `directory`, default scipy's optimize/_highspy."""
    if directory is None:
        # Reuse scipy's module if scipy imported it first: loading it again
        # would register its types twice.  In the other order, `import
        # scipy.optimize` gets the module loaded here, since both load the
        # same file under the same name (checked in both orders).
        if _HIGHS_NAME in sys.modules:
            return _checked(sys.modules[_HIGHS_NAME])
        scipy_dir = Path(importlib.util.find_spec("scipy").origin).parent
        directory = scipy_dir / "optimize" / "_highspy"
    paths = [Path(directory) / ("_core" + suffix)
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if p.is_file()), None)
    if path is None:
        raise SolverUnavailable(f"no HiGHS extension _core in {directory}; needs scipy>=1.17")
    try:
        spec = importlib.util.spec_from_file_location(_HIGHS_NAME, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except ImportError as e:
        raise SolverUnavailable(f"cannot load the HiGHS extension {path}") from e
    return _checked(module)


@functools.lru_cache(maxsize=None)
def _highs_options(primal: bool = False):
    options = _load_highs().HighsOptions()
    # presolve gains nothing on these LPs, and it reported a feasible,
    # unbounded LP as infeasible (test_feasible_unbounded_not_reported_infeasible)
    options.output_flag, options.threads, options.presolve = False, 1, "off"
    options.simplex_strategy = 4 if primal else 1   # HiGHS's primal or dual simplex
    return options


def _highs_lp(model: LpModel, cost: np.ndarray):
    """The HighsLp of min cost x over the model's rows and bounds.  Lists,
    not numpy arrays, go to the matrix and row fields: HiGHS's bindings
    convert those element by element, and a list's elements faster."""
    h = _load_highs()
    m, n = model.rhs.size, model.num_variables
    lp = h.HighsLp()
    lp.num_col_, lp.num_row_ = n, m
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = cost, model.lower.tolist(), model.upper.tolist()
    rhs = model.rhs.tolist()
    lp.row_lower_ = [-math.inf if r == "<=" else b for r, b in zip(model.relations, rhs)]
    lp.row_upper_ = [math.inf if r == ">=" else b for r, b in zip(model.relations, rhs)]
    mat = lp.a_matrix_
    mat.format_, mat.num_col_, mat.num_row_ = h.MatrixFormat.kRowwise, n, m
    mat.start_, mat.index_, mat.value_ = (a.tolist() for a in model.a_rows)
    return lp


_thread = threading.local()   # .highs: the thread's HiGHS instance, made by its first solve


def _run(lp, basis=None, cost=None):
    """The thread's HiGHS instance, reset by passModel and run on `lp`: the
    dual simplex from scratch, or given a basis, the primal simplex from it
    at `cost`."""
    highs = getattr(_thread, "highs", None)
    if highs is None:
        highs = _thread.highs = _load_highs()._Highs()
    statuses = [highs.passOptions(_highs_options(basis is not None)), highs.passModel(lp)]
    if basis is not None:
        statuses.append(highs.changeColsCost(cost.size, np.arange(cost.size, dtype=np.int32), cost))
        statuses.append(highs.setBasis(basis))
    statuses.append(highs.run())
    if _load_highs().HighsStatus.kError in statuses:
        raise NumericalBreakdown("HiGHS reported an error")
    return highs


def _run_highs(model: LpModel, cost: np.ndarray):
    """min cost x over the model's rows and bounds: (HiGHS model status,
    primal, row duals).  A model with a WarmStart whose orbits `cost` is
    constant on runs the primal simplex on the quotient from its basis,
    found first if need be, and lifts the result; any other runs the dual
    simplex on the full model from scratch."""
    warm = model.warm
    reduced = None if warm is None else warm.reduce(cost)
    if reduced is None:
        highs = _run(_highs_lp(model, cost))
    else:
        quotient = warm.quotient   # None once a solve has filled lp and basis
        if quotient is not None:
            lp = _highs_lp(quotient, warm.reference)
            first = _run(lp)
            if first.getModelStatus() != _load_highs().HighsModelStatus.kOptimal:
                raise NumericalBreakdown(f"HiGHS found no optimum at the reference cost: "
                                         f"{first.getModelStatus().name}")
            warm.lp, warm.basis = lp, first.getBasis()
            warm.quotient = None
        highs = _run(warm.lp, warm.basis, reduced)
    sol = highs.getSolution()
    status, x, y = highs.getModelStatus(), np.array(sol.col_value), np.array(sol.row_dual)
    if reduced is not None and status == _load_highs().HighsModelStatus.kOptimal:
        x, y = x[warm.col_orbit], (y / warm.row_size)[warm.row_orbit]
    return status, x, y


def solve(model: LpModel) -> LpSolution:
    """Solve with HiGHS; duals come back one per stated constraint."""
    S = _load_highs().HighsModelStatus
    sgn = -1.0 if model.sense == "max" else 1.0
    status, x, y = _run_highs(model, sgn * model.objective)
    if status == S.kUnboundedOrInfeasible:
        # a zero cost is never unbounded, so a feasibility solve settles it
        status = _run_highs(model, np.zeros(model.num_variables))[0]
        status = S.kUnbounded if status == S.kOptimal else status
    if status == S.kOptimal:
        y = sgn * y
        x.setflags(write=False)
        y.setflags(write=False)
        return LpSolution("Optimal", float(model.objective @ x), x, y)
    if status in (S.kInfeasible, S.kUnbounded):
        return LpSolution("Infeasible" if status == S.kInfeasible else "Unbounded",
                          math.nan, None, None)
    raise NumericalBreakdown(f"HiGHS stopped with status {status.name}")
