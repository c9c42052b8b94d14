"""LP models, a HiGHS solve with one dual per stated row, and dualization.

solve hands an LpModel to HiGHS, the dual simplex of Huangfu & Hall (Math.
Prog. Comp. 2018) that scipy bundles: variable bounds stay bounds and the
relations become row bounds, so each stated row gets exactly one multiplier.
HiGHS runs on one thread with its output off.  Its extension
scipy/optimize/_highspy/_core is loaded alone, by file path, on the first
solve: importing it by name runs scipy/optimize/__init__ (about +0.3 s and
+23 MB of peak RSS, against +0.02 s and +2.5 MB alone).  No fbconv module
imports scipy, so fbconv loads no scipy module until the first solve, and
callers that solve no LP load none.  That path is private to scipy, so
pyproject.toml sets the scipy version it was tested on and a missing
extension raises SolverUnavailable.

Sign convention for duals: for a max problem, multipliers of <= rows are >= 0
and of >= rows are <= 0; for a min problem the signs flip; equality rows are
free either way.  With that convention solve(model).dual satisfies weak and
strong duality against dualize(model) without further sign fiddling.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import dataclass
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


def _read_only(a) -> np.ndarray:
    """`a` as a read-only float64 array: kept as given when it already is
    one, copied otherwise."""
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and not a.flags.writeable):
        a = np.array(a, dtype=float)
        a.setflags(write=False)
    return a


@dataclass(frozen=True)
class LpModel:
    """min or max of objective @ x subject to a_matrix @ x (relations) rhs and bounds.

    lower/upper default to [0, +inf) per variable; -inf/+inf entries make a
    variable free on that side.  A read-only float64 a_matrix is kept as
    given, without a copy; any other a_matrix is copied.
    """

    sense: str
    objective: np.ndarray
    a_matrix: np.ndarray
    relations: Tuple[str, ...]
    rhs: np.ndarray
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.sense not in ("max", "min"):
            raise DimensionMismatch(f"sense must be 'max' or 'min', got {self.sense!r}")
        c = np.atleast_1d(np.array(self.objective, dtype=float))
        A = _read_only(self.a_matrix)
        if A.ndim != 2:
            A = A.reshape(0, c.size) if A.size == 0 else A.reshape(-1, c.size)
        b = np.atleast_1d(np.array(self.rhs, dtype=float))
        rel = tuple(self.relations)
        m, n = A.shape
        if c.shape != (n,) or b.shape != (m,) or len(rel) != m:
            raise DimensionMismatch(
                f"shapes disagree: objective {c.shape}, a_matrix {A.shape}, "
                f"rhs {b.shape}, relations {len(rel)}")
        for r in rel:
            if r not in RELATIONS:
                raise DimensionMismatch(f"unknown relation {r!r}")
        lo = np.zeros(n) if self.lower is None else np.array(self.lower, dtype=float)
        up = np.full(n, np.inf) if self.upper is None else np.array(self.upper, dtype=float)
        if lo.shape != (n,) or up.shape != (n,):
            raise DimensionMismatch("bound arrays must match the variable count")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise DimensionMismatch("objective, a_matrix and rhs must be finite")
        if np.any(np.isnan(lo)) or np.any(np.isnan(up)) or np.any(lo > up):
            raise DimensionMismatch("bounds must satisfy lower <= upper and not be NaN")
        for name, val in (("objective", c), ("a_matrix", A), ("rhs", b),
                          ("lower", lo), ("upper", up)):
            val.setflags(write=False)
            object.__setattr__(self, name, val)
        object.__setattr__(self, "relations", rel)

    @classmethod
    def from_rows(cls, sense, objective, constraints, lower=None, upper=None) -> "LpModel":
        """Build from a list of (coefficient vector, relation, rhs) triples."""
        objective = np.atleast_1d(np.asarray(objective, dtype=float))
        n = objective.size
        if constraints:
            A = np.array([np.asarray(a, dtype=float) for a, _, _ in constraints])
            A.setflags(write=False)
            rel = tuple(r for _, r, _ in constraints)
            b = np.array([float(v) for _, _, v in constraints])
        else:
            A, rel, b = np.zeros((0, n)), (), np.zeros(0)
        return cls(sense, objective, A, rel, b, lower, upper)

    @property
    def constraints(self):
        return [(self.a_matrix[i], self.relations[i], float(self.rhs[i]))
                for i in range(self.rhs.size)]

    @property
    def num_variables(self) -> int:
        return self.objective.size

    @property
    def num_constraints(self) -> int:
        return self.rhs.size


@dataclass(frozen=True)
class LpSolution:
    status: str  # "Optimal" | "Infeasible" | "Unbounded"
    value: float
    primal: Optional[np.ndarray]
    dual: Optional[np.ndarray]


_HIGHS_NAME = "scipy.optimize._highspy._core"


@functools.lru_cache(maxsize=None)
def _load_highs(directory: Optional[str] = None):
    """The HiGHS extension, loaded from `directory`, default scipy's optimize/_highspy."""
    if directory is None:
        # Reuse scipy's module if scipy imported it first: loading it again
        # would register its types twice.  In the other order, `import
        # scipy.optimize` gets the module loaded here, since both load the
        # same file under the same name (checked in both orders).
        if _HIGHS_NAME in sys.modules:
            return sys.modules[_HIGHS_NAME]
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
    return module


def _run_highs(model: LpModel, cost: np.ndarray):
    """min cost x over the model's rows and bounds: (HiGHS model status,
    primal, row duals)."""
    h = _load_highs()
    m, n = model.a_matrix.shape
    rel = np.array(model.relations)
    lp = h.HighsLp()
    lp.num_col_, lp.num_row_ = n, m
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = cost, model.lower, model.upper
    lp.row_lower_ = np.where(rel == "<=", -math.inf, model.rhs)
    lp.row_upper_ = np.where(rel == ">=", math.inf, model.rhs)
    rows, cols = np.nonzero(model.a_matrix)
    mat = lp.a_matrix_
    mat.format_, mat.num_col_, mat.num_row_ = h.MatrixFormat.kRowwise, n, m
    mat.start_ = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=m))])
    mat.index_, mat.value_ = cols, model.a_matrix[rows, cols]
    options = h.HighsOptions()
    # presolve gains nothing on these LPs, and it reported a feasible,
    # unbounded LP as infeasible (test_feasible_unbounded_not_reported_infeasible)
    options.output_flag, options.threads, options.presolve = False, 1, "off"
    highs = h._Highs()
    if h.HighsStatus.kError in (highs.passOptions(options), highs.passModel(lp), highs.run()):
        raise NumericalBreakdown("HiGHS reported an error")
    sol = highs.getSolution()
    return highs.getModelStatus(), np.array(sol.col_value), np.array(sol.row_dual)


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
        return LpSolution("Optimal", float(model.objective @ x), x, sgn * y)
    if status in (S.kInfeasible, S.kUnbounded):
        return LpSolution("Infeasible" if status == S.kInfeasible else "Unbounded",
                          math.nan, None, None)
    raise NumericalBreakdown(f"HiGHS stopped with status {status.name}")


def dualize(model: LpModel) -> LpModel:
    """Mechanical LP dual.

    Variable bounds must be one of [0, inf), (-inf, 0], (-inf, inf); every
    relaxation LP this package builds satisfies that (x >= 0 only).
    dualize(dualize(m)) has the
    same optimal value as m.
    """
    n, m = model.num_variables, model.num_constraints
    sign = np.empty(n, dtype=int)
    for j in range(n):
        lo, up = model.lower[j], model.upper[j]
        if lo == 0.0 and up == math.inf:
            sign[j] = 1
        elif lo == -math.inf and up == 0.0:
            sign[j] = -1
        elif lo == -math.inf and up == math.inf:
            sign[j] = 0
        else:
            raise LpError(
                "dualize needs variable bounds in {[0,inf), (-inf,0], free}; "
                f"variable {j} has [{lo}, {up}]")

    primal_min = model.sense == "min"
    lo_y = np.empty(m)
    up_y = np.empty(m)
    for i, r in enumerate(model.relations):
        if r == "=":
            lo_y[i], up_y[i] = -math.inf, math.inf
        elif (r == ">=") == primal_min:
            # >= rows of a min problem (and <= rows of a max problem): y >= 0
            lo_y[i], up_y[i] = 0.0, math.inf
        else:
            lo_y[i], up_y[i] = -math.inf, 0.0

    At = model.a_matrix.T.copy()
    rels = []
    for j in range(n):
        if sign[j] == 0:
            rels.append("=")
        elif primal_min:
            rels.append("<=" if sign[j] > 0 else ">=")
        else:
            rels.append(">=" if sign[j] > 0 else "<=")
    return LpModel(
        sense="max" if primal_min else "min",
        objective=model.rhs.copy(),
        a_matrix=At,
        relations=tuple(rels),
        rhs=model.objective.copy(),
        lower=lo_y,
        upper=up_y,
    )


def dump(model: LpModel) -> str:
    """Plain-text tableau: objective line, then one `coeffs <rel> rhs` line per
    constraint, then `bound j lo hi` lines for non-default bounds."""
    def f(x):
        return repr(float(x))

    lines = [model.sense + " " + " ".join(f(v) for v in model.objective)]
    for i in range(model.num_constraints):
        lines.append(" ".join(f(v) for v in model.a_matrix[i])
                     + f" {model.relations[i]} {f(model.rhs[i])}")
    for j in range(model.num_variables):
        lo, up = model.lower[j], model.upper[j]
        if lo != 0.0 or up != math.inf:
            lines.append(f"bound {j} {f(lo)} {f(up)}")
    return "\n".join(lines) + "\n"
