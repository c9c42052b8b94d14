"""Dense LP solver with exact dual extraction, plus mechanical dualization.

The relaxation LPs downstream are small (hundreds to a few thousand variables)
and dense, and the bound computations need dual multipliers that line up
one-to-one with the stated constraints.  So this module implements a dense
two-phase revised simplex over float64 directly:

  * Dantzig pricing, switching to Bland's rule once no strict improvement has
    been seen for 2 * #variables iterations (cycling suspicion);
  * equality rows are handled by phase-1 artificials, never split, so each
    stated constraint keeps exactly one multiplier;
  * redundant rows detected in phase 1 are dropped and reported with a zero
    multiplier.

Sign convention for duals: for a max problem, multipliers of <= rows are >= 0
and of >= rows are <= 0; for a min problem the signs flip; equality rows are
free either way.  With that convention solve(model).dual satisfies weak and
strong duality against dualize(model) without further sign fiddling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

RELATIONS = ("<=", "=", ">=")

FEAS_TOL = 1e-9
RCOST_TOL = 1e-9
PIVOT_TOL = 1e-9


class LpError(Exception):
    pass


class DimensionMismatch(LpError):
    """Model arrays disagree in shape, or contain non-finite data where finite is required."""


class NumericalBreakdown(LpError):
    """Singular basis, stalled pivoting, or iteration budget exhausted."""


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
    variable_names: Optional[Tuple[str, ...]] = None

    def __post_init__(self):
        if self.sense not in ("max", "min"):
            raise DimensionMismatch(f"sense must be 'max' or 'min', got {self.sense!r}")
        c = np.atleast_1d(np.array(self.objective, dtype=float))
        A = self.a_matrix
        if not (isinstance(A, np.ndarray) and A.dtype == np.float64
                and not A.flags.writeable):
            A = np.array(A, dtype=float)
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
        if self.variable_names is not None and len(self.variable_names) != n:
            raise DimensionMismatch("variable_names must match the variable count")
        for name, val in (("objective", c), ("a_matrix", A), ("rhs", b),
                          ("lower", lo), ("upper", up)):
            val.setflags(write=False)
            object.__setattr__(self, name, val)
        object.__setattr__(self, "relations", rel)
        if self.variable_names is not None:
            object.__setattr__(self, "variable_names", tuple(self.variable_names))

    @classmethod
    def from_rows(cls, sense, objective, constraints, lower=None, upper=None,
                  variable_names=None) -> "LpModel":
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
        return cls(sense, objective, A, rel, b, lower, upper, variable_names)

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


def _simplex_phase(A, b, c, basis, B_inv, barred, maxiter, bland=False):
    """Run simplex iterations to optimality on min c x, A x = b, x >= 0.

    `barred` columns never enter.  Returns (code, basis, B_inv, bland) with
    code one of "optimal", "unbounded".
    """
    m, ncols = A.shape
    best = math.inf
    stall = 0
    stall_limit = 2 * ncols
    for it in range(maxiter):
        if it and it % 200 == 0:  # fight drift from incremental updates
            try:
                B_inv = np.linalg.solve(A[:, basis], np.eye(m))
            except np.linalg.LinAlgError as e:
                raise NumericalBreakdown("singular basis during refactorization") from e
        x_b = B_inv @ b
        y = c[basis] @ B_inv
        r = c - y @ A
        r[basis] = 0.0
        r[barred] = 0.0
        obj = float(c[basis] @ np.maximum(x_b, 0.0))
        if obj < best - 1e-12 * max(1.0, abs(best) if math.isfinite(best) else 1.0):
            best = obj
            stall = 0
        else:
            stall += 1
            if stall > stall_limit:
                bland = True
        elig = np.flatnonzero(r < -RCOST_TOL)
        if elig.size == 0:
            return "optimal", basis, B_inv, bland
        j = int(elig[0]) if bland else int(elig[np.argmin(r[elig])])
        d = B_inv @ A[:, j]
        pos = np.flatnonzero(d > PIVOT_TOL)
        if pos.size == 0:
            return "unbounded", basis, B_inv, bland
        ratios = np.maximum(x_b[pos], 0.0) / d[pos]
        theta = ratios.min()
        ties = pos[np.flatnonzero(ratios <= theta + 1e-12)]
        # Bland-style leaving choice on ties keeps the iteration deterministic
        leave = int(ties[np.argmin(np.asarray(basis)[ties])])
        piv = d[leave]
        B_inv[leave, :] /= piv
        others = np.arange(m) != leave
        B_inv[others, :] -= np.outer(d[others], B_inv[leave, :])
        basis[leave] = j
    raise NumericalBreakdown(f"iteration budget {maxiter} exhausted")


def solve(model: LpModel) -> LpSolution:
    """Two-phase dense revised simplex; duals come back one per stated constraint."""
    n = model.num_variables
    m_user = model.num_constraints
    sgn = -1.0 if model.sense == "max" else 1.0
    c_orig = sgn * model.objective

    # --- bound transforms: rewrite every variable through nonnegative columns
    cols = []          # (orig var, scale) per standard-form structural column
    shifts = np.zeros(n)
    extra_rows = []    # (coeffs over std structural cols, rel, rhs) for finite uppers
    for j in range(n):
        lo, up = model.lower[j], model.upper[j]
        if lo == -math.inf and up == math.inf:
            cols.append((j, 1.0))
            cols.append((j, -1.0))
        elif lo == -math.inf:
            # x = up - w
            shifts[j] = up
            cols.append((j, -1.0))
        else:
            shifts[j] = lo
            cols.append((j, 1.0))
            if up != math.inf:
                extra_rows.append((len(cols) - 1, up - lo))
    n_std = len(cols)
    col_var = np.array([j for j, _ in cols])
    col_scale = np.array([s for _, s in cols])

    A_struct = model.a_matrix[:, col_var] * col_scale
    b_vec = model.rhs - model.a_matrix @ shifts
    rels = list(model.relations)
    if extra_rows:
        ub_rows = np.zeros((len(extra_rows), n_std))
        ub_rhs = np.zeros(len(extra_rows))
        for i, (k, cap) in enumerate(extra_rows):
            ub_rows[i, k] = 1.0
            ub_rhs[i] = cap
        A_struct = np.vstack([A_struct, ub_rows])
        b_vec = np.concatenate([b_vec, ub_rhs])
        rels += ["<="] * len(extra_rows)
    m = len(rels)
    c_std = c_orig[col_var] * col_scale

    if m == 0:
        if np.any(c_std < -RCOST_TOL):
            return LpSolution("Unbounded", math.nan, None, None)
        x = shifts.copy()
        return LpSolution("Optimal", float(model.objective @ x), x, np.zeros(0))

    # --- slacks, orientation, artificials
    slack_cols = np.zeros((m, m))
    for i, r in enumerate(rels):
        if r == "<=":
            slack_cols[i, i] = 1.0
        elif r == ">=":
            slack_cols[i, i] = -1.0
    flip = np.where(b_vec < 0, -1.0, 1.0)
    A_os = np.hstack([A_struct, slack_cols]) * flip[:, None]
    b_os = b_vec * flip

    need_art = np.array([not (slack_cols[i, i] * flip[i] > 0) for i in range(m)])
    art_idx = np.flatnonzero(need_art)
    A_all = np.hstack([A_os, np.zeros((m, art_idx.size))])
    for k, i in enumerate(art_idx):
        A_all[i, n_std + m + k] = 1.0
    n_real = n_std + m

    basis = np.empty(m, dtype=int)
    for i in range(m):
        basis[i] = n_std + i  # slack
    for k, i in enumerate(art_idx):
        basis[i] = n_real + k
    B_inv = np.eye(m)  # both slack(+1) and artificial start columns are unit

    budget = 20000 + 10 * (m + A_all.shape[1])
    # artificials start basic and may leave, but must never re-enter: a basic
    # artificial then always sits in its own row, which the redundant-row
    # dropping below relies on
    barred = np.zeros(A_all.shape[1], dtype=bool)
    barred[n_real:] = True

    bland = False
    if art_idx.size:
        c1 = np.zeros(A_all.shape[1])
        c1[n_real:] = 1.0
        code, basis, B_inv, bland = _simplex_phase(A_all, b_os, c1, basis, B_inv,
                                                   barred, budget, bland)
        if code == "unbounded":
            raise NumericalBreakdown("phase 1 reported an unbounded direction")
        x_b = B_inv @ b_os
        if float(x_b[basis >= n_real].sum() if np.any(basis >= n_real) else 0.0) > \
                FEAS_TOL * max(1.0, float(np.abs(b_os).max(initial=0.0))):
            return LpSolution("Infeasible", math.nan, None, None)

    # drive artificials out of the basis; rows that cannot pivot are redundant
    keep = np.ones(m, dtype=bool)
    for i in range(m):
        if basis[i] < n_real:
            continue
        row = B_inv[i] @ A_all[:, :n_real]
        in_basis = np.zeros(n_real, dtype=bool)
        in_basis[basis[basis < n_real]] = True
        cand = np.flatnonzero((np.abs(row) > 1e-7) & ~in_basis)
        if cand.size:
            j = int(cand[0])
            d = B_inv @ A_all[:, j]
            piv = d[i]
            B_inv[i, :] /= piv
            others = np.arange(m) != i
            B_inv[others, :] -= np.outer(d[others], B_inv[i, :])
            basis[i] = j
        else:
            keep[i] = False

    if not np.all(keep):
        A_all = A_all[keep][:, :n_real]
        b_os = b_os[keep]
        basis = basis[keep]
        m2 = int(keep.sum())
        try:
            B_inv = np.linalg.solve(A_all[:, basis], np.eye(m2))
        except np.linalg.LinAlgError as e:
            raise NumericalBreakdown("singular basis after dropping redundant rows") from e
    else:
        A_all = A_all[:, :n_real]

    c2 = np.concatenate([c_std, np.zeros(m)])
    code, basis, B_inv, bland = _simplex_phase(A_all, b_os, c2, basis, B_inv,
                                               np.zeros(n_real, dtype=bool),
                                               budget, bland)
    if code == "unbounded":
        return LpSolution("Unbounded", math.nan, None, None)

    x_b = B_inv @ b_os
    x_std = np.zeros(n_real)
    x_std[basis] = np.maximum(x_b, 0.0)
    x = shifts.copy()
    np.add.at(x, col_var, col_scale * x_std[:n_std])

    y_kept = c2[basis] @ B_inv
    y_full = np.zeros(m)
    y_full[keep] = y_kept
    y_user = (y_full * flip)[:m_user] * sgn
    return LpSolution("Optimal", float(model.objective @ x), x, y_user)


def dualize(model: LpModel) -> LpModel:
    """Mechanical LP dual.

    Variable bounds must be one of [0, inf), (-inf, 0], (-inf, inf); every
    model this package builds for dualization satisfies that (finite caps like
    phi <= P are emitted as constraint rows).  dualize(dualize(m)) has the
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
