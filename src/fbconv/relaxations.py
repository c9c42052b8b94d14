"""Exact LP relaxations of optimal fixed-length source codes, and their duals.

The minimum error probability of a code with given codebook sizes is a
bilinear program over encoder/decoder conditional pmfs.  Lifting products of
decision variables into joint variables and keeping only the marginal
consistency constraints gives an LP lower bound (the Jose-Kulkarni
framework).  This module builds those LPs as HiGHS's row-wise arrays for

  * the point-to-point (possibly lossy) problem:        build_lp_sc
  * coding with decoder side information, either side:  build_lpsi
  * the jointly-encoded pair problem:                   build_lp_je
  * the two-encoder distributed (Slepian-Wolf) problem: build_lp_sw

and owns the dual-side machinery: typed dual points, one feasibility checker
that reports per-constraint residuals, dual objectives in penalty (min) form,
and the closed-form dual points generated by a single nonnegative flow phi.
Side 2 of the side-information problem is built and checked as side 1 of
the swapped pair, SwInstance.oriented(2).

Each LP is written once, as a table over one-letter index names:

  * a size per letter;
  * column blocks (name, letters, id): a tensor of variables with one axis
    per letter, flattened row-major, blocks laid out in table order;
  * row families (name, letters, lifted, minus): one row per index tuple of
    `letters`, stating that block `lifted` summed over its letters missing
    from `letters` equals block `minus` read at the row's index, or equals 1
    when minus is None (a normalization row, gamma_*, whose letters keep
    its block's order);
  * the cost (diagonal, factor), zero off the W block's message diagonal
    x = y, or x = u and y = v: the einsum subscripts of that diagonal as a
    view of W, and a callable giving the cost there, over the other letters
    with a unit axis per message letter.

Every row of a lifted relaxation has one of those two shapes, so one routine
(_structures) turns any table into the nonzeros of the constraint matrix and
the rhs.  Those depend on the sizes alone; the pmf enters only the cost.  They
are built eagerly once per table within MAX_LP_ENTRIES and cached for up to
32 tables.  An entry is the column and row layouts and one LpModel, checked
once when the entry is built: the frozen a_rows, rhs, relations and bounds,
a zero objective, and the table's lp_core.WarmStart.  Every build returns
that model with its own cost (LpModel._with_objective), holding all the rest
as the same objects, so a build writes and checks the cost alone.

The WarmStart holds the cost at the uniform pmf of the table's sizes, set
by the first build, then from the first solve on a HighsLp copy of the
arrays and the optimal basis at that cost, from which every solve of an SI,
JE or SW model runs the primal simplex.  It is evicted with its entry.  For
SW 3x3 / M=(2,2) (1750 x 1812, 6,612 nonzeros) an entry holds about 0.4 MiB:
the arrays 0.13 MiB, the bounds and zero objective 0.04 MiB, and the
WarmStart under 0.23 MiB.  The point-to-point table's cost depends on its
distortion, which its structure does not fix, so SC models carry no
WarmStart and solve cold, and an SC entry's stays empty.  The same table gives:

  * the variable and row layouts (_layouts);
  * each typed dual point class (DualPointSC, SI, JE and SW), made from the
    table's row families: one field per family, named after it, with the
    family's letters as axes, so slicing a solver's dual vector
    (dual_point_from_solution) is a reshape;
  * the dual constraints A^T y <= c (check_feasible), one per column: a
    block's residual is the families lifting into it, broadcast up to its
    letters, minus the families whose minus block it is, summed down to its
    letters, minus the cost;
  * the binding normalization multipliers (_binding_gammas): each is bounded
    by that summed-down term of its block; the dual objectives are their sum.

Constraint ids, per column block (SI 2|1 has C1-C3 for B1-B3):

               Q1  Q2  Qd  T   U   V   W
  SC           P1      P2              P3
  SI 1|2       B1      B2              B3
  JE           A1      A2              A3
  SW           D1  D2  D3  D7  D6  D5  D4

check_feasible skips a block when a normalization field lifting into it is
None; no other field may be None.

Letters: s source and x, y encoder output / decoder input, h reconstruction
(point-to-point); e encoded and s side source (side information); a, b the
pair, x, y the two encoder outputs, u, v the decoder inputs, c, d the
reconstructions (jointly encoded and distributed).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields, make_dataclass, replace
from types import MappingProxyType
from typing import Dict, List, Optional, Tuple

import numpy as np

from .lp_core import LpModel, LpSolution, WarmStart, _read_only, _row_arrays
from .probability import CodeSizes, DistortionSpec, InstanceTooLarge, JointPmf, PmfError, SinglePmf

MAX_LP_ENTRIES = 2 ** 26   # rows x columns of one LP, which bound its nonzeros


def _check_lp_size(rows: int, cols: int, what: str) -> None:
    """Raise InstanceTooLarge, before any allocation, past MAX_LP_ENTRIES."""
    if rows * cols > MAX_LP_ENTRIES:
        raise InstanceTooLarge(f"{what} needs {rows} x {cols} entries, cap {MAX_LP_ENTRIES}")


@dataclass(frozen=True)
class ScInstance:
    """Point-to-point problem: encode S through M messages, decode under a
    distortion spec (DistortionSpec.lossless(|S|) for the lossless case)."""

    source: SinglePmf
    M: int
    distortion: DistortionSpec

    def __post_init__(self):
        object.__setattr__(self, "M", CodeSizes(self.M).M1)   # PmfError unless M >= 1 is integral
        if self.distortion.d_matrix.shape[0] != self.source.alphabet_size:
            raise PmfError("distortion rows must match the source alphabet")

    @property
    def n(self) -> int:
        return self.source.alphabet_size

    @property
    def n_hat(self) -> int:
        return self.distortion.d_matrix.shape[1]


@dataclass(frozen=True)
class SwInstance:
    """Distributed lossless problem: separate encoders for S1 and S2."""

    joint: JointPmf
    sizes: CodeSizes

    def __post_init__(self):
        if self.sizes.M2 is None:
            raise PmfError("SwInstance needs both codebook sizes")

    @property
    def dims(self) -> Tuple[int, int, int, int]:
        n1, n2 = self.joint.sizes
        return n1, n2, self.sizes.M1, self.sizes.M2

    def oriented(self, which: int) -> "SwInstance":
        """The instance with source `which` as S1: itself for 1, the swapped
        pair (mass transposed, M1 and M2 exchanged) for 2."""
        if which == 1:
            return self
        if which == 2:
            return self._swapped
        raise PmfError(f"which must be 1 or 2, got {which!r}")

    @functools.cached_property
    def _swapped(self) -> "SwInstance":   # built and validated once per instance
        return SwInstance(JointPmf(self.joint.mass.T), CodeSizes(self.sizes.M2, self.sizes.M1))


# ---------------------------------------------------------------------------
# LP tables: (sizes, column blocks, row families, cost); blocks and families
# are tuples, so hashable.  The row families of each kind, which also make
# its dual point class:

_SC_ROWS = (("gamma_a", "s", "Q1", None), ("gamma_b", "y", "Qd", None),
            ("lam_s", "shy", "W", "Qd"), ("lam_c", "xsy", "W", "Q1"))
# either side's: the side's id is in its column blocks
_SI_ROWS = (("gamma_a", "e", "Q1", None), ("gamma_b", "sy", "Qd", None),
            ("lam_s", "eshy", "W", "Qd"), ("lam_c", "esxy", "W", "Q1"))
_JE_ROWS = (("gamma_a", "ab", "Q1", None), ("gamma_b", "uv", "Qd", None),
            ("lam_s", "abcduv", "W", "Qd"), ("lam_c", "abxyuv", "W", "Q1"))
_SW_ROWS = (("gamma_a", "a", "Q1", None), ("gamma_b", "b", "Q2", None),
            ("gamma_c", "uv", "Qd", None),
            ("mu_c_21", "yab", "T", "Q2"), ("mu_c_12", "xab", "T", "Q1"),
            ("mu_s_1", "acduv", "U", "Qd"), ("mu_s_2", "bcduv", "V", "Qd"),
            ("mu_c_1", "axuv", "U", "Q1"), ("mu_c_2", "byuv", "V", "Q2"),
            ("lam_s_12", "abyuvcd", "W", "V"), ("lam_s_21", "abxuvcd", "W", "U"),
            ("lam_c", "abxyuv", "W", "T"))


def _sc_table(inst: ScInstance):
    sizes = dict(s=inst.n, x=inst.M, y=inst.M, h=inst.n_hat)
    cols = (("Q1", "sx", "P1"), ("Qd", "yh", "P2"), ("W", "sxyh", "P3"))
    # P(s) 1{d(s, h) > level} on x = y
    return sizes, cols, _SC_ROWS, ("sxxh->sxh", lambda: (
        inst.source.mass[:, None] * inst.distortion.excess())[:, None, :])


def _si_table(inst: SwInstance, which: int):
    """Side `which`'s table: side 1's of inst.oriented(which), ids B or C."""
    sw = inst.oriented(which)
    ne, ns, M, _ = sw.dims
    sizes = dict(e=ne, s=ns, x=M, y=M, h=ne)
    cid = "BC"[which - 1]
    cols = (("Q1", "ex", cid + "1"), ("Qd", "syh", cid + "2"), ("W", "esxyh", cid + "3"))
    # P(e, s) on every wrong estimate h != e, on x = y
    return sizes, cols, _SI_ROWS, ("esxxh->esxh", lambda: np.einsum(
        "es, eh -> esh", sw.joint.mass, 1.0 - np.eye(ne))[:, :, None, :])


def _pair_table(inst: SwInstance, cols, rows):
    """A pair LP's table: its sizes and cost, P(a, b) on every wrong decoded
    pair (c, d) != (a, b) on the encoders' own messages x = u, y = v."""
    n1, n2, m1, m2 = inst.dims

    def factor():
        wrong = 1.0 - np.einsum("ac, bd -> abcd", np.eye(n1), np.eye(n2))
        return (inst.joint.mass[:, :, None, None] * wrong)[:, :, None, None]
    sizes = dict(a=n1, b=n2, x=m1, y=m2, u=m1, v=m2, c=n1, d=n2)
    return sizes, cols, rows, ("abxyxycd->abxycd", factor)


def _je_table(inst: SwInstance):
    cols = (("Q1", "abxy", "A1"), ("Qd", "uvcd", "A2"), ("W", "abxyuvcd", "A3"))
    return _pair_table(inst, cols, _JE_ROWS)


def _sw_table(inst: SwInstance):
    cols = (("Q1", "ax", "D1"), ("Q2", "by", "D2"), ("Qd", "uvcd", "D3"), ("T", "abxy", "D7"),
            ("U", "axuvcd", "D6"), ("V", "byuvcd", "D5"), ("W", "abxyuvcd", "D4"))
    return _pair_table(inst, cols, _SW_ROWS)


_EXCHANGE = str.maketrans("abxyuvcd", "bayxvudc")   # the letters of S1 <-> those of S2


def _exchanged(rows, fields: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Fields of a point of one pair as the swapped pair's fields, permuted
    views: the exchange maps _je_table and _sw_table onto themselves, each
    family onto the one over its exchanged letters, and is an involution."""
    by_letters = {frozenset(letters): (name, letters) for name, letters, _, _ in rows}
    out = {}
    for name, letters, _, _ in rows:
        if name in fields:
            moved = letters.translate(_EXCHANGE)
            image, image_letters = by_letters[frozenset(moved)]
            out[image] = np.einsum(f"{moved}->{image_letters}", fields[name])
    return out


# ---------------------------------------------------------------------------
# layouts


class TensorIndex:
    """Named blocks of tensor-shaped variables (or rows) in one flat vector, read-only."""

    def __init__(self, blocks: List[Tuple[str, Tuple[int, ...]]]):
        shapes, offsets, off = {}, {}, 0
        for name, shape in blocks:
            shapes[name], offsets[name] = tuple(shape), off
            off += math.prod(shape)
        self.shapes, self.offsets = MappingProxyType(shapes), MappingProxyType(offsets)
        self.total = off

    def slice_of(self, name: str) -> slice:
        off = self.offsets[name]
        return slice(off, off + math.prod(self.shapes[name]))

    def extract(self, vec: np.ndarray, name: str) -> np.ndarray:
        return vec[self.slice_of(name)].reshape(self.shapes[name])


# ---------------------------------------------------------------------------
# primal builders


def _ravel(at: Dict[str, np.ndarray], sizes, letters: str) -> np.ndarray:
    """Flat offsets, in a block with axes `letters`, of the grid points whose
    per-letter coordinates `at` holds."""
    return np.ravel_multi_index([at[k] for k in letters],
                                tuple(sizes[k] for k in letters))


@functools.lru_cache(maxsize=32)
def _structures(sizes, col_blocks, families):
    """(column layout, row layout, model) of a table made hashable.  The
    model is the table's equality-form min LP at a zero cost, with its
    WarmStart, empty until a build sets its reference and a solve its HiGHS
    state.  The cap is checked on the layouts, before any array exists, and
    lru_cache keeps no call that raised, so a table past it is never cached."""
    sizes, letters = dict(sizes), dict(col_blocks)
    cols, rows = (TensorIndex([(name, tuple(sizes[k] for k in axes))
                               for name, axes, *_ in blocks])
                  for blocks in (col_blocks, families))
    _check_lp_size(rows.total, cols.total, "LP " + " ".join(f"{n}({k})" for n, k in col_blocks))
    entries = []              # (row, col, value) arrays, one per block a family reads
    b = np.zeros(rows.total)
    for name, row_letters, lifted, minus in families:
        # +1 on every entry of the lifted block, in the row its row letters
        # pick; -1 on the one entry of the minus block that each row reads
        for block, grid, value in ((lifted, letters[lifted], 1.0), (minus, row_letters, -1.0)):
            if block is not None:
                points = np.indices(tuple(sizes[k] for k in grid)).reshape(len(grid), -1)
                at = dict(zip(grid, points))
                entries.append((rows.offsets[name] + _ravel(at, sizes, row_letters),
                                cols.offsets[block] + _ravel(at, sizes, letters[block]),
                                np.full(points.shape[1], value)))
        if minus is None:
            b[rows.slice_of(name)] = 1.0
    a_rows = _row_arrays(*(np.concatenate(e) for e in zip(*entries)), rows.total)
    for a in (*a_rows, b):
        a.setflags(write=False)
    model = LpModel("min", np.zeros(cols.total), a_rows, ("=",) * rows.total, b, warm=WarmStart())
    return cols, rows, model


def _structure(table):
    sizes, cols, rows, _ = table
    return _structures(tuple(sizes.items()), tuple(c[:2] for c in cols), rows)


def _cost(table, cols: TensorIndex) -> np.ndarray:
    """A table's cost vector, written through W's diagonal view, read-only."""
    diagonal, factor = table[3]
    c = np.zeros(cols.total)
    np.einsum(diagonal, c[cols.slice_of("W")].reshape(cols.shapes["W"]))[...] = factor()
    c.setflags(write=False)
    return c


def _uniform(inst: SwInstance) -> SwInstance:
    n1, n2 = inst.joint.sizes
    return SwInstance(JointPmf(np.full((n1, n2), 1.0 / (n1 * n2))), inst.sizes)


def _build(table_of, inst, warm: bool = True) -> LpModel:
    """Equality-form min LP of the table table_of(inst): the cached
    structure's model with the table's cost.  With `warm`, the model holds
    the structure's WarmStart, whose reference is the cost of table_of at
    the uniform pmf of inst's sizes; without, none."""
    table = table_of(inst)
    cols, _, model = _structure(table)
    start = model.warm if warm else None
    if warm and start.reference is None:
        start.reference = _cost(table_of(_uniform(inst)), cols)
    return model._with_objective(_cost(table, cols), start)


def build_lp_sc(inst: ScInstance) -> LpModel:
    """Exact LP relaxation of the point-to-point error minimization.  Its
    structure does not fix its distortion, so its solves stay cold."""
    return _build(_sc_table, inst, warm=False)


def build_lpsi(inst: SwInstance, which: int = 1) -> LpModel:
    """LP relaxation of coding S_which with the other source at the decoder."""
    return _build(functools.partial(_si_table, which=which), inst)


def build_lp_je(inst: SwInstance) -> LpModel:
    """LP relaxation of the jointly-encoded pair problem in pair indices.

    Value equals build_lp_sc on the pair as one source, alphabet flattened
    in row-major order, with M = M1 M2; the two come from different tables
    (pair letters against flattened ones), which the tests exploit.
    """
    return _build(_je_table, inst)


def build_lp_sw(inst: SwInstance) -> LpModel:
    """LP relaxation of the two-encoder problem with all twelve row families."""
    return _build(_sw_table, inst)


# ---------------------------------------------------------------------------
# dual point containers


@dataclass(frozen=True)
class _DualPoint:
    """Fields are one multiplier tensor per row family of the LP's table, with
    the family's letters as axes.  Every array field is frozen by _read_only:
    a read-only float64 array is kept as given, anything else copied.
    The gamma fields may be None; any other None raises PmfError."""

    def __post_init__(self):
        for f in fields(self):
            val = getattr(self, f.name)
            if val is None and not f.name.startswith("gamma"):
                raise PmfError(f"dual point field {f.name} is None; only gamma fields may be")
            if f.name != "which" and val is not None:   # which: see SwInstance.oriented
                object.__setattr__(self, f.name, _read_only(val))


def _point_class(name: str, rows, summary: str, *lead) -> type:
    """A frozen _DualPoint subclass: the `lead` fields, then one array field
    per row family of `rows` in table order, but for the normalization
    (gamma) families, which come last and default to None."""
    rows = [r for r in rows if r[3] is not None] + [r for r in rows if r[3] is None]
    spec = [(f, np.ndarray) if minus else (f, Optional[np.ndarray], field(default=None))
            for f, _, _, minus in rows]
    cls = make_dataclass(name, [*lead, *spec], bases=(_DualPoint,), frozen=True)
    cls.__module__ = __name__
    cls.__doc__ = summary + "\n\nFields, with their row family's letters as axes:\n\n" + "".join(
        f"    {f:9}{letters}\n" for f, letters, _, _ in rows)
    return cls


DualPointSC = _point_class("DualPointSC", _SC_ROWS, "Multipliers for the point-to-point LP.")
DualPointSI = _point_class("DualPointSI", _SI_ROWS, (
    "Multipliers for a side-information LP; `which` names the encoded source.  A which = 2\n"
    "point is the which = 1 point of inst.oriented(2), so its e is S2 and its s is S1."),
    ("which", int))
DualPointJE = _point_class("DualPointJE", _JE_ROWS, "Multipliers for the jointly-encoded LP.")
DualPointSW = _point_class("DualPointSW", _SW_ROWS, "Multipliers for the distributed LP.")


def _table_of(inst, point_type: type, which: Optional[int] = None):
    """The table of point_type's LP on inst, side `which` for DualPointSI."""
    if point_type is DualPointSI:
        return _si_table(inst, which)
    tables = {DualPointSC: _sc_table, DualPointJE: _je_table, DualPointSW: _sw_table}
    return tables[point_type](inst)


def _layouts(inst, point_type: type, which: Optional[int] = None):
    """The (column, row) TensorIndex layouts of point_type's LP on inst."""
    return _structure(_table_of(inst, point_type, which))[:2]


@functools.lru_cache(maxsize=32)
def _plan(col_blocks, families):
    """Per column block (id, name, letters, norms, up, down): the normalization
    families lifting into it as (name, the block's axes they lack); every
    lifted family as (name, its axes in block order, index adding the rest);
    the families whose minus block it is as (name, einsum summing them down)."""
    plan = []
    for block, letters, cid in col_blocks:
        up, down, norms = [], [], []
        for name, own, lifted, minus in families:
            if lifted == block:
                up.append((name, tuple(own.index(k) for k in letters if k in own),
                           tuple(slice(None) if k in own else None for k in letters)))
                if minus is None:
                    norms.append((name, tuple(i for i, k in enumerate(letters) if k not in own)))
            if minus == block:
                down.append((name, f"{own}->{letters}"))
        plan.append((cid, block, letters, tuple(norms), tuple(up), tuple(down)))
    return tuple(plan)


def _summed_down(pt: _DualPoint, down):
    return (np.einsum(spec, getattr(pt, name)) for name, spec in down)


def _binding_gammas(inst, pt: _DualPoint) -> Dict[str, np.ndarray]:
    """Each normalization multiplier at its binding minimum.  A normalization
    family's block B has one dual constraint per entry: the multiplier is at
    most the families whose minus block is B, summed down to B's letters.
    The largest feasible multiplier is the min of that over the letters of B
    the family does not have."""
    _, cols, rows, _ = _table_of(inst, type(pt), getattr(pt, "which", None))
    return {name: sum(_summed_down(pt, down)).min(axis=free)
            for _, _, _, norms, _, down in _plan(cols, rows) for name, free in norms}


@dataclass(frozen=True)
class ConstraintViolation:
    """One violated dual constraint: the id of its column block, the entry's
    index over the block's letters in table order, and its residual, the
    entry of A^T y - c (NaN counts as violated)."""

    constraint_id: str
    index: Tuple[int, ...]
    residual: float


# ---------------------------------------------------------------------------
# feasibility checker


def _check_shapes(table, pt: _DualPoint) -> None:
    """Raise PmfError unless every field of pt that is set has the shape its
    row family has in the table."""
    sizes, _, rows, _ = table
    for name, letters, _, _ in rows:
        val = getattr(pt, name)
        want = tuple(sizes[k] for k in letters)
        if val is not None and val.shape != want:
            raise PmfError(f"dual point field {name} has shape {val.shape}, expected {want}")


def check_feasible(inst, pt: _DualPoint, tol: float = 1e-12) -> List[ConstraintViolation]:
    """One record per entry of A^T y - c, the dual constraints of pt's LP at
    y = pt, that is not <= tol; see the module docstring for ids.
    Each block's residual is one array, accumulated in place, and the cost
    is subtracted on W's message diagonal only."""
    table = _table_of(inst, type(pt), getattr(pt, "which", None))
    _check_shapes(table, pt)
    sizes, cols, rows, (diagonal, factor) = table
    out: List[ConstraintViolation] = []
    for cid, block, letters, norms, up, down in _plan(cols, rows):
        if any(getattr(pt, name) is None for name, _ in norms):
            continue
        terms = [(np.add, getattr(pt, name).transpose(axes)[at]) for name, axes, at in up]
        terms += [(np.subtract, t) for t in _summed_down(pt, down)]
        (_, first), (op, second), *rest = terms
        resid = op(first, second, out=np.empty(tuple(sizes[k] for k in letters)))
        for op, t in rest:
            op(resid, t, out=resid)
        if block == "W":
            diag = np.einsum(diagonal, resid)   # a view: the cost is zero off it
            diag -= factor()
        ok = resid <= tol   # False on NaN
        if not ok.all():   # the common case skips the index scan
            out += [ConstraintViolation(cid, tuple(int(i) for i in idx), float(resid[tuple(idx)]))
                    for idx in np.argwhere(~ok)]
    return out


def dual_objective(inst, pt: _DualPoint) -> float:
    """pt's dual objective in penalty (min) form: the sum of its binding
    normalization multipliers, so stored gamma fields are never read."""
    return float(sum(g.sum() for g in _binding_gammas(inst, pt).values()))


# ---------------------------------------------------------------------------
# dual points generated by a nonnegative flow phi


def dp_flows_sc(inst: ScInstance, phi: np.ndarray) -> DualPointSC:
    """Dual point of the point-to-point LP generated by 0 <= phi <= P:
    lam_c routes phi along the y = x diagonal, lam_s pays it back on
    within-distortion reconstructions."""
    n, M, nh = inst.n, inst.M, inst.n_hat
    phi = np.asarray(phi, dtype=float)
    win = inst.distortion.within().astype(float)
    lam_c = np.einsum("xy, s -> xsy", np.eye(M), phi)
    lam_s = np.broadcast_to(-(phi[:, None] * win)[:, :, None], (n, nh, M))
    pt = DualPointSC(lam_s, lam_c)
    return replace(pt, **_binding_gammas(inst, pt))


def dpsi_flows(inst: SwInstance, which: int, phi: np.ndarray) -> DualPointSI:
    """Side-information dual point from 0 <= phi <= P (joint-shaped): the
    which = 1 point of inst.oriented(which) from phi in that orientation."""
    ne, ns, M, _ = inst.oriented(which).dims
    pe = np.asarray(phi, dtype=float)
    pe = pe if which == 1 else pe.T
    lam_s = -np.einsum("es, eh -> esh", pe, np.eye(ne))[:, :, :, None]
    lam_s = np.broadcast_to(lam_s, (ne, ns, ne, M))
    lam_c = pe[:, :, None, None] * np.eye(M)[None, None, :, :]
    pt = DualPointSI(which, lam_s, lam_c)
    return replace(pt, **_binding_gammas(inst, pt))


def dpje_flows(inst: SwInstance, phi_hat: np.ndarray) -> DualPointJE:
    """Jointly-encoded dual point from 0 <= phi_hat <= P (joint-shaped)."""
    n1, n2, m1, m2 = inst.dims
    ph = np.asarray(phi_hat, dtype=float)
    same = np.einsum("ac, bd -> abcd", np.eye(n1), np.eye(n2))
    lam_s = -np.einsum("ab, abcd -> abcd", ph, same)[:, :, :, :, None, None]
    lam_s = np.broadcast_to(lam_s, (n1, n2, n1, n2, m1, m2))
    diag = np.einsum("xu, yv -> xyuv", np.eye(m1), np.eye(m2))
    lam_c = ph[:, :, None, None, None, None] * diag[None, None, :, :, :, :]
    pt = DualPointJE(lam_s, lam_c)
    return replace(pt, **_binding_gammas(inst, pt))


# ---------------------------------------------------------------------------
# slicing solver output back into typed dual points


def dual_point_from_solution(inst, sol: LpSolution, point_type: type,
                             which: Optional[int] = None) -> _DualPoint:
    """The point_type dual point (side `which` for DualPointSI) of a solution
    of its LP on inst, each field a view of sol.dual reshaped to its family's
    letters.  PmfError unless sol holds one dual per row of that LP."""
    rows = _layouts(inst, point_type, which)[1]
    if sol.dual is None or sol.dual.shape != (rows.total,):
        got = "no duals" if sol.dual is None else f"duals of shape {sol.dual.shape}"
        raise PmfError(f"{point_type.__name__}'s LP has {rows.total} rows; the {sol.status} "
                       f"solution has {got}")
    lead = (which,) if point_type is DualPointSI else ()
    return point_type(*lead, **{name: rows.extract(sol.dual, name) for name in rows.shapes})


# ---------------------------------------------------------------------------
# the per-kind names perfbench/workloads.py still reads; they go with the
# benchmark change that moves its imports to the names above (ROADMAP.md)


def dual_point_si_from_solution(inst: SwInstance, which: int, sol: LpSolution) -> DualPointSI:
    return dual_point_from_solution(inst, sol, DualPointSI, which)


def dual_point_je_from_solution(inst: SwInstance, sol: LpSolution) -> DualPointJE:
    return dual_point_from_solution(inst, sol, DualPointJE)


def dual_point_sw_from_solution(inst: SwInstance, sol: LpSolution) -> DualPointSW:
    return dual_point_from_solution(inst, sol, DualPointSW)


check_dpsi_feasible = check_dpje_feasible = check_dpsw_feasible = check_feasible
dpsw_objective = dual_objective
