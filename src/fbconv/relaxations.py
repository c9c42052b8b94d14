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
    with a unit axis per message letter;
  * the message groups: per encoder, the letters that one relabelling of
    its messages moves together, "xy" for SC and SI, "xu" and "yv" for JE
    and SW.  Every row family and the cost map onto themselves under it.

Every row of a lifted relaxation has one of those two shapes, so one routine
(_structures) turns any table into the nonzeros of the constraint matrix and
the rhs.  Those depend on the sizes alone; the pmf enters only the cost.  They
are built eagerly once per table within MAX_LP_ENTRIES and cached for up to
32 tables.  An entry is the column and row layouts and one LpModel, checked
once when the entry is built: the frozen a_rows, rhs, relations and bounds,
a zero objective, and the table's lp_core.WarmStart.  Every build returns
that model with its own cost (LpModel._with_objective), holding all the rest
as the same objects, so a build writes and checks the cost alone.

The WarmStart is the quotient of the LP by the message groups (_orbit_map
gives each column and row its orbit; lp_core.WarmStart checks that the
orbits are a symmetry of the rows and rhs and sums each orbit's
representative row over the column orbits).  Its orbits do not grow with
the codebooks: the SW quotient at 3x3 is 451 x 456 for every M1, M2 >= 2,
at 4x4 / M=(2,2) it is 1273 x 1320, and with single messages it is the LP
itself.  The first build sets its reference, the quotient's cost at the
uniform pmf of the table's sizes (for SC with every reconstruction an
excess, so that it too depends on the sizes alone), and raises
OrbitMismatch if that cost is not constant on the orbits, as then the groups
are no symmetry of the table.  The first solve replaces the quotient by its
HighsLp and the optimal basis at the reference, from which every solve of a
relaxation model runs the primal simplex before lifting its optimum to the
full LP.  It is evicted with its entry.  For SW 3x3 / M=(2,2) (1750 x 1812,
6,612 nonzeros) a solved entry holds about 0.27 MiB: the arrays 0.13 MiB,
the bounds and zero objective 0.04 MiB, and the WarmStart 0.09 MiB, of which
0.04 MiB are the orbit maps and at most 0.05 MiB the quotient's HighsLp
(1,665 nonzeros) and basis.  The 4-letter lossless SC quotient is 29 x 40
for every M >= 2.  The same table gives:

  * the variable and row layouts (_layouts);
  * each typed dual point class (DualPointSC, SI, JE and SW), made from the
    table's row families: one field per family, named after it, with the
    family's letters as axes, so slicing a solver's dual vector
    (dual_point_from_solution) is a reshape;
  * the dual constraints A^T y <= c (check_feasible), one per column: a
    block's residual is the families lifting into it, broadcast up to its
    letters, minus the families whose minus block it is, summed down to its
    letters, minus the cost, built one slab of at most
    probability.MAX_BLOCK_ENTRIES entries at a time, over the block's
    leading letters that are in no message group;
  * the binding normalization multipliers (_binding_gammas): each is bounded
    by that summed-down term of its block; the dual objectives are their sum;
  * the field placement (_lay): a field as the product of operands, each
    named by the family letters its axes hold, so every dual-point
    constructor writes its fields in its table's letters;
  * the point maker (_point): the given fields broadcast to their families'
    shapes, zero in every other multiplier field, and the binding gammas.

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
import itertools
import math
from dataclasses import dataclass, field, fields, make_dataclass, replace
from types import MappingProxyType
from typing import Dict, List, Optional, Tuple

import numpy as np

from .lp_core import LpModel, LpSolution, OrbitMismatch, WarmStart, _read_only, _row_arrays
from .probability import (MAX_BLOCK_ENTRIES, MAX_LP_ENTRIES, CodeSizes, DistortionSpec,
                          InstanceTooLarge, JointPmf, PmfError, SinglePmf, _flow, _integer_in,
                          _real_in)


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
        pair (mass transposed, M1 and M2 exchanged) for 2.  which must be
        the integer 1 or 2; a bool or a float is refused."""
        return self if _integer_in(which, 1, 2, "which must be 1 or 2") == 1 else self._swapped

    @functools.cached_property
    def _swapped(self) -> "SwInstance":   # built and validated once per instance
        return SwInstance(JointPmf(self.joint.mass.T), CodeSizes(self.sizes.M2, self.sizes.M1))


# ---------------------------------------------------------------------------
# LP tables: (sizes, column blocks, row families, cost, message groups);
# blocks, families and groups are tuples, so hashable.  The row families of
# each kind, which also make its dual point class:

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
# the letters that one relabelling of an encoder's messages moves together:
# the encoder's output and the decoder's input; SC's x and y are SI's
_SI_GROUPS = ("xy",)
_PAIR_GROUPS = ("xu", "yv")


def _sc_table(inst: ScInstance):
    sizes = dict(s=inst.n, x=inst.M, y=inst.M, h=inst.n_hat)
    cols = (("Q1", "sx", "P1"), ("Qd", "yh", "P2"), ("W", "sxyh", "P3"))
    # P(s) 1{d(s, h) > level} on x = y
    return sizes, cols, _SC_ROWS, ("sxxh->sxh", lambda: (
        inst.source.mass[:, None] * inst.distortion.excess())[:, None, :]), _SI_GROUPS


def _si_table(inst: SwInstance, which: int):
    """Side `which`'s table: side 1's of inst.oriented(which), ids B or C."""
    sw = inst.oriented(which)
    ne, ns, M, _ = sw.dims
    sizes = dict(e=ne, s=ns, x=M, y=M, h=ne)
    cid = "BC"[which - 1]
    cols = (("Q1", "ex", cid + "1"), ("Qd", "syh", cid + "2"), ("W", "esxyh", cid + "3"))
    # P(e, s) on every wrong estimate h != e, on x = y
    return sizes, cols, _SI_ROWS, ("esxxh->esxh", lambda: np.einsum(
        "es, eh -> esh", sw.joint.mass, 1.0 - np.eye(ne))[:, :, None, :]), _SI_GROUPS


def _pair_table(inst: SwInstance, cols, rows):
    """A pair LP's table: its sizes and cost, P(a, b) on every wrong decoded
    pair (c, d) != (a, b) on the encoders' own messages x = u, y = v."""
    n1, n2, m1, m2 = inst.dims

    def factor():
        wrong = 1.0 - np.einsum("ac, bd -> abcd", np.eye(n1), np.eye(n2))
        return (inst.joint.mass[:, :, None, None] * wrong)[:, :, None, None]
    sizes = dict(a=n1, b=n2, x=m1, y=m2, u=m1, v=m2, c=n1, d=n2)
    return sizes, cols, rows, ("abxyxycd->abxycd", factor), _PAIR_GROUPS


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


def _orbit_map(blocks, sizes, groups) -> np.ndarray:
    """The orbit of each entry of the blocks (or families), laid out in
    order, under relabelling each group's letters by one permutation.  An
    entry's orbit is its canonical member: per group, the group's letters in
    the entry's axis order relabelled 0, 1, ... in order of first value,
    the least member in row-major order.  Orbits are numbered by that
    member, so trivial groups give the identity.  OrbitMismatch unless each
    group's letters are letters of the table of one size."""
    for group in groups:
        if not all(k in sizes for k in group) or len({sizes[k] for k in group}) != 1:
            raise OrbitMismatch(f"message group {group!r} is not of table letters of one size")
    keys, offset = [], 0
    for _, letters, *_ in blocks:
        shape = tuple(sizes[k] for k in letters)
        points = np.indices(shape).reshape(len(letters), -1)
        for group in groups:
            held = [i for i, k in enumerate(letters) if k in group]
            labels, fresh = [], np.zeros(points.shape[1], dtype=int)
            for n, i in enumerate(held):
                label, new = fresh.copy(), np.ones(points.shape[1], dtype=bool)
                for j, earlier in zip(held[:n], labels):
                    same = points[j] == points[i]
                    label[same], new[same] = earlier[same], False
                labels.append(label)
                fresh += new
            for i, label in zip(held, labels):
                points[i] = label
        keys.append(offset + np.ravel_multi_index(points, shape))
        offset += math.prod(shape)
    return np.unique(np.concatenate(keys), return_inverse=True)[1].reshape(-1)


@functools.lru_cache(maxsize=32)
def _structures(sizes, col_blocks, families, groups):
    """(column layout, row layout, model) of a table made hashable.  The
    model is the table's equality-form min LP at a zero cost, with the
    WarmStart of its quotient by the message groups, whose construction
    checks that the orbits are a symmetry of the rows and rhs; its reference
    is empty until a build sets it and its basis until a solve does.  The
    cap is checked on the layouts, before any array exists, and lru_cache
    keeps no call that raised, so a table past it is never cached."""
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
    model = LpModel("min", np.zeros(cols.total), a_rows, ("=",) * rows.total, b)
    warm = WarmStart(model, _orbit_map(col_blocks, sizes, groups),
                     _orbit_map(families, sizes, groups))
    return cols, rows, model._with_objective(model.objective, warm)


def _structure(table):
    sizes, cols, rows, _, groups = table
    return _structures(tuple(sizes.items()), tuple(c[:2] for c in cols), rows, groups)


def _cost(table, cols: TensorIndex) -> np.ndarray:
    """A table's cost vector, written through W's diagonal view, read-only."""
    diagonal, factor = table[3]
    c = np.zeros(cols.total)
    np.einsum(diagonal, c[cols.slice_of("W")].reshape(cols.shapes["W"]))[...] = factor()
    c.setflags(write=False)
    return c


def _uniform(inst):
    """The instance of inst's sizes with the uniform pmf and, for SC, every
    reconstruction an excess, so that its reference, like its structure,
    fixes no distortion."""
    if isinstance(inst, ScInstance):
        return ScInstance(SinglePmf(np.full(inst.n, 1.0 / inst.n)), inst.M,
                          DistortionSpec(np.ones((inst.n, inst.n_hat))))
    n1, n2 = inst.joint.sizes
    return SwInstance(JointPmf(np.full((n1, n2), 1.0 / (n1 * n2))), inst.sizes)


def _build(table_of, inst) -> LpModel:
    """Equality-form min LP of the table table_of(inst): the cached
    structure's model with the table's cost, and its WarmStart, whose
    reference is the quotient's cost of table_of at the uniform pmf
    of inst's sizes.  OrbitMismatch when that cost is not constant on the
    orbits: the table's message groups are then no symmetry of its cost."""
    table = table_of(inst)
    cols, _, model = _structure(table)
    start = model.warm
    if start.reference is None:
        reference = start.reduce(_cost(table_of(_uniform(inst)), cols))
        if reference is None:
            raise OrbitMismatch(f"the message groups {table[4]} are no symmetry of the cost")
        start.reference = reference
    return model._with_objective(_cost(table, cols), start)


def build_lp_sc(inst: ScInstance) -> LpModel:
    """Exact LP relaxation of the point-to-point error minimization."""
    return _build(_sc_table, inst)


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
    lifted family as (name, its letters, its axes in block order, index
    adding the rest); the families whose minus block it is as (name, its
    letters, einsum summing them down)."""
    plan = []
    for block, letters, cid in col_blocks:
        up, down, norms = [], [], []
        for name, own, lifted, minus in families:
            if lifted == block:
                up.append((name, own, tuple(own.index(k) for k in letters if k in own),
                           tuple(slice(None) if k in own else None for k in letters)))
                if minus is None:
                    norms.append((name, tuple(i for i, k in enumerate(letters) if k not in own)))
            if minus == block:
                down.append((name, own, f"{own}->{letters}"))
        plan.append((cid, block, letters, tuple(norms), tuple(up), tuple(down)))
    return tuple(plan)


def _cut(arr: np.ndarray, own: str, at: Optional[Dict[str, slice]]) -> np.ndarray:
    """arr, whose axes are the letters `own`, on a slab: each axis whose
    letter `at` slices, sliced, every other axis whole; arr itself where
    `at` slices nothing."""
    if not at:
        return arr
    return arr[tuple(at.get(k, slice(None)) for k in own)]


def _summed_down(pt: _DualPoint, down, at=None):
    """The families whose minus block is B summed down to B's letters, or
    to B's slab `at` (_cut), each read on that slab's letters only."""
    return (np.einsum(spec, _cut(getattr(pt, name), own, at)) for name, own, spec in down)


def _binding_gammas(inst, pt: _DualPoint) -> Dict[str, np.ndarray]:
    """Each normalization multiplier at its binding minimum.  A normalization
    family's block B has one dual constraint per entry: the multiplier is at
    most the families whose minus block is B, summed down to B's letters.
    The largest feasible multiplier is the min of that over the letters of B
    the family does not have."""
    _, cols, rows, _, _ = _table_of(inst, type(pt), getattr(pt, "which", None))
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
    sizes, _, rows, _, _ = table
    for name, letters, _, _ in rows:
        if getattr(pt, name) is not None:
            _flow(getattr(pt, name), tuple(sizes[k] for k in letters), f"dual point field {name}")


def _slabs(letters: str, shape: Tuple[int, ...], messages: str):
    """The slabs of a block with axes `letters` of `shape`, in row-major
    order, as (at, offset, slab shape): `at` slices some of the block's
    lead letters, those before its first letter in `messages`, and
    `offset` is the slab's first index.  A slab holds at most
    MAX_BLOCK_ENTRIES entries, or a single index of the lead letters where
    the letters after them alone hold more.  A block that fits, or that
    has no lead letter, is one slab, with `at` empty and offset 0."""
    if math.prod(shape) <= MAX_BLOCK_ENTRIES or letters[0] in messages:
        return [({}, 0, shape)]
    lead = next((i for i, k in enumerate(letters) if k in messages), len(letters))
    j = next((j for j in range(1, lead + 1) if math.prod(shape[j:]) <= MAX_BLOCK_ENTRIES), lead)
    inner = shape[j:]
    step = max(1, MAX_BLOCK_ENTRIES // math.prod(inner))
    out = []
    # one index of each lead letter before the j-th, a run of `step` of the j-th
    for outer in itertools.product(*map(range, shape[:j - 1])):
        for lo in range(0, shape[j - 1], step):
            at = dict(zip(letters, [slice(i, i + 1) for i in outer] + [slice(lo, lo + step)]))
            run = min(step, shape[j - 1] - lo)
            out.append((at, outer + (lo,) + (0,) * len(inner), (1,) * (j - 1) + (run,) + inner))
    return out


def check_feasible(inst, pt: _DualPoint, tol: float = 1e-12) -> List[ConstraintViolation]:
    """One record per entry of A^T y - c, the dual constraints of pt's LP at
    y = pt, that is not <= tol, in row-major order per block; see the
    module docstring for ids.  A block's residual is built in slabs over its
    leading non-message letters (_slabs), one slab and its mask at a time:
    each field lifted into the block or summed down to it is read on the
    slab's letters only, and a block that fits in one slab is one array.
    Each slab is accumulated in place, and the cost is subtracted on W's
    message diagonal only.  tol is a real number below +inf, -inf included,
    which lists every entry; PmfError for NaN, +inf or anything else, as
    either would hide every violation or report every entry."""
    tol = _real_in(tol, lambda t: t < math.inf, "tol must be a real number below +inf")
    table = _table_of(inst, type(pt), getattr(pt, "which", None))
    _check_shapes(table, pt)
    sizes, cols, rows, (diagonal, factor), groups = table
    messages = "".join(groups)
    out: List[ConstraintViolation] = []
    for cid, block, letters, norms, up, down in _plan(cols, rows):
        if any(getattr(pt, name) is None for name, _ in norms):
            continue
        cost = factor() if block == "W" else None
        for at, offset, slab in _slabs(letters, tuple(sizes[k] for k in letters), messages):
            terms = [(np.add, _cut(getattr(pt, name), own, at).transpose(axes)[lift])
                     for name, own, axes, lift in up]
            terms += [(np.subtract, t) for t in _summed_down(pt, down, at)]
            (_, first), (op, second), *rest = terms
            resid = op(first, second, out=np.empty(slab))
            for op, t in rest:
                op(resid, t, out=resid)
            if cost is not None:
                diag = np.einsum(diagonal, resid)   # a view: the cost is zero off it
                diag -= _cut(cost, diagonal.split("->")[1], at)
            ok = resid <= tol   # False on NaN
            if not ok.all():   # the common case skips the index scan
                bad = ~ok   # indexed in the block by the slab's offset
                out += [ConstraintViolation(cid, tuple(idx), r) for idx, r in
                        zip((np.argwhere(bad) + offset).tolist(), resid[bad].tolist())]
    return out


def dual_objective(inst, pt: _DualPoint) -> float:
    """pt's dual objective in penalty (min) form: the sum of its binding
    normalization multipliers, so stored gamma fields are never read."""
    return float(sum(g.sum() for g in _binding_gammas(inst, pt).values()))


# ---------------------------------------------------------------------------
# dual-point fields in a table's letters


@functools.lru_cache(maxsize=64)
def _placement(rows, name: str, spec: str):
    """Per operand of _lay(rows, name, spec, ...): the einsum reading its
    diagonal (None when it repeats no letter), the transpose putting its
    letters in family order, and the index adding a unit axis per family
    letter it lacks."""
    letters = next(own for family, own, _, _ in rows if family == name)
    out = []
    for held in spec.split(","):
        own = "".join(dict.fromkeys(held))
        out.append((None if own == held else f"{held}->{own}",
                    tuple(sorted(range(len(own)), key=lambda i: letters.index(own[i]))),
                    tuple(slice(None) if k in own else None for k in letters)))
    return tuple(out)


def _lay(rows, name: str, spec: str, *operands) -> np.ndarray:
    """Field `name` of a table's row families over its family's letters: the
    product of `operands`, left to right, each placed on the letters the
    comma-separated `spec` gives it in its own axis order.  A letter repeated
    within one operand reads its diagonal; a family letter that no operand
    holds gets size 1, for _point to broadcast."""
    out = None
    for (diagonal, axes, at), op in zip(_placement(rows, name, spec), operands, strict=True):
        op = (op if diagonal is None else np.einsum(diagonal, op)).transpose(axes)[at]
        out = op if out is None else out * op
    return out


def _frozen(value, shape) -> np.ndarray:
    """value as a read-only view of `shape`: a broadcast where value lacks an
    axis (np.broadcast_to, about 4 us), a plain view (0.4 us) where not.  A
    writable value, which the caller made, is first put in C order, copied
    only when it is not, as the checker and the binding gammas run slower on
    permuted views; a read-only one, a field of another point, is kept."""
    value = np.asarray(value)
    if value.flags.writeable:
        value = np.ascontiguousarray(value)
    view = value.view() if value.shape == shape else np.broadcast_to(value, shape)
    view.setflags(write=False)
    return view


def _point(inst, point_type: type, *lead, **fields) -> _DualPoint:
    """The point_type dual point on inst (lead: `which` for DualPointSI) with
    `fields`, each a read-only view of its family's shape (_frozen), a zero
    broadcast, which holds no memory, in every other multiplier field, and
    the binding gammas."""
    sizes, _, rows, _, _ = _table_of(inst, point_type, *lead)
    full = {name: _frozen(fields.pop(name, 0.0), tuple(sizes[k] for k in letters))
            for name, letters, _, minus in rows if minus is not None}
    pt = point_type(*lead, **full, **fields)   # TypeError on a name that is no family
    return replace(pt, **_binding_gammas(inst, pt))


# ---------------------------------------------------------------------------
# dual points generated by a nonnegative flow phi


def dp_flows_sc(inst: ScInstance, phi: np.ndarray) -> DualPointSC:
    """Dual point of the point-to-point LP generated by 0 <= phi <= P:
    lam_c routes phi along the y = x diagonal, lam_s pays it back on
    within-distortion reconstructions.  phi is a float array over the source
    alphabet; PmfError for any other shape, which numpy would broadcast."""
    phi = _flow(phi, (inst.n,), "phi")
    win = inst.distortion.within().astype(float)
    return _point(inst, DualPointSC, lam_s=-_lay(_SC_ROWS, "lam_s", "s,sh", phi, win),
                  lam_c=_lay(_SC_ROWS, "lam_c", "xy,s", np.eye(inst.M), phi))


def dpsi_flows(inst: SwInstance, which: int, phi: np.ndarray) -> DualPointSI:
    """Side-information dual point from 0 <= phi <= P (joint-shaped): the
    which = 1 point of inst.oriented(which) from phi in that orientation.
    phi's axes, S1 then S2, are that table's e, s for which = 1 and s, e
    for which = 2.  PmfError for any other shape of phi."""
    ne, _, M, _ = inst.oriented(which).dims
    phi = _flow(phi, inst.joint.sizes, "phi")
    held = "es" if which == 1 else "se"
    return _point(inst, DualPointSI, which,
                  lam_s=-_lay(_SI_ROWS, "lam_s", held + ",eh", phi, np.eye(ne)),
                  lam_c=_lay(_SI_ROWS, "lam_c", held + ",xy", phi, np.eye(M)))


def dpje_flows(inst: SwInstance, phi_hat: np.ndarray) -> DualPointJE:
    """Jointly-encoded dual point from 0 <= phi_hat <= P (joint-shaped;
    PmfError for any other shape)."""
    n1, n2, m1, m2 = inst.dims
    ph = _flow(phi_hat, inst.joint.sizes, "phi_hat")
    return _point(inst, DualPointJE,
                  lam_s=-_lay(_JE_ROWS, "lam_s", "ab,ac,bd", ph, np.eye(n1), np.eye(n2)),
                  lam_c=_lay(_JE_ROWS, "lam_c", "xu,yv,ab", np.eye(m1), np.eye(m2), ph))


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
