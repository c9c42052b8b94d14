"""Exact LP relaxations of optimal fixed-length source codes, and their duals.

The minimum error probability of a code with given codebook sizes is a
bilinear program over encoder/decoder conditional pmfs.  Lifting products of
decision variables into joint variables and keeping only the marginal
consistency constraints gives an LP lower bound (the Jose-Kulkarni
framework).  This module builds those LPs densely for

  * the point-to-point (possibly lossy) problem:        build_lp_sc
  * coding with decoder side information, either side:  build_lpsi
  * the jointly-encoded pair problem:                   build_lp_je
  * the two-encoder distributed (Slepian-Wolf) problem: build_lp_sw

and owns the dual-side machinery: typed dual points, feasibility checkers
that report per-constraint residuals, dual objectives in penalty (min) form,
and the closed-form dual points generated by a single nonnegative flow phi.

Each LP is written once, as a table over one-letter index names:

  * a size per letter;
  * column blocks (name, letters): a tensor of variables with one axis per
    letter, flattened row-major, blocks laid out in table order;
  * row families (name, letters, lifted, minus): one row per index tuple of
    `letters`, stating that block `lifted` summed over its letters missing
    from `letters` equals block `minus` read at the row's index, or equals 1
    when minus is None (a normalization row).

Every row of a lifted relaxation has one of those two shapes, so one routine
(_build) turns any table into the constraint matrix and rhs.  The same table
gives:

  * the variable and row layouts (the *_indexer functions);
  * the layout of each typed dual point: one field per row family, named
    after it, with the family's letters as axes, so slicing a solver's dual
    vector is a reshape;
  * the binding normalization multipliers (_binding_gammas): a normalization
    row's multiplier is bounded by the families whose minus block it
    normalizes, and the dual objectives are the sum of those bounds.

The feasibility checkers state the dual constraints by hand, independently
of the tables, and so serve as an oracle for them.

Letters: s source and x, y encoder output / decoder input, h reconstruction
(point-to-point); e encoded and s side source (side information); a, b the
pair, x, y the two encoder outputs, u, v the decoder inputs, c, d the
reconstructions (jointly encoded and distributed).

Dual constraint identifiers:

  P1-P3  point-to-point        A1-A3  jointly encoded pair
  B1-B3  side information 1|2  C1-C3  side information 2|1
  D1-D7  distributed pair
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Tuple

import numpy as np

from .lp_core import LpModel, LpSolution, _read_only
from .probability import CodeSizes, DistortionSpec, JointPmf, PmfError, SinglePmf

DEFAULT_VAR_CAP = 200_000


class InstanceTooLarge(ValueError):
    """LP variable count exceeds the configured cap."""


@dataclass(frozen=True)
class ScInstance:
    """Point-to-point problem: encode S through M messages, decode under a
    distortion spec (DistortionSpec.lossless(|S|) for the lossless case)."""

    source: SinglePmf
    M: int
    distortion: DistortionSpec

    def __post_init__(self):
        if int(self.M) != self.M or self.M < 1:
            raise PmfError(f"M must be a positive integer, got {self.M!r}")
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


def sw_je_instance(inst: SwInstance) -> ScInstance:
    """The jointly-encoded relaxation of a distributed instance: one encoder
    sees the pair, alphabet flattened in row-major order, M = M1*M2."""
    n1, n2, m1, m2 = inst.dims
    flat = SinglePmf(inst.joint.mass.reshape(-1))
    return ScInstance(flat, m1 * m2, DistortionSpec.lossless(n1 * n2))


# ---------------------------------------------------------------------------
# LP tables: (sizes, column blocks, row families)


def _sc_table(inst: ScInstance):
    sizes = dict(s=inst.n, x=inst.M, y=inst.M, h=inst.n_hat)
    cols = [("Q1", "sx"), ("Qd", "yh"), ("W", "sxyh")]
    rows = [("gamma_a", "s", "Q1", None), ("gamma_b", "y", "Qd", None),
            ("lam_s", "shy", "W", "Qd"), ("lam_c", "xsy", "W", "Q1")]
    return sizes, cols, rows


def _si_table(inst: SwInstance, which: int):
    if which not in (1, 2):
        raise PmfError(f"which must be 1 or 2, got {which!r}")
    n1, n2, m1, m2 = inst.dims
    ne, ns, M = (n1, n2, m1) if which == 1 else (n2, n1, m2)
    sizes = dict(e=ne, s=ns, x=M, y=M, h=ne)
    cols = [("Q1", "ex"), ("Qd", "syh"), ("W", "esxyh")]
    rows = [("gamma_a", "e", "Q1", None), ("gamma_b", "sy", "Qd", None),
            ("lam_s", "eshy", "W", "Qd"), ("lam_c", "esxy", "W", "Q1")]
    return sizes, cols, rows


def _pair_sizes(inst: SwInstance) -> Dict[str, int]:
    n1, n2, m1, m2 = inst.dims
    return dict(a=n1, b=n2, x=m1, y=m2, u=m1, v=m2, c=n1, d=n2)


def _je_table(inst: SwInstance):
    cols = [("Q1", "abxy"), ("Qd", "uvcd"), ("W", "abxyuvcd")]
    rows = [("gamma_a", "ab", "Q1", None), ("gamma_b", "uv", "Qd", None),
            ("lam_s", "abcduv", "W", "Qd"), ("lam_c", "abxyuv", "W", "Q1")]
    return _pair_sizes(inst), cols, rows


def _sw_table(inst: SwInstance):
    cols = [("Q1", "ax"), ("Q2", "by"), ("Qd", "uvcd"), ("T", "abxy"),
            ("U", "axuvcd"), ("V", "byuvcd"), ("W", "abxyuvcd")]
    rows = [("gamma_a", "a", "Q1", None), ("gamma_b", "b", "Q2", None),
            ("gamma_c", "uv", "Qd", None),
            ("mu_c_21", "yab", "T", "Q2"), ("mu_c_12", "xab", "T", "Q1"),
            ("mu_s_1", "acduv", "U", "Qd"), ("mu_s_2", "bcduv", "V", "Qd"),
            ("mu_c_1", "axuv", "U", "Q1"), ("mu_c_2", "byuv", "V", "Q2"),
            ("lam_s_12", "abyuvcd", "W", "V"), ("lam_s_21", "abxuvcd", "W", "U"),
            ("lam_c", "abxyuv", "W", "T")]
    return _pair_sizes(inst), cols, rows


# ---------------------------------------------------------------------------
# layouts


class TensorIndex:
    """Named blocks of tensor-shaped variables (or rows) in one flat vector."""

    def __init__(self, blocks: List[Tuple[str, Tuple[int, ...]]]):
        self.shapes: Dict[str, Tuple[int, ...]] = {}
        self.offsets: Dict[str, int] = {}
        off = 0
        for name, shape in blocks:
            self.shapes[name] = tuple(shape)
            self.offsets[name] = off
            off += int(np.prod(shape))
        self.total = off

    def slice_of(self, name: str) -> slice:
        off = self.offsets[name]
        return slice(off, off + int(np.prod(self.shapes[name])))

    def extract(self, vec: np.ndarray, name: str) -> np.ndarray:
        return vec[self.slice_of(name)].reshape(self.shapes[name])


def _layouts(sizes, cols, rows) -> Tuple[TensorIndex, TensorIndex]:
    def shape(letters):
        return tuple(sizes[k] for k in letters)
    return (TensorIndex([(name, shape(letters)) for name, letters in cols]),
            TensorIndex([(name, shape(letters)) for name, letters, _, _ in rows]))


def sc_indexer(inst: ScInstance) -> Tuple[TensorIndex, TensorIndex]:
    return _layouts(*_sc_table(inst))


def si_indexer(inst: SwInstance, which: int) -> Tuple[TensorIndex, TensorIndex]:
    return _layouts(*_si_table(inst, which))


def je_indexer(inst: SwInstance) -> Tuple[TensorIndex, TensorIndex]:
    return _layouts(*_je_table(inst))


def sw_indexer(inst: SwInstance) -> Tuple[TensorIndex, TensorIndex]:
    return _layouts(*_sw_table(inst))


# ---------------------------------------------------------------------------
# primal builders


def _ravel(at: Dict[str, np.ndarray], sizes, letters: str) -> np.ndarray:
    """Flat offsets, in a block with axes `letters`, of the grid points whose
    per-letter coordinates `at` holds."""
    return np.ravel_multi_index([at[k] for k in letters],
                                tuple(sizes[k] for k in letters))


def _build(table, cost: Tuple[str, np.ndarray], cap: int, what: str) -> LpModel:
    """Equality-form min LP of a table; `cost` is (block, tensor in the
    block's letter order), the only nonzero part of the objective."""
    sizes, col_blocks, families = table
    cols, rows = _layouts(*table)
    if cols.total > cap:
        raise InstanceTooLarge(f"{what} needs {cols.total} LP variables, cap is {cap}")
    letters = dict(col_blocks)
    A = np.zeros((rows.total, cols.total))
    b = np.zeros(rows.total)
    for name, row_letters, lifted, minus in families:
        # +1 on every entry of the lifted block, in the row its row letters
        # pick; -1 on the one entry of the minus block that each row reads
        for block, grid, value in ((lifted, letters[lifted], 1.0),
                                   (minus, row_letters, -1.0)):
            if block is not None:
                at = dict(zip(grid, np.indices(tuple(sizes[k] for k in grid))))
                A[rows.offsets[name] + _ravel(at, sizes, row_letters),
                  cols.offsets[block] + _ravel(at, sizes, letters[block])] = value
        if minus is None:
            b[rows.slice_of(name)] = 1.0
    c = np.zeros(cols.total)
    block, tensor = cost
    c[cols.slice_of(block)] = tensor.reshape(-1)
    A.setflags(write=False)       # handed over: LpModel keeps it uncopied
    return LpModel("min", c, A, ("=",) * rows.total, b)


def _pair_cost(inst: SwInstance) -> Tuple[str, np.ndarray]:
    """P(s1, s2) on every W entry that decodes the wrong pair through the
    encoders' own messages (x = u, y = v)."""
    n1, n2, m1, m2 = inst.dims
    mism = 1.0 - np.einsum("ac, bd -> abcd", np.eye(n1), np.eye(n2))
    return "W", np.einsum("ab, abcd, xu, yv -> abxyuvcd", inst.joint.mass, mism,
                          np.eye(m1), np.eye(m2))


def build_lp_sc(inst: ScInstance, cap: int = DEFAULT_VAR_CAP) -> LpModel:
    """Exact LP relaxation of the point-to-point error minimization."""
    exc = inst.distortion.excess().astype(float)
    cw = np.einsum("sh, xy -> sxyh", inst.source.mass[:, None] * exc, np.eye(inst.M))
    return _build(_sc_table(inst), ("W", cw), cap, "point-to-point LP")


def build_lpsi(inst: SwInstance, which: int = 1, cap: int = DEFAULT_VAR_CAP) -> LpModel:
    """LP relaxation of coding S_which with the other source at the decoder."""
    table = _si_table(inst, which)
    sizes = table[0]
    P = inst.joint.mass if which == 1 else inst.joint.mass.T
    cw = np.einsum("es, eh, xy -> esxyh", P, 1.0 - np.eye(sizes["e"]), np.eye(sizes["x"]))
    return _build(table, ("W", cw), cap, "side-information LP")


def build_lp_je(inst: SwInstance, cap: int = DEFAULT_VAR_CAP) -> LpModel:
    """LP relaxation of the jointly-encoded pair problem in pair indices.

    Value equals build_lp_sc on sw_je_instance(inst); the two come from
    different tables (pair letters against flattened ones), which the tests
    exploit.
    """
    return _build(_je_table(inst), _pair_cost(inst), cap, "jointly-encoded LP")


def build_lp_sw(inst: SwInstance, cap: int = DEFAULT_VAR_CAP) -> LpModel:
    """LP relaxation of the two-encoder problem with all twelve row families."""
    return _build(_sw_table(inst), _pair_cost(inst), cap, "distributed LP")


# ---------------------------------------------------------------------------
# dual point containers


@dataclass(frozen=True)
class _DualPoint:
    """Fields are one multiplier tensor per row family of the LP's table, with
    the family's letters as axes.  Every array field is frozen by LpModel's
    rule: a read-only float64 array is kept as given, anything else copied.
    The gamma fields may be None."""

    def __post_init__(self):
        for f in fields(self):
            val = getattr(self, f.name)
            if f.name == "which":
                if val not in (1, 2):
                    raise PmfError(f"which must be 1 or 2, got {val!r}")
            elif val is not None:
                object.__setattr__(self, f.name, _read_only(val))


@dataclass(frozen=True)
class DualPointSC(_DualPoint):
    """Multipliers for the point-to-point LP; see sc_indexer for row orders."""

    lam_s: np.ndarray            # (s, sh, y)
    lam_c: np.ndarray            # (x, s, y)
    gamma_a: Optional[np.ndarray] = None   # (s,)
    gamma_b: Optional[np.ndarray] = None   # (y,)


@dataclass(frozen=True)
class DualPointSI(_DualPoint):
    """Multipliers for a side-information LP; `which` names the encoded
    source.  Axes follow the encoded source first, as in si_indexer, so for
    which = 2 they start (s2, s1)."""

    which: int
    lam_s: np.ndarray            # (s_enc, s_side, sh_enc, y_enc)
    lam_c: np.ndarray            # (s_enc, s_side, x_enc, y_enc)
    gamma_a: Optional[np.ndarray] = None   # (s_enc,)
    gamma_b: Optional[np.ndarray] = None   # (s_side, y_enc)


@dataclass(frozen=True)
class DualPointJE(_DualPoint):
    """Multipliers for the jointly-encoded LP in pair indices."""

    lam_s: np.ndarray            # (s1, s2, sh1, sh2, y1, y2)
    lam_c: np.ndarray            # (s1, s2, x1, x2, y1, y2)
    gamma_a: Optional[np.ndarray] = None   # (s1, s2)
    gamma_b: Optional[np.ndarray] = None   # (y1, y2)


@dataclass(frozen=True)
class DualPointSW(_DualPoint):
    """Multipliers for the distributed LP; see _sw_table for row orders."""

    lam_s_12: np.ndarray         # (s1, s2, x2, y1, y2, sh1, sh2)
    lam_s_21: np.ndarray         # (s1, s2, x1, y1, y2, sh1, sh2)
    lam_c: np.ndarray            # (s1, s2, x1, x2, y1, y2)
    mu_s_1: np.ndarray           # (s1, sh1, sh2, y1, y2)
    mu_s_2: np.ndarray           # (s2, sh1, sh2, y1, y2)
    mu_c_1: np.ndarray           # (s1, x1, y1, y2)
    mu_c_2: np.ndarray           # (s2, x2, y1, y2)
    mu_c_12: np.ndarray          # (x1, s1, s2)
    mu_c_21: np.ndarray          # (x2, s1, s2)
    gamma_a: Optional[np.ndarray] = None   # (s1,)
    gamma_b: Optional[np.ndarray] = None   # (s2,)
    gamma_c: Optional[np.ndarray] = None   # (y1, y2)


def _table_of(inst, pt: _DualPoint):
    if isinstance(pt, DualPointSI):
        return _si_table(inst, pt.which)
    return {DualPointSC: _sc_table, DualPointJE: _je_table,
            DualPointSW: _sw_table}[type(pt)](inst)


def _binding_gammas(inst, pt: _DualPoint) -> Dict[str, np.ndarray]:
    """Each normalization multiplier at its binding minimum, read off the
    point's table.  A normalization family's block B has one dual constraint
    per entry: the multiplier is at most the sum of the families whose minus
    block is B, summed down to B's letters.  The largest feasible multiplier
    is the min of that sum over the letters of B the family does not have."""
    _, cols, rows = _table_of(inst, pt)
    letters = dict(cols)
    out = {}
    for name, own, block, minus in rows:
        if minus is None:
            free = "".join(k for k in letters[block] if k not in own)
            total = sum(np.einsum(f"{fam}->{own}{free}", getattr(pt, f))
                        for f, fam, _, m in rows if m == block)
            out[name] = total.min(axis=tuple(range(len(own), len(own) + len(free))))
    return out


@dataclass(frozen=True)
class ConstraintViolation:
    constraint_id: str
    index: Tuple[int, ...]
    residual: float


def _collect(out: List[ConstraintViolation], cid: str, resid: np.ndarray, tol: float) -> None:
    bad = np.argwhere(resid > tol)
    for idx in bad:
        out.append(ConstraintViolation(cid, tuple(int(i) for i in idx),
                                       float(resid[tuple(idx)])))


# ---------------------------------------------------------------------------
# feasibility checkers


def check_dp_feasible(inst: ScInstance, pt: DualPointSC,
                      tol: float = 1e-12) -> List[ConstraintViolation]:
    n, M, nh = inst.n, inst.M, inst.n_hat
    if pt.lam_s.shape != (n, nh, M) or pt.lam_c.shape != (M, n, M):
        raise PmfError("dual point shapes do not match the instance")
    P = inst.source.mass
    exc = inst.distortion.excess().astype(float)
    out: List[ConstraintViolation] = []
    if pt.gamma_a is not None:
        # (P1): gamma_a(s) <= sum_y lam_c(x, s, y), for all (x, s)
        resid = pt.gamma_a[None, :] - pt.lam_c.sum(axis=2)
        _collect(out, "P1", resid, tol)
    if pt.gamma_b is not None:
        # (P2): gamma_b(y) <= sum_s lam_s(s, sh, y), for all (y, sh)
        resid = pt.gamma_b[:, None] - pt.lam_s.sum(axis=0).T
        _collect(out, "P2", resid, tol)
    # (P3) over (s, x, y, sh): lam_s(s,sh,y) + lam_c(x,s,y) <= P(s)
    # 1{d(s,sh) > level} 1{y=x}; the right side is subtracted in place on x = y
    resid = pt.lam_s.transpose(0, 2, 1)[:, None, :, :] + \
        pt.lam_c.transpose(1, 0, 2)[:, :, :, None]
    x = np.arange(M)
    resid[:, x, x, :] -= (P[:, None] * exc)[:, None, :]
    _collect(out, "P3", resid, tol)
    return out


def check_dpje_feasible(inst: SwInstance, pt: DualPointJE,
                        tol: float = 1e-12) -> List[ConstraintViolation]:
    n1, n2, m1, m2 = inst.dims
    if pt.lam_s.shape != (n1, n2, n1, n2, m1, m2) or \
            pt.lam_c.shape != (n1, n2, m1, m2, m1, m2):
        raise PmfError("dual point shapes do not match the instance")
    P = inst.joint.mass
    out: List[ConstraintViolation] = []
    if pt.gamma_a is not None:
        # (A1): gamma_a(s1,s2) <= sum_{y1,y2} lam_c(s1,s2,x1,x2,y1,y2)
        resid = pt.gamma_a[:, :, None, None] - pt.lam_c.sum(axis=(4, 5))
        _collect(out, "A1", resid, tol)
    if pt.gamma_b is not None:
        # (A2): gamma_b(y1,y2) <= sum_{s1,s2} lam_s(.., sh1, sh2, y1, y2)
        resid = pt.gamma_b[None, None, :, :] - pt.lam_s.sum(axis=(0, 1))
        _collect(out, "A2", resid, tol)
    # (A3) over (s1,s2,sh1,sh2,x1,x2,y1,y2); the right side
    # P(s1,s2) 1{(sh1,sh2) != (s1,s2)} is subtracted in place on x1 = y1, x2 = y2
    mism = 1.0 - np.einsum("ac, bd -> abcd", np.eye(n1), np.eye(n2))
    resid = pt.lam_s[:, :, :, :, None, None, :, :] + \
        pt.lam_c[:, :, None, None, :, :, :, :]
    x1, x2 = np.arange(m1)[:, None], np.arange(m2)[None, :]
    resid[:, :, :, :, x1, x2, x1, x2] -= (P[:, :, None, None] * mism)[..., None, None]
    _collect(out, "A3", resid, tol)
    return out


def check_dpsi_feasible(inst: SwInstance, pt: DualPointSI,
                        tol: float = 1e-12) -> List[ConstraintViolation]:
    n1, n2, m1, m2 = inst.dims
    if pt.which == 1:
        P, ne, ns, M, ids = inst.joint.mass, n1, n2, m1, ("B1", "B2", "B3")
    else:
        P, ne, ns, M, ids = inst.joint.mass.T, n2, n1, m2, ("C1", "C2", "C3")
    if pt.lam_s.shape != (ne, ns, ne, M) or pt.lam_c.shape != (ne, ns, M, M):
        raise PmfError("dual point shapes do not match the instance")
    out: List[ConstraintViolation] = []
    if pt.gamma_a is not None:
        # (B1): gamma_a(se) <= sum_{ss, y} lam_c(se, ss, x, y)
        resid = pt.gamma_a[:, None] - pt.lam_c.sum(axis=(1, 3))
        _collect(out, ids[0], resid, tol)
    if pt.gamma_b is not None:
        # (B2) over (ss, sh, y): lam_s.sum(0) has axes (ss, sh, y)
        resid = pt.gamma_b[:, None, :] - pt.lam_s.sum(axis=0)
        _collect(out, ids[1], resid, tol)
    # (B3) over (se, ss, sh, x, y): lam_s(se,ss,sh,y) + lam_c(se,ss,x,y)
    # <= P(se,ss) 1{se != sh} 1{y=x}; the right side is subtracted in place on x = y
    resid = pt.lam_s[:, :, :, None, :] + pt.lam_c[:, :, None, :, :]
    x = np.arange(M)
    resid[:, :, :, x, x] -= (P[:, :, None] * (1.0 - np.eye(ne))[:, None, :])[..., None]
    _collect(out, ids[2], resid, tol)
    return out


def check_dpsw_feasible(inst: SwInstance, pt: DualPointSW,
                        tol: float = 1e-12) -> List[ConstraintViolation]:
    """Residual check of (D1)-(D7); returns one record per violated entry."""
    n1, n2, m1, m2 = inst.dims
    shapes = {
        "lam_s_12": (n1, n2, m2, m1, m2, n1, n2),
        "lam_s_21": (n1, n2, m1, m1, m2, n1, n2),
        "lam_c": (n1, n2, m1, m2, m1, m2),
        "mu_s_1": (n1, n1, n2, m1, m2), "mu_s_2": (n2, n1, n2, m1, m2),
        "mu_c_1": (n1, m1, m1, m2), "mu_c_2": (n2, m2, m1, m2),
        "mu_c_12": (m1, n1, n2), "mu_c_21": (m2, n1, n2),
    }
    for f, sh in shapes.items():
        if getattr(pt, f).shape != sh:
            raise PmfError(f"dual point field {f} has shape "
                           f"{getattr(pt, f).shape}, expected {sh}")
    P = inst.joint.mass
    out: List[ConstraintViolation] = []

    if pt.gamma_a is not None:
        # (D1) over (s1, x1)
        resid = pt.gamma_a[:, None] - pt.mu_c_1.sum(axis=(2, 3)) \
            - pt.mu_c_12.sum(axis=2).T
        _collect(out, "D1", resid, tol)
    if pt.gamma_b is not None:
        # (D2) over (s2, x2); mu_c_21 axes are (x2, s1, s2)
        resid = pt.gamma_b[:, None] - pt.mu_c_2.sum(axis=(2, 3)) \
            - pt.mu_c_21.sum(axis=1).T
        _collect(out, "D2", resid, tol)
    if pt.gamma_c is not None:
        # (D3) over (y1, y2, sh1, sh2)
        dec = pt.mu_s_1.sum(axis=0) + pt.mu_s_2.sum(axis=0)  # (sh1, sh2, y1, y2)
        resid = pt.gamma_c[:, :, None, None] - dec.transpose(2, 3, 0, 1)
        _collect(out, "D3", resid, tol)

    # (D4) over (s1, s2, x1, x2, y1, y2, sh1, sh2); the right side
    # P(s1, s2) 1{(sh1, sh2) != (s1, s2)} sits on x1 = y1, x2 = y2 only,
    # so it is subtracted there in place instead of built as a dense 8-D array
    mism = 1.0 - np.einsum("ac, bd -> abcd", np.eye(n1), np.eye(n2))
    resid = pt.lam_s_12[:, :, None, :, :, :, :, :] \
        + pt.lam_s_21[:, :, :, None, :, :, :, :] \
        + pt.lam_c[:, :, :, :, :, :, None, None]
    x1, x2 = np.arange(m1)[:, None], np.arange(m2)[None, :]
    resid[:, :, x1, x2, x1, x2] -= (P[:, :, None, None] * mism)[:, :, None, None]
    _collect(out, "D4", resid, tol)

    # (D5) over (s2, x2, y1, y2, sh1, sh2)
    lhs = pt.mu_s_2.transpose(0, 3, 4, 1, 2)[:, None, :, :, :, :] \
        + pt.mu_c_2[:, :, :, :, None, None]
    _collect(out, "D5", lhs - pt.lam_s_12.sum(axis=0), tol)

    # (D6) over (s1, x1, y1, y2, sh1, sh2)
    lhs = pt.mu_s_1.transpose(0, 3, 4, 1, 2)[:, None, :, :, :, :] \
        + pt.mu_c_1[:, :, :, :, None, None]
    _collect(out, "D6", lhs - pt.lam_s_21.sum(axis=1), tol)

    # (D7) over (s1, s2, x1, x2)
    lhs = pt.mu_c_12.transpose(1, 2, 0)[:, :, :, None] \
        + pt.mu_c_21.transpose(1, 2, 0)[:, :, None, :]
    _collect(out, "D7", lhs - pt.lam_c.sum(axis=(4, 5)), tol)
    return out


# ---------------------------------------------------------------------------
# dual objectives (penalty / min form): the sum of the binding normalization
# multipliers, so stored gamma fields are never read


def _objective(inst, pt: _DualPoint) -> float:
    return float(sum(g.sum() for g in _binding_gammas(inst, pt).values()))


def dp_objective(inst: ScInstance, pt: DualPointSC) -> float:
    return _objective(inst, pt)


def dpje_objective(inst: SwInstance, pt: DualPointJE) -> float:
    return _objective(inst, pt)


def dpsi_objective(inst: SwInstance, pt: DualPointSI) -> float:
    return _objective(inst, pt)


def dpsw_objective(inst: SwInstance, pt: DualPointSW) -> float:
    return _objective(inst, pt)


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
    gamma_a = phi
    gamma_b = np.full(M, -float((phi[:, None] * win).sum(axis=0).max()))
    return DualPointSC(lam_s, lam_c, gamma_a, gamma_b)


def dpsi_flows(inst: SwInstance, which: int, phi: np.ndarray) -> DualPointSI:
    """Side-information dual point from 0 <= phi <= P (joint-shaped)."""
    n1, n2, m1, m2 = inst.dims
    phi = np.asarray(phi, dtype=float)
    if which == 1:
        pe, ne, ns, M = phi, n1, n2, m1
    else:
        pe, ne, ns, M = phi.T, n2, n1, m2
    lam_s = -np.einsum("es, eh -> esh", pe, np.eye(ne))[:, :, :, None]
    lam_s = np.broadcast_to(lam_s, (ne, ns, ne, M))
    lam_c = pe[:, :, None, None] * np.eye(M)[None, None, :, :]
    gamma_a = pe.sum(axis=1)
    gamma_b = np.broadcast_to(-pe.max(axis=0)[:, None], (ns, M))
    return DualPointSI(which, lam_s, lam_c, gamma_a, gamma_b)


def dpje_flows(inst: SwInstance, phi_hat: np.ndarray) -> DualPointJE:
    """Jointly-encoded dual point from 0 <= phi_hat <= P (joint-shaped)."""
    n1, n2, m1, m2 = inst.dims
    ph = np.asarray(phi_hat, dtype=float)
    same = np.einsum("ac, bd -> abcd", np.eye(n1), np.eye(n2))
    lam_s = -np.einsum("ab, abcd -> abcd", ph, same)[:, :, :, :, None, None]
    lam_s = np.broadcast_to(lam_s, (n1, n2, n1, n2, m1, m2))
    diag = np.einsum("xu, yv -> xyuv", np.eye(m1), np.eye(m2))
    lam_c = ph[:, :, None, None, None, None] * diag[None, None, :, :, :, :]
    gamma_a = ph
    gamma_b = np.full((m1, m2), -float(ph.max()))
    return DualPointJE(lam_s, lam_c, gamma_a, gamma_b)


# ---------------------------------------------------------------------------
# slicing solver output back into typed dual points


def _fields(rows: TensorIndex, sol: LpSolution) -> Dict[str, np.ndarray]:
    return {name: rows.extract(sol.dual, name) for name in rows.shapes}


def dual_point_sc_from_solution(inst: ScInstance, sol: LpSolution) -> DualPointSC:
    return DualPointSC(**_fields(sc_indexer(inst)[1], sol))


def dual_point_je_from_solution(inst: SwInstance, sol: LpSolution) -> DualPointJE:
    return DualPointJE(**_fields(je_indexer(inst)[1], sol))


def dual_point_si_from_solution(inst: SwInstance, which: int,
                                sol: LpSolution) -> DualPointSI:
    return DualPointSI(which, **_fields(si_indexer(inst, which)[1], sol))


def dual_point_sw_from_solution(inst: SwInstance, sol: LpSolution) -> DualPointSW:
    return DualPointSW(**_fields(sw_indexer(inst)[1], sol))
