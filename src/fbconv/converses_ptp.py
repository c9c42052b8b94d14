"""Point-to-point converse bounds in closed form.

Every bound here lower-bounds the exact error probability of the matching
coding problem.  The phi-supremum forms are solved exactly: lossy as an LP,
lossless by a sort, side-information as a covered-mass LP (its row duals are
the witness).  The scalar forms are reparameterized through t = exp(-b).
Each is one curve: a private builder checks the input, computes the
per-instance constants once and returns (integrand, candidates, cells).  The
integrand maps a 1-D array of points to their values in one numpy pass over
a (points x cells) array, every sum over a C-contiguous row of it.  The sup
is the max of the integrand over the candidates, the breakpoints where some
min{.,.} or closed threshold event switches plus the end where the bound is
0, as the integrand is piecewise linear between them.  _breakpoint_sup feeds
the candidates in blocks of at most probability.MAX_BLOCK_ENTRIES entries,
the one temporary budget, so memory is bounded by the block, not by
candidates x cells.  The public *_at evaluates the same integrand on a batch
of one; a row's sum does not depend on how many rows the batch holds, so
*_at at a witness reproduces raw_value exactly.  The three DSBS curves of
dsbs keep the same contract over log t, and take their sups and *_at
through _breakpoint_sup and _at too.

Six of the curves, the tilted-flow, lossless-tail and side-information ones
here and the Miyake-Kanaya ones of converses_sw, are threshold curves, each
made by _threshold_curve from its per-cell masses p, coefficients c and a
penalty: sum over cells of min{p, t c}, or of p 1{p <= t c}, minus
penalty(t).  Both forms switch only at the t = p / c, so the candidates are
t = 0, every p / c in (0, top] of a cell with mass, and top when it is
finite; a penalty must be linear between them.  The breakpoint p / c of
every cell with mass must be finite and positive.

The covered-mass LP behind meta_sid and meta_sw depends on the pmf through
its cost alone.  Its structure (rows, rhs, bounds) is built and checked once
per (n1, n2, M1, M2, caps) in a private lru_cache, and each call holds it
with its own cost; its solves stay cold.

Closed events are evaluated as p <= t c with a relative 1e-12 slack so
that a witness t that equals a breakpoint up to float rounding still lands
on the intended side.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .lp_core import LpModel, _dense_rows, _row_arrays, solve
from .probability import MAX_BLOCK_ENTRIES, CodeSizes, PmfError, SinglePmf, ZeroProbability
from .relaxations import ScInstance, SwInstance, _check_lp_size

EVENT_SLACK = 1e-12


@dataclass(frozen=True)
class BoundReport:
    """A named converse value with its optimizing parameters.

    raw_value may be negative, or exceed 1 by float rounding; clamped_value,
    raw_value clamped into [0, 1], is what a plot or CSV shows.  witness
    holds whatever reproduces raw_value when fed back into the defining
    formula (phi tensor, scalar t, reference pmf Q).  An LP-backed
    metaconverse (meta_lossy, meta_sid, meta_sw) reports its defining
    formula at its witness, which lies in [0, P], never the solver's
    objective, so raw_value is attained by a feasible point.  That formula
    is summed by _formula_sum, rounded down, so raw_value never exceeds the
    exact formula at the witness.
    paper_eq names the formula family in the literature.
    """

    name: str
    raw_value: float
    clamped_value: float
    witness: Dict[str, object] = field(default_factory=dict)
    paper_eq: str = ""
    vacuous: bool = False


def _report(name: str, raw: float, witness: Dict[str, object], paper_eq: str,
            vacuous: bool = False) -> BoundReport:
    raw = float(raw)
    return BoundReport(name, raw, min(1.0, max(0.0, raw)), witness, paper_eq, vacuous)


def _formula_sum(terms) -> float:
    """The sum of float terms, rounded down: the correctly rounded sum less
    2 eps times the summed magnitudes, which covers the rounding of the sum
    and of the few float operations that made each term."""
    terms = np.asarray(terms, dtype=float)
    return math.fsum(terms) - 2.0 * np.finfo(float).eps * float(np.abs(terms).sum())


def _sorted_unique(x) -> np.ndarray:
    """np.unique of a 1-D float array by its own sort path: sort, keep x[0]
    and each entry unequal to the one before.  A plain np.unique imports
    numpy.ma on its first call (for np.ma.is_masked), which costs resident
    memory that no caller here needs."""
    x = np.sort(x)
    keep = np.empty(x.shape, dtype=bool)
    keep[:1] = True
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


def _breakpoint_sup(fn, cands, cells: int):
    """(max of fn over the candidate points, first candidate attaining it).
    fn maps a 1-D array of points to their values through temporaries of
    `cells` entries per point; it sees at most MAX_BLOCK_ENTRIES // cells
    points at a time, and at least one."""
    step = max(1, MAX_BLOCK_ENTRIES // cells)
    vals = np.concatenate([fn(cands[i:i + step]) for i in range(0, cands.size, step)])
    k = int(np.argmax(vals))
    return vals[k], cands[k]


def _at(curve, x, real_line: bool = False) -> float:
    """A curve's integrand at the single point x, as a batch of one.  x is a
    t, finite and nonnegative, or with real_line a point of the extended
    line (a b, or a dsbs curve's log t), where +-inf are valid; NaN is never
    valid."""
    x = float(x)
    if real_line and math.isnan(x):
        raise PmfError("b must not be NaN")
    if not real_line and not (x >= 0.0 and math.isfinite(x)):
        raise PmfError(f"t must be finite and nonnegative, got {x!r}")
    return float(curve[0](np.array([x]))[0])


def _threshold_curve(p, c, penalty, closed: bool, top: float = 1.0):
    """The threshold curve of per-cell masses p and coefficients c (c
    broadcast to p's shape): sum p 1{p <= t c}, through the relative
    EVENT_SLACK, when closed, else sum min{p, t c}, less penalty(t), over
    t = 0, every p / c in (0, top] of a cell with mass, and top when finite.
    PmfError unless the breakpoint p / c of every cell with p > 0 is finite
    and positive, so c there is too."""
    p = np.asarray(p, dtype=float)
    c = (c + np.zeros_like(p)).ravel()
    p = p.ravel()
    pos = p > 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        breaks = p[pos] / c[pos]
    if not np.all((breaks > 0) & (breaks < math.inf)):   # False on NaN
        raise PmfError("every cell with mass needs a finite positive breakpoint p / c")
    cands = _sorted_unique(np.concatenate([[0.0], breaks[breaks <= top],
                                           [top] if math.isfinite(top) else []]))
    if closed:
        lift = c * (1.0 + EVENT_SLACK)
        return (lambda t: np.where(p <= t[:, None] * lift + 1e-300, p, 0.0).sum(axis=1)
                - penalty(t)), cands, p.size
    return lambda t: np.minimum(p, t[:, None] * c).sum(axis=1) - penalty(t), cands, p.size


@dataclass(frozen=True)
class TiltedInfo:
    """Per-symbol tilted information values in nats."""

    j: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.j, dtype=float)
        if arr.ndim != 1 or not np.all(np.isfinite(arr)):
            raise PmfError("tilted information must be a finite 1-D vector")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "j", arr)

    @classmethod
    def lossless(cls, source: SinglePmf) -> "TiltedInfo":
        if np.any(source.mass == 0.0):
            raise ZeroProbability(
                "lossless tilted information is infinite on zero-mass symbols")
        return cls(-np.log(source.mass))


# ---------------------------------------------------------------------------
# lossy metaconverse and its corollaries


def meta_lossy(inst: ScInstance) -> BoundReport:
    """sup over 0 <= phi <= P of sum(phi) - M * max_sh sum_s phi(s) 1{within},
    solved exactly as an LP with one epigraph variable u: a row
    sum_s phi(s) 1{within(s, sh)} - u <= 0 per reconstruction sh."""
    P = inst.source.mass
    win = inst.distortion.within().astype(float)
    n, nh = win.shape
    # variables: phi(0..n-1), u
    A = np.hstack([win.T, -np.ones((nh, 1))])
    model = LpModel("max", np.concatenate([np.ones(n), [-float(inst.M)]]), _dense_rows(A),
                    ("<=",) * nh, np.zeros(nh), lower=np.zeros(n + 1),
                    upper=np.concatenate([P, [math.inf]]))
    phi = np.clip(solve(model).primal[:n], 0.0, P)
    return _report("meta-lossy", _meta_lossy_raw(inst, phi), {"phi": phi},
                   "lossy metaconverse, flow form")


def _meta_lossy_raw(inst: ScInstance, phi: np.ndarray) -> float:
    """The lossy metaconverse integrand at a flow 0 <= phi <= P."""
    win = inst.distortion.within().astype(float)
    # each covered mass is summed exactly rounded, so that it is one float
    # operation away from exact, as _formula_sum assumes of its terms
    covered = max(math.fsum(col) for col in (phi[:, None] * win).T)
    return _formula_sum(np.append(phi, -inst.M * covered))


def meta_lossy_z(inst: ScInstance, z) -> BoundReport:
    """The lossy metaconverse integrand at a fixed nonnegative z (no sup).
    +inf is a valid entry, as min{P, inf} = P; NaN is not."""
    z = np.asarray(z, dtype=float)
    if z.shape != inst.source.mass.shape or not np.all(z >= 0):   # False on NaN
        raise PmfError("z must be a nonnegative vector, not NaN, over the source alphabet")
    return _report("meta-lossy-z", _meta_lossy_raw(inst, np.minimum(inst.source.mass, z)),
                   {"z": z.copy()}, "lossy metaconverse at fixed flow")


def _tilt(P: np.ndarray, j: TiltedInfo) -> np.ndarray:
    if j.j.shape != P.shape:
        raise PmfError("tilted information length must match the alphabet")
    return j.j


def _kv_curve(inst: ScInstance, j: Optional[TiltedInfo]):
    """The tilted-flow curve: masses P, coefficients w / M with w(s) =
    P(s) exp(j(s) - j*), penalty t max_sh sum_s w(s) 1{within(s, sh)}, where
    j* is the largest j over the symbols with mass.  Adding a constant to j
    scales w by its exponential and t by the inverse, so j* changes no
    value, only the scale of t, and keeps every weight at most 1.  For the
    built-in lossless tilt, P exp(h) = 1 extends by continuity to zero-mass
    symbols.  A tilt whose spread leaves float range, so that a weight is 0
    or its breakpoint inf, is refused by the builder."""
    P = inst.source.mass
    w, pos = np.ones_like(P), P > 0
    if j is not None:
        jv = _tilt(P, j)[pos]
        with np.errstate(over="ignore"):   # a spread past float max: weight 0, refused below
            w[~pos], w[pos] = 0.0, P[pos] * np.exp(jv - jv.max())
    pen = float((w[:, None] * inst.distortion.within()).sum(axis=0).max())
    return _threshold_curve(P, w / inst.M, lambda t: t * pen, closed=False, top=math.inf)


def kv_tilted_improved(inst: ScInstance, j: Optional[TiltedInfo] = None) -> BoundReport:
    """Tilted-flow converse: sup over t > 0 of
    sum_s min{P(s), w(s) t / M} - t * max_sh sum_s w(s) 1{within(s, sh)},
    with w(s) = P(s) exp(j(s) - j*) and j* the largest j over the symbols
    with mass (w = 1 for the built-in lossless tilt).  The sup does not
    depend on j*; the witness t is on the scale of these weights."""
    val, t = _breakpoint_sup(*_kv_curve(inst, j))
    return _report("kv-improved", val, {"t": float(t)},
                   "improved Kostina-Verdu tilted converse")


def kv_tilted_at(inst: ScInstance, t: float, j: Optional[TiltedInfo] = None) -> float:
    """The kv_tilted_improved objective at t, with t on the scale of the
    shifted weights P(s) exp(j(s) - j*) that its docstring states."""
    return _at(_kv_curve(inst, j), t)


def _palzer_curve(inst: ScInstance, j: Optional[TiltedInfo]):
    """The tail integrand over the finite j-values and b = -inf, +inf (the
    empty event).  The built-in j is -log P, +inf on zero-mass symbols."""
    P = inst.source.mass
    win = inst.distortion.within().astype(float)
    if j is None:
        jv = np.where(P > 0, -np.log(np.where(P > 0, P, 1.0)), math.inf)
    else:
        jv = _tilt(P, j)

    def fn(beta):
        fin = np.isfinite(beta)    # an infinite b is its own threshold
        thr = beta.copy()
        thr[fin] = beta[fin] - np.abs(beta[fin]) * EVENT_SLACK - 1e-300
        head = P * (jv >= thr[:, None])
        return head.sum(axis=1) - inst.M * (head[:, None, :] * win.T).sum(axis=2).max(axis=1)

    return (fn, _sorted_unique(np.concatenate([jv[np.isfinite(jv)], [-math.inf, math.inf]])),
            win.size)


def palzer_timo(inst: ScInstance, j: Optional[TiltedInfo] = None) -> BoundReport:
    """Tail converse: sup over b of
    P[j(S) >= b] - M * max_sh P[j(S) >= b, within(S, sh)]."""
    val, beta = _breakpoint_sup(*_palzer_curve(inst, j))
    return _report("palzer-timo", val, {"beta": float(beta)}, "Palzer-Timo converse")


def palzer_timo_at(inst: ScInstance, beta: float, j: Optional[TiltedInfo] = None) -> float:
    return _at(_palzer_curve(inst, j), beta, real_line=True)


# ---------------------------------------------------------------------------
# Neyman-Pearson machinery


def np_alpha(P: SinglePmf, Q: SinglePmf, theta: float) -> float:
    """Minimum type-I error P[T] over randomized tests with Q-miss <= theta,
    by greedy likelihood-ratio filling with one fractional atom: O(n log n),
    where a sup over the ratio breakpoints would be O(n^2).  theta must be
    nonnegative, as no Q-miss is below 0; from theta = 1 on the value is 0."""
    p, q = P.mass, Q.mass
    if p.shape != q.shape:
        raise PmfError("P and Q must share an alphabet")
    if not float(theta) >= 0.0:   # True on NaN
        raise PmfError(f"theta must be a nonnegative Q-miss, got {theta!r}")
    need = 1.0 - float(theta)
    if need <= 0.0:
        return 0.0
    pos = np.flatnonzero(q > 0)
    order = pos[np.argsort(p[pos] / q[pos], kind="stable")]
    alpha = 0.0
    acc = 0.0
    for s in order:
        take = min(float(q[s]), need - acc)
        alpha += float(p[s]) * take / float(q[s])
        acc += take
        if acc >= need:
            break
    return alpha


def hypothesis_testing_bound(inst: ScInstance, Q: Optional[SinglePmf] = None) -> BoundReport:
    """Binary-hypothesis-testing converse against a reference pmf Q
    (default Q = P): alpha_{M*}(P, Q) with M* = M max_sh sum_s Q(s) 1{within}."""
    if Q is None:
        Q = inst.source
    if Q.mass.shape != inst.source.mass.shape:
        raise PmfError("Q must live on the source alphabet")
    win = inst.distortion.within().astype(float)
    mstar = inst.M * float((Q.mass[:, None] * win).sum(axis=0).max())
    if mstar >= 1.0:
        return _report("ht", 0.0, {"Q": Q.mass.copy(), "M_star": mstar},
                       "Kostina-Verdu hypothesis-testing converse", vacuous=True)
    raw = np_alpha(inst.source, Q, mstar)
    return _report("ht", raw, {"Q": Q.mass.copy(), "M_star": mstar},
                   "Kostina-Verdu hypothesis-testing converse")


# ---------------------------------------------------------------------------
# lossless specializations


def meta_lossless(source: SinglePmf, M: int) -> BoundReport:
    """sup over 0 <= phi <= P of |phi|_1 - M |phi|_inf.

    The optimal phi is a cap, min{P, c}, and sum min{P, c} - M c is concave
    in c with slope #{s : P(s) > c} - M: the M-th largest mass (0 if M
    exceeds the alphabet) is an optimal cap.  The value, the mass outside
    the M largest, equals meta_lossy on the lossless distortion spec.
    """
    M = CodeSizes(M).M1   # PmfError unless M >= 1 is integral
    P = source.mass
    cap = float(np.sort(P)[-M]) if M <= P.size else 0.0
    phi = np.minimum(P, cap)
    return _report("meta-lossless", float(phi.sum() - M * cap), {"phi": phi, "cap": cap},
                   "lossless metaconverse, cap form")


def _gamma_curve(source: SinglePmf, M: int):
    """The lossless-tail curve: masses P, coefficient 1 / M, penalty t,
    closed, so P[P(S) <= t/M] - t."""
    M = CodeSizes(M).M1   # PmfError unless M >= 1 is integral
    return _threshold_curve(source.mass, 1.0 / M, lambda t: t, closed=True)


def lossless_gamma_bound(source: SinglePmf, M: int) -> BoundReport:
    """sup over t in (0, 1] of P[P(S) <= t/M] - t, exactly over the t
    where the closed tail event gains an atom."""
    val, t = _breakpoint_sup(*_gamma_curve(source, M))
    return _report("lossless-gamma", val, {"t": float(t)}, "lossless tail converse")


def lossless_gamma_at(source: SinglePmf, M: int, t: float) -> float:
    return _at(_gamma_curve(source, M), t)


def meta_je(inst: SwInstance) -> BoundReport:
    """Lossless metaconverse of the flattened pair source with M = M1 M2."""
    n1, n2, m1, m2 = inst.dims
    rep = meta_lossless(SinglePmf(inst.joint.mass.reshape(-1)), m1 * m2)
    wit = dict(rep.witness, phi=rep.witness["phi"].reshape(n1, n2))
    return _report("meta-je", rep.raw_value, wit, "joint-encoder metaconverse")


# ---------------------------------------------------------------------------
# side information at the decoder


@functools.lru_cache(maxsize=64)
def _covered_mass_structure(n1: int, n2: int, m1: int, m2: int, caps: str):
    """(keep, model) of the covered-mass LP of these sizes and cap families:
    keep marks the kept caps among u, v(.), w(.), and model is the LP at a
    zero cost, checked once.  64 entries hold the three structures of each
    of the 15 inputs of the sw_bounds benchmark."""
    keep = np.repeat([c in caps for c in "uvw"], [1, n1, n2])
    s1, s2 = np.indices((n1, n2)).reshape(2, -1)
    row = np.cumsum(keep) - 1     # the row of each kept cap among u, v(.), w(.)
    kept = [row[cap_of_cell] for f, cap_of_cell in
            (("u", 0 * s1), ("v", 1 + s1), ("w", 1 + n1 + s2)) if f in caps]
    # each kept family caps every cell once
    a_rows = _row_arrays(np.concatenate(kept), np.tile(np.arange(n1 * n2), len(kept)),
                         np.ones(len(kept) * n1 * n2), int(keep.sum()))
    b = np.repeat([m1 * m2, m2, m1], [1, n1, n2])[keep].astype(float)
    for a in (*a_rows, b):
        a.setflags(write=False)
    model = LpModel("max", np.zeros(n1 * n2), a_rows, ("<=",) * b.size, b,
                    upper=np.ones(n1 * n2))
    return keep, model


def _covered_mass_lp(inst: SwInstance, caps: str):
    """(model, reader): max sum mu P over 0 <= mu <= 1, row-major over (s1, s2),
    with a <= row per cap of the families in `caps`: u caps sum mu at M1 M2,
    v(s1) each row sum at M2, w(s2) each column sum at M1.  The reader maps
    the row duals to the flows they price, (min{P, u}, min{P, w(s2)},
    min{P, v(s1)}) = (phi_hat, phi_12, phi_21), 0 for a family not kept.
    The structure comes from _covered_mass_structure, cached per sizes and
    caps, and the model holds it as it is with P as its cost, so a call
    checks the cost alone.  The size cap is checked first, on every call."""
    n1, n2, m1, m2 = inst.dims
    P = inst.joint.mass
    _check_lp_size(("u" in caps) + n1 * ("v" in caps) + n2 * ("w" in caps), P.size,
                   "covered-mass LP")
    keep, model = _covered_mass_structure(n1, n2, m1, m2, caps)

    def flows(dual):
        y = np.zeros(keep.size)
        y[keep] = dual
        u, v, w = y[0], y[1:1 + n1], y[1 + n1:]
        return np.clip(u, 0.0, P), np.clip(w[None, :], 0.0, P), np.clip(v[:, None], 0.0, P)

    return model._with_objective(P.reshape(-1), None), flows


def _meta_sw_raw(inst: SwInstance, phi_hat, phi_12, phi_21) -> float:
    """The three-flow metaconverse integrand at flows in [0, P]."""
    n1, n2, m1, m2 = inst.dims
    return _formula_sum(np.concatenate([
        np.minimum(inst.joint.mass, phi_hat + phi_12 + phi_21).ravel(),
        [-m1 * m2 * phi_hat.max()], -m1 * phi_12.max(axis=0), -m2 * phi_21.max(axis=1)]))


_SIDE_TAG = {1: "12", 2: "21"}


def meta_sid(inst: SwInstance, which: int = 1) -> BoundReport:
    """sup over 0 <= phi <= P of sum(phi) - M sum_side max_enc phi: meta_sw
    of inst.oriented(which) with only encoder 1's flow, so its covered-mass
    LP under the cap family w alone.  The witness phi is in the orientation
    of inst."""
    sw = inst.oriented(which)
    model, read = _covered_mass_lp(sw, "w")
    flows = read(solve(model).dual)
    return _report(f"meta-sid{_SIDE_TAG[which]}", _meta_sw_raw(sw, *flows),
                   {"phi": flows[1] if which == 1 else flows[1].T},
                   "side-information metaconverse")


def _sid_curve(inst: SwInstance, improved: bool):
    """Encoder 1's side-information curve: masses P(enc, side), coefficients
    Pside / M; classic closed with penalty t, improved open with penalty
    M sum_side min{max_enc P, t Pside / M}, whose kinks are breakpoints."""
    P, M = inst.joint.mass, inst.sizes.M1
    coef = P.sum(axis=0) / M      # per side letter, broadcast over the rows
    if not improved:
        return _threshold_curve(P, coef, lambda t: t, closed=True)
    top = P.max(axis=0)
    return _threshold_curve(
        P, coef, lambda t: M * np.minimum(top, t[:, None] * coef).sum(axis=1), closed=False)


def sid_improved(inst: SwInstance, which: int = 1) -> BoundReport:
    """sup over t in (0, 1] of
    sum min{P12, Pside t / M} - M sum_side min{max_enc P12, Pside t / M}."""
    val, t = _breakpoint_sup(*_sid_curve(inst.oriented(which), improved=True))
    return _report(f"sid-improved{_SIDE_TAG[which]}", val, {"t": float(t)},
                   "improved side-information converse")


def sid_improved_at(inst: SwInstance, t: float, which: int = 1) -> float:
    return _at(_sid_curve(inst.oriented(which), improved=True), t)


def sid_classic(inst: SwInstance, which: int = 1) -> BoundReport:
    """sup over t in (0, 1] of P[P(enc|side) <= t/M] - t."""
    val, t = _breakpoint_sup(*_sid_curve(inst.oriented(which), improved=False))
    return _report(f"sid-classic{_SIDE_TAG[which]}", val, {"t": float(t)},
                   "conditional-tail side-information converse")


def sid_classic_at(inst: SwInstance, t: float, which: int = 1) -> float:
    return _at(_sid_curve(inst.oriented(which), improved=False), t)
