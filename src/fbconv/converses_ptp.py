"""Point-to-point converse bounds in closed form.

Every bound here lower-bounds the exact error probability of the matching
coding problem.  The phi-supremum forms are solved exactly as small LPs with
epigraph variables; the scalar forms are reparameterized through t = exp(-b)
and maximized exactly over the finite set of breakpoints where some
min{.,.} or closed threshold event switches, since the objectives are
piecewise linear in t between those points.

Closed events are evaluated as P <= threshold with a relative 1e-12 slack so
that a witness t that equals a breakpoint up to float rounding still lands
on the intended side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .lp_core import LpModel, solve
from .probability import PmfError, SinglePmf, ZeroProbability
from .relaxations import ScInstance, SwInstance, sw_je_instance

EVENT_SLACK = 1e-12


def closed_leq(values: np.ndarray, threshold) -> np.ndarray:
    """Indicator of the closed event values <= threshold, ulp-tolerant."""
    thr = np.asarray(threshold, dtype=float)
    return values <= thr * (1.0 + EVENT_SLACK) + 1e-300


@dataclass(frozen=True)
class BoundReport:
    """A named converse value with its optimizing parameters.

    raw_value may be negative, or exceed 1 by float rounding; clamped_value,
    raw_value clamped into [0, 1], is what a plot or CSV shows.  witness
    holds whatever reproduces raw_value when fed back into the defining
    formula (phi tensor, scalar t, reference pmf Q).
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


def _breakpoint_sup(fn, cands):
    """(max of fn over the candidate points, first candidate attaining it)."""
    vals = np.array([fn(c) for c in cands])
    k = int(np.argmax(vals))
    return vals[k], cands[k]


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
    solved exactly as an LP with one epigraph variable."""
    P = inst.source.mass
    win = inst.distortion.within().astype(float)
    n, nh = win.shape
    # variables: phi(0..n-1), u
    obj = np.concatenate([np.ones(n), [-float(inst.M)]])
    rows = []
    for sh in range(nh):
        rows.append((np.concatenate([win[:, sh], [-1.0]]), "<=", 0.0))
    model = LpModel.from_rows("max", obj, rows,
                              lower=np.zeros(n + 1),
                              upper=np.concatenate([P, [math.inf]]))
    sol = solve(model)
    phi = sol.primal[:n]
    return _report("meta-lossy", sol.value, {"phi": phi},
                   "lossy metaconverse, flow form")


def meta_lossy_z(inst: ScInstance, z) -> BoundReport:
    """The lossy metaconverse integrand at a fixed nonnegative z (no sup)."""
    z = np.asarray(z, dtype=float)
    if z.shape != inst.source.mass.shape or np.any(z < 0):
        raise PmfError("z must be a nonnegative vector over the source alphabet")
    P = inst.source.mass
    win = inst.distortion.within().astype(float)
    phi = np.minimum(P, z)
    raw = phi.sum() - inst.M * (phi[:, None] * win).sum(axis=0).max()
    return _report("meta-lossy-z", raw, {"z": z.copy()},
                   "lossy metaconverse at fixed flow")


def _tilt_weights(inst: ScInstance, j: Optional[TiltedInfo]):
    """w(s) = P(s) exp(j(s)) and the t-breakpoints M exp(-j(s)).

    For the built-in lossless tilt, P exp(h) = 1 extends by continuity to
    zero-mass symbols, whose breakpoints vanish.
    """
    P = inst.source.mass
    if j is None:
        w = np.ones_like(P)
        breaks = inst.M * P[P > 0]
    else:
        jv = j.j
        if jv.shape != P.shape:
            raise PmfError("tilted information length must match the alphabet")
        w = np.where(P > 0, P * np.exp(jv), 0.0)
        breaks = inst.M * np.exp(-jv[P > 0])
    return w, breaks


def kv_tilted_improved(inst: ScInstance, j: Optional[TiltedInfo] = None) -> BoundReport:
    """Tilted-flow converse: sup over t > 0 of
    sum_s min{P(s), w(s) t / M} - t * max_sh sum_s w(s) 1{within(s, sh)}."""
    P = inst.source.mass
    win = inst.distortion.within().astype(float)
    w, breaks = _tilt_weights(inst, j)
    pen = float((w[:, None] * win).sum(axis=0).max())
    cands = np.unique(np.concatenate([breaks, [0.0]]))
    val, t = _breakpoint_sup(lambda t: np.minimum(P, w * t / inst.M).sum() - t * pen,
                             cands)
    return _report("kv-improved", val, {"t": float(t)},
                   "improved Kostina-Verdu tilted converse")


def kv_tilted_at(inst: ScInstance, t: float, j: Optional[TiltedInfo] = None) -> float:
    w, _ = _tilt_weights(inst, j)
    win = inst.distortion.within().astype(float)
    pen = float((w[:, None] * win).sum(axis=0).max())
    return float(np.minimum(inst.source.mass, w * t / inst.M).sum() - t * pen)


def palzer_timo(inst: ScInstance, j: Optional[TiltedInfo] = None) -> BoundReport:
    """Tail converse: sup over b of
    P[j(S) >= b] - M * max_sh P[j(S) >= b, within(S, sh)]."""
    P = inst.source.mass
    if j is None:
        jv = np.where(P > 0, -np.log(np.where(P > 0, P, 1.0)), math.inf)
        cands = np.concatenate([jv[P > 0], [-math.inf]])
    else:
        jv = j.j
        if jv.shape != P.shape:
            raise PmfError("tilted information length must match the alphabet")
        cands = np.concatenate([jv, [-math.inf]])
    val, beta = _breakpoint_sup(lambda b: palzer_timo_at(inst, b, j), np.unique(cands))
    return _report("palzer-timo", val, {"beta": float(beta)},
                   "Palzer-Timo converse")


def palzer_timo_at(inst: ScInstance, beta: float, j: Optional[TiltedInfo] = None) -> float:
    P = inst.source.mass
    win = inst.distortion.within().astype(float)
    if j is None:
        jv = np.where(P > 0, -np.log(np.where(P > 0, P, 1.0)), math.inf)
    else:
        jv = j.j
    mask = (jv >= beta - abs(beta) * EVENT_SLACK - 1e-300).astype(float)
    head = float((P * mask).sum())
    tail = float(((P * mask)[:, None] * win).sum(axis=0).max())
    return head - inst.M * tail


# ---------------------------------------------------------------------------
# Neyman-Pearson machinery


def np_alpha(P: SinglePmf, Q: SinglePmf, theta: float) -> float:
    """Minimum type-I error P[T] over randomized tests with Q-miss <= theta,
    by greedy likelihood-ratio filling with one fractional atom."""
    p, q = P.mass, Q.mass
    if p.shape != q.shape:
        raise PmfError("P and Q must share an alphabet")
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


def alpha_sup_form(P: SinglePmf, Q: SinglePmf, mstar: float) -> float:
    """sup over beta >= 0 of sum_s min{P(s), beta Q(s)} - beta * mstar,
    maximized over the likelihood-ratio breakpoints."""
    p, q = P.mass, Q.mass
    if p.shape != q.shape:
        raise PmfError("P and Q must share an alphabet")
    pos = q > 0
    betas = np.unique(np.concatenate([[0.0], p[pos] / q[pos]]))
    val, _ = _breakpoint_sup(lambda b: float(np.minimum(p, b * q).sum() - b * mstar), betas)
    return float(val)


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

    The optimal phi is a cap: phi = min{P, c}, so the exact optimum is the
    best c among {P(s)} and 0; the value equals meta_lossy on the lossless
    distortion spec.
    """
    P = source.mass
    caps = np.unique(np.concatenate([[0.0], P]))
    val, cap = _breakpoint_sup(lambda c: float(np.minimum(P, c).sum() - M * c), caps)
    return _report("meta-lossless", val, {"phi": np.minimum(P, cap), "cap": float(cap)},
                   "lossless metaconverse, cap form")


def lossless_gamma_bound(source: SinglePmf, M: int) -> BoundReport:
    """sup over t in (0, 1] of P[P(S) <= t/M] - t, exactly over the caps
    c = t/M where the closed tail event gains an atom."""
    P = source.mass
    caps = np.concatenate([P[(P > 0) & (M * P <= 1.0)], [1.0 / M]])
    val, cap = _breakpoint_sup(lambda c: float(P[closed_leq(P, c)].sum() - M * c),
                               np.unique(caps))
    return _report("lossless-gamma", val, {"t": float(min(M * cap, 1.0))},
                   "lossless tail converse")


def lossless_gamma_at(source: SinglePmf, M: int, t: float) -> float:
    P = source.mass
    return float(P[closed_leq(P, t / M)].sum() - t)


def meta_je(inst: SwInstance) -> BoundReport:
    """Lossless metaconverse of the flattened pair source with M = M1 M2."""
    flat = sw_je_instance(inst)
    rep = meta_lossless(flat.source, flat.M)
    n1, n2 = inst.joint.sizes
    wit = dict(rep.witness)
    wit["phi"] = np.asarray(wit["phi"]).reshape(n1, n2)
    return _report("meta-je", rep.raw_value, wit, "joint-encoder metaconverse")


# ---------------------------------------------------------------------------
# side information at the decoder


def _oriented(inst: SwInstance, which: int):
    if which == 1:
        return inst.joint.mass, inst.sizes.M1, "12"
    if which == 2:
        return inst.joint.mass.T, inst.sizes.M2, "21"
    raise PmfError(f"which must be 1 or 2, got {which!r}")


def meta_sid(inst: SwInstance, which: int = 1) -> BoundReport:
    """sup over 0 <= phi <= P of sum(phi) - M sum_side max_enc phi, solved
    exactly as an LP with one epigraph variable per side symbol."""
    P, M, tag = _oriented(inst, which)
    ne, ns = P.shape
    # variables: phi (ne*ns, row-major) then w(s_side)
    nv = ne * ns + ns
    obj = np.concatenate([np.ones(ne * ns), -float(M) * np.ones(ns)])
    rows = []
    for e in range(ne):
        for s in range(ns):
            coeffs = np.zeros(nv)
            coeffs[e * ns + s] = 1.0
            coeffs[ne * ns + s] = -1.0
            rows.append((coeffs, "<=", 0.0))
    model = LpModel.from_rows("max", obj, rows,
                              lower=np.zeros(nv),
                              upper=np.concatenate([P.reshape(-1),
                                                    np.full(ns, math.inf)]))
    sol = solve(model)
    phi = sol.primal[:ne * ns].reshape(ne, ns)
    if which == 2:
        phi = phi.T            # stored in (s1, s2) orientation either way
    return _report(f"meta-sid{tag}", sol.value, {"phi": phi},
                   "side-information metaconverse")


def _sid_candidates(inst: SwInstance, which: int) -> np.ndarray:
    """The t in (0, 1] where some M P(enc, side) / P(side) is crossed, and 1."""
    P, M, _ = _oriented(inst, which)
    side = P.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(side[None, :] > 0, M * P / side[None, :], np.nan)
    cands = ratio[np.isfinite(ratio) & (ratio > 0) & (ratio <= 1.0)]
    return np.unique(np.concatenate([cands, [1.0]]))


def sid_improved(inst: SwInstance, which: int = 1) -> BoundReport:
    """sup over t in (0, 1] of
    sum min{P12, Pside t / M} - M sum_side min{max_enc P12, Pside t / M}."""
    _, _, tag = _oriented(inst, which)
    val, t = _breakpoint_sup(lambda t: sid_improved_at(inst, t, which),
                             _sid_candidates(inst, which))
    return _report(f"sid-improved{tag}", val, {"t": float(t)},
                   "improved side-information converse")


def sid_improved_at(inst: SwInstance, t: float, which: int = 1) -> float:
    P, M, _ = _oriented(inst, which)
    side = P.sum(axis=0)
    cap = side * t / M
    head = np.minimum(P, cap[None, :]).sum()
    tail = np.minimum(P.max(axis=0), cap).sum()
    return float(head - M * tail)


def sid_classic(inst: SwInstance, which: int = 1) -> BoundReport:
    """sup over t in (0, 1] of P[P(enc|side) <= t/M] - t."""
    _, _, tag = _oriented(inst, which)
    val, t = _breakpoint_sup(lambda t: sid_classic_at(inst, t, which),
                             _sid_candidates(inst, which))
    return _report(f"sid-classic{tag}", val, {"t": float(t)},
                   "conditional-tail side-information converse")


def sid_classic_at(inst: SwInstance, t: float, which: int = 1) -> float:
    P, M, _ = _oriented(inst, which)
    side = P.sum(axis=0)
    mask = closed_leq(P, side[None, :] * (t / M))
    return float(P[mask].sum() - t)
