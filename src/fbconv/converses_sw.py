"""Distributed (Slepian-Wolf) converse bounds and dual-point synthesis.

The three-flow metaconverse is solved exactly as the covered-mass LP of
converses_ptp under all three cap families, whose row duals are its
thresholds; that LP's structure is cached per sizes, so a call builds its
cost alone.  The scalar Miyake-Kanaya style bounds are threshold curves of
converses_ptp._threshold_curve, in t = exp(-b): masses P, coefficients
_mk_coef and penalty 3t, one (t x pairs) numpy pass, read by both the exact
sup over its finite breakpoint set, in blocks of at most
probability.MAX_BLOCK_ENTRIES entries, and the public mk_*_at, as a batch of
one.

The constructors at the bottom turn feasible dual points of the simpler
problems (side-information, jointly encoded) into feasible dual points of
the distributed LP, following the check-before-construct rule: inputs are
verified feasible first, outputs are exact up to float rounding.  Side 2 is
built as side 1 of the swapped pair, SwInstance.oriented(2), exchanged back.
They write every field in the SW table's letters (relaxations._lay), each
stating once which of its inputs' letters are which SW letters, and
relaxations._point makes the point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import replace

import numpy as np

from .lp_core import solve
from .probability import PmfError, _flow, _real, _real_in
from .relaxations import (
    _JE_ROWS,
    _SW_ROWS,
    DualPointJE,
    DualPointSI,
    DualPointSW,
    SwInstance,
    _binding_gammas,
    _check_lp_size,
    _exchanged,
    _lay,
    _point,
    check_feasible,
)
from .converses_ptp import (
    BoundReport,
    _at,
    _breakpoint_sup,
    _covered_mass_lp,
    _meta_sw_raw,
    _report,
    _threshold_curve,
    meta_je,
    meta_sid,
)


class InfeasibleInput(ValueError):
    """A constructor input failed its own feasibility check."""

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = violations or []


# ---------------------------------------------------------------------------
# exact metaconverse LP


def meta_sw(inst: SwInstance) -> BoundReport:
    """sup over 0 <= phi_hat, phi_12, phi_21 <= P of
    sum min{P, phi_hat + phi_12 + phi_21} - M1 M2 max phi_hat
    - M1 sum_s2 max_s1 phi_12 - M2 sum_s1 max_s2 phi_21, solved exactly.

    Each flow costs only through its maxima, and the first term only grows
    with each flow.  So replacing phi_hat by min{P, u} with u = max phi_hat,
    each column phi_12(., s2) by min{P, w(s2)} with w(s2) = its max, and each
    row phi_21(s1, .) by min{P, v(s1)} with v(s1) = its max keeps every
    penalty and cannot lower the first term: some optimum has that form.
    On such flows the first term is sum min{P, u + v(s1) + w(s2)}, and the
    penalties are at most M1 M2 u, M2 sum v and M1 sum w, with equality at
    those maxima.  So the sup equals the sup over u, v, w >= 0 of
        sum min{P, u + v(s1) + w(s2)} - M1 M2 u - M2 sum v - M1 sum w.
    The dual of the covered-mass LP max{sum mu P : 0 <= mu <= 1, A mu <= b},
    whose rows cap sum mu at M1 M2, each row sum at M2 and each column sum
    at M1, is the min over y = (u, v, w) >= 0 of b.y + sum (P - A^T y)^+,
    with A^T y = u + v(s1) + w(s2).  As sum min{P, s} = 1 - sum (P - s)^+,
    that is 1 minus the sup above, so the LP's row duals are an optimal
    (u, v, w).  raw_value is the defining formula at the witness flows
    min{P, u}, min{P, w(s2)}, min{P, v(s1)}, which lie in [0, P].
    """
    model, read = _covered_mass_lp(inst, "uvw")
    flows = read(solve(model).dual)
    return _report("meta-sw", _meta_sw_raw(inst, *flows),
                   dict(zip(("phi_hat", "phi_12", "phi_21"), flows)),
                   "distributed metaconverse, three-flow form")


def meta_sw_eta(inst: SwInstance, eta1, eta2, eta3) -> BoundReport:
    """The metaconverse integrand at fixed nonnegative eta tensors (no sup):
    phi_hat = min{P, eta1}, phi_12 = min{P, eta2}, phi_21 = min{P, eta3}.
    +inf is a valid entry, as min{P, inf} = P; NaN is not."""
    P = inst.joint.mass
    e1, e2, e3 = es = [_flow(e, P.shape, "eta") for e in (eta1, eta2, eta3)]
    if not all(np.all(e >= 0) for e in es):   # False on NaN
        raise PmfError("eta tensors must be nonnegative, not NaN")
    raw = _meta_sw_raw(inst, np.minimum(P, e1), np.minimum(P, e2), np.minimum(P, e3))
    return _report("meta-sw-eta", raw,
                   {"eta1": e1.copy(), "eta2": e2.copy(), "eta3": e3.copy()},
                   "distributed metaconverse at fixed flows")


def max_converse(inst: SwInstance) -> BoundReport:
    """Best of the three single-problem relaxations (jointly encoded and the
    two side-information problems), each of which embeds into the
    distributed dual."""
    reps = [meta_je(inst), meta_sid(inst, 1), meta_sid(inst, 2)]
    best = max(reps, key=lambda r: r.raw_value)
    wit = dict(best.witness)
    wit["winner"] = best.name
    return _report("max-converse", best.raw_value, wit,
                   "best single-problem embedding")


# ---------------------------------------------------------------------------
# Miyake-Kanaya style scalar bounds


def _mk_coef(inst: SwInstance) -> np.ndarray:
    """Per-pair max{1/(M1 M2), P2(s2)/M1, P1(s1)/M2}: the largest of the
    three density thresholds at unit t."""
    _, _, m1, m2 = inst.dims
    P = inst.joint.mass
    return np.maximum(np.maximum(P.sum(axis=0)[None, :] / m1, P.sum(axis=1)[:, None] / m2),
                      1.0 / (m1 * m2))


def _mk_curve(inst: SwInstance, improved: bool):
    """The classic (closed) or improved Miyake-Kanaya curve: masses P,
    coefficients _mk_coef, penalty 3t; its breakpoints past t = 1 are
    dropped, as from t = 1 on the curve is below -2, and at t = 0 at least 0."""
    return _threshold_curve(inst.joint.mass, _mk_coef(inst), lambda t: 3.0 * t,
                            closed=not improved)


def mk_classic_at(inst: SwInstance, t: float) -> float:
    """P[joint or either conditional density exceeds its log M budget] - 3t,
    the union expressed through the per-pair threshold P <= t * coef."""
    return _at(_mk_curve(inst, improved=False), t)


def mk_improved_at(inst: SwInstance, t: float) -> float:
    """mk_classic_at plus t * coef on every pair outside the union event;
    both terms together are sum min{P, t * coef} - 3t."""
    return _at(_mk_curve(inst, improved=True), t)


def mk_classic(inst: SwInstance) -> BoundReport:
    val, t = _breakpoint_sup(*_mk_curve(inst, improved=False))
    return _report("mk", val, {"t": float(t)}, "Miyake-Kanaya union bound")


def mk_improved(inst: SwInstance) -> BoundReport:
    val, t = _breakpoint_sup(*_mk_curve(inst, improved=True))
    return _report("mk-improved", val, {"t": float(t)},
                   "improved Miyake-Kanaya converse")


# ---------------------------------------------------------------------------
# dual-point synthesis


def _require_feasible(violations, what):
    if violations:
        worst = np.max([v.residual for v in violations])   # nan if any residual is
        raise InfeasibleInput(
            f"{what} fails feasibility: {len(violations)} violated "
            f"constraints, worst residual {worst:.3e}", violations)


_sw = functools.partial(_lay, _SW_ROWS)   # a field of the SW point, in the SW table's letters


def _channel(inst: SwInstance, lam_c: np.ndarray, **fields) -> DualPointSW:
    """The SW point of `fields` with the channel flow lam_c and, as mu_c_21,
    the min over x of lam_c summed over u and v."""
    mu_c_21 = _sw("mu_c_21", "aby", lam_c.sum(axis=(4, 5)).min(axis=2))
    return _point(inst, DualPointSW, lam_c=lam_c, mu_c_21=mu_c_21, **fields)


def _side_channel(sid: DualPointSI, m2: int, mu: np.ndarray) -> dict:
    """A which = 1 SI point's source and channel flows on the SW side
    channel's y = v diagonal, and mu_c_2 from mu over the SI point's s, y.
    The SI point's e, s, h, x, y are the SW pair's a, b, c, x, u."""
    eye2 = np.eye(m2)
    return dict(lam_s_12=_sw("lam_s_12", "abcu,yv", sid.lam_s, eye2),
                lam_c=_sw("lam_c", "abxu,yv", sid.lam_c, eye2),
                mu_c_2=_sw("mu_c_2", "bu,yv", mu, eye2))


def embed_sid_feasible(inst: SwInstance, dual_point_sid: DualPointSI,
                       input_tol: float = 1e-9) -> DualPointSW:
    """Lift a side-information dual point into the distributed dual.

    The encoded source's flows ride along the other channel's x = y diagonal;
    the side channel's normalization multiplier becomes a decoder-side
    channel flow.  The objective value is preserved exactly.  A which = 2
    point is lifted as the which = 1 point of inst.oriented(2).
    """
    pt = dual_point_sid
    _require_feasible(check_feasible(inst, pt, tol=input_tol),
                      f"side-information dual point (which={pt.which})")
    gb_bar = _binding_gammas(inst, pt)["gamma_b"]
    fields = _side_channel(pt, inst.oriented(pt.which).sizes.M2, gb_bar)
    fields["mu_c_12"] = _sw("mu_c_12", "abx", pt.lam_c.sum(axis=3))
    if pt.which == 2:
        fields = _exchanged(_SW_ROWS, fields)
    return _point(inst, DualPointSW, **fields)


def embed_je_feasible(inst: SwInstance, dual_point_je: DualPointJE,
                      input_tol: float = 1e-9) -> DualPointSW:
    """Lift a jointly-encoded dual point into the distributed dual: the pair
    source flow feeds one decoder-side source flow, the pair normalization
    becomes the other encoder's channel-average flow."""
    pt = dual_point_je
    _require_feasible(check_feasible(inst, pt, tol=input_tol),
                      "jointly-encoded dual point")
    ga_hat = _binding_gammas(inst, pt)["gamma_a"]
    # the JE point's letters are the SW pair's own; mu_s_2 sums lam_s over a
    return _point(inst, DualPointSW, lam_s_12=_sw("lam_s_12", "abcduv", pt.lam_s),
                  lam_c=pt.lam_c, mu_s_2=pt.lam_s.sum(axis=0),
                  mu_c_21=_sw("mu_c_21", "ab", ga_hat))


def _encoder_fields(inst: SwInstance, sid: DualPointSI, je_lam_s: np.ndarray,
                    share: float) -> dict:
    """Encoder 1's fields of combine_feasible and its part of the channel
    flow, from a which = 1 point and its share of the pair flow's lam_s."""
    n1, n2, _, m2 = inst.dims
    # decoder-side channel flow: the largest value the (D5) slack allows,
    # including the zero cap forced by mismatched estimates; over s, h, y
    gb = _binding_gammas(inst, sid)["gamma_b"]
    tot = sid.lam_s.sum(axis=0)
    diag = np.einsum("asay -> say", sid.lam_s)
    cap = (gb[:, None, :] - (tot - diag)).min(axis=1)
    if n2 > 1:
        cap = np.minimum(cap, 0.0)
    out = _side_channel(sid, m2, cap)
    # source flow: the SI flow plus the share of the pair flow, whose letters
    # are the SW pair's own, both pinned to the correct pair c = a, d = b
    out["lam_s_12"] = (out["lam_s_12"] + share * _sw("lam_s_12", "abcduv", je_lam_s)) \
        * _sw("lam_s_12", "ac,bd", np.eye(n1), np.eye(n2))
    # decoder-side source flow: the share of the pair flow at a = c, pinned
    # to the matching own-symbol diagonal d = b
    out["mu_s_2"] = share * _sw("mu_s_2", "cbcduv,bd", je_lam_s, np.eye(n2))
    return out


def combine_feasible(inst: SwInstance, sid12_flows: DualPointSI,
                     sid21_flows: DualPointSI, je_flows: DualPointJE,
                     alpha: float, input_tol: float = 1e-9) -> DualPointSW:
    """Nonlinear merge of feasible points of the three sub-problem duals into
    a feasible point of the distributed dual.

    The two source flows superpose the matching side-information flow (on
    its channel diagonal) with an alpha split of the pair flow; the channel
    flow takes the pointwise min of the summed sub-problem channel flows
    against the error-density cap.  Encoder 2's fields are encoder 1's of
    inst.oriented(2).

    On flow-form inputs, the points dpsi_flows and dpje_flows make from
    flows phi_12, phi_21 and phi_hat in [0, P], the result's objective is
    meta_sw_eta at those flows (the tests pin it at several alpha).  Other
    feasible inputs give a feasible point with no such claim: fed the SI
    and JE relaxation LPs' own optimal duals, its objective can lie below
    the best of the embedded points (embed_sid_feasible, embed_je_feasible).
    alpha is a real number in (0, 1); InfeasibleInput for anything else.
    """
    if not (_real(alpha) and 0.0 < alpha < 1.0):
        raise InfeasibleInput(f"alpha must lie strictly in (0, 1), got {alpha!r}")
    bar, til, hat = sid12_flows, sid21_flows, je_flows
    if bar.which != 1 or til.which != 2:
        raise InfeasibleInput(
            "combine_feasible needs a which=1 point then a which=2 point")
    _require_feasible(check_feasible(inst, bar, tol=input_tol),
                      "side-information dual point (which=1)")
    _require_feasible(check_feasible(inst, til, tol=input_tol),
                      "side-information dual point (which=2)")
    _require_feasible(check_feasible(inst, hat, tol=input_tol),
                      "jointly-encoded dual point")
    sw = inst.oriented(2)
    one = _encoder_fields(inst, bar, hat.lam_s, alpha)
    hat_sw = _exchanged(_JE_ROWS, {"lam_s": hat.lam_s})["lam_s"]
    two = _exchanged(_SW_ROWS, _encoder_fields(sw, replace(til, which=1), hat_sw, 1.0 - alpha))

    # channel flow: min of the summed sub-problem channel flows against the
    # diagonal error-density cap (D4's right-hand side at the correct pair)
    m1, m2 = inst.sizes.M1, inst.sizes.M2
    cap = _sw("lam_c", "xu,yv,ab", np.eye(m1), np.eye(m2), inst.joint.mass)
    lam_c = np.minimum(cap, hat.lam_c + one.pop("lam_c") + two.pop("lam_c"))
    return _channel(inst, lam_c, **one, **two)


def mk_flows(inst: SwInstance, t: float) -> DualPointSW:
    """The distributed dual point behind the improved Miyake-Kanaya bound at
    a fixed t: marginal-weighted source flows on the channel diagonals, a
    uniform decoder-side flow worth t/(M1 M2), and the channel flow capped
    at t times the per-pair threshold coefficient.  The LP's W block,
    (n1 n2 M1 M2)^2 entries, must stay within MAX_LP_ENTRIES, which bounds
    the point's own lam_s_12 and lam_s_21, of (n1 n2)^2 M1 M2^2 and
    (n1 n2)^2 M1^2 M2 entries; check_feasible reads W one slab at a time.
    t is a finite real number >= 0; InfeasibleInput for anything else."""
    try:   # the reader's PmfError, as the other constructor inputs raise InfeasibleInput
        t = _real_in(t, lambda t: 0 <= t < math.inf, "t must be a finite nonnegative scalar")
    except PmfError as e:
        raise InfeasibleInput(str(e)) from None
    n1, n2, m1, m2 = inst.dims
    _check_lp_size(k := n1 * n2 * m1 * m2, k, "mk_flows point")
    P = inst.joint.mass
    P1 = P.sum(axis=1)
    P2 = P.sum(axis=0)
    eye1, eye2, pair = np.eye(m1), np.eye(m2), (np.eye(n1), np.eye(n2))
    return _channel(
        inst, _sw("lam_c", "xu,yv,ab", eye1, eye2, np.minimum(P, t * _mk_coef(inst))),
        lam_s_12=_sw("lam_s_12", "b,ac,bd,yv", -(t / m1) * P2, *pair, eye2),
        lam_s_21=(_sw("lam_s_21", "a,xu", -(t / m2) * P1, eye1) - t / (m1 * m2))
        * _sw("lam_s_21", "ac,bd", *pair),
        mu_s_1=_sw("mu_s_1", "ac", -(t / (m1 * m2)) * np.eye(n1)),
        mu_c_1=_sw("mu_c_1", "a,xu", -(t / m2) * P1, eye1),
        mu_c_2=_sw("mu_c_2", "b,yv", -(t / m1) * P2, eye2))
