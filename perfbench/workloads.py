"""The three workloads: seeded inputs, one op per input, and the checks.

Every fbconv function is called through its module (`rx.build_lp_sw`, not an
imported name) so that the traced run's wrappers see each call.  The checks
are computed apart from the program: numpy residuals on the LP arrays, the
brute-force oracle, and the defining formulas at fixed parameters.  They run
after the timed loop; the oracle is never timed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from fbconv import converses_ptp as cp
from fbconv import converses_sw as csw
from fbconv import dsbs as ds
from fbconv import lp_core
from fbconv import oracle
from fbconv import probability as pb
from fbconv import relaxations as rx

TOL = 1e-9
# exact_opt_sw enumerates encoder maps in Python at about 20 us each; 20000
# maps keep one oracle call under half a second
ORACLE_MAP_CAP = 20_000
T_GRID = np.geomspace(1e-9, 0.999, 40)


def _sw_instance(rng, n1, n2, m1, m2) -> rx.SwInstance:
    mass = rng.dirichlet(np.ones(n1 * n2)).reshape(n1, n2)
    return rx.SwInstance(pb.JointPmf(mass), pb.CodeSizes(m1, m2))


def _map_count(inst: rx.SwInstance) -> int:
    n1, n2, m1, m2 = inst.dims
    return m1 ** n1 * m2 ** n2


# ---------------------------------------------------------------------------
# relax_lp: every LP relaxation of one SW instance

# (|S1|, |S2|, M1, M2), codebooks smaller than the alphabets.  Three 3x2 /
# M = (2,1) inputs sit in the middle of the cost order, so the median latency
# is the middle one of that class, not a jump between two classes.  The
# first input is the cheapest and serves as the warm-up op.
RELAX_PLAN = [(3, 2, 1, 1), (3, 3, 1, 1), (3, 3, 1, 1),
              (3, 2, 2, 1), (3, 2, 2, 1), (3, 2, 2, 1),
              (2, 3, 1, 2), (2, 3, 1, 2), (3, 3, 2, 1)]

RELAX_KINDS = {
    "sw": (lambda inst: rx.build_lp_sw(inst),
           lambda inst, sol: rx.dual_point_sw_from_solution(inst, sol),
           lambda inst, pt: rx.check_dpsw_feasible(inst, pt, tol=TOL)),
    "si1": (lambda inst: rx.build_lpsi(inst, 1),
            lambda inst, sol: rx.dual_point_si_from_solution(inst, 1, sol),
            lambda inst, pt: rx.check_dpsi_feasible(inst, pt, tol=TOL)),
    "si2": (lambda inst: rx.build_lpsi(inst, 2),
            lambda inst, sol: rx.dual_point_si_from_solution(inst, 2, sol),
            lambda inst, pt: rx.check_dpsi_feasible(inst, pt, tol=TOL)),
    "je": (lambda inst: rx.build_lp_je(inst),
           lambda inst, sol: rx.dual_point_je_from_solution(inst, sol),
           lambda inst, pt: rx.check_dpje_feasible(inst, pt, tol=TOL)),
}


def relax_inputs(rng) -> list:
    return [_sw_instance(rng, *dims) for dims in RELAX_PLAN]


def relax_op(inst: rx.SwInstance) -> dict:
    out = {}
    for kind, (build, dual, check) in RELAX_KINDS.items():
        model = build(inst)
        sol = lp_core.solve(model)
        pt = dual(inst, sol)
        out[kind] = {"model": model, "sol": sol, "violations": check(inst, pt)}
    return out


def relax_summary(res: dict) -> tuple:
    return tuple((r["sol"].value, float(np.sum(r["sol"].dual)), len(r["violations"]))
                 for r in res.values())


def relax_reference(inst: rx.SwInstance) -> dict:
    """Oracle values and the metaconverse, computed once per input."""
    return {"exact_sw": oracle.exact_opt_sw(inst),
            "exact_sid1": oracle.exact_opt_sid(inst, 1),
            "exact_sid2": oracle.exact_opt_sid(inst, 2),
            "meta_sw": csw.meta_sw(inst).raw_value}


def _check_lp(kind: str, model: lp_core.LpModel, sol: lp_core.LpSolution) -> List[str]:
    """Primal and dual feasibility and strong duality of an equality-form
    min LP over x >= 0, from the model's arrays alone."""
    if sol.status != "Optimal":
        return [f"{kind}: status {sol.status}"]
    if (model.sense != "min" or set(model.relations) != {"="}
            or np.any(model.lower != 0.0) or np.any(np.isfinite(model.upper))):
        return [f"{kind}: not an equality-form min LP over x >= 0"]
    A, b, c = model.a_matrix, model.rhs, model.objective
    x, y = sol.primal, sol.dual
    out = []
    scale = max(1.0, float(np.abs(b).max()))
    if np.abs(A @ x - b).max() > TOL * scale:
        out.append(f"{kind}: primal residual {np.abs(A @ x - b).max():.3e}")
    if x.min() < -TOL:
        out.append(f"{kind}: negative primal entry {x.min():.3e}")
    if (A.T @ y - c).max() > TOL:
        out.append(f"{kind}: dual infeasible, max(A^T y - c) = {(A.T @ y - c).max():.3e}")
    if abs(b @ y - c @ x) > TOL:
        out.append(f"{kind}: duality gap {abs(b @ y - c @ x):.3e}")
    if abs(c @ x - sol.value) > TOL:
        out.append(f"{kind}: reported value {sol.value!r} differs from c.x")
    return out


def relax_check(inst: rx.SwInstance, res: dict, ref: dict) -> List[str]:
    out = []
    for kind, r in res.items():
        out += _check_lp(kind, r["model"], r["sol"])
        if r["violations"]:
            out.append(f"{kind}: check_*_feasible reports {len(r['violations'])} violations")
    lp = {kind: r["sol"].value for kind, r in res.items()}
    for w in (1, 2):
        if lp[f"si{w}"] > ref[f"exact_sid{w}"] + TOL:
            out.append(f"LP_SI{w} {lp[f'si{w}']!r} > exact_opt_sid {ref[f'exact_sid{w}']!r}")
    if lp["je"] > lp["sw"] + TOL:
        out.append(f"LP_JE {lp['je']!r} > LP_SW {lp['sw']!r}")
    if lp["sw"] > ref["exact_sw"] + TOL:
        out.append(f"LP_SW {lp['sw']!r} > exact_opt_sw {ref['exact_sw']!r}")
    if ref["meta_sw"] > lp["sw"] + TOL:
        out.append(f"meta_sw {ref['meta_sw']!r} > LP_SW {lp['sw']!r}")
    return out


# ---------------------------------------------------------------------------
# sw_bounds: every SW converse and the dual synthesis for one instance

# alphabet pairs; five cheaper and five dearer inputs around five 5x5 ones
# put the median latency on the middle 5x5 input, whose cost varies less
# with the seed than that of any single one (meta_sw's pivot count does)
SW_PLAN = [(3, 3), (3, 4), (3, 5), (4, 4), (4, 5),
           (5, 5), (5, 5), (5, 5), (5, 5), (5, 5),
           (5, 6), (6, 6), (7, 7), (8, 8)]
# the pair source of the last input: 8x8 after expansion, M1 = M2 = 4
SW_DSBS = ds.DsbsSpec(3, 0.11, 2.0 / 3.0, 2.0 / 3.0)
SYNTH_ALPHA = 0.5


def sw_inputs(rng) -> list:
    out = []
    for n1, n2 in SW_PLAN:
        m1 = int(rng.integers(2, min(3, n1 - 1) + 1))
        m2 = int(rng.integers(2, min(3, n2 - 1) + 1))
        out.append(_sw_instance(rng, n1, n2, m1, m2))
    out.append(ds.expand_joint(SW_DSBS))
    return out


def clipped_witness(inst: rx.SwInstance, rep: cp.BoundReport):
    P = inst.joint.mass
    return tuple(np.clip(np.asarray(rep.witness[k]), 0.0, P)
                 for k in ("phi_hat", "phi_12", "phi_21"))


def sw_op(inst: rx.SwInstance) -> dict:
    r = {"meta_sw": csw.meta_sw(inst), "meta_je": cp.meta_je(inst)}
    for w in (1, 2):
        r[f"meta_sid{w}"] = cp.meta_sid(inst, w)
        r[f"sid_improved{w}"] = cp.sid_improved(inst, w)
        r[f"sid_classic{w}"] = cp.sid_classic(inst, w)
    r["mk_classic"] = csw.mk_classic(inst)
    r["mk_improved"] = csw.mk_improved(inst)
    r["max_converse"] = csw.max_converse(inst)
    ph, p12, p21 = clipped_witness(inst, r["meta_sw"])
    combined = csw.combine_feasible(inst, rx.dpsi_flows(inst, 1, p12),
                                    rx.dpsi_flows(inst, 2, p21),
                                    rx.dpje_flows(inst, ph), SYNTH_ALPHA)
    mk_point = csw.mk_flows(inst, float(r["mk_improved"].witness["t"]))
    synth = {}
    for name, pt in (("combine", combined), ("mk_flows", mk_point)):
        synth[name] = {"objective": rx.dpsw_objective(inst, pt),
                       "violations": rx.check_dpsw_feasible(inst, pt, tol=TOL)}
    return {"reports": r, "synth": synth}


def sw_summary(res: dict) -> tuple:
    return (tuple(rep.raw_value for rep in res["reports"].values())
            + tuple((s["objective"], len(s["violations"])) for s in res["synth"].values()))


def sw_reference(inst: rx.SwInstance) -> dict:
    exact = (oracle.exact_opt_sw(inst) if _map_count(inst) <= ORACLE_MAP_CAP
             else None)
    dsbs_vals = None
    if inst.dims == (8, 8, SW_DSBS.M1, SW_DSBS.M2):   # random inputs have M <= 3
        dsbs_vals = {"dsbs_converse": ds.dsbs_converse(SW_DSBS).raw_value,
                     "dsbs_je_bound": ds.dsbs_je_bound(SW_DSBS).raw_value}
    return {"exact_sw": exact, "dsbs": dsbs_vals}


def sw_check(inst: rx.SwInstance, res: dict, ref: dict) -> List[str]:
    out = []
    reps, synth = res["reports"], res["synth"]
    values = {k: rep.raw_value for k, rep in reps.items()}
    values.update({f"{k}_objective": s["objective"] for k, s in synth.items()})
    if ref["exact_sw"] is not None:
        for k, v in values.items():
            if v > ref["exact_sw"] + TOL:
                out.append(f"{k} {v!r} > exact_opt_sw {ref['exact_sw']!r}")
    top = values["meta_sw"]
    for k in ("meta_je", "meta_sid1", "meta_sid2", "combine_objective",
              "mk_flows_objective"):
        if values[k] > top + TOL:
            out.append(f"{k} {values[k]!r} > meta_sw {top!r}")
    again = csw.meta_sw_eta(inst, *clipped_witness(inst, reps["meta_sw"])).raw_value
    if abs(again - top) > TOL:
        out.append(f"meta_sw_eta at the clipped witness {again!r} != meta_sw {top!r}")
    for k, s in synth.items():
        if s["violations"]:
            out.append(f"{k}: check_dpsw_feasible reports {len(s['violations'])} violations")
    if ref["dsbs"] is not None:
        for k, v in ref["dsbs"].items():
            if v > top + TOL:
                out.append(f"{k} {v!r} > meta_sw {top!r} on the DSBS instance")
    return out


# ---------------------------------------------------------------------------
# dsbs_sweep: the three collapsed bounds at one (n, R1, R2)

# n * R stays below 1024, where dsbs._code_size overflows
DSBS_N = (10, 20, 50, 100, 200, 500, 1000)
DSBS_P = 0.11
H_P = ds.binary_entropy(DSBS_P)


def dsbs_rates(rng) -> list:
    """Two rate pairs outside the SW region (R1 + R2 < 1 + H(p)) and two
    inside it, so the bounds tend to 1 on some and to 0 on others."""
    outside = [tuple(rng.uniform(H_P + 0.03, (1 + H_P) / 2 - 0.03, 2)) for _ in range(2)]
    inside = [tuple(rng.uniform((1 + H_P) / 2 + 0.05, 1.0, 2)) for _ in range(2)]
    return outside + inside


def dsbs_inputs(rng) -> list:
    rates = dsbs_rates(rng)
    return [ds.DsbsSpec(n, DSBS_P, float(r1), float(r2))
            for n in DSBS_N for r1, r2 in rates]


def dsbs_op(spec: ds.DsbsSpec) -> tuple:
    return (ds.dsbs_converse(spec), ds.dsbs_je_bound(spec), ds.dsbs_mk(spec))


def dsbs_summary(res: tuple) -> tuple:
    return tuple((rep.raw_value, rep.witness["t"]) for rep in res)


DSBS_AT = (lambda s, t: ds.dsbs_converse_at(s, t),
           lambda s, t: ds.dsbs_je_at(s, t),
           lambda s, t: ds.dsbs_mk_at(s, t))


def dsbs_check(spec: ds.DsbsSpec, res: tuple, ref=None) -> List[str]:
    out = []
    for rep, at in zip(res, DSBS_AT):
        if not 0.0 <= rep.clamped_value <= 1.0 + TOL:
            out.append(f"{rep.name}: clamped value {rep.clamped_value!r} outside [0, 1]")
        for t in T_GRID:
            v = at(spec, float(t))
            if v > rep.raw_value + TOL:
                out.append(f"{rep.name}: sup {rep.raw_value!r} < value {v!r} at t = {t!r}")
                break
    return out


def dsbs_small_n_check(specs) -> List[str]:
    """At n <= 3, the collapsed metaconverse at t equals meta_sw_eta on the
    expanded instance with flows t/(M1 M2), t P2/M1, t P1/M2, at the rate
    pairs of the workload."""
    out = []
    rates = sorted({(s.R1, s.R2) for s in specs})
    for n in (1, 2, 3):
        for r1, r2 in rates:
            spec = ds.DsbsSpec(n, DSBS_P, float(r1), float(r2))
            inst = ds.expand_joint(spec)
            P = inst.joint.mass
            P1, P2 = P.sum(axis=1), P.sum(axis=0)
            m1, m2 = spec.M1, spec.M2
            for t in T_GRID:
                t = float(t)
                eta1 = np.full(P.shape, t / (m1 * m2))
                eta2 = np.broadcast_to(t * P2[None, :] / m1, P.shape)
                eta3 = np.broadcast_to(t * P1[:, None] / m2, P.shape)
                want = csw.meta_sw_eta(inst, eta1, eta2, eta3).raw_value
                got = ds.dsbs_converse_at(spec, t)
                if abs(got - want) > 1e-12:
                    out.append(f"n={n} R=({r1:.4f},{r2:.4f}) t={t!r}: "
                               f"dsbs_converse_at {got!r} != meta_sw_eta {want!r}")
    return out


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable        # rng -> list of inputs
    op: Callable            # input -> result
    summary: Callable       # result -> tuple compared exactly across passes
    reference: Callable     # input -> values the checks compare against
    check: Callable         # (input, result, reference) -> list of problems
    final_check: Callable   # inputs -> list of problems not tied to one op


WORKLOADS = {
    "relax_lp": Workload("relax_lp", relax_inputs, relax_op, relax_summary,
                         relax_reference, relax_check, lambda inputs: []),
    "sw_bounds": Workload("sw_bounds", sw_inputs, sw_op, sw_summary,
                          sw_reference, sw_check, lambda inputs: []),
    "dsbs_sweep": Workload("dsbs_sweep", dsbs_inputs, dsbs_op, dsbs_summary,
                           lambda spec: None, dsbs_check, dsbs_small_n_check),
}
