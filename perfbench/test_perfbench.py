"""Tests of the benchmark itself: short runs of every workload, the tracer,
and one corrupted value per family of checks, which must be flagged.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402
from fbconv import converses_ptp, converses_sw, dsbs, lp_core, relaxations  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          stdout=subprocess.PIPE, text=True, cwd=cwd, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run(workload):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_run_gives_per_layer_metrics():
    proc = _run("--workload", "sw_bounds", "--seed", "5", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["correct"] and res["failed"] == 0
    assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    m = {k: v["value"] for k, v in res["metrics"].items()}
    # meta_sw, meta_je and both meta_sid solve LPs in every op
    assert m["lp_core.solve_calls"] >= 4 and m["lp_core.solve_ms"] > 0
    assert m["dsbs.self_ms"] == 0.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run("--workload", "dsbs_sweep", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_latency_stats_tail_needs_forty_samples():
    assert "tail_percentile" not in worker.latency_stats([0.001] * 39)
    st = worker.latency_stats([i / 1000 for i in range(1, 57)])
    assert st["tail_percentile"] == 82 and st["samples_beyond_tail"] >= 10
    assert st["p50_ms"] == pytest.approx(28.5)


def test_tracer_charges_the_lp_inside_meta_sw_to_lp_core():
    inst = wl._sw_instance(np.random.default_rng(0), 3, 3, 2, 2)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, (lp_core, relaxations, converses_ptp, converses_sw))
    try:
        tracer.op = 0
        converses_sw.meta_sw(inst)
        tracer.op = None
    finally:
        tracing.uninstall(undo)
    assert converses_sw.solve is lp_core.solve
    assert not hasattr(converses_sw.meta_sw, "__wrapped__")
    assert tracer.calls == {"converses_sw.meta_sw": 1, "lp_core.solve": 1}
    meta, solve = tracer.spans
    assert solve[0] == "lp_core.solve" and solve[3] == 0
    assert tracer.self_s["converses_sw.meta_sw"] == pytest.approx(
        (meta[2] - meta[1]) - (solve[2] - solve[1]))
    per_layer = tracing.per_layer_metrics(tracer, 1, 0.0)
    assert per_layer["lp_core.solve_ms"] > 0 and per_layer["lp_core.solve_calls"] == 1


# ---------------------------------------------------------------------------
# each family of checks flags a corrupted value


def _relax_case():
    inst = wl._sw_instance(np.random.default_rng(0), 3, 2, 2, 1)
    res, ref = wl.relax_op(inst), wl.relax_reference(inst)
    assert wl.relax_check(inst, res, ref) == []
    return inst, res, ref


def test_relax_check_flags_a_bound_above_the_oracle():
    inst, res, ref = _relax_case()
    sol = res["sw"]["sol"]
    res["sw"]["sol"] = dataclasses.replace(sol, value=ref["exact_sw"] + 1e-3)
    assert any("> exact_opt_sw" in p for p in wl.relax_check(inst, res, ref))


def test_relax_check_flags_a_perturbed_dual_multiplier():
    inst, res, ref = _relax_case()
    sol = res["je"]["sol"]
    y = sol.dual.copy()
    y[0] += 1e-3                     # a normalization row, right-hand side 1
    res["je"]["sol"] = dataclasses.replace(sol, dual=y)
    problems = wl.relax_check(inst, res, ref)
    assert any(p.startswith("je: duality gap") for p in problems)


def test_sw_check_flags_a_bound_above_the_oracle():
    inst = wl._sw_instance(np.random.default_rng(1), 3, 3, 2, 2)
    res, ref = wl.sw_op(inst), wl.sw_reference(inst)
    assert ref["exact_sw"] is not None and wl.sw_check(inst, res, ref) == []
    rep = res["reports"]["mk_improved"]
    res["reports"]["mk_improved"] = dataclasses.replace(rep, raw_value=ref["exact_sw"] + 1e-3)
    assert any(p.startswith("mk_improved") and "exact_opt_sw" in p
               for p in wl.sw_check(inst, res, ref))


def test_sw_check_flags_a_dsbs_bound_above_meta_sw():
    inst = dsbs.expand_joint(wl.SW_DSBS)
    ref = wl.sw_reference(inst)
    assert ref["dsbs"] is not None
    res = wl.sw_op(inst)
    assert wl.sw_check(inst, res, ref) == []
    ref["dsbs"]["dsbs_converse"] = res["reports"]["meta_sw"].raw_value + 1e-3
    assert any("DSBS" in p for p in wl.sw_check(inst, res, ref))


def test_dsbs_check_flags_a_sup_below_a_grid_point():
    spec = dsbs.DsbsSpec(20, wl.DSBS_P, 0.6, 0.6)
    res = wl.dsbs_op(spec)
    assert wl.dsbs_check(spec, res) == []
    top = max(dsbs.dsbs_je_at(spec, float(t)) for t in wl.T_GRID)
    low = dataclasses.replace(res[1], raw_value=top - 1e-3)
    problems = wl.dsbs_check(spec, (res[0], low, res[2]))
    assert len(problems) == 1 and "dsbs-je: sup" in problems[0]


def test_dsbs_check_flags_a_value_above_one():
    spec = dsbs.DsbsSpec(20, wl.DSBS_P, 0.6, 0.6)
    res = wl.dsbs_op(spec)
    high = dataclasses.replace(res[0], clamped_value=1.0 + 1e-6)
    assert any("outside [0, 1]" in p for p in wl.dsbs_check(spec, (high, *res[1:])))


def test_dsbs_small_n_check_flags_a_shifted_collapsed_value(monkeypatch):
    specs = [dsbs.DsbsSpec(10, wl.DSBS_P, 0.6, 0.7)]
    assert wl.dsbs_small_n_check(specs) == []
    orig = dsbs.dsbs_converse_at
    monkeypatch.setattr(dsbs, "dsbs_converse_at", lambda s, t: orig(s, t) + 1e-9)
    assert len(wl.dsbs_small_n_check(specs)) == 3 * len(wl.T_GRID)
