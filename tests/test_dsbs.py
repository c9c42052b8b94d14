import csv
import io
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from fbconv.converses_sw import meta_sw_eta
from fbconv.dsbs import (
    DsbsSpec,
    binary_entropy,
    dsbs_converse,
    dsbs_converse_at,
    dsbs_je_at,
    dsbs_je_bound,
    dsbs_mk,
    dsbs_mk_at,
    expand_joint,
    gnuplot_script,
    rate_region,
    sweep,
    sweep_csv,
)
from fbconv.relaxations import InstanceTooLarge

P = 0.11
H = binary_entropy(P)
NAMES = ("dsbs-converse", "dsbs-je", "dsbs-mk")


# --- rate region -------------------------------------------------------------


def test_rate_region():
    assert rate_region(DsbsSpec(10, P, 0.9, 0.9)) == "inside"
    assert rate_region(DsbsSpec(10, P, 0.6, 0.6)) == "outside"
    assert rate_region(DsbsSpec(10, P, H - 0.01, 1.5)) == "outside"
    assert rate_region(DsbsSpec(10, P, (1 + H) / 2, (1 + H) / 2)) == "boundary"
    assert rate_region(DsbsSpec(10, P, H, 1.0)) == "boundary"


# --- sweep output ------------------------------------------------------------


def test_sweep_csv_header_and_round_trip():
    rows = sweep(DsbsSpec(10, P, 0.6, 0.7), [20, 10])
    text = sweep_csv(rows)
    assert text.splitlines()[0] == "n,bound,raw,clamped,t_opt"
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert len(parsed) == len(rows) == 6
    for row, rec in zip(rows, parsed):
        assert int(rec["n"]) == row.n
        assert rec["bound"] == row.bound_name
        assert float(rec["raw"]) == row.raw_value
        assert float(rec["clamped"]) == row.clamped_value
        assert float(rec["t_opt"]) == row.t_opt
    assert [(r.n, r.bound_name) for r in rows] == sorted((n, b) for n in (10, 20)
                                                         for b in NAMES)


def test_gnuplot_script_names():
    script = gnuplot_script("dsbs.csv")
    assert '"dsbs.csv"' in script
    for name in NAMES:
        assert f'"{name}"' in script


# --- clamping and large blocklengths -----------------------------------------


# 2^600 has no exact float integer; dsbs says so with a RuntimeWarning
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_clamped_value_at_most_one():
    # far outside the rate region the sup lands a few ulps above 1
    spec = DsbsSpec(1000, P, 0.6, 0.6)
    for rep in (dsbs_converse(spec), dsbs_je_bound(spec), dsbs_mk(spec)):
        assert rep.clamped_value == min(1.0, max(0.0, rep.raw_value))
        assert 0.0 <= rep.clamped_value <= 1.0
    for row in sweep(spec, [1000]):
        assert row.clamped_value <= 1.0


def test_code_size_past_float_range():
    spec = DsbsSpec(1500, P, 0.7, 0.7)
    with pytest.raises(InstanceTooLarge):
        spec.M1
    rep = dsbs_converse(spec)
    assert math.isfinite(rep.raw_value)
    assert 0.0 <= rep.clamped_value <= 1.0
    assert dsbs_converse_at(spec, rep.witness["t"]) == pytest.approx(rep.raw_value,
                                                                     abs=1e-12)
    for f in (dsbs_je_bound, dsbs_mk):
        assert 0.0 <= f(spec).clamped_value <= 1.0


# --- exact sups ---------------------------------------------------------------


# 2^(n R) past 2^53 has no exact float integer; dsbs says so with a RuntimeWarning
@pytest.mark.filterwarnings(r"ignore:2\^\(n R\):RuntimeWarning")
@pytest.mark.parametrize("n", [1, 2, 3, 10, 50, 200])
@pytest.mark.parametrize("rates", [(0.6, 0.7), (1.0, 0.5), (1 / 3, 1.0), (0.9, 0.95)])
def test_sups_not_below_a_grid_value(n, rates):
    # the sups look only at the switches and the two ends of [0, 1)
    spec = DsbsSpec(n, P, *rates)
    grid = np.geomspace(1e-12, 1.0 - 1e-12, 400)
    for sup, at in ((dsbs_converse, dsbs_converse_at), (dsbs_je_bound, dsbs_je_at),
                    (dsbs_mk, dsbs_mk_at)):
        rep = sup(spec)
        assert at(spec, rep.witness["t"]) == rep.raw_value
        assert max(at(spec, float(t)) for t in grid) <= rep.raw_value + 1e-12
        assert at(spec, 0.0) == 0.0


# --- explicit tensor form ----------------------------------------------------


def test_expand_joint_cap_and_mass():
    with pytest.raises(InstanceTooLarge):
        expand_joint(DsbsSpec(9, P, 0.5, 0.5))
    with pytest.raises(InstanceTooLarge):
        expand_joint(DsbsSpec(3, P, 0.5, 0.5), cap=2)
    inst = expand_joint(DsbsSpec(3, P, 0.5, 0.5))
    mass = inst.joint.mass
    assert mass.shape == (8, 8)
    assert mass.sum() == pytest.approx(1.0, abs=1e-12)
    assert mass[0, 0] == pytest.approx((1 - P) ** 3 / 8, rel=1e-12)
    assert mass[0, 7] == pytest.approx(P ** 3 / 8, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("rates", [(0.6, 0.7), (1.0, 0.5), (1 / 3, 1.0)])
def test_converse_at_matches_meta_sw_eta(n, rates):
    spec = DsbsSpec(n, P, *rates)
    inst = expand_joint(spec)
    mass = inst.joint.mass
    P1, P2 = mass.sum(axis=1), mass.sum(axis=0)
    m1, m2 = spec.M1, spec.M2
    for t in np.geomspace(1e-6, 0.999, 25):
        t = float(t)
        eta1 = np.full(mass.shape, t / (m1 * m2))
        eta2 = np.broadcast_to(t * P2[None, :] / m1, mass.shape)
        eta3 = np.broadcast_to(t * P1[:, None] / m2, mass.shape)
        want = meta_sw_eta(inst, eta1, eta2, eta3).raw_value
        assert dsbs_converse_at(spec, t) == pytest.approx(want, abs=1e-12)


def test_sweep_loads_no_lp_solver():
    # the DSBS bounds solve no LP, so the HiGHS extension stays unloaded until
    # the first solve, and loading it does not import scipy.optimize
    code = textwrap.dedent("""
        import sys
        import numpy as np
        from fbconv import dsbs, lp_core
        core = "scipy.optimize._highspy._core"
        dsbs.sweep(dsbs.DsbsSpec(10, 0.11, 0.5, 0.5), [10, 50, 200])
        assert core not in sys.modules
        assert lp_core._load_highs.cache_info().currsize == 0
        sol = lp_core.solve(lp_core.LpModel("max", [1.0], np.ones((1, 1)), ("<=",), [2.0]))
        assert sol.value == 2.0
        assert lp_core._load_highs.cache_info().currsize == 1
        assert "scipy.optimize" not in sys.modules
    """)
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
