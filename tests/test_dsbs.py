import csv
import io
import itertools
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from fbconv import dsbs
from fbconv.converses_sw import meta_sw, meta_sw_eta
from fbconv.dsbs import (
    DsbsSpec,
    _flow_curve,
    _mk_curve,
    _sup,
    _weights,
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
from fbconv.probability import PmfError
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


@pytest.mark.parametrize("rates", [(math.nan, 0.6), (0.6, math.nan), (math.inf, 0.6),
                                   (0.6, math.inf)])
def test_spec_rejects_rates_that_are_not_finite(rates):
    # these rates once reached the code sizes as a bare ValueError or
    # OverflowError, and rate_region read a NaN rate as "boundary"
    for call in (dsbs_converse, dsbs_je_bound, dsbs_mk, rate_region, lambda spec: spec.M1):
        with pytest.raises(PmfError, match="finite"):
            call(DsbsSpec(10, P, *rates))


@pytest.mark.parametrize("args", [(3, "0.1", 0.5, 0.5), (3, None, 0.5, 0.5), (3, 0.1, None, 0.5),
                                  (3, 0.1, 0.5, "0.5"), (3, 0.1, True, 0.5), (True, 0.1, 0.5, 0.5)])
def test_spec_rejects_what_is_not_a_number(args):
    # a str or None p or rate once raised a bare TypeError
    with pytest.raises(PmfError):
        DsbsSpec(*args)


# --- sweep output ------------------------------------------------------------


@pytest.mark.parametrize("n_list", [[2.5], [True], [10, 20.0], ["10"], [None]])
def test_sweep_rejects_a_blocklength_the_spec_rejects(n_list):
    # 2.5 and True once ran as n = 2 and n = 1
    with pytest.raises(PmfError, match="n must be a positive integer"):
        sweep(DsbsSpec(10, P, 0.6, 0.7), n_list)


def test_sweep_csv_header_and_round_trip():
    rows = sweep(DsbsSpec(10, P, 0.6, 0.7), [20, 10])
    text = sweep_csv(rows)
    assert text.splitlines()[0] == "n,bound,raw,clamped,t_opt,log_t_opt"
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert len(parsed) == len(rows) == 6
    for row, rec in zip(rows, parsed):
        assert int(rec["n"]) == row.n
        assert rec["bound"] == row.bound_name
        assert float(rec["raw"]) == row.raw_value
        assert float(rec["clamped"]) == row.clamped_value
        assert float(rec["t_opt"]) == row.t_opt
        assert float(rec["log_t_opt"]) == row.log_t_opt
    assert [(r.n, r.bound_name) for r in rows] == sorted((n, b) for n in (10, 20)
                                                         for b in NAMES)


CURVES = {"dsbs-converse": lambda s: _flow_curve(s, je=False),
          "dsbs-je": lambda s: _flow_curve(s, je=True), "dsbs-mk": _mk_curve}


def test_sweep_rows_log_t_opt_reproduces_raw():
    # the last spec's t_opt is 1.9e-319, from which dsbs_converse_at and
    # dsbs_je_at miss raw_value
    specs = _random_specs(np.random.default_rng(43), 40, 2000, 1.5)
    specs.append(DsbsSpec(1809, 0.4999999, 0.7636295599324776, 0.6510912322014089))
    for spec in specs:
        for row in sweep(spec, [spec.n]):
            assert CURVES[row.bound_name](spec)[0](row.log_t_opt) == row.raw_value, (spec, row)


def test_gnuplot_script_names():
    script = gnuplot_script("dsbs.csv")
    assert '"dsbs.csv"' in script
    for name in NAMES:
        assert f'"{name}"' in script


# --- clamping and large blocklengths -----------------------------------------


def test_clamped_value_at_most_one():
    # far outside the rate region the sup lands a few ulps above 1
    spec = DsbsSpec(1000, P, 0.6, 0.6)
    for rep in (dsbs_converse(spec), dsbs_je_bound(spec), dsbs_mk(spec)):
        assert rep.clamped_value == min(1.0, max(0.0, rep.raw_value))
        assert 0.0 <= rep.clamped_value <= 1.0
    for row in sweep(spec, [1000]):
        assert row.clamped_value <= 1.0


def test_code_size_past_exact_integers_warns_the_caller():
    # 2^60 has no exact float integer: the bounds, which read only log M, run
    # under pyproject's error::RuntimeWarning, and reading M1 warns its caller
    spec = DsbsSpec(100, P, 0.6, 0.6)
    assert dsbs_converse(spec).raw_value == 0.9905333759945456
    with pytest.warns(RuntimeWarning, match="nominal") as caught:
        assert spec.M1 == 2 ** 60
    assert [w.filename for w in caught] == [__file__]


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


def test_witness_log_t_reproduces_underflowed_sups():
    # the maximizing t underflows to 0.0 here, where every bound is 0; log t keeps it
    spec = DsbsSpec(10000, P, 0.55, 0.55)
    for sup, curve in ((dsbs_converse, _flow_curve(spec, je=False)),
                       (dsbs_je_bound, _flow_curve(spec, je=True)), (dsbs_mk, _mk_curve(spec))):
        rep = sup(spec)
        assert rep.raw_value > 0.5 and rep.witness["t"] == 0.0
        assert curve[0](rep.witness["log_t"]) == rep.raw_value


# --- the joint-encoder sup by prefix sums ------------------------------------


def _random_specs(rng, count, n_max, r_max):
    """count specs with p cycling through 1e-9, 1e-3, uniform and just below
    1/2, n log-uniform in [1, n_max] and rates uniform in [0, r_max]."""
    specs = []
    for i in range(count):
        p = (1e-9, 1e-3, float(rng.uniform(1e-6, 0.5 - 1e-6)), 0.4999999)[i % 4]
        n = int(round(math.exp(rng.uniform(0.0, math.log(n_max)))))
        specs.append(DsbsSpec(n, p, *(float(r) for r in rng.uniform(0.0, r_max, 2))))
    return specs


def test_je_sup_matches_the_per_candidate_sup():
    # the oracle is the sup dsbs_converse still takes: the integrand itself at
    # every candidate; the two may pick different candidates where those tie
    specs = _random_specs(np.random.default_rng(0), 240, 3000, 2.0)
    specs += [DsbsSpec(3000, p, 0.55, 1.9) for p in (1e-3, P, 0.4999999)]   # penalties overflow
    specs.append(DsbsSpec(10000, P, 0.55, 0.55))   # t underflows at the sup
    through_t = 0
    for spec in specs:
        rep = dsbs_je_bound(spec)
        assert abs(rep.raw_value - _sup(_flow_curve(spec, je=True))[0]) <= 1e-15, spec
        t, log_t = rep.witness["t"], rep.witness["log_t"]
        assert _flow_curve(spec, je=True)[0](log_t) == rep.raw_value, spec
        if t > 0.0 and math.log(t) == log_t:
            through_t += 1
            assert dsbs_je_at(spec, t) == rep.raw_value, spec
    assert through_t >= len(specs) // 5


@pytest.mark.parametrize("n", [10, 1000])
@pytest.mark.parametrize("rates", [(0.9, 0.9), (0.55, 0.55), (0.3, 1.6)])
def test_je_bound_evaluates_its_integrand_once(monkeypatch, n, rates):
    # the search replaces one O(n) integrand call per candidate
    calls = []
    flow_curve = dsbs._flow_curve

    def counted(spec, je):
        raw, switches = flow_curve(spec, je)

        def counted_raw(log_t):
            calls.append(log_t)
            return raw(log_t)

        return counted_raw, switches

    monkeypatch.setattr(dsbs, "_flow_curve", counted)
    rep = dsbs_je_bound(DsbsSpec(n, P, *rates))
    assert calls == [rep.witness["log_t"]]


def test_je_bound_at_n_1e5():
    spec = DsbsSpec(100000, P, 0.75, 0.75)
    rep = dsbs_je_bound(spec)
    assert math.isfinite(rep.raw_value) and 0.0 < rep.clamped_value < 1.0
    assert _flow_curve(spec, je=True)[0](rep.witness["log_t"]) == rep.raw_value


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_je_bound_is_meta_sw_up_to_one_bit(n):
    # exact while R1, R2 <= 1, by the argument in dsbs_je_bound's docstring;
    # above one bit meta_sw may cover mass with a cheaper flow
    rates = (0.0, 0.3, 0.5, 0.8, 1.0, 1.2, 1.5, 2.0)
    for p in (P, 0.3):
        for r1, r2 in itertools.combinations_with_replacement(rates, 2):
            spec = DsbsSpec(n, p, r1, r2)
            got, exact = dsbs_je_bound(spec).raw_value, meta_sw(expand_joint(spec)).raw_value
            if r2 <= 1.0:
                assert got == pytest.approx(exact, abs=1e-12), spec
            else:
                assert got <= exact + 1e-12, spec


def test_je_bound_is_below_meta_sw_above_one_bit():
    spec = DsbsSpec(1, P, 0.0, 1.5)
    gap = meta_sw(expand_joint(spec)).raw_value - dsbs_je_bound(spec).raw_value
    assert gap == pytest.approx(0.055, abs=1e-12)


def test_measured_order_of_the_three_bounds():
    # mk <= converse <= je: measured, not proved
    for spec in _random_specs(np.random.default_rng(1), 300, 1000, 1.0):
        mk, conv = dsbs_mk(spec).raw_value, dsbs_converse(spec).raw_value
        assert mk <= conv + 1e-12 and conv <= dsbs_je_bound(spec).raw_value + 1e-12, spec


@pytest.mark.parametrize("n", [1, 10, 1000])
def test_log_factorials_are_lgamma_per_element(n):
    log_comb, _ = _weights(DsbsSpec(n, P, 0.5, 0.5))
    log_fact = [math.lgamma(m + 1.0) for m in range(n + 1)]
    want = [log_fact[n] - log_fact[k] - log_fact[n - k] for k in range(n + 1)]
    np.testing.assert_array_equal(log_comb, want)


@pytest.mark.parametrize("n", [1, 10, 1000, 20000])
def test_class_masses_sum_to_one(n):
    # log C(n, k) comes from math.lgamma; its rounding shows in sum_k C(n,k) q_k
    log_comb, log_q = _weights(DsbsSpec(n, P, 0.5, 0.5))
    assert abs(math.fsum(np.exp(log_comb + log_q)) - 1.0) <= 1e-11


# --- explicit tensor form ----------------------------------------------------


def test_expand_joint_cap_and_mass():
    with pytest.raises(InstanceTooLarge):
        expand_joint(DsbsSpec(9, P, 0.5, 0.5))
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
    # the DSBS bounds solve no LP and need numpy alone, and building an SW
    # relaxation, its quotient included, solves none either, so no scipy
    # module is loaded until the first solve, and that loads the HiGHS
    # extension without scipy.optimize or scipy.special
    code = textwrap.dedent("""
        import sys
        import numpy as np
        import fbconv.converses_sw, fbconv.oracle
        from fbconv import dsbs, lp_core, relaxations
        from fbconv.probability import CodeSizes, JointPmf
        dsbs.sweep(dsbs.DsbsSpec(10, 0.11, 0.5, 0.5), [10, 50, 200])
        inst = relaxations.SwInstance(JointPmf(np.full((3, 3), 1 / 9)), CodeSizes(2, 2))
        assert relaxations.build_lp_sw(inst).warm.quotient is not None
        assert not [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
        assert lp_core._load_highs.cache_info().currsize == 0
        sol = lp_core.solve(lp_core.LpModel("max", [1.0], ([0, 1], [0], [1.0]), ("<=",), [2.0]))
        assert sol.value == 2.0
        assert lp_core._load_highs.cache_info().currsize == 1
        assert "scipy.optimize" not in sys.modules
        assert "scipy.special" not in sys.modules
    """)
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
