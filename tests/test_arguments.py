"""Every public entry reads its arguments through probability's readers, so a
str, None, a bool, NaN, an int past float range or a wrong-shaped flow is
refused with PmfError (InfeasibleInput for the synthesis constructors'
scalars), never with numpy's or the interpreter's own error, and never built
into a value."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from fbconv import converses_ptp as cp
from fbconv import converses_sw as cs
from fbconv import dsbs
from fbconv import relaxations as rx
from fbconv.probability import CodeSizes, DistortionSpec, PmfError

from conftest import random_joint, random_single

SW = rx.SwInstance(random_joint(np.random.default_rng(501), 2, 2, allow_zeros=False),
                   CodeSizes(2, 1))
SC = rx.ScInstance(random_single(np.random.default_rng(502), 3, allow_zeros=False), 2,
                   DistortionSpec.lossless(3))
SPEC = dsbs.DsbsSpec(10, 0.11, 0.6, 0.7)
Z = np.zeros((2, 2))

# (name, call of one bad scalar): each takes a t, b, theta, eta or level
SCALAR_ENTRIES = {
    "kv_tilted_at": lambda x: cp.kv_tilted_at(SC, x),
    "palzer_timo_at": lambda x: cp.palzer_timo_at(SC, x),
    "lossless_gamma_at": lambda x: cp.lossless_gamma_at(SC.source, 2, x),
    "sid_improved_at": lambda x: cp.sid_improved_at(SW, x, 2),
    "sid_classic_at": lambda x: cp.sid_classic_at(SW, x),
    "mk_classic_at": lambda x: cs.mk_classic_at(SW, x),
    "mk_improved_at": lambda x: cs.mk_improved_at(SW, x),
    "dsbs_converse_at": lambda x: dsbs.dsbs_converse_at(SPEC, x),
    "dsbs_je_at": lambda x: dsbs.dsbs_je_at(SPEC, x),
    "dsbs_mk_at": lambda x: dsbs.dsbs_mk_at(SPEC, x),
    "np_alpha": lambda x: cp.np_alpha(SC.source, SC.source, x),
    "meta_sw_eta": lambda x: cs.meta_sw_eta(SW, x, Z, Z),
    "DistortionSpec.level": lambda x: DistortionSpec(np.ones((2, 2)), x),
    "DsbsSpec.p": lambda x: dsbs.DsbsSpec(10, x, 0.5, 0.5),
    "DsbsSpec.R2": lambda x: dsbs.DsbsSpec(10, 0.11, 0.5, x),
    "check_feasible.tol": lambda x: rx.check_feasible(SW, rx.dpje_flows(SW, Z), tol=x),
}


def _synthesis(name):
    f1, f2, fj = rx.dpsi_flows(SW, 1, Z), rx.dpsi_flows(SW, 2, Z), rx.dpje_flows(SW, Z)
    return {"mk_flows": lambda x: cs.mk_flows(SW, x),
            "combine_feasible": lambda x: cs.combine_feasible(SW, f1, f2, fj, x)}[name]


@pytest.mark.parametrize("bad", ["abc", "0.5", None, True, 1j, 10 ** 400],
                         ids=["str", "numeric-str", "None", "bool", "complex", "huge-int"])
@pytest.mark.parametrize("name", list(SCALAR_ENTRIES))
def test_scalar_entries_refuse_what_is_no_real_number(name, bad):
    # each once raised a bare TypeError, ValueError or OverflowError, or read
    # "0.5" as 0.5 and True as 1
    with pytest.raises(PmfError):
        SCALAR_ENTRIES[name](bad)


@pytest.mark.parametrize("bad", ["abc", None, True, 1j, 10 ** 400, math.nan],
                         ids=["str", "None", "bool", "complex", "huge-int", "nan"])
@pytest.mark.parametrize("name", ["mk_flows", "combine_feasible"])
def test_synthesis_scalars_refuse_what_is_no_real_number(name, bad):
    with pytest.raises(cs.InfeasibleInput):
        _synthesis(name)(bad)


@pytest.mark.parametrize("call", [
    lambda: DistortionSpec.lossless(-1),
    lambda: DistortionSpec.lossless(2.5),
    lambda: DistortionSpec.lossless(True),
    lambda: DistortionSpec.lossless("3"),
    lambda: DistortionSpec.lossless(2 ** 40),   # a 2^80-entry matrix
    lambda: rx.check_feasible(SW, rx.dpje_flows(SW, Z), tol=math.inf),
    lambda: rx.check_feasible(SW, rx.dpje_flows(SW, Z), tol=math.nan),
    lambda: rx.dp_flows_sc(SC, np.zeros(1)),
    lambda: rx.dp_flows_sc(SC, 0.0),
    lambda: rx.dp_flows_sc(SC, np.zeros((3, 1))),
    *(lambda shape=shape: rx.dpje_flows(SW, np.zeros(shape))
      for shape in [(1, 2), (2, 1), (1, 1)]),
    *(lambda shape=shape, which=which: rx.dpsi_flows(SW, which, np.zeros(shape))
      for shape in [(1, 2), (2, 1), (1, 1)] for which in (1, 2)),
    lambda: rx.dpje_flows(SW, "ab"),
    lambda: cp.meta_lossy_z(SC, [0.1, 0.2]),
    lambda: cp.meta_lossy_z(SC, None),
    lambda: cs.meta_sw_eta(SW, Z, np.zeros((1, 2)), Z),
    lambda: cs.meta_sw_eta(SW, Z, Z, None),
    lambda: cp.TiltedInfo("abc"),
    lambda: dsbs.DsbsSpec(10, 0.11, 10 ** 400, 0.5),
    lambda: dsbs.DsbsSpec(np.bool_(True), 0.11, 0.5, 0.5),
])
def test_calls_that_leaked_an_untyped_error_or_built_a_value(call):
    # lossless(-1) and lossless(2.5) raised numpy's ValueError and TypeError,
    # and lossless(True) built a 1-letter spec; tol = +inf listed no violation
    # of a perturbed point and NaN every entry of a feasible one; a phi of a
    # wrong shape was broadcast into a point
    with pytest.raises(PmfError):
        call()


def test_check_feasible_tol_keeps_minus_inf_and_takes_numpy_scalars():
    pt = rx.dpje_flows(SW, SW.joint.mass)
    # -inf lists every dual constraint, one per column of the LP
    assert len(rx.check_feasible(SW, pt, tol=-math.inf)) == rx.build_lp_je(SW).num_variables
    assert rx.check_feasible(SW, pt, tol=np.float32(0.0)) == rx.check_feasible(SW, pt, tol=0)
    assert rx.check_feasible(SW, pt, tol=np.float64(1e-12)) == rx.check_feasible(SW, pt)


@pytest.mark.parametrize("x", [0.5, np.float64(0.5), np.float32(0.5), Fraction(1, 2)])
def test_scalar_entries_take_any_real_number(x):
    # every reader compares the value as given, then reads it as a float
    for name in ("kv_tilted_at", "sid_classic_at", "mk_improved_at", "dsbs_je_at", "np_alpha"):
        assert SCALAR_ENTRIES[name](x) == SCALAR_ENTRIES[name](0.5)
    assert cp.palzer_timo_at(SC, np.int64(-3)) == cp.palzer_timo_at(SC, -3.0)
    assert DistortionSpec(np.eye(2), x).level == 0.5
    assert type(DistortionSpec(np.eye(2), np.int64(1)).level) is float
    got, want = cs.mk_flows(SW, x), cs.mk_flows(SW, 0.5)
    for f in dataclasses.fields(want):
        assert np.array_equal(getattr(got, f.name), getattr(want, f.name))


def test_dsbs_spec_caps_the_blocklength_at_construction():
    # n = 10^5 is admitted; past 10^6 the spec is refused before the bounds
    # allocate their arrays of n + 1 floats (about 80 B per n)
    dsbs.DsbsSpec(10 ** 5, 0.11, 0.9, 0.9)
    dsbs.DsbsSpec(np.int64(dsbs._MAX_N), 0.11, 0.9, 0.9)
    for n in (dsbs._MAX_N + 1, 10 ** 8, 10 ** 400):
        with pytest.raises(dsbs.InstanceTooLarge, match="blocklength cap"):
            dsbs.DsbsSpec(n, 0.11, 0.9, 0.9)
