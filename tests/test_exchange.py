"""Exchanging the two sources: SwInstance.oriented and the field exchange.

Side 2 of every side-information path is side 1 of inst.oriented(2), so a
bad `which` must fail in oriented with PmfError wherever it enters; every
pair bound must read the same on the instance and on its swapped pair; and
the letter exchange must carry each pair-table family onto one family of
the same table, both ways.
"""

import numpy as np
import pytest

from conftest import certified_solve, random_joint, random_sw_sizes
from fbconv import converses_ptp as cp
from fbconv import converses_sw as csw
from fbconv import oracle
from fbconv import relaxations as rx
from fbconv.lp_core import solve
from fbconv.probability import CodeSizes, JointPmf, PmfError

# a float reached "BC"[which - 1] as a bare TypeError, and True read side 1
BAD_WHICH = (0, 3, "2", 1.0, 2.0, True, np.float64(2.0))


@pytest.mark.parametrize("which", BAD_WHICH)
def test_bad_which_raises_pmf_error(which):
    # the reported case: which = 3, 0 and "x" silently read side 2 in exact_opt_sid
    inst = rx.SwInstance(JointPmf([[0.4, 0.1, 0.1], [0.05, 0.3, 0.05]]), CodeSizes(1, 1))
    assert oracle.exact_opt_sid(inst, 1) == pytest.approx(0.2, abs=1e-12)
    assert oracle.exact_opt_sid(inst, 2) == pytest.approx(0.3, abs=1e-12)
    sol = solve(rx.build_lpsi(inst, 1))
    calls = [
        lambda: rx.build_lpsi(inst, which),
        lambda: rx._layouts(inst, rx.DualPointSI, which),
        lambda: rx.dpsi_flows(inst, which, inst.joint.mass),
        lambda: rx.dual_point_from_solution(inst, sol, rx.DualPointSI, which),
        lambda: rx.dual_point_si_from_solution(inst, which, sol),
        lambda: cp.meta_sid(inst, which),
        lambda: cp.sid_improved(inst, which),
        lambda: cp.sid_classic(inst, which),
        lambda: cp.sid_improved_at(inst, 0.5, which),
        lambda: cp.sid_classic_at(inst, 0.5, which),
        lambda: oracle.exact_opt_sid(inst, which),
        lambda: inst.oriented(which),
    ]
    for call in calls:
        with pytest.raises(PmfError, match="which must be 1 or 2"):
            call()
    # a point built with a bad which fails at its first use, in oriented
    pt = rx.dual_point_from_solution(inst, sol, rx.DualPointSI, 1)
    bad = rx.DualPointSI(which, pt.lam_s, pt.lam_c)
    with pytest.raises(PmfError, match="which must be 1 or 2"):
        rx.check_feasible(inst, bad)
    with pytest.raises(PmfError, match="which must be 1 or 2"):
        rx.dual_objective(inst, bad)


def test_oriented_swaps_sources_and_code_sizes():
    inst = rx.SwInstance(JointPmf([[0.4, 0.1, 0.1], [0.05, 0.3, 0.05]]), CodeSizes(2, 3))
    assert inst.oriented(1) is inst
    sw = inst.oriented(2)
    assert sw.dims == (3, 2, 3, 2)
    assert np.array_equal(sw.joint.mass, inst.joint.mass.T)
    back = sw.oriented(2)
    assert back.dims == inst.dims and np.array_equal(back.joint.mass, inst.joint.mass)
    # the swapped pair is built once per instance, while which is checked on every call
    assert inst.oriented(2) is sw and inst.oriented(np.int64(2)) is sw
    for which in (0, 3, "2"):
        with pytest.raises(PmfError, match="which must be 1 or 2"):
            inst.oriented(which)
    assert inst == rx.SwInstance(inst.joint, inst.sizes) and "swapped" not in repr(inst)


def test_exchanging_the_sources_changes_no_bound():
    rng = np.random.default_rng(1208)
    for _ in range(60):
        inst = rx.SwInstance(random_joint(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4))),
                             random_sw_sizes(rng))
        # built by hand, so that the test does not rest on SwInstance.oriented
        sw = rx.SwInstance(JointPmf(inst.joint.mass.T), CodeSizes(inst.sizes.M2, inst.sizes.M1))
        for bound in (csw.meta_sw, csw.mk_classic, csw.mk_improved, csw.max_converse, cp.meta_je):
            assert bound(sw).raw_value == pytest.approx(bound(inst).raw_value, abs=1e-12)
        assert oracle.exact_opt_sw(sw) == pytest.approx(oracle.exact_opt_sw(inst), abs=1e-12)
        builds = [rx.build_lp_je]
        if np.prod(inst.dims) <= 9:
            builds.append(rx.build_lp_sw)
        for build in builds:
            assert certified_solve(build(sw)).value == pytest.approx(
                certified_solve(build(inst)).value, abs=1e-12)
        # side 2 of the instance is side 1 of the swapped pair
        for bound in (cp.meta_sid, cp.sid_improved, cp.sid_classic):
            assert bound(inst, 2).raw_value == pytest.approx(bound(sw, 1).raw_value, abs=1e-12)
        assert oracle.exact_opt_sid(inst, 2) == pytest.approx(oracle.exact_opt_sid(sw, 1),
                                                              abs=1e-12)


def _exchange_is_involutive_bijection(table):
    """Whether rx._exchanged carries a random point of `table` on a pair with
    distinct letter sizes onto a point of the swapped pair's table, every
    family onto a different one, and back onto the point itself."""
    inst = rx.SwInstance(JointPmf(np.full((2, 3), 1.0 / 6.0)), CodeSizes(4, 5))
    sizes, _, rows, _, _ = table(inst)
    sw_sizes = table(inst.oriented(2))[0]
    rng = np.random.default_rng(7)
    point = {name: rng.random(tuple(sizes[k] for k in letters)) for name, letters, _, _ in rows}
    try:
        there = rx._exchanged(rows, point)
        back = rx._exchanged(rows, there)
    except (KeyError, ValueError):   # a family with no image, or letters einsum refuses
        return False
    return (sorted(there) == sorted(point)
            and all(there[name].shape == tuple(sw_sizes[k] for k in letters)
                    for name, letters, _, _ in rows)
            and sorted(back) == sorted(point)
            and all(np.array_equal(back[name], point[name]) for name in point))


@pytest.mark.parametrize("table", [rx._sw_table, rx._je_table], ids=["sw", "je"])
def test_exchange_maps_each_pair_table_onto_itself(table, monkeypatch):
    assert _exchange_is_involutive_bijection(table)
    right = "bayxvudc"
    for i in range(len(right)):
        # one wrong letter: position i takes its neighbour's image
        wrong = right[:i] + right[(i + 1) % len(right)] + right[i + 1:]
        monkeypatch.setattr(rx, "_EXCHANGE", str.maketrans("abxyuvcd", wrong))
        assert not _exchange_is_involutive_bijection(table), wrong
