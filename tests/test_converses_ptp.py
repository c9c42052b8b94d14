import math
import warnings

import numpy as np
import pytest

from fbconv import converses_ptp
from fbconv.converses_ptp import (
    TiltedInfo,
    _breakpoint_sup,
    _sorted_unique,
    _threshold_curve,
    hypothesis_testing_bound,
    kv_tilted_at,
    kv_tilted_improved,
    lossless_gamma_at,
    lossless_gamma_bound,
    meta_je,
    meta_lossless,
    meta_lossy,
    meta_lossy_z,
    meta_sid,
    np_alpha,
    palzer_timo,
    palzer_timo_at,
    sid_classic,
    sid_classic_at,
    sid_improved,
    sid_improved_at,
)
from fbconv.oracle import exact_opt_sc, exact_opt_sid
from fbconv.probability import (
    CodeSizes,
    DistortionSpec,
    InstanceTooLarge,
    JointPmf,
    PmfError,
    SinglePmf,
    ZeroProbability,
)
from fbconv.relaxations import ScInstance, SwInstance, build_lp_sc

from conftest import certified_solve, random_joint, random_single, sw_je_instance


def _lossless(p, M):
    src = SinglePmf(p)
    return ScInstance(src, M, DistortionSpec.lossless(src.alphabet_size))


def _sw(mass, M1, M2):
    return SwInstance(JointPmf(mass), CodeSizes(M1, M2))


def _dsbs1(p=0.25):
    return JointPmf([[(1 - p) / 2, p / 2], [p / 2, (1 - p) / 2]])


# --- meta_lossy -------------------------------------------------------------


def test_meta_lossy_uniform4():
    rep = meta_lossy(_lossless([0.25] * 4, 2))
    assert rep.raw_value == pytest.approx(0.5, abs=1e-9)
    assert rep.clamped_value == rep.raw_value


def test_meta_lossy_skewed():
    rep = meta_lossy(_lossless([0.7, 0.2, 0.1], 1))
    assert rep.raw_value == pytest.approx(0.3, abs=1e-9)


def test_meta_lossy_witness_reevaluates():
    rng = np.random.default_rng(7)
    for _ in range(20):
        src = random_single(rng, int(rng.integers(2, 6)))
        inst = ScInstance(src, int(rng.integers(1, 4)),
                          DistortionSpec.lossless(src.alphabet_size))
        rep = meta_lossy(inst)
        phi = rep.witness["phi"]
        assert np.all(phi >= 0.0) and np.all(phi <= src.mass)
        assert meta_lossy_z(inst, phi).raw_value == rep.raw_value


def test_meta_lossy_lossy_example():
    # radius-1 distortion on a path: every reconstruction covers itself and
    # its neighbors, so M=1 already covers 3 of the 4 symbols
    d = np.array([[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]], float)
    inst = ScInstance(SinglePmf([0.25] * 4), 1, DistortionSpec(d, 1.0))
    rep = meta_lossy(inst)
    assert rep.raw_value == pytest.approx(0.25, abs=1e-9)
    assert exact_opt_sc(inst) == pytest.approx(0.25, abs=1e-12)


def test_meta_lossy_below_oracle_and_lp():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        src = random_single(rng, n)
        M = int(rng.integers(1, n + 1))
        d = rng.integers(0, 3, size=(n, n)).astype(float)
        np.fill_diagonal(d, 0.0)
        inst = ScInstance(src, M, DistortionSpec(d, float(rng.choice([0.0, 1.0]))))
        rep = meta_lossy(inst)
        assert rep.raw_value <= exact_opt_sc(inst) + 1e-9
        assert rep.raw_value <= certified_solve(build_lp_sc(inst)).value + 1e-7


def test_meta_lossy_lp_duals_certify(monkeypatch):
    # the capped max-form LP: 0 <= phi <= P, and a <= row per reconstruction
    solved = []

    def spy(model):
        solved.append(model)
        return certified_solve(model)

    monkeypatch.setattr(converses_ptp, "solve", spy)
    rng = np.random.default_rng(12)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        d = rng.integers(0, 3, size=(n, int(rng.integers(1, 6)))).astype(float)
        inst = ScInstance(random_single(rng, n), int(rng.integers(1, n + 2)),
                          DistortionSpec(d, float(rng.choice([0.0, 1.0]))))
        meta_lossy(inst)
    assert len(solved) == 40
    assert all(np.isfinite(m.upper).any() for m in solved)


def test_meta_lossy_z_rejects_bad_input():
    inst = _lossless([0.5, 0.5], 1)
    with pytest.raises(Exception):
        meta_lossy_z(inst, [-0.1, 0.2])
    with pytest.raises(Exception):
        meta_lossy_z(inst, [0.1, 0.2, 0.3])


def test_meta_lossy_z_rejects_nan_and_takes_inf():
    # a NaN z reported raw_value nan with clamped_value 0.0
    inst = _lossless([0.5, 0.3, 0.2], 1)
    with pytest.raises(PmfError, match="not NaN"):
        meta_lossy_z(inst, [0.1, np.nan, 0.1])
    # min{P, inf} = P
    P = inst.source.mass
    assert meta_lossy_z(inst, [np.inf] * 3).raw_value == meta_lossy_z(inst, P).raw_value


# --- tilted and tail bounds -------------------------------------------------


def test_kv_matches_explicit_lossless_tilt():
    rng = np.random.default_rng(3)
    for _ in range(10):
        src = random_single(rng, 4, allow_zeros=False)
        inst = ScInstance(src, 2, DistortionSpec.lossless(4))
        a = kv_tilted_improved(inst)
        b = kv_tilted_improved(inst, TiltedInfo.lossless(src))
        assert a.raw_value == pytest.approx(b.raw_value, abs=1e-9)


def test_tilted_info_rejects_zero_mass():
    with pytest.raises(ZeroProbability):
        TiltedInfo.lossless(SinglePmf([1.0, 0.0]))


def test_lossless_chain():
    # lossless_gamma <= kv (lossless tilt) <= meta_lossless, pointwise in value
    rng = np.random.default_rng(19)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        src = random_single(rng, n, allow_zeros=False)
        M = int(rng.integers(1, n + 1))
        inst = ScInstance(src, M, DistortionSpec.lossless(n))
        g = lossless_gamma_bound(src, M).raw_value
        k = kv_tilted_improved(inst).raw_value
        m = meta_lossless(src, M).raw_value
        assert g <= k + 1e-9
        assert k <= m + 1e-9


def test_kv_below_meta_lossy_on_lossy_instances():
    rng = np.random.default_rng(23)
    for _ in range(15):
        n = int(rng.integers(2, 5))
        src = random_single(rng, n)
        d = rng.integers(0, 3, size=(n, n)).astype(float)
        np.fill_diagonal(d, 0.0)
        inst = ScInstance(src, int(rng.integers(1, 3)), DistortionSpec(d, 1.0))
        assert kv_tilted_improved(inst).raw_value <= meta_lossy(inst).raw_value + 1e-9


def test_kv_witness_reevaluates():
    rng = np.random.default_rng(29)
    for _ in range(20):
        src = random_single(rng, 5, allow_zeros=False)
        inst = ScInstance(src, 2, DistortionSpec.lossless(5))
        rep = kv_tilted_improved(inst)
        assert kv_tilted_at(inst, rep.witness["t"]) == rep.raw_value


@pytest.mark.parametrize("j", [[800.0, 0.0, 0.0], [710.0, 0.0, 0.0], [-800.0, 0.0, 1.0],
                               [1e308, -1e308, 0.0]])
def test_kv_refuses_a_tilt_past_float_range(j):
    # the spread of j leaves float range: a weight P e^(j - max j) is 0 or
    # subnormal, and for the last the subtraction itself overflows
    inst = _lossless([0.5, 0.3, 0.2], 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # a RuntimeWarning would not be a PmfError
        with pytest.raises(PmfError):
            kv_tilted_improved(inst, TiltedInfo(j))
        with pytest.raises(PmfError):
            kv_tilted_at(inst, 0.3, TiltedInfo(j))


def test_kv_is_invariant_to_a_constant_tilt_shift():
    # w = P e^(j + c) scales every coefficient and the penalty by e^c, and t by e^-c
    rng = np.random.default_rng(41)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        src = random_single(rng, n)
        d = rng.integers(0, 3, size=(n, n)).astype(float)
        np.fill_diagonal(d, 0.0)
        inst = ScInstance(src, int(rng.integers(1, n + 1)), DistortionSpec(d, 1.0))
        jv = rng.normal(size=n)
        base = kv_tilted_improved(inst, TiltedInfo(jv)).raw_value
        for c in (-30.0, -5.0, 7.0, 40.0):
            assert kv_tilted_improved(inst, TiltedInfo(jv + c)).raw_value \
                == pytest.approx(base, abs=1e-12)


@pytest.mark.parametrize("shift", [710.0, 1e4, -1e4])
def test_kv_takes_a_tilt_whose_values_leave_float_range_but_whose_spread_does_not(shift):
    # P e^j overflows or underflows for every symbol here, yet the bound
    # only sees j up to a constant
    inst = _lossless([0.5, 0.3, 0.2], 2)
    assert kv_tilted_improved(inst, TiltedInfo([shift] * 3)).raw_value == \
        kv_tilted_improved(inst, TiltedInfo([0.0] * 3)).raw_value
    rng = np.random.default_rng(43)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        src = random_single(rng, n)
        d = rng.integers(0, 3, size=(n, n)).astype(float)
        np.fill_diagonal(d, 0.0)
        inst = ScInstance(src, int(rng.integers(1, n + 1)), DistortionSpec(d, 1.0))
        jv = rng.normal(scale=3.0, size=n)
        rep = kv_tilted_improved(inst, TiltedInfo(jv + shift))
        assert rep.raw_value == pytest.approx(
            kv_tilted_improved(inst, TiltedInfo(jv)).raw_value, abs=1e-12)
        t = rep.witness["t"]
        assert t == 0.0 or t >= np.finfo(float).tiny
        assert kv_tilted_at(inst, t, TiltedInfo(jv + shift)) == rep.raw_value


def test_palzer_timo_values():
    assert palzer_timo(_lossless([0.25] * 4, 2)).raw_value == pytest.approx(
        0.5, abs=1e-9)
    assert palzer_timo(_lossless([0.7, 0.3], 1)).raw_value == pytest.approx(
        0.3, abs=1e-9)
    # a tilt of the wrong length is refused by the sup and by the fixed-beta form
    inst = _lossless([0.5, 0.3, 0.2], 1)
    with pytest.raises(PmfError):
        palzer_timo(inst, TiltedInfo([0.1]))
    with pytest.raises(PmfError):
        palzer_timo_at(inst, 0.05, TiltedInfo([0.1]))


def test_palzer_timo_witness_and_oracle():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        src = random_single(rng, n)
        M = int(rng.integers(1, n + 1))
        inst = ScInstance(src, M, DistortionSpec.lossless(n))
        rep = palzer_timo(inst)
        assert palzer_timo_at(inst, rep.witness["beta"]) == rep.raw_value
        assert rep.raw_value <= exact_opt_sc(inst) + 1e-9


# --- Neyman-Pearson ---------------------------------------------------------


def test_np_alpha_example():
    assert np_alpha(SinglePmf([0.5, 0.5]), SinglePmf([0.9, 0.1]), 0.1) \
        == pytest.approx(0.5, abs=1e-12)


def test_np_alpha_trivial_cases():
    P = SinglePmf([0.3, 0.7])
    Q = SinglePmf([0.5, 0.5])
    assert np_alpha(P, Q, 1.0) == 0.0
    assert np_alpha(P, Q, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert np_alpha(P, P, 0.25) == pytest.approx(0.75, abs=1e-12)


def test_np_alpha_refuses_a_negative_or_nan_theta():
    P = SinglePmf([0.3, 0.7])
    for theta in (math.nan, -1.0, -1e-300):
        with pytest.raises(PmfError):
            np_alpha(P, P, theta)
    for theta in (1.0, 2.0, math.inf):
        assert np_alpha(P, P, theta) == 0.0


@pytest.mark.parametrize("call", [
    lambda: TiltedInfo([0.1, math.inf]), lambda: TiltedInfo([math.nan]),
    lambda: TiltedInfo([[0.1, 0.2]]), lambda: TiltedInfo(0.1),
    lambda: np_alpha(SinglePmf([0.5, 0.5]), SinglePmf([0.2, 0.3, 0.5]), 0.1),
    lambda: hypothesis_testing_bound(_lossless([0.5, 0.5], 1), SinglePmf([0.2, 0.3, 0.5]))])
def test_tilts_and_references_of_the_wrong_shape_are_refused(call):
    with pytest.raises(PmfError):
        call()


def alpha_sup_form(P: SinglePmf, Q: SinglePmf, mstar: float) -> float:
    """sup over beta >= 0 of sum_s min{P(s), beta Q(s)} - beta * mstar,
    maximized over the likelihood-ratio breakpoints."""
    p, q = P.mass, Q.mass
    if p.shape != q.shape:
        raise PmfError("P and Q must share an alphabet")
    pos = q > 0
    betas = np.unique(np.concatenate([[0.0], p[pos] / q[pos]]))
    val, _ = _breakpoint_sup(
        lambda b: np.minimum(p, b[:, None] * q).sum(axis=1) - b * mstar, betas, p.size)
    return float(val)


def test_np_alpha_equals_sup_form():
    rng = np.random.default_rng(37)
    for _ in range(300):
        n = int(rng.integers(2, 7))
        P = random_single(rng, n)
        Q = random_single(rng, n)
        theta = float(rng.uniform(0, 1))
        assert np_alpha(P, Q, theta) == pytest.approx(
            alpha_sup_form(P, Q, theta), abs=1e-9)


def test_ht_uniform_and_vacuous():
    rep = hypothesis_testing_bound(_lossless([0.25] * 4, 1))
    assert rep.raw_value == pytest.approx(0.75, abs=1e-9)
    assert not rep.vacuous
    vac = hypothesis_testing_bound(_lossless([0.5, 0.5], 2))
    assert vac.vacuous and vac.raw_value == 0.0


def test_ht_below_meta_lossy():
    rng = np.random.default_rng(41)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        src = random_single(rng, n)
        inst = ScInstance(src, int(rng.integers(1, n)), DistortionSpec.lossless(n))
        Q = random_single(rng, n, allow_zeros=False)
        for ref in (None, Q):
            assert hypothesis_testing_bound(inst, ref).raw_value \
                <= meta_lossy(inst).raw_value + 1e-9


# --- lossless forms ---------------------------------------------------------


def test_meta_lossless_values():
    assert meta_lossless(SinglePmf([0.25] * 4), 2).raw_value == pytest.approx(
        0.5, abs=1e-9)
    assert meta_lossless(SinglePmf([0.7, 0.3]), 1).raw_value == pytest.approx(
        0.3, abs=1e-9)
    # an integral float M is the int it stands for
    assert meta_lossless(SinglePmf([0.25] * 4), 2.0).raw_value == 0.5


def test_meta_lossless_caps_equal_lp():
    rng = np.random.default_rng(43)
    for _ in range(30):
        src = random_single(rng, int(rng.integers(2, 7)))
        M = int(rng.integers(1, 5))
        a = meta_lossless(src, M).raw_value
        b = meta_lossy(_lossless(src.mass, M)).raw_value
        assert a == pytest.approx(b, abs=1e-9)


def _caps_loop(P, M):
    """Reference: the best cap among {P(s)} and 0, one cap at a time."""
    return max(float(np.minimum(P, c).sum() - M * c)
               for c in np.unique(np.concatenate([[0.0], P])))


def test_meta_lossless_matches_caps_loop():
    rng = np.random.default_rng(44)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        # about half the sources have tied masses
        counts = rng.integers(0, 3, size=n) + (np.arange(n) == 0)
        src = random_single(rng, n) if rng.random() < 0.5 else \
            SinglePmf(counts / counts.sum())
        for M in range(1, n + 2):
            got, want = meta_lossless(src, M).raw_value, _caps_loop(src.mass, M)
            assert want - 1e-15 <= got <= want


def test_meta_lossless_witness_reevaluates():
    rng = np.random.default_rng(47)
    for _ in range(20):
        src = random_single(rng, 5)
        rep = meta_lossless(src, 2)
        phi = np.asarray(rep.witness["phi"])
        assert phi.sum() - 2 * phi.max() == pytest.approx(rep.raw_value, abs=1e-9)


@pytest.mark.parametrize("M", [0, -1, 1.5])
def test_lossless_bounds_reject_bad_code_size(M):
    src = SinglePmf([0.3, 0.7])
    for bound in (meta_lossless, lossless_gamma_bound):
        with pytest.raises(PmfError):
            bound(src, M)


def test_code_size_past_float_range_is_typed():
    # each of these once raised a bare OverflowError on float(M)
    src, M = SinglePmf([0.5, 0.3, 0.2]), 2 ** 1100
    lossy = lambda: ScInstance(src, M, DistortionSpec.lossless(3))
    for call in (lambda: meta_lossless(src, M), lambda: lossless_gamma_bound(src, M),
                 lambda: meta_lossy(lossy()), lambda: kv_tilted_improved(lossy()),
                 lambda: palzer_timo(lossy()), lambda: hypothesis_testing_bound(lossy())):
        with pytest.raises(InstanceTooLarge, match="float range"):
            call()


def test_lossless_gamma_values():
    assert lossless_gamma_bound(SinglePmf([0.7, 0.3]), 1).raw_value \
        == pytest.approx(0.3, abs=1e-9)
    assert lossless_gamma_bound(SinglePmf([0.25] * 4), 2.0).raw_value \
        == lossless_gamma_bound(SinglePmf([0.25] * 4), 2).raw_value
    assert lossless_gamma_bound(SinglePmf([0.25] * 4), 2).raw_value \
        == pytest.approx(0.5, abs=1e-9)


def test_lossless_gamma_witness_reevaluates():
    rng = np.random.default_rng(53)
    for _ in range(25):
        src = random_single(rng, int(rng.integers(2, 7)))
        M = int(rng.integers(1, 4))
        rep = lossless_gamma_bound(src, M)
        assert lossless_gamma_at(src, M, rep.witness["t"]) == rep.raw_value


# --- the threshold-curve builder ---------------------------------------------


def _cell_loop(p, c, pen, closed, t, counted=-1):
    """The threshold integrand at one t, cell by cell; the cell `counted` is
    in the closed event whatever the float comparison says."""
    if closed:
        head = sum(pi for i, (pi, ci) in enumerate(zip(p, c)) if pi <= t * ci or i == counted)
    else:
        head = sum(min(pi, t * ci) for pi, ci in zip(p, c))
    return head - float(pen(np.array([t]))[0])


@pytest.mark.parametrize("kinked", [False, True])
@pytest.mark.parametrize("closed", [False, True])
def test_threshold_curve_matches_a_cell_loop_and_a_dense_grid(closed, kinked):
    rng = np.random.default_rng(89 + 2 * closed + kinked)
    for trial in range(60):
        n = int(rng.integers(1, 9))
        p = rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.75)   # some zero-mass cells
        c = rng.uniform(0.05, 2.0, n)
        top = 1.0 if trial % 3 else math.inf   # with top = 1 some switches p / c lie above it
        pos = p > 0
        breaks = p[pos] / c[pos]
        slope = rng.uniform(0.0, 3.0)
        if kinked:   # slope t plus nondecreasing pieces a min{k, t}, kinks k at switches
            kinks = rng.choice(breaks[breaks <= top], size=min(2, int((breaks <= top).sum())),
                               replace=False) if np.any(breaks <= top) else np.array([])
            a = rng.uniform(0.0, 2.0, kinks.size)
            pen = lambda t: slope * t + (a * np.minimum(kinks, t[:, None])).sum(axis=1)
        else:
            pen = lambda t: slope * t
        fn, cands, cells = _threshold_curve(p, c, pen, closed, top)
        assert cells == n
        expect = np.concatenate([[0.0], breaks[breaks <= top], [top] if top < math.inf else []])
        np.testing.assert_array_equal(cands, np.unique(expect))

        far = min(top, 1.5 * breaks.max()) if breaks.size else 1.0
        ts = rng.uniform(0.0, far, 20)
        for t, v in zip(ts, fn(ts)):
            assert v == pytest.approx(_cell_loop(p, c, pen, closed, t), abs=1e-12)
        for k in np.flatnonzero(pos):   # at its switch a closed event counts its cell
            t = p[k] / c[k]
            assert fn(np.array([t]))[0] == pytest.approx(
                _cell_loop(p, c, pen, closed, t, counted=k), abs=1e-12)

        val, _ = _breakpoint_sup(fn, cands, cells)
        grid = np.linspace(0.0, far, 4001)
        assert val >= fn(grid).max() - 1e-12


def test_threshold_curve_refuses_a_bad_coefficient_on_a_cell_with_mass():
    pen = lambda t: t
    _threshold_curve([0.0, 1.0], [0.0, 2.0], pen, closed=False)   # zero mass: any c
    for c in ([1.0, 0.0], [1.0, -1.0], [1.0, math.inf], [1.0, math.nan], [1.0, 1e-320]):
        with pytest.raises(PmfError):
            _threshold_curve([0.0, 1.0], c, pen, closed=True)


def test_sorted_unique_is_np_unique_bit_for_bit():
    # repeats, +-inf and both signed zeros, which compare equal
    rng = np.random.default_rng(3)
    pool = np.array([-math.inf, math.inf, 0.0, -0.0, 1.0, -2.5, 1e-300, 5e-324])
    for size in (0, 1, 2, 7, 100, 1000):
        x = np.concatenate([rng.choice(pool, size), rng.normal(size=size // 2)])
        x = np.concatenate([x, rng.choice(x, size // 3) if x.size else x])
        rng.shuffle(x)
        got, want = _sorted_unique(x), np.unique(x)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


# --- pair bounds ------------------------------------------------------------


def test_meta_je_values():
    rep = meta_je(_sw(_dsbs1().mass, 1, 1))
    assert rep.raw_value == pytest.approx(0.625, abs=1e-9)
    assert rep.witness["phi"].shape == (2, 2)
    assert meta_je(_sw([[0.5, 0.0], [0.0, 0.5]], 1, 1)).raw_value \
        == pytest.approx(0.5, abs=1e-9)


def test_meta_sid_values():
    indep = _sw([[0.25, 0.25], [0.25, 0.25]], 1, 1)
    assert meta_sid(indep, 1).raw_value == pytest.approx(0.5, abs=1e-9)
    assert meta_sid(indep, 2).raw_value == pytest.approx(0.5, abs=1e-9)
    diag = _sw([[0.5, 0.0], [0.0, 0.5]], 1, 1)
    assert meta_sid(diag, 1).raw_value == pytest.approx(0.0, abs=1e-9)


def test_meta_sid_below_oracle():
    rng = np.random.default_rng(59)
    for _ in range(15):
        joint = random_joint(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        inst = SwInstance(joint, CodeSizes(int(rng.integers(1, 3)),
                                           int(rng.integers(1, 3))))
        for which in (1, 2):
            rep = meta_sid(inst, which)
            assert rep.raw_value <= exact_opt_sid(inst, which) + 1e-9
            phi = rep.witness["phi"]
            P = inst.joint.mass
            assert np.all(phi >= 0.0) and np.all(phi <= P)
            M = inst.sizes.M1 if which == 1 else inst.sizes.M2
            val = phi.sum() - M * (phi.max(axis=0).sum() if which == 1
                                   else phi.max(axis=1).sum())
            assert val == pytest.approx(rep.raw_value, abs=1e-12)


def test_sid_chain_and_anchor():
    indep = _sw([[0.25, 0.25], [0.25, 0.25]], 1, 1)
    assert sid_improved(indep, 1).raw_value == pytest.approx(0.5, abs=1e-9)
    assert sid_classic(indep, 1).raw_value == pytest.approx(0.5, abs=1e-9)
    rng = np.random.default_rng(61)
    for _ in range(40):
        joint = random_joint(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        inst = SwInstance(joint, CodeSizes(int(rng.integers(1, 4)),
                                           int(rng.integers(1, 4))))
        for which in (1, 2):
            c = sid_classic(inst, which).raw_value
            i = sid_improved(inst, which).raw_value
            m = meta_sid(inst, which).raw_value
            assert c <= i + 1e-9
            assert i <= m + 1e-9


def test_sid_witnesses_reevaluate():
    rng = np.random.default_rng(67)
    for _ in range(20):
        joint = random_joint(rng, 3, 3)
        inst = SwInstance(joint, CodeSizes(2, 2))
        for which in (1, 2):
            ri = sid_improved(inst, which)
            rc = sid_classic(inst, which)
            assert sid_improved_at(inst, ri.witness["t"], which) == ri.raw_value
            assert sid_classic_at(inst, rc.witness["t"], which) == rc.raw_value


def test_meta_je_below_flat_oracle():
    rng = np.random.default_rng(71)
    for _ in range(10):
        joint = random_joint(rng, 2, 3)
        inst = SwInstance(joint, CodeSizes(2, 1))
        rep = meta_je(inst)
        assert rep.raw_value <= exact_opt_sc(sw_je_instance(inst)) + 1e-9


def test_report_fields():
    rep = meta_lossless(SinglePmf([0.6, 0.4]), 3)
    assert rep.clamped_value == max(0.0, rep.raw_value)
    assert rep.paper_eq and isinstance(rep.paper_eq, str)
    assert rep.name == "meta-lossless"
