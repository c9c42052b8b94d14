import numpy as np
import pytest

from fbconv.oracle import EnumerationTooLarge, exact_opt_sc, exact_opt_sid, exact_opt_sw
from fbconv.probability import CodeSizes, DistortionSpec, JointPmf, SinglePmf
from fbconv.relaxations import ScInstance, SwInstance

from conftest import random_joint, random_single, sw_je_instance


def test_sc_anchors():
    two = ScInstance(SinglePmf([0.7, 0.3]), 2, DistortionSpec.lossless(2))
    assert exact_opt_sc(two) == pytest.approx(0.0, abs=1e-12)
    four = ScInstance(SinglePmf([0.25] * 4), 2, DistortionSpec.lossless(4))
    assert exact_opt_sc(four) == pytest.approx(0.5, abs=1e-12)


def test_sw_uniform_anchor():
    inst = SwInstance(JointPmf([[0.25, 0.25], [0.25, 0.25]]), CodeSizes(1, 1))
    assert exact_opt_sw(inst) == pytest.approx(0.75, abs=1e-12)


def test_sid_uniform_anchor():
    inst = SwInstance(JointPmf([[0.25, 0.25], [0.25, 0.25]]), CodeSizes(1, 1))
    assert exact_opt_sid(inst, 1) == pytest.approx(0.5, abs=1e-12)
    assert exact_opt_sid(inst, 2) == pytest.approx(0.5, abs=1e-12)


def test_monotone_in_codebook_size():
    rng = np.random.default_rng(7)
    for _ in range(20):
        src = random_single(rng, 4)
        errs = [exact_opt_sc(ScInstance(src, M, DistortionSpec.lossless(4)))
                for M in (1, 2, 3, 4)]
        assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))
        assert errs[-1] == pytest.approx(0.0, abs=1e-12)


def test_side_information_and_joint_encoding_help():
    rng = np.random.default_rng(11)
    for _ in range(20):
        inst = SwInstance(random_joint(rng, 3, 2), CodeSizes(2, 1))
        sw = exact_opt_sw(inst)
        # a joint encoder can emulate separate ones
        assert exact_opt_sc(sw_je_instance(inst)) <= sw + 1e-12
        # a decoder told s2 exactly and graded only on s1 does at least as well
        assert exact_opt_sid(inst, 1) <= sw + 1e-12
        assert exact_opt_sid(inst, 2) <= sw + 1e-12


def test_lossy_decoder_uses_within_sets():
    # distortion 0-1 ball of radius 1 on a line of four symbols
    d = np.abs(np.arange(4)[:, None] - np.arange(4)[None, :]).astype(float)
    inst = ScInstance(SinglePmf([0.25] * 4), 1, DistortionSpec(d, 1.0))
    # one message, decoder picks sh = 1 covering {0, 1, 2}
    assert exact_opt_sc(inst) == pytest.approx(0.25, abs=1e-12)


def test_enumeration_cap():
    src = SinglePmf(np.full(12, 1.0 / 12))
    inst = ScInstance(src, 8, DistortionSpec.lossless(12))
    with pytest.raises(EnumerationTooLarge):
        exact_opt_sc(inst)
    with pytest.raises(EnumerationTooLarge):
        exact_opt_sw(SwInstance(JointPmf(np.full((8, 8), 1 / 64)), CodeSizes(8, 8)))
