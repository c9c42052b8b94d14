import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbconv.probability import (
    MAX_LP_ENTRIES,
    CodeSizes,
    DistortionSpec,
    InstanceTooLarge,
    JointPmf,
    MassSumMismatch,
    NegativeMass,
    PmfError,
    PmfFormatError,
    SinglePmf,
    ZeroProbability,
    average_entropy,
    entropy_density,
    format_pmf_text,
    marginal,
    parse_pmf_text,
    validate,
)

from conftest import random_joint


def test_validate_shapes():
    p = validate([0.5, 0.5])
    assert isinstance(p, SinglePmf) and p.alphabet_size == 2
    q = validate([[0.25, 0.25], [0.25, 0.25]])
    assert isinstance(q, JointPmf) and q.sizes == (2, 2)


def test_validate_rejects_negative_mass():
    with pytest.raises(NegativeMass):
        validate([-1e-9, 0.5, 0.5 + 1e-9])
    # NaN compares False against 0 and against the sum tolerance alike
    with pytest.raises(PmfError):
        SinglePmf([0.5, 0.5, np.nan])
    with pytest.raises(PmfError):
        JointPmf([[np.nan]])


def test_validate_rejects_sum_mismatch():
    with pytest.raises(MassSumMismatch):
        validate([0.5, 0.5 + 1e-11])
    # within tolerance is fine
    validate([0.5, 0.5 + 1e-13])


def test_no_renormalization_and_immutability():
    p = validate([0.3, 0.7])
    assert p.mass[0] == 0.3  # untouched, not renormalized
    with pytest.raises(ValueError):
        p.mass[0] = 0.5


def test_marginal_both_axes():
    q = validate([[0.7, 0.1], [0.1, 0.1]])
    np.testing.assert_allclose(marginal(q, 1).mass, [0.8, 0.2])
    np.testing.assert_allclose(marginal(q, 2).mass, [0.8, 0.2])
    u = validate([[0.25, 0.25], [0.25, 0.25]])
    np.testing.assert_allclose(marginal(u, 1).mass, [0.5, 0.5])


def test_entropy_density_single():
    p = validate([0.25, 0.75])
    assert entropy_density(p, 0) == pytest.approx(math.log(4))
    with pytest.raises(ZeroProbability):
        entropy_density(validate([1.0, 0.0]), 1)
    assert entropy_density(validate([1.0, 0.0]), 1, zero_to_inf=True) == math.inf


def test_entropy_density_joint_and_conditional():
    q = validate([[0.5, 0.25], [0.0, 0.25]])
    assert entropy_density(q, (0, 1)) == pytest.approx(math.log(4))
    # P(s1=0 | s2=1) = 0.25 / 0.5
    assert entropy_density(q, (0, 1), given=2) == pytest.approx(math.log(2))
    assert entropy_density(q, (1, 0), zero_to_inf=True) == math.inf


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 4), st.integers(2, 4))
def test_chain_rule_pointwise(seed, n1, n2):
    # h(s1,s2) = h(s1|s2) + h(s2) wherever the point has positive mass
    rng = np.random.default_rng(seed)
    q = random_joint(rng, n1, n2)
    p2 = marginal(q, 2)
    for s1 in range(n1):
        for s2 in range(n2):
            if q.mass[s1, s2] <= 0:
                continue
            lhs = entropy_density(q, (s1, s2))
            rhs = entropy_density(q, (s1, s2), given=2) + entropy_density(p2, s2)
            assert abs(lhs - rhs) <= 1e-10


def test_average_entropy_chain_rule():
    rng = np.random.default_rng(7)
    q = random_joint(rng, 3, 4)
    h12 = average_entropy(q)
    h2 = average_entropy(marginal(q, 2))
    h1g2 = average_entropy(q, given=2)
    assert h12 == pytest.approx(h1g2 + h2, abs=1e-12)


def test_code_sizes_validation():
    CodeSizes(1)
    CodeSizes(4, 2)
    with pytest.raises(PmfError):
        CodeSizes(0)
    with pytest.raises(PmfError):
        CodeSizes(2, -1)
    for bad in (1.5, float("nan"), float("inf")):
        with pytest.raises(PmfError):
            CodeSizes(bad)
    # an integral float is stored as the int it stands for
    sizes = CodeSizes(2.0, np.int64(3))
    assert (sizes.M1, sizes.M2) == (2, 3) and type(sizes.M1) is type(sizes.M2) is int


@pytest.mark.parametrize("sizes", [(True,), (False,), ("3",), (None,), (np.bool_(True),),
                                   (2, True), (2, "1")])
def test_code_sizes_reject_what_is_not_a_number(sizes):
    # True once gave M1 = 1, and "3" and None a bare TypeError
    with pytest.raises(PmfError, match="positive integer"):
        CodeSizes(*sizes)


@pytest.mark.parametrize("make", [SinglePmf, JointPmf, validate])
@pytest.mark.parametrize("mass", ["abc", [0.5, "x"], {"a": 1.0}])
def test_pmfs_reject_what_is_not_a_number(make, mass):
    # SinglePmf("abc") once raised numpy's ValueError
    with pytest.raises(PmfError, match="real numbers"):
        make(mass)


@pytest.mark.parametrize("make, mass, match", [
    (SinglePmf, [], "empty alphabet"), (JointPmf, np.zeros((2, 0)), "empty alphabet"),
    (validate, [], "empty alphabet"), (SinglePmf, [[0.5, 0.5]], "1-D"),
    (JointPmf, [0.5, 0.5], "2-D"), (JointPmf, [[[1.0]]], "2-D"), (validate, [[[1.0]]], "ndim=3"),
    (validate, 1.0, "ndim=0")])
def test_pmfs_refuse_an_empty_or_misshapen_mass(make, mass, match):
    with pytest.raises(PmfError, match=match):
        make(mass)


@pytest.mark.parametrize("text, match", [
    ("pmf1\n0 1\n", "bad header"), ("pmf2 2\n0 0 1\n", "bad header"),
    ("pmf1 0\n", ">= 1"), ("pmf2 2 -1\n", ">= 1"),
    ("pmf1 2\n0\n", "bad pmf1 entry"), ("pmf2 2 2\n0 0.5\n1 1 0.5\n", "bad pmf2 entry")])
def test_parse_refuses_a_malformed_header_or_entry(text, match):
    with pytest.raises(PmfFormatError, match=match):
        parse_pmf_text(text)


@pytest.mark.parametrize("d, level", [([[0, 1]], "x"), ([[0, 1]], None), ([[0, 1]], True),
                                      ("ab", 0.0)])
def test_distortion_spec_rejects_what_is_not_a_number(d, level):
    with pytest.raises(PmfError):
        DistortionSpec(d, level)


def test_code_sizes_must_have_a_float_value():
    # 2^1024 - 1 rounds up past the largest float; M1 M2 counts, not each alone
    CodeSizes(int(np.finfo(float).max))
    CodeSizes(2 ** 511, 2 ** 511)
    for bad in ((2 ** 1024 - 1,), (2 ** 1100,), (2 ** 600, 2 ** 600), (2, 2 ** 1023)):
        with pytest.raises(InstanceTooLarge, match="float range"):
            CodeSizes(*bad)


def test_distortion_spec():
    d = DistortionSpec(np.array([[0.0, 1.0], [np.inf, 0.0]]), 0.5)
    assert d.within().tolist() == [[True, False], [False, True]]
    assert d.excess().tolist() == [[False, True], [True, False]]
    ll = DistortionSpec.lossless(3)
    assert ll.within().tolist() == np.eye(3, dtype=bool).tolist()
    with pytest.raises(PmfError):
        DistortionSpec(np.array([[-0.1]]))
    with pytest.raises(PmfError):
        DistortionSpec(np.array([[0.0]]), -1.0)


@pytest.mark.parametrize("make", [lambda: DistortionSpec(np.ones((3, 0))),
                                  lambda: DistortionSpec(np.ones((0, 2))),
                                  lambda: DistortionSpec.lossless(0)])
def test_distortion_spec_refuses_an_empty_matrix(make):
    # no letter or no reconstruction would leave every consumer an empty max
    with pytest.raises(PmfError, match="nonempty"):
        make()


SINGLE, JOINT = [0.5, 0.3, 0.2], [[0.5, 0.25], [0.0, 0.25]]


@pytest.mark.parametrize("mass, indices, cond", [
    (SINGLE, -1, None), (SINGLE, 3, None), (SINGLE, 1.0, None), (SINGLE, True, None),
    (JOINT, (-1, 0), None), (JOINT, (0, -1), None), (JOINT, (0, 2), None),
    (JOINT, (0.0, 1), None), (JOINT, (0, 1, 1), None), (JOINT, 0, None),
    (JOINT, (0, 1), True), (JOINT, (0, 1), 0), (JOINT, (0, 1), 2.0), (SINGLE, 0, 1)])
def test_entropy_density_refuses_a_bad_index_or_given(mass, indices, cond):
    # a negative index would wrap to the last letter, and True read as 1
    with pytest.raises(PmfError):
        entropy_density(validate(mass), indices, given=cond)


def test_entropy_density_takes_numpy_integers():
    assert entropy_density(validate(SINGLE), np.int64(2)) == -math.log(0.2)
    q = validate(JOINT)
    assert entropy_density(q, (np.int32(0), np.int64(1)), given=np.int64(1)) \
        == entropy_density(q, (0, 1), given=1)


@pytest.mark.parametrize("axis", [True, False, 0, 3, 1.0])
def test_marginal_refuses_an_axis_other_than_1_or_2(axis):
    q = validate(JOINT)
    with pytest.raises(PmfError, match="axis"):
        marginal(q, axis)
    with pytest.raises(PmfError, match="axis"):
        average_entropy(q, given=axis)


def test_parse_pmf1():
    p = parse_pmf_text("pmf1 3\n0 0.2\n2 0.8\n")
    assert isinstance(p, SinglePmf)
    np.testing.assert_allclose(p.mass, [0.2, 0.0, 0.8])


def test_parse_pmf2_with_comments():
    q = parse_pmf_text("# source\npmf2 2 2\n0 0 0.25\n0 1 0.25\n1 0 0.25\n1 1 0.25\n")
    assert isinstance(q, JointPmf)
    assert q.sizes == (2, 2)


def test_parse_errors():
    with pytest.raises(PmfFormatError):
        parse_pmf_text("")
    with pytest.raises(PmfFormatError):
        parse_pmf_text("pmf3 2\n")
    with pytest.raises(PmfFormatError):
        parse_pmf_text("pmf1 2\n5 1.0\n")
    with pytest.raises(PmfFormatError):
        parse_pmf_text("pmf1 2\n0 one\n")
    with pytest.raises(MassSumMismatch):
        parse_pmf_text("pmf1 2\n0 0.5\n1 0.6\n")
    with pytest.raises(PmfError):
        parse_pmf_text("pmf1 2\n0 nan\n1 0.5\n")


def test_parse_refuses_a_header_past_the_size_cap():
    # 10^10 cells of floats would be 74.5 GiB; nothing is allocated before the check
    with pytest.raises(InstanceTooLarge):
        parse_pmf_text("pmf2 100000 100000\n0 0 1\n")
    tracemalloc.start()
    try:
        with pytest.raises(InstanceTooLarge):
            parse_pmf_text(f"pmf1 {MAX_LP_ENTRIES + 1}\n0 1\n")
        assert tracemalloc.get_traced_memory()[1] < 2 ** 20   # not the 512 MiB array
    finally:
        tracemalloc.stop()


def test_parse_refuses_a_repeated_index():
    # the listed masses sum to 1.5, which a later entry must not hide by overwriting
    with pytest.raises(PmfFormatError, match="twice"):
        parse_pmf_text("pmf1 2\n0 0.5\n0 0.5\n1 0.5\n")
    with pytest.raises(PmfFormatError, match="twice"):
        parse_pmf_text("pmf2 2 2\n0 0 0.5\n1 1 0.5\n1 1 0.0\n")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.booleans())
def test_pmf_text_roundtrip(seed, joint):
    rng = np.random.default_rng(seed)
    if joint:
        p = random_joint(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
    else:
        from conftest import random_single

        p = random_single(rng, int(rng.integers(1, 6)))
    q = parse_pmf_text(format_pmf_text(p))
    assert type(q) is type(p)
    np.testing.assert_array_equal(q.mass, p.mass)
