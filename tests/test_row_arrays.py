"""The LP builders emit exactly the row arrays of the dense matrices they replaced.

Each reference below is the dense builder the library used before it built
the row-wise arrays directly.  np.nonzero of a dense matrix, read row-major,
is what the solver was handed then; the builders must hand it the same
arrays, entry for entry and in the same order, so that every value, primal
and dual stays the same.
"""

import itertools

import numpy as np
import pytest

from fbconv import converses_ptp
from fbconv import relaxations as rx
from fbconv.probability import CodeSizes, DistortionSpec, SinglePmf

from conftest import peak_mib, random_joint


def _dense_build(table):
    """(A, b) of a table: +1 on every entry of a family's lifted block in the
    row its row letters pick, -1 on the one minus-block entry each row reads."""
    sizes, col_blocks, families = table
    cols, rows = rx._layouts(*table)
    letters = dict(col_blocks)
    A = np.zeros((rows.total, cols.total))
    b = np.zeros(rows.total)
    for name, row_letters, lifted, minus in families:
        for block, grid, value in ((lifted, letters[lifted], 1.0),
                                   (minus, row_letters, -1.0)):
            if block is not None:
                at = dict(zip(grid, np.indices(tuple(sizes[k] for k in grid))))
                A[rows.offsets[name] + rx._ravel(at, sizes, row_letters),
                  cols.offsets[block] + rx._ravel(at, sizes, letters[block])] = value
        if minus is None:
            b[rows.slice_of(name)] = 1.0
    return A, b


def _dense_covered_mass(inst, caps):
    """The covered-mass LP's A: a row per kept cap u, v(s1), w(s2), with a 1 on
    every cell (s1, s2), row-major, that the cap sums."""
    n1, n2, _, _ = inst.dims
    keep = np.repeat([c in caps for c in "uvw"], [1, n1, n2])
    s1, s2 = np.indices((n1, n2)).reshape(2, -1)
    row = np.cumsum(keep) - 1
    A = np.zeros((int(keep.sum()), n1 * n2))
    for f, cap_of_cell in (("u", 0 * s1), ("v", 1 + s1), ("w", 1 + n1 + s2)):
        if f in caps:
            A[row[cap_of_cell], np.arange(n1 * n2)] = 1.0
    return A


def assert_rows_of(model, A):
    """model.a_rows equal the arrays np.nonzero of A gives, in its order."""
    rows, cols = np.nonzero(A)
    start, index, value = model.a_rows
    np.testing.assert_array_equal(start, np.concatenate([[0], np.cumsum(
        np.bincount(rows, minlength=A.shape[0]))]))
    np.testing.assert_array_equal(index, cols)
    np.testing.assert_array_equal(value, A[rows, cols])
    assert (model.rhs.size, model.num_variables) == A.shape


def _sw_instances():
    rng = np.random.default_rng(41)
    return [rx.SwInstance(random_joint(rng, n1, n2), CodeSizes(m1, m2))
            for n1, n2, m1, m2 in itertools.product((1, 2, 3), (1, 2, 3), (1, 2), (1, 2))]


SW_KINDS = {
    "sc": (lambda i: rx.build_lp_sc(rx.sw_je_instance(i)),
           lambda i: rx._sc_table(rx.sw_je_instance(i))),
    "si1": (lambda i: rx.build_lpsi(i, 1), lambda i: rx._si_table(i)),
    "si2": (lambda i: rx.build_lpsi(i, 2), lambda i: rx._si_table(i.oriented(2))),
    "je": (rx.build_lp_je, rx._je_table),
    "sw": (rx.build_lp_sw, rx._sw_table),
}


@pytest.mark.parametrize("kind", SW_KINDS)
def test_relaxation_rows_match_dense_reference(kind):
    build, table = SW_KINDS[kind]
    instances = _sw_instances()
    assert len(instances) == 36
    for inst in instances:
        model = build(inst)
        A, b = _dense_build(table(inst))
        assert_rows_of(model, A)
        np.testing.assert_array_equal(model.rhs, b)
        np.testing.assert_array_equal(model.a_matrix, A)


@pytest.mark.parametrize("M", [1, 2, 3])
def test_lossy_sc_rows_match_dense_reference(M):
    d = np.abs(np.arange(4)[:, None] - np.arange(5)[None, :]).astype(float)
    inst = rx.ScInstance(SinglePmf([0.4, 0.3, 0.2, 0.1]), M, DistortionSpec(d, 1.0))
    A, b = _dense_build(rx._sc_table(inst))
    model = rx.build_lp_sc(inst)
    assert_rows_of(model, A)
    np.testing.assert_array_equal(model.rhs, b)


@pytest.mark.parametrize("caps", ["uvw", "v", "w"])
def test_covered_mass_rows_match_dense_reference(caps):
    for inst in _sw_instances():
        model, _ = converses_ptp._covered_mass_lp(inst, caps)
        assert_rows_of(model, _dense_covered_mass(inst, caps))


def test_sw_build_3x3_m22_stays_small():
    # the 1750 x 1812 constraint matrix has 6,612 nonzeros; a dense copy
    # alone would take 24 MiB
    inst = rx.SwInstance(random_joint(np.random.default_rng(43), 3, 3), CodeSizes(2, 2))
    assert peak_mib(lambda: rx.build_lp_sw(inst)) < 1
