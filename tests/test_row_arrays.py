"""The LP builders emit exactly the row arrays of the dense matrices they replaced,
from a table's structure cached once and shared read-only.

Each reference below is the dense builder the library used before it built
the row-wise arrays directly.  np.nonzero of a dense matrix, read row-major,
is what the solver was handed then; the builders must hand it the same
arrays, entry for entry and in the same order, so that every value, primal
and dual stays the same.
"""

import itertools

import numpy as np
import pytest

from fbconv import converses_ptp, lp_core
from fbconv import relaxations as rx
from fbconv.probability import CodeSizes, DistortionSpec, SinglePmf

from conftest import certified_solve, peak_mib, random_joint, sw_je_instance


def _dense_build(table):
    """(A, b) of a table: +1 on every entry of a family's lifted block in the
    row its row letters pick, -1 on the one minus-block entry each row reads."""
    sizes, col_blocks, families, _, _ = table
    cols, rows = (rx.TensorIndex([(b[0], tuple(sizes[k] for k in b[1])) for b in blocks])
                  for blocks in (col_blocks, families))
    letters = {b[0]: b[1] for b in col_blocks}
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
    "sc": (lambda i: rx.build_lp_sc(sw_je_instance(i)),
           lambda i: rx._sc_table(sw_je_instance(i))),
    "si1": (lambda i: rx.build_lpsi(i, 1), lambda i: rx._si_table(i, 1)),
    "si2": (lambda i: rx.build_lpsi(i, 2), lambda i: rx._si_table(i, 2)),
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


def test_interleaved_cached_builds_match_dense_reference():
    # every dims built twice, the grid walked forward and then backward, so
    # each kind's second build reads a structure cached between other tables
    instances = _sw_instances()
    for inst, kind in itertools.chain(itertools.product(instances, SW_KINDS),
                                      itertools.product(instances[::-1], list(SW_KINDS)[::-1])):
        build, table = SW_KINDS[kind]
        model = build(inst)
        A, b = _dense_build(table(inst))
        assert_rows_of(model, A)
        np.testing.assert_array_equal(model.rhs, b)


def _uncached(build):
    rx._structures.cache_clear()
    return build()


@pytest.mark.parametrize("kind", SW_KINDS)
def test_same_dims_share_structure_not_cost(kind):
    build, table = SW_KINDS[kind]
    rng = np.random.default_rng(53)
    insts = [rx.SwInstance(random_joint(rng, 3, 2, allow_zeros=False), CodeSizes(2, 1))
             for _ in range(2)]
    models = [build(inst) for inst in insts]
    for got, want in zip(models[0].a_rows + (models[0].rhs,), models[1].a_rows + (models[1].rhs,)):
        np.testing.assert_array_equal(got, want)
        assert not got.flags.writeable and not want.flags.writeable
    assert not np.array_equal(models[0].objective, models[1].objective)
    cached = rx._structure(table(insts[0]))[2]   # the model holding the shared arrays
    a_rows, rhs = cached.a_rows, cached.rhs
    assert not any(a.flags.writeable for a in (*a_rows, rhs))
    for inst, model in zip(insts, models):
        sol, ref = certified_solve(model), lp_core.solve(_uncached(lambda: build(inst)))
        assert sol.value == ref.value
        np.testing.assert_array_equal(sol.primal, ref.primal)
        np.testing.assert_array_equal(sol.dual, ref.dual)


def test_structure_cache_stays_bounded():
    maxsize = rx._structures.cache_parameters()["maxsize"]
    tables = [(n, M) for n in range(1, 13) for M in (1, 2, 3)]
    assert len(tables) > maxsize
    for n, M in tables:
        rx.build_lp_sc(rx.ScInstance(SinglePmf(np.full(n, 1 / n)), M, DistortionSpec.lossless(n)))
    assert rx._structures.cache_info().currsize <= maxsize


def test_over_cap_table_neither_allocates_nor_enters_cache():
    inst = rx.SwInstance(random_joint(np.random.default_rng(59), 8, 8), CodeSizes(4, 4))
    rx._structures.cache_clear()
    with pytest.raises(rx.InstanceTooLarge):
        rx.build_lp_sw(inst)
    assert rx._structures.cache_info().currsize == 0


@pytest.mark.parametrize("kind", SW_KINDS)
def test_models_hold_the_cached_arrays(kind):
    build, table = SW_KINDS[kind]
    rng = np.random.default_rng(71)
    insts = [rx.SwInstance(random_joint(rng, 3, 2), CodeSizes(2, 1)) for _ in range(2)]
    models = [build(inst) for inst in insts]
    for a, b in zip(models[0].a_rows + (models[0].rhs,), models[1].a_rows + (models[1].rhs,)):
        assert np.shares_memory(a, b)
    cached = rx._structure(table(insts[0]))[2]
    a_rows, rhs = cached.a_rows, cached.rhs
    for model in models:
        for held, cached in zip(model.a_rows + (model.rhs,), a_rows + (rhs,)):
            assert np.shares_memory(held, cached)


LAYOUTS = {
    "sc": lambda i: rx._layouts(sw_je_instance(i), rx.DualPointSC),
    "si1": lambda i: rx._layouts(i, rx.DualPointSI, 1),
    "si2": lambda i: rx._layouts(i, rx.DualPointSI, 2),
    "je": lambda i: rx._layouts(i, rx.DualPointJE),
    "sw": lambda i: rx._layouts(i, rx.DualPointSW),
}


@pytest.mark.parametrize("kind", LAYOUTS)
def test_over_cap_indexer_raises_and_leaves_cache_empty(kind):
    # 8x8 / M=(16,16): every one of these LPs is far past MAX_LP_ENTRIES
    inst = rx.SwInstance(random_joint(np.random.default_rng(73), 8, 8), CodeSizes(16, 16))
    rx._structures.cache_clear()
    with pytest.raises(rx.InstanceTooLarge, match=r"LP Q1\("):
        LAYOUTS[kind](inst)
    assert rx._structures.cache_info().currsize == 0


def test_repeat_build_reuses_structure(monkeypatch):
    inst = rx.SwInstance(random_joint(np.random.default_rng(61), 3, 2), CodeSizes(2, 1))
    first = {k: SW_KINDS[k][0](inst) for k in SW_KINDS}

    def unexpected(*args, **kwargs):
        raise AssertionError("structure rebuilt for a cached table")

    for name in ("indices", "ravel_multi_index"):
        monkeypatch.setattr(np, name, unexpected)
    monkeypatch.setattr(rx, "TensorIndex", unexpected)
    for k in SW_KINDS:
        again = SW_KINDS[k][0](inst)
        for got, want in zip(again.a_rows + (again.rhs, again.objective),
                             first[k].a_rows + (first[k].rhs, first[k].objective)):
            np.testing.assert_array_equal(got, want)
    layouts = [rx._layouts(inst, rx.DualPointSW), rx._layouts(inst, rx.DualPointJE),
               rx._layouts(inst, rx.DualPointSI, 1), rx._layouts(inst, rx.DualPointSI, 2)]
    assert all(len(pair) == 2 for pair in layouts)


def test_repeat_build_checks_the_cost_alone(monkeypatch):
    inst = rx.SwInstance(random_joint(np.random.default_rng(61), 3, 2), CodeSizes(2, 1))
    first = {k: SW_KINDS[k][0](inst) for k in SW_KINDS}
    checked = []
    check = lp_core.LpModel.__post_init__

    def counted(model):
        checked.append(model)
        check(model)

    monkeypatch.setattr(lp_core.LpModel, "__post_init__", counted)
    for k in SW_KINDS:
        again = SW_KINDS[k][0](inst)
        for name in ("a_rows", "rhs", "relations", "lower", "upper"):
            assert getattr(again, name) is getattr(first[k], name), (k, name)
        assert again.objective is not first[k].objective
        np.testing.assert_array_equal(again.objective, first[k].objective)
    assert checked == []


@pytest.mark.parametrize("kind", SW_KINDS)
def test_cost_only_build_rejects_a_bad_cost(kind):
    inst = rx.SwInstance(random_joint(np.random.default_rng(79), 3, 2), CodeSizes(2, 1))
    model = SW_KINDS[kind][0](inst)
    n = model.num_variables
    for bad in (np.zeros(n - 1), np.zeros(n + 1), np.zeros((1, n)), np.zeros(())):
        with pytest.raises(lp_core.DimensionMismatch):
            model._with_objective(bad, model.warm)
    for value in (np.nan, np.inf, -np.inf):
        cost = model.objective.copy()
        cost[n // 2] = value
        with pytest.raises(lp_core.DimensionMismatch):
            model._with_objective(cost, model.warm)
    same = model._with_objective(model.objective.copy(), model.warm)
    assert same.warm is model.warm and same.a_rows is model.a_rows
    assert not same.objective.flags.writeable


def test_cached_layouts_are_shared_and_read_only():
    rng = np.random.default_rng(67)
    a, b = (rx.SwInstance(random_joint(rng, 3, 2), CodeSizes(2, 1)) for _ in range(2))
    rows = rx._layouts(a, rx.DualPointSW)[1]
    assert rx._layouts(b, rx.DualPointSW)[1] is rows
    with pytest.raises(TypeError):
        rows.shapes["lam_c"] = (1,)
    with pytest.raises(TypeError):
        rows.offsets["lam_c"] = 0
