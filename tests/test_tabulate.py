import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from catci import tabulate
from catci.core import DataError, SpecError
from catci.tabulate import (
    build_table,
    expected_ci,
    slice_marginals,
    stacked_cells,
    table_from_counts,
)

from conftest import make_dataset, permute_column_levels
from oracles import expected_bruteforce, marginals_bruteforce, tabulate_bruteforce


def _dataset_from_rows(rows, levels):
    rng = np.random.default_rng(0)
    data = make_dataset(rng, len(rows), levels)
    cols = []
    arr = np.asarray(rows)
    for j, col in enumerate(data.columns):
        cols.append(type(col)(col.name, col.levels, arr[:, j], labels=col.labels))
    return type(data)(n_rows=len(rows), columns=tuple(cols))


class TestBuildTable:
    def test_two_binary_columns(self):
        data = _dataset_from_rows([(0, 0), (0, 1), (1, 0), (1, 0)], (2, 2))
        t = build_table(data, (0, 1))
        assert t.as_array().tolist() == [[1, 1], [2, 0]]
        assert t.total == 4

    def test_empty_variable_list_gives_scalar(self):
        data = _dataset_from_rows([(0,), (1,), (0,)], (2,))
        t = build_table(data, ())
        assert t.dims == ()
        assert t.total == 3
        assert t.dense.tolist() == [3]

    def test_matches_bruteforce_recount(self, rng):
        data = make_dataset(rng, 1000, (3, 4))
        t = build_table(data, (0, 1)).as_array()
        expected = tabulate_bruteforce(data, (0, 1))
        for x in range(3):
            for y in range(4):
                assert t[x, y] == expected.get((x, y), 0)

    def test_invalid_index(self, small_dataset):
        with pytest.raises(SpecError, match="range"):
            build_table(small_dataset, (0, 9))

    def test_duplicate_index(self, small_dataset):
        with pytest.raises(SpecError, match="twice"):
            build_table(small_dataset, (0, 0))

    def test_over_cell_cap_raises_before_allocating(self, rng):
        data = make_dataset(rng, 100, (4,) * 14)  # 2**28 nominal cells
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match=f"{4**14} cells.*ci_test and batch_screen"):
                build_table(data, range(14))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @given(
        n=st.integers(1, 60),
        levels=st.lists(st.integers(1, 4), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_single_pass_equals_nested_loop(self, n, levels, seed):
        data = make_dataset(np.random.default_rng(seed), n, tuple(levels))
        variables = tuple(range(len(levels)))
        t = build_table(data, variables)
        counted = tabulate_bruteforce(data, variables)
        arr = t.as_array()
        for coords in itertools.product(*(range(d) for d in t.dims)):
            assert arr[coords] == counted.get(coords, 0)
        assert t.total == n


class TestStackedTables:
    @given(
        n=st.integers(1, 60),
        levels=st.lists(st.integers(1, 4), min_size=4, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_each_table_of_a_stack_equals_its_single_pair_table(self, n, levels, seed):
        data = make_dataset(np.random.default_rng(seed), n, levels)
        cs = (0, 1)
        # Every pair has the same dimensions, so a wide row budget stacks them all.
        pairs = [(x, y) for x, y in itertools.permutations(range(2, len(levels)), 2)
                 if (levels[x], levels[y]) == (levels[2], levels[3])]
        with mock.patch.object(tabulate, "_STACK_ROWS", len(pairs)):
            ((positions, stack),) = stacked_cells(data, cs, pairs)
        for k, i in enumerate(positions):
            ((_, single),) = stacked_cells(data, cs, [pairs[i]])
            table = stack.as_table(k)
            assert table.dims == single.as_table().dims
            assert np.array_equal(table.dense, single.as_table().dense)
            assert table.total == n


class TestCountDistinct:
    @given(
        ids=st.lists(st.integers(0, 2**62 - 1), max_size=200)
        | st.lists(st.integers(0, 30), max_size=200),
    )
    def test_sort_branch_equals_unique_and_sorts_in_place(self, ids):
        ids = np.array(ids, dtype=np.int64)
        scratch = ids.copy()
        space = 2**62  # beyond _BINCOUNT_SPAN ids a value
        values, counts, inverse = tabulate._count_distinct(scratch, space)
        expected_values, expected_counts = np.unique(ids, return_counts=True)
        assert np.array_equal(values, expected_values)
        assert np.array_equal(counts, expected_counts)
        assert inverse is None
        assert np.array_equal(scratch, np.sort(ids))

    @given(ids=st.lists(st.integers(0, 2**62 - 1), max_size=200))
    def test_sort_branch_inverse_leaves_ids(self, ids):
        ids = np.array(ids, dtype=np.int64)
        scratch = ids.copy()
        values, counts, inverse = tabulate._count_distinct(scratch, 2**62, inverse=True)
        expected = np.unique(ids, return_counts=True, return_inverse=True)
        assert np.array_equal(values, expected[0])
        assert np.array_equal(inverse, expected[1])
        assert np.array_equal(counts, expected[2])
        assert np.array_equal(scratch, ids)


class TestSliceMarginals:
    def test_symmetric_two_way(self):
        t = table_from_counts(np.array([[20, 30], [30, 20]]))
        m = slice_marginals(t)
        assert m.n_slices == 1
        assert m.n_xz.tolist() == [[50, 50]]
        assert m.n_yz.tolist() == [[50, 50]]
        assert m.n_z.tolist() == [100]

    def test_needs_two_dims(self):
        with pytest.raises(DataError):
            slice_marginals(table_from_counts(np.array([1, 2, 3])))

    def test_conservation(self, rng):
        data = make_dataset(rng, 700, (3, 4, 2, 3))
        m = slice_marginals(build_table(data, (0, 1, 2, 3)))
        assert int(m.n_z.sum()) == 700
        assert np.array_equal(m.n_xz.sum(axis=1), m.n_z)
        assert np.array_equal(m.n_yz.sum(axis=1), m.n_z)

    def test_matches_bruteforce(self, rng):
        data = make_dataset(rng, 400, (3, 4, 2))
        t = build_table(data, (0, 1, 2))
        m = slice_marginals(t)
        n_xz, n_yz, n_z = marginals_bruteforce(t.as_array())
        for s, z in enumerate(itertools.product(range(2))):
            assert m.n_xz[s].tolist() == n_xz[z]
            assert m.n_yz[s].tolist() == n_yz[z]
            assert int(m.n_z[s]) == n_z[z]


class TestExpectedCI:
    def test_uniform_table(self):
        m = slice_marginals(table_from_counts(np.full((2, 2), 10)))
        assert expected_ci(m).tolist() == [10.0] * 4

    def test_equal_margins(self):
        m = slice_marginals(table_from_counts(np.array([[20, 30], [30, 20]])))
        assert expected_ci(m).tolist() == [25.0] * 4

    def test_matches_bruteforce(self, rng):
        data = make_dataset(rng, 500, (3, 4, 2))
        t = build_table(data, (0, 1, 2))
        e = expected_ci(slice_marginals(t)).reshape(t.dims, order="F")
        ref = expected_bruteforce(t.as_array())
        np.testing.assert_allclose(e, ref, rtol=1e-10, atol=0)

    def test_empty_slice_gets_zero(self):
        arr = np.zeros((2, 2, 2), dtype=int)
        arr[:, :, 0] = [[5, 1], [2, 4]]
        e = expected_ci(slice_marginals(table_from_counts(arr))).reshape((2, 2, 2), order="F")
        assert np.all(e[:, :, 1] == 0)
        assert e[:, :, 0].sum() == pytest.approx(12)

    @given(
        n=st.integers(2, 120),
        levels=st.tuples(st.integers(2, 4), st.integers(2, 4), st.integers(1, 3)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_margin_preservation(self, n, levels, seed):
        data = make_dataset(np.random.default_rng(seed), n, levels)
        t = build_table(data, (0, 1, 2))
        m = slice_marginals(t)
        e = expected_ci(m).reshape(t.n_cells // (levels[0] * levels[1]), levels[1], levels[0])
        for s in range(e.shape[0]):
            if m.n_z[s] == 0:
                assert np.all(e[s] == 0)
                continue
            np.testing.assert_allclose(e[s].sum(axis=0), m.n_xz[s], rtol=1e-9)
            np.testing.assert_allclose(e[s].sum(axis=1), m.n_yz[s], rtol=1e-9)
            assert e[s].sum() == pytest.approx(m.n_z[s], rel=1e-9)


class TestPermutationInvariance:
    @given(seed=st.integers(0, 2**32 - 1))
    def test_relabeling_permutes_cells(self, seed):
        rng = np.random.default_rng(seed)
        data = make_dataset(rng, 150, (3, 4))
        perm = rng.permutation(3)
        relabeled = permute_column_levels(data, 0, perm)
        base = build_table(data, (0, 1)).as_array()
        moved = build_table(relabeled, (0, 1)).as_array()
        assert np.array_equal(moved[perm, :], base)
        assert moved.sum() == base.sum()


class TestTableFromCounts:
    def test_roundtrip(self):
        arr = np.arange(24).reshape(2, 3, 4)
        t = table_from_counts(arr)
        assert t.dims == (2, 3, 4)
        assert t.total == arr.sum()
        assert np.array_equal(t.as_array(), arr)

    def test_scalar(self):
        t = table_from_counts(np.asarray(7))
        assert t.dims == ()
        assert t.total == 7
