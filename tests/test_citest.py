import dataclasses
import itertools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catci import citest, tabulate
from catci.citest import (
    batch_screen,
    chi2_statistic,
    ci_test,
    dof,
    g2_statistic,
    log_sf_chisq,
)
from catci.core import (
    METHODS,
    CategoricalColumn,
    DataError,
    Dataset,
    SpecError,
    TestResult,
    TestSpec,
)
from catci.loglinear import ipf_fit
from catci.tabulate import build_table, expected_ci, slice_marginals, table_from_counts

from conftest import make_dataset, permute_column_levels
from oracles import (
    chi2_exact,
    ci_occupied_bruteforce,
    closed_form_unfolded,
    log_sf_gammainc,
    log_sf_quadrature,
    temme_coefficients,
)

# Frozen by hand: 2*(40*ln(20/25) + 60*ln(30/25)) for the table [[20,30],[30,20]]
G2_CROSSED = 4.027102710137775
LN_05 = -2.995732273553991
# Frozen from the adaptive-quadrature oracle at 50 digits
LOG_SF_3_8415_DOF1 = -2.9957568324311123


class TestG2Statistic:
    def test_equal_counts_give_zero(self):
        t = table_from_counts(np.full((2, 2), 10))
        assert g2_statistic(t, np.full(4, 10.0)) == 0.0

    def test_crossed_table(self):
        t = table_from_counts(np.array([[20, 30], [30, 20]]))
        assert g2_statistic(t, np.full(4, 25.0)) == pytest.approx(G2_CROSSED, abs=1e-12)
        assert g2_statistic(t, np.full(4, 25.0)) == pytest.approx(4.0272, abs=1e-3)

    def test_own_counts_as_expected(self, rng):
        arr = rng.integers(0, 30, size=(3, 4))
        t = table_from_counts(arr)
        assert g2_statistic(t, arr.astype(float)) == 0.0

    def test_shape_mismatch(self):
        t = table_from_counts(np.full((2, 2), 5))
        with pytest.raises(ValueError, match="cells"):
            g2_statistic(t, np.ones(5))

    def test_zero_expected_at_occupied_cell(self):
        t = table_from_counts(np.array([[1, 0], [0, 0]]))
        with pytest.raises(ValueError, match="zero expected"):
            g2_statistic(t, np.zeros(4))

    def test_accepts_plain_arrays(self):
        obs = np.array([[20, 30], [30, 20]])
        assert g2_statistic(obs, np.full((2, 2), 25.0)) == pytest.approx(G2_CROSSED, abs=1e-12)


class TestChi2Statistic:
    def test_crossed_table(self):
        t = table_from_counts(np.array([[20, 30], [30, 20]]))
        assert chi2_statistic(t, np.full(4, 25.0)) == pytest.approx(4.0, abs=1e-12)

    def test_identity(self, rng):
        arr = rng.integers(1, 30, size=(3, 4))
        assert chi2_statistic(table_from_counts(arr), arr.astype(float)) == 0.0

    def test_empty_slice_contributes_zero(self):
        arr = np.zeros((2, 2, 2), dtype=int)
        arr[:, :, 0] = [[20, 30], [30, 20]]
        t = table_from_counts(arr)
        e = expected_ci(slice_marginals(t))
        full = chi2_statistic(t, e)
        only_occupied = chi2_statistic(
            table_from_counts(arr[:, :, 0]),
            expected_ci(slice_marginals(table_from_counts(arr[:, :, 0]))),
        )
        assert full == pytest.approx(only_occupied, rel=1e-12)

    def test_zero_expected_at_occupied_cell(self):
        with pytest.raises(ValueError, match="zero expected"):
            chi2_statistic(np.array([1, 2]), np.array([0.0, 3.0]))


class TestDof:
    def test_benchmark_scenario_values(self):
        assert dof(3, 4, (2,)) == 12
        assert dof(3, 4, (2, 4)) == 48
        assert dof(3, 4, (2, 4, 4)) == 192

    def test_empty_cs(self):
        assert dof(3, 4) == 6
        assert dof(3, 4, ()) == 6

    def test_single_level_variable(self):
        assert dof(1, 4, (2,)) == 0

    def test_invalid_levels(self):
        with pytest.raises(ValueError):
            dof(0, 2)
        with pytest.raises(ValueError):
            dof(2, 2, (0,))


class TestDofAdjusted:
    def test_no_empty_strata_equals_nominal(self, rng):
        data = make_dataset(rng, 2000, (3, 4, 2))
        assert ci_test(data, TestSpec(0, 1, (2,))).dof_adjusted == dof(3, 4, (2,))

    def test_single_occupied_stratum(self):
        # Every (x, y) once, all in stratum 2 of a Z with 5 labelled levels.
        xs, ys = np.divmod(np.arange(12), 4)
        columns = tuple(
            CategoricalColumn(name, levels, codes, labels=tuple(map(str, range(levels))))
            for name, levels, codes in (("x", 3, xs), ("y", 4, ys), ("z", 5, np.full(12, 2)))
        )
        res = ci_test(Dataset(n_rows=12, columns=columns), TestSpec(0, 1, (2,)))
        assert (res.dof, res.dof_adjusted, res.empty_strata) == (30, 6, 4)

    @given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_occupancy_count_oracle(self, n, seed):
        rng = np.random.default_rng(seed)
        data = make_dataset(rng, n, (3, 4, 3, 4))
        occupied = len(set(zip(data.columns[2].codes.tolist(), data.columns[3].codes.tolist())))
        assert ci_test(data, TestSpec(0, 1, (2, 3))).dof_adjusted == 2 * 3 * occupied


class TestLogSfChisq:
    def test_zero_stat(self):
        assert log_sf_chisq(0.0, 5) == 0.0

    def test_dof2_closed_form(self):
        for stat in (1e-8, 0.5, 2.0, 4.0, 10.0, 100.0, 1376.0):
            assert log_sf_chisq(stat, 2) == pytest.approx(-stat / 2, abs=1e-12)

    def test_known_quantile(self):
        got = log_sf_chisq(3.8415, 1)
        assert got == pytest.approx(LN_05, abs=1e-4)
        assert got == pytest.approx(LOG_SF_3_8415_DOF1, abs=1e-12)

    def test_against_quadrature_spot(self):
        # Non-integer dof take the series or the continued fraction.
        spots = [(7.3, 5), (55.0, 48), (250.0, 192), (0.02, 1), (4.0, 2.5), (30.0, 17.3)]
        for stat, d in spots:
            assert log_sf_chisq(stat, d) == pytest.approx(
                log_sf_quadrature(stat, d), abs=1e-11
            )

    def test_dof_zero_is_error(self):
        with pytest.raises(ValueError, match="dof"):
            log_sf_chisq(1.0, 0)

    def test_nan_dof_is_error(self):
        with pytest.raises(ValueError, match="dof must be >= 1, got nan"):
            log_sf_chisq(1.0, math.nan)

    @pytest.mark.parametrize("d", [6 * 4**511, 2**1024, math.inf], ids=["6*4**511", "2**1024", "inf"])
    def test_dof_beyond_float_range(self, d):
        # No finite statistic reaches such a dof: Q rounds to 1.
        for stat in (1e-300, 1.0, 1e308):
            assert log_sf_chisq(stat, d) == 0.0
        assert log_sf_chisq(math.inf, d) == -math.inf

    def test_negative_stat_is_error(self):
        with pytest.raises(ValueError):
            log_sf_chisq(-0.5, 3)

    def test_infinite_stat(self):
        assert log_sf_chisq(math.inf, 3) == -math.inf

    def test_monotone_decreasing_in_stat(self):
        for d in (1, 2, 5, 12, 48, 192):
            values = [log_sf_chisq(s, d) for s in (0.1, 1.0, 5.0, 20.0, 100.0, 500.0, 1300.0)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_monotone_increasing_in_dof(self):
        for stat in (0.5, 10.0, 100.0):
            values = [log_sf_chisq(stat, d) for d in (1, 2, 5, 12, 48, 192)]
            assert all(a < b for a, b in zip(values, values[1:]))

    @given(
        stat=st.floats(1e-6, 1200.0),
        gap=st.floats(1e-3, 50.0),
        d=st.sampled_from([1, 2, 3, 7, 20, 100]),
    )
    def test_strictly_decreasing_property(self, stat, gap, d):
        assert log_sf_chisq(stat + gap, d) < log_sf_chisq(stat, d)

    @pytest.mark.parametrize("d", [10**9, 10**10, 10**15])
    def test_huge_dof_is_finite(self, d):
        values = [log_sf_chisq(r * d, d) for r in (1e-6, 0.5, 0.99, 1.0, 1.01, 2.0, 50.0)]
        assert all(math.isfinite(v) and v <= 0.0 for v in values)
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_temme_band_takes_no_steps(self):
        # Near x = a at large a the expansion answers alone, in O(1).
        with mock.patch.object(citest, "_lower_series_sum") as series, \
                mock.patch.object(citest, "_upper_cf") as cf:
            for stat in (0.8e8, 1e8, 1.2e8):
                assert math.isfinite(log_sf_chisq(stat, 10**8))
        series.assert_not_called()
        cf.assert_not_called()

    def test_temme_coefficients_match_their_derivation(self):
        exact = temme_coefficients([len(row) for row in citest._TEMME_C])
        assert [[float(c) for c in row] for row in exact] == [list(row) for row in citest._TEMME_C]

    @settings(max_examples=100)
    @given(
        log10_dof=st.floats(0.0, 15.0),
        ratio=st.one_of(
            st.floats(math.log(1e-6), math.log(50.0)).map(math.exp), st.floats(0.6, 1.5)
        ),
    )
    def test_against_mpmath_over_the_domain(self, log10_dof, ratio):
        # 1e-12 absolute in log p, relative where |log p| > 1.  The quadrature
        # carries enough digits for a·ln(x) at dof 1e15.
        d = max(1, round(10**log10_dof))
        stat = ratio * d
        got = log_sf_chisq(stat, d)
        ref = log_sf_quadrature(stat, d, dps=30 + int(log10_dof))
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_finite_sums_against_mpmath_below_dof_200(self):
        # stat = dof - 2 and dof + 2 put x = a - 1 and a + 1 on either side
        # of the switch from the upward to the downward sum, for odd and even
        # dof alike; 1e-9 of dof falls back to the series.
        worst = 0.0
        for d in range(1, 200):
            stats = [r * d for r in (1e-9, 1e-3, 0.5, 1.0, 2.0, 50.0, 1e6)]
            stats += [d + 2.0] + ([d - 2.0] if d > 2 else [])
            for stat in stats:
                ref = log_sf_gammainc(stat, d)
                worst = max(worst, abs(log_sf_chisq(stat, d) - ref) / max(1.0, abs(ref)))
        assert worst <= 1e-12

    def test_null_statistics_below_dof_200_take_no_steps(self):
        # Statistics near their dof take the finite sum alone; where Q is
        # within 1e-3 of 1, stat << dof, the lower series answers.
        with (
            mock.patch.object(citest, "_lower_series_sum", wraps=citest._lower_series_sum) as series,
            mock.patch.object(citest, "_upper_cf", wraps=citest._upper_cf) as cf,
        ):
            for d in range(1, 200):
                for r in (0.8, 1.0, 1.25, 2.0):
                    log_sf_chisq(r * d, d)
            series.assert_not_called()
            for d in (1, 2, 48, 199):
                assert log_sf_chisq(1e-6 * d, d) > citest._FINITE_MAX_LOG_Q
        assert series.call_count == 4
        cf.assert_not_called()


def _perfectly_dependent_dataset(n_per_level=100):
    x = np.repeat(np.arange(3), n_per_level)
    cols = (
        CategoricalColumn("X", 3, x),
        CategoricalColumn("Y", 3, x.copy()),
    )
    return Dataset(n_rows=3 * n_per_level, columns=cols)


class TestCiTest:
    def test_perfect_dependence_unconditional(self):
        data = _perfectly_dependent_dataset(100)
        res = ci_test(data, TestSpec(0, 1))
        assert res.chi2 == pytest.approx(600.0, rel=1e-12)  # n * (|X| - 1)
        assert res.g2 == pytest.approx(2 * 300 * math.log(3), rel=1e-12)
        assert res.dof == 4
        assert res.empty_strata == 0
        assert not res.degenerate

    def test_paper_dof_configuration(self, rng):
        data = make_dataset(rng, 3000, (3, 4, 2, 4, 4))
        res = ci_test(data, TestSpec(0, 1, (2, 3, 4)))
        assert res.dof == 192

    def test_empty_dataset(self):
        cols = (
            CategoricalColumn("a", 2, np.array([], dtype=np.int64), labels=("0", "1")),
            CategoricalColumn("b", 2, np.array([], dtype=np.int64), labels=("0", "1")),
        )
        with pytest.raises(DataError, match="empty"):
            ci_test(Dataset(0, cols), TestSpec(0, 1))

    def test_invalid_spec(self, small_dataset):
        with pytest.raises(SpecError):
            ci_test(small_dataset, TestSpec(0, 0))

    def test_invalid_method(self, small_dataset):
        with pytest.raises(ValueError, match="method"):
            ci_test(small_dataset, TestSpec(0, 1), method="other")

    def test_degenerate_single_level(self):
        cols = (
            CategoricalColumn("c", 1, np.zeros(50, dtype=np.int64)),
            CategoricalColumn("y", 3, np.arange(50) % 3, labels=("0", "1", "2")),
        )
        res = ci_test(Dataset(50, cols), TestSpec(0, 1))
        assert res.degenerate
        assert res.g2 == res.chi2 == 0.0
        assert res.dof == 0 and res.dof_adjusted == 0
        assert res.log_p_g2 == 0.0 and res.log_p_chi2 == 0.0

    def test_single_level_conditioning_variable_is_legal(self, rng):
        data = make_dataset(rng, 500, (3, 4))
        constant = CategoricalColumn("const", 1, np.zeros(500, dtype=np.int64))
        widened = Dataset(500, data.columns + (constant,))
        plain = ci_test(data, TestSpec(0, 1))
        conditioned = ci_test(widened, TestSpec(0, 1, (2,)))
        assert conditioned.dof == plain.dof == 6  # the 1-level Z multiplies dof by 1
        assert conditioned.g2 == plain.g2
        assert conditioned.chi2 == plain.chi2
        assert not conditioned.degenerate

    def test_empty_strata_counted_and_adjusted(self):
        # Z has 4 levels but only 2 occur jointly with data rows
        z = np.array([0, 0, 1, 1, 0, 1] * 10)
        x = np.tile([0, 1], 30)
        y = np.tile([0, 1, 1], 20)
        cols = (
            CategoricalColumn("x", 2, x),
            CategoricalColumn("y", 2, y),
            CategoricalColumn("z", 4, z, labels=("a", "b", "c", "d")),
        )
        data = Dataset(60, cols)
        plain = ci_test(data, TestSpec(0, 1, (2,)))
        assert plain.empty_strata == 2
        assert plain.dof == 4
        assert plain.dof_adjusted == 2
        adjusted = ci_test(data, TestSpec(0, 1, (2,)), adjust_dof=True)
        assert adjusted.g2 == plain.g2
        assert adjusted.log_p_g2 == log_sf_chisq(plain.g2, 2)
        assert plain.log_p_g2 == log_sf_chisq(plain.g2, 4)

    @given(
        n=st.integers(30, 400),
        levels=st.tuples(st.integers(2, 4), st.integers(2, 4), st.integers(2, 3)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_method_equivalence(self, n, levels, seed):
        data = make_dataset(np.random.default_rng(seed), n, levels)
        spec = TestSpec(0, 1, (2,))
        closed = ci_test(data, spec)
        ipf = ci_test(data, spec, method="ipf")
        assert ipf.method == "ipf"
        assert ipf.g2 == pytest.approx(closed.g2, rel=1e-8, abs=1e-12)
        assert ipf.chi2 == pytest.approx(closed.chi2, rel=1e-8, abs=1e-12)
        assert ipf.dof == closed.dof

    @given(seed=st.integers(0, 2**32 - 1))
    def test_relabeling_invariance_exact(self, seed):
        rng = np.random.default_rng(seed)
        data = make_dataset(rng, 300, (3, 4, 2, 3))
        spec = TestSpec(0, 1, (2, 3))
        base = ci_test(data, spec)
        for index in range(4):
            perm = rng.permutation(data.columns[index].levels)
            moved = ci_test(permute_column_levels(data, index, perm), spec)
            assert moved.g2 == base.g2
            assert moved.chi2 == base.chi2
            assert moved.dof == base.dof
            assert moved.log_p_g2 == base.log_p_g2
            assert moved.log_p_chi2 == base.log_p_chi2

    @given(
        n=st.integers(20, 300),
        levels=st.tuples(st.integers(2, 3), st.integers(2, 4), st.integers(2, 3), st.integers(2, 2)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_slice_additivity(self, n, levels, seed):
        data = make_dataset(np.random.default_rng(seed), n, levels)
        t = build_table(data, (0, 1, 2, 3))
        joint = ci_test(data, TestSpec(0, 1, (2, 3)))
        arr = t.as_array()
        g2_sum = chi2_sum = 0.0
        for z in itertools.product(range(levels[2]), range(levels[3])):
            cell = arr[(slice(None), slice(None)) + z]
            if cell.sum() == 0:
                continue
            sub = table_from_counts(cell)
            e = expected_ci(slice_marginals(sub))
            g2_sum += g2_statistic(sub, e)
            chi2_sum += chi2_statistic(sub, e)
        assert joint.g2 == pytest.approx(g2_sum, rel=1e-9, abs=1e-9)
        assert joint.chi2 == pytest.approx(chi2_sum, rel=1e-9, abs=1e-9)

    def test_high_cardinality_z_matches_oracle(self, rng):
        # 4**10 nominal strata against 800 rows: nearly every stratum is empty
        data = make_dataset(rng, 800, (3, 4) + (4,) * 10)
        spec = TestSpec(0, 1, tuple(range(2, 12)))
        assert_matches_oracle(ci_test(data, spec), ci_occupied_bruteforce(data, spec))

    def test_high_cardinality_z_ipf_agrees(self, rng):
        data = make_dataset(rng, 800, (3, 4) + (4,) * 10)
        spec = TestSpec(0, 1, tuple(range(2, 12)))
        closed = ci_test(data, spec)
        ipf = ci_test(data, spec, method="ipf")
        assert ipf.g2 == pytest.approx(closed.g2, rel=1e-8, abs=1e-12)
        assert ipf.chi2 == pytest.approx(closed.chi2, rel=1e-8, abs=1e-12)
        assert (ipf.dof, ipf.dof_adjusted, ipf.empty_strata) == (
            closed.dof, closed.dof_adjusted, closed.empty_strata
        )

    def test_unconverged_ipf_is_data_error(self, small_dataset, monkeypatch):
        real_fit = ipf_fit

        def stalled(table, model):
            return dataclasses.replace(real_fit(table, model), iterations=50, converged=False)

        monkeypatch.setattr("catci.loglinear.ipf_fit", stalled)
        with pytest.raises(DataError, match="50 iterations"):
            ci_test(small_dataset, TestSpec(0, 1, (2,)), method="ipf")

    def test_ipf_table_over_cell_cap_raises_before_allocating(self):
        # 4097 x 4096 levels in one stratum: 2**24 + 4096 cells, 134 MB as int64.
        codes = np.arange(4097)
        data = Dataset(4097, (CategoricalColumn("x", 4097, codes),
                              CategoricalColumn("y", 4096, codes % 4096)))
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match=f"{4097 * 4096} cells exceeds the {2**24}-cell"):
                ci_test(data, TestSpec(0, 1), method="ipf")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_ipf_table_at_cell_cap_is_fitted(self, rng):
        data = make_dataset(rng, 300, (3, 4, 2))
        spec = TestSpec(0, 1, (2,))
        expected = ci_test(data, spec, method="ipf")
        with mock.patch.object(tabulate, "_TABLE_CELLS", 24):
            assert ci_test(data, spec, method="ipf") == expected
        with mock.patch.object(tabulate, "_TABLE_CELLS", 23):
            with pytest.raises(DataError, match="24 cells exceeds the 23-cell limit"):
                ci_test(data, spec, method="ipf")


def assert_matches_oracle(result, ref):
    assert result.g2 == pytest.approx(ref["g2"], rel=1e-9, abs=1e-9)
    assert result.chi2 == pytest.approx(ref["chi2"], rel=1e-9, abs=1e-9)
    for field in ("dof", "dof_adjusted", "empty_strata", "degenerate"):
        assert getattr(result, field) == ref[field], field


@st.composite
def kernel_datasets(draw):
    """Small datasets with unused labelled levels and wide or narrow Z columns."""
    n = draw(st.integers(1, 60))
    k = draw(st.integers(0, 5))
    used = draw(st.lists(st.sampled_from([1, 2, 3, 4, 9, 25]), min_size=k + 2, max_size=k + 2))
    unused = draw(st.lists(st.integers(0, 3), min_size=k + 2, max_size=k + 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = tuple(
        CategoricalColumn(
            f"V{j}", u + e, rng.integers(0, u, size=n), labels=tuple(map(str, range(u + e)))
        )
        for j, (u, e) in enumerate(zip(used, unused))
    )
    return Dataset(n, columns), TestSpec(0, 1, tuple(range(2, k + 2)))


class TestOccupiedStrataKernel:
    """ci_test against the occupied-cells oracle, through both counting branches."""

    @pytest.mark.parametrize("span", [0, tabulate._BINCOUNT_SPAN, 1 << 40])
    @given(case=kernel_datasets())
    def test_matches_oracle(self, span, case):
        data, spec = case
        with mock.patch.object(tabulate, "_BINCOUNT_SPAN", span):
            result = ci_test(data, spec)
        assert_matches_oracle(result, ci_occupied_bruteforce(data, spec))

    def test_single_row(self):
        data = make_dataset(np.random.default_rng(0), 1, (3, 4, 2, 5))
        spec = TestSpec(0, 1, (2, 3))
        assert_matches_oracle(ci_test(data, spec), ci_occupied_bruteforce(data, spec))

    @pytest.mark.parametrize("constant", [0, 1])
    def test_degenerate_x_or_y(self, rng, constant):
        data = make_dataset(rng, 200, (3, 4, 4, 4))
        cols = list(data.columns)
        cols[constant] = CategoricalColumn("c", 1, np.zeros(200, dtype=np.int64))
        data = Dataset(200, tuple(cols))
        spec = TestSpec(0, 1, (2, 3))
        result = ci_test(data, spec)
        assert result.degenerate
        assert_matches_oracle(result, ci_occupied_bruteforce(data, spec))

    def test_cell_space_beyond_int64(self, rng):
        # 4**40 = 2**80 nominal strata, of which only Z1's four occur: X and Y
        # both follow Z1, so merging its strata would make them look dependent.
        n = 300
        z1 = rng.integers(0, 4, size=n)
        labels = ("0", "1", "2", "3")
        columns = (
            CategoricalColumn("X", 3, (z1 + rng.integers(0, 2, size=n)) % 3),
            CategoricalColumn("Y", 4, (z1 + rng.integers(0, 2, size=n)) % 4),
            CategoricalColumn("Z1", 4, z1),
        ) + tuple(
            CategoricalColumn(f"Z{j}", 4, np.zeros(n, dtype=np.int64), labels=labels)
            for j in range(2, 41)
        )
        data = Dataset(n, columns)
        spec = TestSpec(0, 1, tuple(range(2, 42)))
        closed = ci_test(data, spec)
        assert_matches_oracle(closed, ci_occupied_bruteforce(data, spec))
        assert closed.empty_strata == 4**40 - 4
        ipf = ci_test(data, spec, method="ipf")
        assert ipf.g2 == pytest.approx(closed.g2, rel=1e-8, abs=1e-12)

    def test_memory_tracks_rows_not_nominal_cells(self, rng):
        # 3 * 4 * 4**10 = 12.6M nominal cells; the kernel needs a few arrays of n
        data = make_dataset(rng, 3000, (3, 4) + (4,) * 10)
        spec = TestSpec(0, 1, tuple(range(2, 12)))
        tracemalloc.start()
        try:
            ci_test(data, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_memory_tracks_rows_not_wide_x_and_y(self, rng):
        # 2048 x 2048 levels, no Z: 4.2M nominal (x, y) codes for 6144 rows.
        # An array over those codes would take 32 MiB; the kernel needs a
        # few arrays of n and marginals of |X| + |Y|.
        n, levels = 6144, 2048
        x = np.arange(n) % levels
        y = (x + rng.integers(0, 3, size=n)) % levels
        w = rng.integers(0, levels, size=n)
        labels = tuple(map(str, range(levels)))  # a level may go unused
        data = Dataset(n, tuple(CategoricalColumn(name, levels, codes, labels=labels)
                                for name, codes in (("x", x), ("y", y), ("w", w))))
        specs = [TestSpec(0, 1), TestSpec(0, 2)]
        tracemalloc.start()
        try:
            single = ci_test(data, specs[0])
            batch = batch_screen(data, specs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert batch[0] == single
        for result, other in zip(batch, (y, w)):
            # One stratum: E = N_x·N_y / n, summed over the occupied cells.
            cells = np.unique(x * levels + other, return_counts=True)
            n_x, n_y = np.bincount(x, minlength=levels), np.bincount(other, minlength=levels)
            cx, cy = np.divmod(cells[0], levels)
            e = n_x[cx] * n_y[cy] / n
            counts = cells[1].astype(np.float64)
            assert result.g2 == pytest.approx(math.fsum(2.0 * counts * np.log(counts / e)))
            assert result.chi2 == pytest.approx(math.fsum(counts * counts / e - counts))
            assert result.dof == (levels - 1) ** 2

    @pytest.mark.parametrize("dx, dy, k", [(2, 2, 60), (2, 2, 61), (3, 4, 58), (3, 4, 59)])
    def test_cell_space_at_the_int64_bound(self, dx, dy, k):
        # 2**k nominal strata: 2**k·|X|·|Y| is 2**62 itself, 0.75·2**62, or
        # above 2**62, where a single pair must compress Z before counting.
        rng = np.random.default_rng(k)
        n = 200
        z = [rng.integers(0, 2, size=n) for _ in range(3)]
        z += [(rng.random(n) < 0.003).astype(np.int64) for _ in range(k - 3)]
        binary = ("0", "1")
        columns = (
            CategoricalColumn("X", dx, (z[0] + rng.integers(0, dx, size=n)) % dx),
            CategoricalColumn("Y", dy, (z[1] + rng.integers(0, dy, size=n)) % dy),
            CategoricalColumn("W", 3, rng.integers(0, 3, size=n)),
        ) + tuple(CategoricalColumn(f"Z{j}", 2, c, labels=binary) for j, c in enumerate(z))
        data = Dataset(n, columns)
        cs = tuple(range(3, 3 + k))
        spec = TestSpec(0, 1, cs)
        with mock.patch.object(
            tabulate, "_count_distinct", wraps=tabulate._count_distinct
        ) as counted:
            single = ci_test(data, spec)
        compressions = sum(call.kwargs.get("inverse", False) for call in counted.call_args_list)
        assert compressions == (2**k * dx * dy > tabulate._MAX_CELLS)
        batch = batch_screen(data, [TestSpec(0, 2, cs), spec, TestSpec(1, 0, cs), TestSpec(2, 1, cs)])
        assert batch[1] == single
        assert_matches_oracle(single, ci_occupied_bruteforce(data, spec))

    def test_z_compressed_at_most_once(self, rng):
        data = make_dataset(rng, 3000, (3, 4) + (4,) * 12)
        cs = tuple(range(2, 14))
        single = TestSpec(0, 1, cs)
        for run in (
            lambda: ci_test(data, single),
            lambda: batch_screen(data, [single, TestSpec(1, 0, cs), TestSpec(0, 2, cs[1:])]),
        ):
            with mock.patch.object(
                tabulate, "_count_distinct", wraps=tabulate._count_distinct
            ) as counted:
                run()
            inverse = [call for call in counted.call_args_list if call.kwargs.get("inverse")]
            assert len(inverse) <= 1


@st.composite
def singleton_strata(draw):
    """Datasets whose conditioning set has far more strata than rows."""
    n = draw(st.integers(1, 60))
    k = draw(st.integers(1, 4))
    dims = draw(st.lists(st.sampled_from([1, 2, 3, 4]), min_size=2, max_size=2))
    data = make_dataset(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n, (*dims, *[25] * k))
    return data, TestSpec(0, 1, tuple(range(2, k + 2)))


@st.composite
def folding_stacks(draw):
    """A dataset, a conditioning set and pairs whose tables fold fully or hardly at all.

    Tied columns are functions of the stratum, so every cell of a pair with
    one folds; free columns are drawn independently of it.
    """
    n = draw(st.integers(1, 80))
    z_levels = draw(st.lists(st.sampled_from([2, 4, 25]), max_size=3))
    free = draw(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=3))
    tied = draw(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    codes = [rng.integers(0, d, size=n) for d in z_levels + free]
    stratum = np.zeros(n, dtype=np.int64)
    for z in codes[: len(z_levels)]:
        stratum = stratum * 31 + z
    codes += [(stratum * (j + 1) + j) % d for j, d in enumerate(tied)]
    levels = z_levels + free + tied
    columns = tuple(
        CategoricalColumn(f"V{j}", d, c, labels=tuple(map(str, range(d))))
        for j, (d, c) in enumerate(zip(levels, codes))
    )
    pairs = list(itertools.combinations(range(len(z_levels), len(levels)), 2))
    return Dataset(n, columns), tuple(range(len(z_levels))), pairs


@st.composite
def sorted_stacks(draw):
    """A dataset, a conditioning set and pairs whose cells are counted by sorting.

    Rows come in runs of one or two that share a stratum of two 25-level Z
    columns, so a pair's code space, its strata times |X|·|Y| >= 9, exceeds
    4·n whether Z is compressed (a stack) or not (a single pair).  Tied
    columns follow the stratum, so a pair of them has every cell alone in
    its stratum; the spread column numbers the rows of a run, so a pair
    with it has no lone cell where every run has two rows; free columns are
    drawn at random.  The rows are then shuffled, so only the sort brings
    a stratum's cells together.
    """
    shape = draw(st.sampled_from(["lone", "pairs", "mixed"]))
    n_runs = draw(st.integers(1, 40))
    runs = {"lone": [1] * n_runs, "pairs": [2] * n_runs}.get(shape) or draw(
        st.lists(st.integers(1, 2), min_size=n_runs, max_size=n_runs)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stratum = np.repeat(rng.choice(625, size=n_runs, replace=False), runs)
    n = stratum.size
    tied = draw(st.lists(st.sampled_from([3, 4]), min_size=1, max_size=2))
    free = draw(st.lists(st.sampled_from([3, 4]), min_size=1, max_size=2))
    codes = [stratum // 25, stratum % 25, np.concatenate([np.arange(r) for r in runs])]
    codes += [(stratum * (j + 1) + j) % d for j, d in enumerate(tied)]
    codes += [rng.integers(0, d, size=n) for d in free]
    levels = [25, 25, 3] + tied + free
    shuffle = rng.permutation(n)
    columns = tuple(
        CategoricalColumn(f"V{j}", d, c[shuffle], labels=tuple(map(str, range(d))))
        for j, (d, c) in enumerate(zip(levels, codes))
    )
    pairs = list(itertools.combinations(range(2, len(levels)), 2))
    return Dataset(n, columns), (0, 1), pairs


def _sorted_counts_only():
    """A patch of ``_count_distinct`` that fails unless every cell count sorts."""
    count_distinct = tabulate._count_distinct

    def checked(ids, space, **kwargs):
        assert kwargs.get("inverse") or space > tabulate._BINCOUNT_SPAN * ids.size
        return count_distinct(ids, space, **kwargs)

    return mock.patch.object(tabulate, "_count_distinct", checked)


class TestSortedCounts:
    """Stacks and single pairs counted by sorting, with all-lone, no-lone
    and mixed tables, against the unfolded sums, the batch of one and the
    occupied-cells oracle."""

    @pytest.mark.parametrize("lone_strata", [0, citest._LONE_STRATA, math.inf])
    @given(case=sorted_stacks())
    def test_stacks_equal_unfolded_sums(self, lone_strata, case):
        data, cs, pairs = case
        with _sorted_counts_only(), mock.patch.object(citest, "_LONE_STRATA", lone_strata), \
                mock.patch.object(tabulate, "_STACK_ROWS", len(pairs)):
            for _, cells in tabulate.stacked_cells(data, cs, pairs):
                assert citest._closed_form(cells) == closed_form_unfolded(cells)

    @given(case=sorted_stacks())
    def test_batch_equals_single_tests_and_oracle(self, case):
        data, cs, pairs = case
        specs = [TestSpec(x, y, cs) for x, y in pairs]
        with _sorted_counts_only():
            batch = batch_screen(data, specs)
            singles = [ci_test(data, spec) for spec in specs]
        assert batch == singles
        for spec, result in zip(specs, batch):
            assert_matches_oracle(result, ci_occupied_bruteforce(data, spec))


class TestFoldedSums:
    """_closed_form drops the cells with E = N, which add exactly 0 to both
    sums; its sums must equal, bit for bit, those over every cell, on either
    side of the lone-cell gate and of ``_FOLD_SHARE``."""

    @pytest.mark.parametrize("share", [0.0, citest._FOLD_SHARE, 1.0])
    @given(case=st.one_of(kernel_datasets(), singleton_strata()))
    def test_single_tables_equal_unfolded_sums(self, share, case):
        data, spec = case
        ((_, cells),) = tabulate.stacked_cells(data, spec.cs, [(spec.x, spec.y)])
        with mock.patch.object(citest, "_FOLD_SHARE", share):
            assert citest._closed_form(cells) == closed_form_unfolded(cells)

    @pytest.mark.parametrize("share", [0.0, citest._FOLD_SHARE, 1.0])
    @given(case=folding_stacks())
    def test_stacks_equal_unfolded_sums(self, share, case):
        data, cs, pairs = case
        # A wide row budget stacks every pair of equal dimensions together.
        with mock.patch.object(citest, "_FOLD_SHARE", share), mock.patch.object(
            tabulate, "_STACK_ROWS", len(pairs)
        ):
            for _, cells in tabulate.stacked_cells(data, cs, pairs):
                assert citest._closed_form(cells) == closed_form_unfolded(cells)

    def test_stack_mixing_folded_and_unfolded_tables(self, rng):
        # Every cell of a table with the tied column T or U is dropped, and they
        # hold most of the stack's cells; the free pair (about 100 rows per
        # stratum) has a positive G².
        n = 400
        z = rng.integers(0, 4, size=n)
        columns = (
            CategoricalColumn("Z", 4, z),
            CategoricalColumn("T", 3, z % 3),
            CategoricalColumn("A", 3, rng.integers(0, 3, size=n)),
            CategoricalColumn("B", 3, rng.integers(0, 3, size=n)),
            CategoricalColumn("C", 3, rng.integers(0, 3, size=n)),
            CategoricalColumn("U", 3, (z + 1) % 3),
        )
        data = Dataset(n, columns)
        pairs = [(1, 2), (2, 3), (1, 3), (4, 1), (5, 2), (3, 5)]
        ((positions, cells),) = tabulate.stacked_cells(data, (0,), pairs)
        reference = closed_form_unfolded(cells)
        sizes = np.diff(cells.bounds)
        tied = [k for k, i in enumerate(positions) if {1, 5} & set(pairs[i])]
        assert sizes[tied].sum() > citest._FOLD_SHARE * sizes.sum()
        assert reference[positions.index(1)][0] > 0.0
        for share in (0.0, citest._FOLD_SHARE, 1.0):
            with mock.patch.object(citest, "_FOLD_SHARE", share):
                assert citest._closed_form(cells) == reference


    @pytest.mark.parametrize("share", [0.0, citest._FOLD_SHARE])
    @pytest.mark.parametrize("lone_strata", [0, citest._LONE_STRATA, math.inf])
    @given(case=singleton_strata())
    def test_single_tables_on_either_side_of_the_lone_gate(self, lone_strata, share, case):
        # 0 never looks for lone cells, inf always does.
        data, spec = case
        ((_, cells),) = tabulate.stacked_cells(data, spec.cs, [(spec.x, spec.y)])
        with mock.patch.object(citest, "_LONE_STRATA", lone_strata), \
                mock.patch.object(citest, "_FOLD_SHARE", share):
            assert citest._closed_form(cells) == closed_form_unfolded(cells)

    @pytest.mark.parametrize("share", [0.0, citest._FOLD_SHARE])
    @pytest.mark.parametrize("lone_strata", [0, citest._LONE_STRATA, math.inf])
    @given(case=folding_stacks())
    def test_stacks_on_either_side_of_the_lone_gate(self, lone_strata, share, case):
        data, cs, pairs = case
        with mock.patch.object(citest, "_LONE_STRATA", lone_strata), \
                mock.patch.object(citest, "_FOLD_SHARE", share), \
                mock.patch.object(tabulate, "_STACK_ROWS", len(pairs)):
            for _, cells in tabulate.stacked_cells(data, cs, pairs):
                assert citest._closed_form(cells) == closed_form_unfolded(cells)

    def test_tables_emptied_by_the_lone_fold(self):
        # Strata 0-19 hold one row each, strata 20 and 21 twenty rows each.
        # T, U and V follow Z, so every cell of (T, U) and (V, T) is alone in
        # its stratum; the heavy strata's (T, A) cells have one T level each
        # and fold after the terms; (A, B) keeps a positive G².  The stack
        # starts and ends with a table that the lone fold empties.
        z = np.concatenate([np.arange(20), np.repeat([20, 21], 20)])
        heavy = np.concatenate([np.zeros(20, dtype=np.int64), np.tile(np.arange(20), 2)])
        columns = (
            CategoricalColumn("Z", 22, z),
            CategoricalColumn("T", 3, z % 3),
            CategoricalColumn("U", 3, (z + 1) % 3),
            CategoricalColumn("A", 3, heavy % 3),
            CategoricalColumn("B", 3, heavy // 3 % 3),
            CategoricalColumn("V", 3, (z + 2) % 3),
        )
        data = Dataset(z.size, columns)
        pairs = [(1, 2), (1, 3), (3, 4), (5, 1)]
        with mock.patch.object(tabulate, "_STACK_ROWS", len(pairs)):  # one stack of all
            ((positions, cells),) = tabulate.stacked_cells(data, (0,), pairs)
        assert positions == [0, 1, 2, 3]
        sizes = np.diff(cells.bounds)
        assert sizes.tolist() == [22, 20 + 2 * 3, 20 + 2 * 9, 22]
        assert sizes.sum() < citest._LONE_STRATA * len(pairs) * cells.n_strata
        lone = np.split(cells.head[:-1] & cells.head[1:], cells.bounds[1:-1])
        assert [table.sum() for table in lone] == [22, 20, 20, 22]
        reference = closed_form_unfolded(cells)
        assert reference[1] == (0.0, 0.0) and reference[2][0] > 0.0
        assert citest._closed_form(cells) == reference


@st.composite
def large_counts(draw):
    """Up to 3000 rows in a few strata, so that cells hold hundreds of rows."""
    n = draw(st.integers(100, 3000))
    levels = draw(st.lists(st.sampled_from([2, 3, 4, 5]), min_size=2, max_size=4))
    data = make_dataset(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n, tuple(levels))
    return data, TestSpec(0, 1, tuple(range(2, len(levels))))


def _as_specs(case):
    if len(case) == 2:  # a dataset and one spec
        return case[0], [case[1]]
    data, cs, pairs = case
    return data, [TestSpec(x, y, cs) for x, y in pairs]


class TestChi2Accuracy:
    """The closed form's χ² against exact rational arithmetic.

    E takes two roundings and N²/E a third, so each term N²/E - N is off by
    about 3u·N²/E at most, u = 2⁻⁵³, and those N²/E sum to n + χ².  The
    subtraction is exact where N²/E lies within a factor 2 of N.
    """

    @pytest.mark.parametrize("share", [0.0, 1.0])
    @pytest.mark.parametrize("lone_strata", [0, math.inf])
    @given(case=st.one_of(
        kernel_datasets(), singleton_strata(), folding_stacks(), large_counts()
    ).map(_as_specs))
    def test_within_three_units_of_exact(self, lone_strata, share, case):
        # lone_strata 0 never looks for lone cells, inf always does; share 0.0
        # drops every cell with E = N once any G² term is 0, 1.0 never does.
        data, specs = case
        with mock.patch.object(citest, "_LONE_STRATA", lone_strata), \
                mock.patch.object(citest, "_FOLD_SHARE", share), \
                mock.patch.object(tabulate, "_STACK_ROWS", len(specs)):
            results = batch_screen(data, specs)
        for spec, result in zip(specs, results):
            exact = chi2_exact(data, spec)
            assert abs(Fraction(result.chi2) - exact) <= Fraction(3, 2**53) * (data.n_rows + exact)


class TestBatchScreen:
    def test_singleton_equals_ci_test(self, small_dataset):
        spec = TestSpec(0, 1, (2,))
        assert batch_screen(small_dataset, [spec]) == [ci_test(small_dataset, spec)]

    def test_worker_counts_agree(self, rng):
        data = make_dataset(rng, 400, (3,) * 6)
        pairs = [TestSpec(i, j) for i, j in itertools.combinations(range(6), 2)]
        serial = batch_screen(data, pairs, workers=1)
        pooled = batch_screen(data, pairs, workers=2)
        assert serial == pooled

    def test_matches_looped_ci_test(self, rng):
        data = make_dataset(rng, 350, (2, 3, 4, 2, 3, 2))
        pairs = [TestSpec(i, j, (5,)) for i, j in itertools.combinations(range(5), 2)]
        batch = batch_screen(data, pairs, workers=2)
        assert batch == [ci_test(data, s) for s in pairs]

    def test_first_invalid_spec_position(self, small_dataset):
        pairs = [TestSpec(0, 1), TestSpec(0, 0), TestSpec(1, 1)]
        with pytest.raises(SpecError, match="pair 1"):
            batch_screen(small_dataset, pairs)

    def test_threads_capped_at_specs_and_cpus(self, rng):
        # 500 workers on three specs and two CPUs start two threads; with an
        # unknown CPU count the batch runs in the calling thread.
        data = make_dataset(rng, 200, (3, 3, 2))
        pairs = [TestSpec(0, 1), TestSpec(0, 2), TestSpec(1, 2)]
        started = []

        class InProcessPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, chunks):
                return map(fn, chunks)

        serial = batch_screen(data, pairs)
        with mock.patch.object(citest, "ThreadPoolExecutor", InProcessPool):
            with mock.patch("os.cpu_count", return_value=2):
                assert batch_screen(data, pairs, workers=500) == serial
            assert started == [2]
            with mock.patch("os.cpu_count", return_value=None):
                assert batch_screen(data, pairs, workers=500) == serial
            assert started == [2]

    def test_chunks_run_in_the_calling_process(self, rng):
        # One contiguous chunk per thread, each computed by _run in this process.
        data = make_dataset(rng, 300, (3,) * 6)
        pairs = [TestSpec(i, j) for i, j in itertools.combinations(range(6), 2)]
        serial = batch_screen(data, pairs)
        with mock.patch("os.cpu_count", return_value=2), \
                mock.patch.object(citest, "_run", wraps=citest._run) as run:
            assert batch_screen(data, pairs, workers=2) == serial
        chunks = sorted((call.args[1] for call in run.call_args_list), key=len, reverse=True)
        assert chunks == [pairs[:8], pairs[8:]]

    def test_ipf_runs_in_the_calling_thread(self, rng):
        data = make_dataset(rng, 300, (3, 3, 2, 2))
        pairs = [TestSpec(0, 1, (2,)), TestSpec(0, 1, (2, 3)), TestSpec(1, 2, (3,))]

        class NoPool:
            def __init__(self, max_workers):
                raise AssertionError("ipf started a thread pool")

        serial = batch_screen(data, pairs, method="ipf")
        with mock.patch.object(citest, "ThreadPoolExecutor", NoPool), \
                mock.patch("os.cpu_count", return_value=2):
            assert batch_screen(data, pairs, workers=2, method="ipf") == serial

    def test_groups_above_the_crossover_equal_single_tests(self, rng):
        # Each conditioning set holds many p-value lanes; each lane's equals
        # the single test's.
        data = make_dataset(rng, 500, (2, 3, 4) * 4)
        pairs = [
            TestSpec(x, y, cs)
            for cs in ((), (3,), (5, 9))
            for x, y in itertools.combinations([c for c in range(12) if c not in cs], 2)
        ]
        batch = batch_screen(data, pairs)
        assert batch == [ci_test(data, s) for s in pairs]

    def test_every_p_value_is_one_log_sf_call(self, rng):
        # 36 pairs given column 9; the 8 with the one-level column 0 are
        # degenerate and take no tail.
        data = make_dataset(rng, 300, (1, 3, 4, 2, 3, 4, 2, 3, 4, 3))
        pairs = [TestSpec(x, y, (9,)) for x, y in itertools.combinations(range(9), 2)]
        with mock.patch.object(citest, "log_sf_chisq", wraps=citest.log_sf_chisq) as tail:
            results = batch_screen(data, pairs)
        assert sum(r.degenerate for r in results) == 8
        assert tail.call_count == 2 * 28
        assert [call.args for call in tail.call_args_list] == [
            (stat, r.dof) for r in results if not r.degenerate for stat in (r.g2, r.chi2)
        ]

    def test_ipf_data_error_names_its_pair(self, rng):
        # Given column 2 an ipf table has 27 cells, over a cap of 20; the
        # unconditional pair's 9 fit.
        data = make_dataset(rng, 300, (3, 3, 3))
        pairs = [TestSpec(0, 1), TestSpec(1, 0), TestSpec(0, 1, (2,)), TestSpec(1, 0)]
        with mock.patch.object(tabulate, "_TABLE_CELLS", 20):
            with pytest.raises(DataError, match=r"^pair 2: table with 27 cells exceeds the 20-cell"):
                batch_screen(data, pairs, method="ipf")
            with pytest.raises(DataError, match=r"^table with 27 cells exceeds the 20-cell"):
                ci_test(data, pairs[2], method="ipf")
        real_fit = ipf_fit

        def stalled(table, model):
            fit = real_fit(table, model)
            return dataclasses.replace(fit, converged=table.dims[2:] == (1,))

        with mock.patch("catci.loglinear.ipf_fit", stalled):
            with pytest.raises(DataError, match=r"^pair 2: ipf fit did not converge"):
                batch_screen(data, pairs, method="ipf")
            with pytest.raises(DataError, match=r"^ipf fit did not converge"):
                ci_test(data, pairs[2], method="ipf")

    def test_trusted_results_equal_validated_ones(self, rng):
        data = make_dataset(rng, 300, (1, 3, 4, 2, 25))
        pairs = [TestSpec(x, y, cs) for cs in ((), (3,), (3, 4))
                 for x, y in itertools.combinations([c for c in range(5) if c not in cs], 2)]
        for method, adjust_dof in itertools.product(METHODS, (False, True)):
            trusted = batch_screen(data, pairs, method=method, adjust_dof=adjust_dof)
            with mock.patch.object(TestResult, "_trusted", TestResult):
                validated = batch_screen(data, pairs, method=method, adjust_dof=adjust_dof)
            assert trusted == validated
            assert [vars(r) for r in trusted] == [vars(r) for r in validated]
            assert [list(map(type, dataclasses.astuple(r))) for r in trusted] == [
                list(map(type, dataclasses.astuple(r))) for r in validated
            ]
        # Set field by field, a trusted result takes no more memory than a validated one.
        fields = dataclasses.asdict(trusted[0])
        held = []
        for build in (TestResult, TestResult._trusted):
            tracemalloc.start()
            try:
                results = [build(**fields) for _ in range(1000)]
                held.append(tracemalloc.get_traced_memory()[0])
            finally:
                tracemalloc.stop()
            assert results[0] == trusted[0]
        assert held[1] <= held[0]

    def test_options_forwarded(self, rng):
        data = make_dataset(rng, 200, (3, 3, 2))
        pairs = [TestSpec(0, 1, (2,))]
        res = batch_screen(data, pairs, workers=1, method="ipf", adjust_dof=True)
        assert res[0] == ci_test(data, pairs[0], method="ipf", adjust_dof=True)


@st.composite
def screens(draw):
    """A small dataset and a shuffled spec list with shared and distinct conditioning sets.

    Columns may have unused labelled levels, a single used level (degenerate
    X or Y) or 25 levels (wide Z id spaces); specs repeat.
    """
    n = draw(st.integers(1, 60))
    width = draw(st.integers(3, 7))
    used = draw(st.lists(st.sampled_from([1, 2, 3, 4, 25]), min_size=width, max_size=width))
    unused = draw(st.lists(st.integers(0, 3), min_size=width, max_size=width))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = tuple(
        CategoricalColumn(
            f"V{j}", u + e, rng.integers(0, u, size=n), labels=tuple(map(str, range(u + e)))
        )
        for j, (u, e) in enumerate(zip(used, unused))
    )
    conditioning = draw(
        st.lists(
            st.lists(st.integers(0, width - 1), unique=True, max_size=width - 2).map(tuple),
            min_size=1,
            max_size=3,
        )
    )
    specs = []
    for _ in range(draw(st.integers(1, 20))):
        cs = draw(st.sampled_from(conditioning))
        x, y, *_ = draw(st.permutations([c for c in range(width) if c not in cs]))
        specs.append(TestSpec(x, y, cs))
    specs += draw(st.lists(st.sampled_from(specs), max_size=5))
    return Dataset(n, columns), draw(st.permutations(specs))


class TestBatchedKernel:
    """batch_screen stacks the pairs that share a conditioning set; each result,
    on one thread or two, must equal the batch of one and the occupied-cells oracle."""

    @pytest.mark.parametrize("span", [0, tabulate._BINCOUNT_SPAN, 1 << 40])
    @given(case=screens())
    def test_equals_single_tests_and_oracle(self, span, case):
        data, specs = case
        with mock.patch.object(tabulate, "_BINCOUNT_SPAN", span):
            batch = batch_screen(data, specs)
            singles = [ci_test(data, s) for s in specs]
            with mock.patch("os.cpu_count", return_value=2):
                threaded = batch_screen(data, specs, workers=2)
        assert batch == singles == threaded
        for spec, result in zip(specs, batch):
            assert_matches_oracle(result, ci_occupied_bruteforce(data, spec))

    @pytest.mark.parametrize("adjust_dof", [False, True])
    @given(case=screens())
    def test_ipf_stacks_equal_single_ipf_tests(self, adjust_dof, case):
        data, specs = case
        # A wide row budget stacks every pair of equal dimensions together.
        with mock.patch.object(tabulate, "_STACK_ROWS", len(specs)):
            batch = batch_screen(data, specs, method="ipf", adjust_dof=adjust_dof)
        assert batch == [ci_test(data, s, method="ipf", adjust_dof=adjust_dof) for s in specs]

    @given(case=screens(), cut=st.integers(0, 30))
    def test_any_split_concatenates(self, case, cut):
        data, specs = case
        whole = batch_screen(data, specs)
        assert batch_screen(data, specs[:cut]) + batch_screen(data, specs[cut:]) == whole

    def test_single_row(self):
        data = make_dataset(np.random.default_rng(0), 1, (3, 4, 2, 5, 2))
        specs = [
            TestSpec(0, 1, (2, 3)), TestSpec(0, 4, (2, 3)), TestSpec(1, 4), TestSpec(1, 0, (2, 3))
        ]
        for spec, result in zip(specs, batch_screen(data, specs)):
            assert_matches_oracle(result, ci_occupied_bruteforce(data, spec))

    def test_stacks_flush_at_the_row_budget(self, rng):
        # Each pair fills most of one stack: results must not depend on where
        # the flushes fall.
        data = make_dataset(rng, 300, (4,) * 6 + (3,) * 6)
        cs = tuple(range(6))
        specs = [TestSpec(x, y, cs) for x, y in itertools.combinations(range(6, 12), 2)]
        with mock.patch.object(tabulate, "_STACK_ROWS", 3):
            wide = batch_screen(data, specs)
        assert batch_screen(data, specs) == wide == [ci_test(data, s) for s in specs]

    def test_memory_tracks_rows_not_pairs(self, rng):
        # 300 pairs under 4**10 nominal strata: nearly every row is its own
        # stratum, so each pair has about n occupied cells.  Holding every
        # pair's cells at once would take well over 100 MB.
        data = make_dataset(rng, 3000, (4,) * 10 + (3,) * 13 + (4,) * 12)
        cs = tuple(range(10))
        specs = [TestSpec(x, y, cs) for x, y in itertools.combinations(range(10, 35), 2)]
        tracemalloc.start()
        try:
            batch_screen(data, specs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestZeroExpectedUnreachable:
    """N > 0 forces E > 0 under conditional-independence expectations."""

    @given(n=st.integers(1, 120), seed=st.integers(0, 2**32 - 1))
    def test_expected_positive_wherever_observed(self, n, seed):
        data = make_dataset(np.random.default_rng(seed), n, (3, 4, 2, 2))
        t = build_table(data, (0, 1, 2, 3))
        e = expected_ci(slice_marginals(t))
        obs = t.dense
        assert np.all(e[obs > 0] > 0)
        # and the statistic call therefore never raises
        g2_statistic(t, e)
