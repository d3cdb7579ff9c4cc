import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from catci.citest import chi2_statistic, ci_test, g2_statistic
from catci.core import CategoricalColumn, DataError, Dataset, LogLinearModel, TestSpec
from catci.loglinear import ci_model, ipf_fit, model_dof, saturated_model
from catci.tabulate import expected_ci, slice_marginals, table_from_counts


def _random_table(rng, dims, total):
    probs = rng.random(math.prod(dims))
    counts = rng.multinomial(total, probs / probs.sum()).reshape(dims)
    return table_from_counts(counts)


class TestCiModel:
    def test_no_conditioning(self):
        assert ci_model(0).generating_classes == ((0,), (1,))

    def test_one_conditioning_variable(self):
        assert ci_model(1).generating_classes == ((0, 2), (1, 2))

    def test_three_conditioning_variables(self):
        m = ci_model(3)
        assert m.n_vars == 5
        assert m.generating_classes == ((0, 2, 3, 4), (1, 2, 3, 4))

    def test_negative_k(self):
        with pytest.raises(ValueError):
            ci_model(-1)


class TestModelDof:
    def test_benchmark_scenario_values(self):
        assert model_dof((3, 4, 2), ci_model(1)) == 12
        assert model_dof((3, 4, 2, 4, 4), ci_model(3)) == 192

    def test_saturated_is_zero(self):
        for dims in [(2, 2), (3, 4, 2), (2, 3, 4, 2)]:
            assert model_dof(dims, saturated_model(len(dims))) == 0

    def test_no_three_way_model(self):
        # 2x2x2 with all two-way interactions: one residual degree of freedom
        model = LogLinearModel(n_vars=3, generating_classes=((0, 1), (0, 2), (1, 2)))
        assert model_dof((2, 2, 2), model) == 1

    def test_dimension_count_mismatch(self):
        with pytest.raises(ValueError, match="variables"):
            model_dof((2, 2), ci_model(1))

    @given(
        dx=st.integers(2, 5),
        dy=st.integers(2, 5),
        dzs=st.lists(st.integers(2, 5), min_size=0, max_size=3),
    )
    def test_ci_model_reduces_to_product_formula(self, dx, dy, dzs):
        dims = (dx, dy, *dzs)
        expected = (dx - 1) * (dy - 1) * math.prod(dzs)
        assert model_dof(dims, ci_model(len(dzs))) == expected


class TestIpfFit:
    def test_saturated_reproduces_observed(self, rng):
        t = _random_table(rng, (3, 4), 500)
        fit = ipf_fit(t, saturated_model(2))
        assert np.array_equal(fit.fitted, t.as_array().astype(float))
        assert fit.deviance == 0.0
        assert fit.pearson == 0.0
        assert fit.converged
        assert fit.model_dof == 0

    def test_independence_fit_crossed_table(self):
        t = table_from_counts(np.array([[20, 30], [30, 20]]))
        fit = ipf_fit(t, ci_model(0))
        assert np.allclose(fit.fitted, 25.0)
        assert fit.deviance == pytest.approx(4.0272, abs=1e-3)
        assert fit.pearson == pytest.approx(4.0, rel=1e-12)
        assert fit.model_dof == 1

    @given(
        dims=st.tuples(st.integers(2, 4), st.integers(2, 4), st.integers(2, 3)),
        total=st.integers(50, 2000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_ci_fit_equals_closed_form_in_one_cycle(self, dims, total, seed):
        t = _random_table(np.random.default_rng(seed), dims, total)
        fit = ipf_fit(t, ci_model(1))
        closed = expected_ci(slice_marginals(t)).reshape(dims, order="F")
        np.testing.assert_allclose(fit.fitted, closed, rtol=1e-10, atol=1e-12)
        assert fit.converged
        assert fit.iterations == 1

    @given(
        dims=st.tuples(st.integers(2, 4), st.integers(2, 4), st.integers(2, 3)),
        total=st.integers(50, 2000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_deviance_and_pearson_identities(self, dims, total, seed):
        t = _random_table(np.random.default_rng(seed), dims, total)
        fit = ipf_fit(t, ci_model(1))
        e = expected_ci(slice_marginals(t))
        assert fit.deviance == pytest.approx(g2_statistic(t, e), rel=1e-8, abs=1e-12)
        assert fit.pearson == pytest.approx(chi2_statistic(t, e), rel=1e-8, abs=1e-12)

    def test_margin_matching_generic_model(self, rng):
        t = _random_table(rng, (3, 3, 3), 900)
        model = LogLinearModel(n_vars=3, generating_classes=((0, 1), (0, 2), (1, 2)))
        fit = ipf_fit(t, model, tol=1e-10, max_iter=200)
        assert fit.converged
        obs = t.as_array().astype(float)
        for cls in model.generating_classes:
            other = tuple(i for i in range(3) if i not in cls)
            np.testing.assert_allclose(
                fit.fitted.sum(axis=other), obs.sum(axis=other), atol=1e-8
            )

    def test_nonconvergence_returns_partial_result(self, rng):
        t = _random_table(rng, (3, 3, 3), 400)
        model = LogLinearModel(n_vars=3, generating_classes=((0, 1), (0, 2), (1, 2)))
        fit = ipf_fit(t, model, tol=1e-14, max_iter=1)
        assert not fit.converged
        assert fit.iterations == 1
        assert np.all(fit.fitted >= 0)

    def test_empty_table_rejected(self):
        t = table_from_counts(np.zeros((2, 2), dtype=int))
        with pytest.raises(DataError, match="empty"):
            ipf_fit(t, ci_model(0))

    def test_dims_mismatch_rejected(self, rng):
        t = _random_table(rng, (2, 2), 100)
        with pytest.raises(ValueError, match="dims"):
            ipf_fit(t, ci_model(1))

    def test_zero_margin_slice_pinned_to_zero(self):
        counts = np.zeros((2, 2, 2), dtype=int)
        counts[:, :, 0] = [[8, 2], [3, 7]]
        fit = ipf_fit(table_from_counts(counts), ci_model(1))
        assert np.all(fit.fitted[:, :, 1] == 0)
        assert fit.fitted.sum() == pytest.approx(20.0, rel=1e-12)

    @given(
        dims=st.tuples(st.integers(2, 3), st.integers(2, 3), st.integers(2, 3)),
        total=st.integers(30, 500),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fitted_nonnegative_and_total_preserved(self, dims, total, seed):
        t = _random_table(np.random.default_rng(seed), dims, total)
        fit = ipf_fit(t, ci_model(1))
        assert np.all(fit.fitted >= 0)
        assert fit.fitted.sum() == pytest.approx(total, rel=1e-9)

    def test_ipf_route_holds_the_table_and_the_fit_only(self):
        # Two columns of 2048 distinct levels fill a 2048 x 2048 table, which
        # the Pearson sum crosses in many blocks.  The ipf route holds the
        # int64 table and the float64 fitted means, and no other array of
        # that size: no float copy of the table and no table-sized masks.
        levels = 2048
        rng = np.random.default_rng(0)
        data = Dataset(levels, tuple(
            CategoricalColumn(f"V{j}", levels, rng.permutation(levels)) for j in range(2)))
        tracemalloc.start()
        try:
            result = ci_test(data, TestSpec(0, 1, ()), method="ipf")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * levels * levels * 8
        closed = ci_test(data, TestSpec(0, 1, ()))
        assert result.chi2 == closed.chi2 == levels * (levels - 1)
        assert result.g2 == pytest.approx(closed.g2, rel=1e-8)
