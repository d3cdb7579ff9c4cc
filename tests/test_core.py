import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from catci.core import (
    CategoricalColumn,
    ContingencyTable,
    DataError,
    Dataset,
    LogLinearModel,
    SpecError,
    TestResult,
    TestSpec,
    validate_spec,
)
from catci.tabulate import build_table, table_from_counts

from conftest import make_dataset


class TestCategoricalColumn:
    def test_from_tokens_first_appearance_order(self):
        col = CategoricalColumn.from_tokens("a", ["x", "y", "x", "z"])
        assert col.levels == 3
        assert col.labels == ("x", "y", "z")
        assert list(col.codes) == [0, 1, 0, 2]

    def test_levels_must_be_positive(self):
        with pytest.raises(DataError, match="levels"):
            CategoricalColumn("a", 0, np.array([], dtype=np.int64))

    def test_codes_out_of_range(self):
        with pytest.raises(DataError, match="codes"):
            CategoricalColumn("a", 2, np.array([0, 2]))
        with pytest.raises(DataError, match="codes"):
            CategoricalColumn("a", 2, np.array([-1, 0]))

    def test_unused_code_needs_labels(self):
        with pytest.raises(DataError, match="unused"):
            CategoricalColumn("a", 3, np.array([0, 1, 0]))
        col = CategoricalColumn("a", 3, np.array([0, 1, 0]), labels=("p", "q", "r"))
        assert col.levels == 3

    def test_label_length_mismatch(self):
        with pytest.raises(DataError, match="labels"):
            CategoricalColumn("a", 2, np.array([0, 1]), labels=("only",))

    def test_labels_become_a_tuple_of_str(self):
        col = CategoricalColumn("a", 3, np.array([0, 1, 2]), labels=[1, "b", 2.5])
        assert col.labels == ("1", "b", "2.5")
        assert all(type(t) is str for t in col.labels)
        col = CategoricalColumn("a", 2, np.array([0, 1]), labels=["p", "q"])
        assert col.labels == ("p", "q")

    def test_fractional_codes_rejected(self):
        with pytest.raises(DataError, match="'a': codes must be integers"):
            CategoricalColumn("a", 2, np.array([0.4, 1.9, 0.0]))
        assert CategoricalColumn("a", 2, np.array([0.0, 1.0, 0.0])).codes.tolist() == [0, 1, 0]
        assert CategoricalColumn("a", 2, np.array([True, False])).codes.tolist() == [1, 0]

    def test_text_codes_rejected(self):
        with pytest.raises(DataError, match="codes must be integers"):
            CategoricalColumn("a", 2, ["0", "1"])

    @pytest.mark.filterwarnings("error")
    def test_nan_code_rejected_without_a_warning(self):
        with pytest.raises(DataError, match="codes must be integers"):
            CategoricalColumn("a", 2, np.array([0.0, np.nan, 1.0]))

    def test_codes_are_immutable(self):
        col = CategoricalColumn("a", 2, np.array([0, 1]))
        with pytest.raises(ValueError):
            col.codes[0] = 1

    def test_constructor_copies_the_callers_codes(self):
        codes = np.array([0, 1, 1, 0], dtype=np.int64)
        col = CategoricalColumn("a", 2, codes, labels=("p", "q"))
        codes[:] = 5
        assert col.codes.tolist() == [0, 1, 1, 0]
        assert codes.flags.writeable

    @given(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=40))
    def test_factorize_roundtrip(self, tokens):
        col = CategoricalColumn.from_tokens("v", tokens)
        assert [col.labels[c] for c in col.codes] == tokens
        assert col.tokens() == tokens

    @given(
        st.lists(
            st.integers(0, 400).map(lambda i: ("é", "日", "\U0001f600", "x")[i % 4] * (1 + i // 4)),
            min_size=1,
            max_size=1500,
        )
    )
    def test_factorize_non_ascii_many_levels(self, tokens):
        first_seen = []
        for tok in tokens:
            if tok not in first_seen:
                first_seen.append(tok)
        col = CategoricalColumn.from_tokens("v", tokens)
        assert col.labels == tuple(first_seen)
        assert col.codes.tolist() == [first_seen.index(tok) for tok in tokens]

    def test_factorize_more_than_256_levels(self):
        tokens = [f"ü{i % 300}" for i in range(900)]
        col = CategoricalColumn.from_tokens("v", tokens)
        assert col.levels == 300
        assert col.codes.tolist() == [i % 300 for i in range(900)]
        assert col.tokens() == tokens

    def test_factorize_empty_rejected(self):
        with pytest.raises(DataError, match="no observations"):
            CategoricalColumn.from_tokens("v", [])


class TestDataset:
    def test_row_count_mismatch(self):
        good = CategoricalColumn("a", 2, np.array([0, 1]))
        bad = CategoricalColumn("b", 2, np.array([0, 1, 0, 1]))
        with pytest.raises(DataError, match="rows"):
            Dataset(n_rows=2, columns=(good, bad))

    def test_equality_is_by_value(self):
        a = CategoricalColumn("a", 2, np.array([0, 1, 0]))
        assert Dataset(3, (a,)) == Dataset(3, (CategoricalColumn("a", 2, np.array([0, 1, 0])),))
        assert Dataset(3, (a,)) != Dataset(3, (CategoricalColumn("a", 2, np.array([0, 1, 1]), labels=("0", "1")),))


class TestValidateSpec:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.data = make_dataset(rng, 20, (2, 2, 2, 2, 2))

    def test_well_formed(self):
        validate_spec(TestSpec(0, 1, (2, 3)), self.data)

    def test_x_equals_y(self):
        with pytest.raises(SpecError, match="overlap"):
            validate_spec(TestSpec(0, 0, ()), self.data)

    def test_y_in_cs(self):
        with pytest.raises(SpecError, match="overlap"):
            validate_spec(TestSpec(0, 1, (1,)), self.data)

    def test_out_of_range(self):
        with pytest.raises(SpecError, match="5"):
            validate_spec(TestSpec(0, 5, ()), self.data)
        with pytest.raises(SpecError, match="7"):
            validate_spec(TestSpec(0, 1, (7,)), self.data)

    def test_duplicate_cs(self):
        with pytest.raises(SpecError, match="twice"):
            validate_spec(TestSpec(0, 1, (2, 2)), self.data)

    def test_non_integer_indices_are_refused(self):
        with pytest.raises(SpecError, match=r"integers: .*x=1\.7, y=0\.2, cs=\(2\.9,\)"):
            TestSpec(1.7, 0.2, cs=(2.9,))
        with pytest.raises(SpecError, match=r"integers: .*cs=\(2\.9,\)"):
            TestSpec(1, 0, cs=(2.9,))
        with pytest.raises(SpecError, match="integers: .*y='1'"):
            TestSpec(0, "1")
        with pytest.raises(SpecError, match="integers: .*cs='23'"):
            TestSpec(0, 1, cs="23")

    def test_numpy_integers_are_indices(self):
        spec = TestSpec(np.int64(0), np.int32(1), cs=np.array([2, 3]))
        assert spec == TestSpec(0, 1, (2, 3))
        assert all(type(i) is int for i in (spec.x, spec.y, *spec.cs))


class TestContingencyTable:
    def test_sum_must_match_total(self):
        with pytest.raises(DataError, match="sum"):
            ContingencyTable(dims=(2,), total=5, dense=np.array([1, 1]))

    def test_negative_counts_rejected(self):
        with pytest.raises(DataError, match="negative"):
            ContingencyTable(dims=(2,), total=0, dense=np.array([1, -1]))

    def test_fractional_counts_rejected(self):
        with pytest.raises(DataError, match="cell counts must be integers"):
            ContingencyTable(dims=(2,), total=1, dense=np.array([0.5, 1.0]))
        with pytest.raises(DataError, match="cell counts must be integers"):
            table_from_counts([[0.5, 1.0], [1.0, 2.0]])
        table = ContingencyTable(dims=(2,), total=3, dense=np.array([1.0, 2.0]))
        assert table.dense.tolist() == [1, 2]

    def test_exactly_one_storage(self):
        with pytest.raises(DataError, match="storage"):
            ContingencyTable(dims=(2,), total=2, dense=None)

    def test_as_array(self):
        t = ContingencyTable(dims=(2, 2), total=4, dense=np.array([1, 2, 1, 0]))
        # flat layout: x fastest, so [x=1, y=0] is flat index 1
        assert t.as_array()[1, 0] == 2
        assert t.as_array().tolist() == [[1, 1], [2, 0]]

    def test_tables_compare_equal_cellwise(self, rng):
        data = make_dataset(rng, 300, (3, 4, 2))
        table = build_table(data, (0, 1, 2))
        arr = table.as_array()
        assert table == table_from_counts(arr)
        for coords in [(0, 0, 0), (2, 3, 1), (1, 2, 0)]:
            flat = np.ravel_multi_index(coords, table.dims, order="F")
            assert table.dense[flat] == arr[coords]
        # Move one row to another cell: same dims and total, one cell differs.
        moved = arr.copy()
        src = np.unravel_index(np.flatnonzero(moved)[0], moved.shape)
        dst = tuple(d - 1 - c for d, c in zip(moved.shape, src))
        moved[src] -= 1
        moved[dst] += 1
        assert table != table_from_counts(moved)
        assert table != table_from_counts(arr.reshape(4, 3, 2))


class TestResultInvariants:
    def _result(self, **kw):
        base = dict(
            g2=1.0, chi2=1.0, dof=4, dof_adjusted=4, log_p_g2=-0.5,
            log_p_chi2=-0.5, empty_strata=0, method="closed_form",
        )
        base.update(kw)
        return TestResult(**base)

    def test_valid(self):
        assert self._result().dof == 4

    def test_negative_statistic_rejected(self):
        with pytest.raises(ValueError):
            self._result(g2=-0.1)

    def test_positive_log_p_rejected(self):
        with pytest.raises(ValueError):
            self._result(log_p_g2=0.1)

    def test_adjusted_dof_bounded(self):
        with pytest.raises(ValueError):
            self._result(dof_adjusted=5)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            self._result(method="magic")


class TestLogLinearModelType:
    def test_nested_class_rejected(self):
        with pytest.raises(ValueError, match="maximal"):
            LogLinearModel(n_vars=3, generating_classes=((0, 1, 2), (0, 1)))

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="range"):
            LogLinearModel(n_vars=2, generating_classes=((0, 2),))

    def test_classes_normalized_sorted(self):
        m = LogLinearModel(n_vars=3, generating_classes=((2, 0), (1,)))
        assert m.generating_classes == ((0, 2), (1,))
