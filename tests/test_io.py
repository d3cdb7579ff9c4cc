import hashlib
import io as stringio
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catci.citest import ci_test
from catci.core import CategoricalColumn, DataError, Dataset, TestSpec
from catci.io import DEPENDENT_MIX_WEIGHT, GenConfig, generate, read_delimited, write_delimited

from oracles import read_delimited_reference

# Pieces of random input text: line breaks splitlines knows, a space, a
# byte-order mark and non-ASCII tokens (two-byte, CJK, outside the BMP).
_LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b"]
_TOKENS = ["a", "b", "é", "日本", "\U0001f600", " ", "\ufeff"]


def _read(text, **kw):
    return read_delimited(stringio.StringIO(text), **kw)


def _write(data, **kw):
    buf = stringio.StringIO()
    write_delimited(data, buf, **kw)
    return buf.getvalue()


class TestReadDelimited:
    def test_first_appearance_coding(self):
        ds = _read("a,b\nx,1\ny,1\nx,2\n")
        assert ds.n_rows == 3
        assert ds.column_names == ("a", "b")
        assert [c.levels for c in ds.columns] == [2, 2]
        assert ds.columns[0].codes.tolist() == [0, 1, 0]
        assert ds.columns[1].codes.tolist() == [0, 0, 1]
        assert ds.columns[0].labels == ("x", "y")

    def test_empty_input(self):
        with pytest.raises(DataError, match="empty"):
            _read("")

    def test_header_only(self):
        with pytest.raises(DataError, match="no data rows"):
            _read("a,b\n")

    def test_ragged_row_reports_line(self):
        with pytest.raises(DataError, match="line 3"):
            _read("a,b\n1,2\n1\n")

    def test_missing_field_reports_line(self):
        with pytest.raises(DataError, match="line 2.*field 2"):
            _read("a,b\n1,\n")

    def test_duplicate_header(self):
        with pytest.raises(DataError, match="duplicate"):
            _read("a,a\n1,2\n")

    def test_no_header_names(self):
        ds = _read("1,2\n2,1\n", has_header=False)
        assert ds.column_names == ("V1", "V2")
        assert ds.n_rows == 2

    def test_tab_delimiter(self):
        ds = _read("a\tb\nu\tv\n", delimiter="\t")
        assert ds.column_names == ("a", "b")
        assert ds.columns[0].labels == ("u",)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            read_delimited(tmp_path / "nope.csv")

    def test_reread_identity(self):
        text = "a,b,c\nx,1,q\ny,2,q\nx,1,r\nz,2,q\n"
        first = _read(text)
        second = _read(_write(first))
        assert first == second


def _outcome(parse):
    try:
        return parse()
    except DataError as err:
        return f"DataError: {err}"


@st.composite
def _delimited_inputs(draw):
    """(text, delimiter, has_header): free-form character soup or near-regular rows."""
    delimiter = draw(st.sampled_from([",", ";", "\t"]))
    has_header = draw(st.booleans())
    if draw(st.booleans()):
        pieces = st.sampled_from(_LINE_BREAKS + _TOKENS + [delimiter] * 3)
        return "".join(draw(st.lists(pieces, max_size=40))), delimiter, has_header
    width = draw(st.integers(1, 4))
    token = st.sampled_from(_TOKENS * 3 + [""])
    lines = []
    for r in range(draw(st.integers(1, 8))):
        w = width if draw(st.integers(0, 5)) else draw(st.integers(1, 5))
        if r == 0 and has_header and draw(st.booleans()):
            fields = draw(st.lists(st.sampled_from(_TOKENS), min_size=w, max_size=w, unique=True))
        else:
            fields = draw(st.lists(token, min_size=w, max_size=w))
        lines.append(delimiter.join(fields) + draw(st.sampled_from(_LINE_BREAKS)))
    text = "".join(lines)
    if draw(st.booleans()):
        text = text.rstrip("".join(_LINE_BREAKS))
    return text + draw(st.sampled_from(["", *_LINE_BREAKS])), delimiter, has_header


class TestReaderAgainstReference:
    @given(_delimited_inputs())
    @settings(max_examples=400)
    def test_same_dataset_or_same_error(self, case):
        text, delimiter, has_header = case
        kw = dict(delimiter=delimiter, has_header=has_header)
        assert _outcome(lambda: _read(text, **kw)) == _outcome(
            lambda: read_delimited_reference(text, **kw)
        )

    @pytest.mark.parametrize(
        "bad_row, message",
        [
            (None, None),
            ("日本;\U0001f600", "line 199992: expected 3 fields, found 2"),
            ("é;;\U0001f600", "line 199992: missing value in field 2"),
            ("é;\U0001f600;", "line 199992: missing value in field 3"),
        ],
    )
    def test_large_file_with_late_non_ascii(self, bad_row, message):
        # 200k rows of ASCII, then non-ASCII tokens from row 199,980 on: code
        # points beyond one byte (and beyond the BMP) shift byte offsets but
        # must not shift line and field numbers.
        rows = [f"r{i % 7};s{i % 5};t{i % 3}" for i in range(199_980)]
        rows += ["é;日本;\U0001f600", "\U0001f600;é;日本"] * 10
        if bad_row is not None:
            rows[199_990] = bad_row
        text = "x;y;z\n" + "\n".join(rows) + "\n"
        got = _outcome(lambda: _read(text, delimiter=";"))
        assert got == _outcome(lambda: read_delimited_reference(text, delimiter=";"))
        if message is None:
            assert got.n_rows == 200_000
            assert got.columns[2].labels[-2:] == ("\U0001f600", "日本")
        else:
            assert got == f"DataError: {message}"


class TestReaderInputChecks:
    @pytest.mark.parametrize("delimiter", ["", ",,", "ab", "\n", "\r", "\x0b", "\x1e", "\u2028"])
    def test_bad_delimiter_rejected(self, delimiter):
        with pytest.raises(ValueError, match="delimiter must be one character") as err:
            _read("a,b\n1,2\n", delimiter=delimiter)
        assert not isinstance(err.value, DataError)

    @pytest.mark.parametrize("delimiter", [";", "|", " ", "é", "\U0001f600"])
    def test_any_other_single_character_accepted(self, delimiter):
        ds = _read(f"a{delimiter}b\nu{delimiter}v\n", delimiter=delimiter)
        assert ds.column_names == ("a", "b")

    def test_leading_bom_ignored(self, tmp_path):
        text = "\ufeffa,b\nx,\ufeff1\n"
        path = tmp_path / "bom.csv"
        path.write_text(text, encoding="utf-8")
        for ds in (read_delimited(path), _read(text)):
            assert ds.column_names == ("a", "b")
            assert ds.columns[1].labels == ("\ufeff1",)  # only the leading one goes

    def test_invalid_utf8_names_file_and_offset(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"a,b\n" + b"x,1\n" * 30_000 + b"\xff,2\n")
        with pytest.raises(DataError, match=rf"{path.name}.*invalid UTF-8 at byte 120004"):
            read_delimited(path)


class TestWriteDelimited:
    def test_labels_written(self):
        ds = _read("a,b\nx,1\ny,2\n")
        assert _write(ds) == "a,b\nx,1\ny,2\n"

    def test_codes_written_without_labels(self, rng):
        from conftest import make_dataset

        ds = make_dataset(rng, 3, (2, 2))
        out = _write(ds)
        lines = out.splitlines()
        assert lines[0] == "V1,V2"
        assert len(lines) == 4
        assert all(tok in ("0", "1") for ln in lines[1:] for tok in ln.split(","))

    def test_delimiter_in_token_rejected(self):
        ds = _read("a;b\nx,1;2\n", delimiter=";")
        with pytest.raises(DataError, match="delimiter"):
            _write(ds, delimiter=",")

    @pytest.mark.parametrize("brk", _LINE_BREAKS + ["\x1c", "\x85", "\u2028"])
    def test_line_break_in_label_rejected(self, brk):
        labels = (f"p{brk}q", "r")
        ds = Dataset(2, (
            CategoricalColumn("a", 2, np.array([0, 1]), labels=labels),
            CategoricalColumn("b", 1, np.array([0, 0]), labels=("s",)),
        ))
        with pytest.raises(DataError, match=r"column 'a': token .* contains a line break"):
            _write(ds)

    @pytest.mark.parametrize("name", ["a\n", "\ra", "a\u2029b"])
    def test_line_break_in_column_name_rejected(self, name):
        ds = Dataset(1, (CategoricalColumn(name, 1, np.array([0]), labels=("s",)),))
        with pytest.raises(DataError, match="column name .* contains a line break"):
            _write(ds)

    @pytest.mark.parametrize("delimiter", ["", ";;", "\n"])
    def test_bad_delimiter_rejected_before_tokens(self, delimiter):
        ds = _read("a,b\nx,1\n")
        with pytest.raises(ValueError, match="delimiter must be one character") as err:
            _write(ds, delimiter=delimiter)
        assert not isinstance(err.value, DataError)

    def test_write_to_path(self, tmp_path):
        ds = _read("a,b\nx,1\ny,2\n")
        path = tmp_path / "out.csv"
        write_delimited(ds, path)
        assert read_delimited(path) == ds

    def test_scenario_file_shape(self, tmp_path):
        ds = generate(GenConfig(n=3000, levels=(3, 4, 2, 4, 4), seed=9))
        path = tmp_path / "scenario.csv"
        write_delimited(ds, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3001
        assert all(len(ln.split(",")) == 5 for ln in lines)


class TestGenConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GenConfig(n=0, levels=(2, 2))
        with pytest.raises(ValueError):
            GenConfig(n=10, levels=(2,))
        with pytest.raises(ValueError):
            GenConfig(n=10, levels=(2, 1))
        with pytest.raises(ValueError):
            GenConfig(n=10, levels=(2, 2), dependence="correlated")
        with pytest.raises(ValueError):
            GenConfig(n=10, levels=(2, 2), seed=-1)

    def test_strata_beyond_table_limit_rejected(self):
        with pytest.raises(ValueError, match=f"give {3**28} Z strata"):
            GenConfig(n=10, levels=(3, 4) + (3,) * 28)
        # 7 * 4**12 = 117M table entries are accepted, 7 * 4**13 = 470M are not
        GenConfig(n=10, levels=(3, 4) + (4,) * 12)
        with pytest.raises(ValueError, match=f"give {4**13} Z strata"):
            GenConfig(n=10, levels=(3, 4) + (4,) * 13)


class TestGenerate:
    def test_deterministic_given_seed(self):
        cfg = GenConfig(n=500, levels=(3, 4, 2), seed=42)
        assert generate(cfg) == generate(cfg)

    def test_random_stream_pinned(self):
        # Frozen from the generator: benchmark and acceptance seeds rely on it.
        d = generate(GenConfig(n=1000, levels=(3, 4, 2, 4, 4), dependence="dependent", seed=7))
        codes = np.stack([c.codes for c in d.columns]).tobytes()
        assert hashlib.sha256(codes).hexdigest() == (
            "91c1a59b491d12c583d249d5ee9cc0ac6378e2494898be8f8018aad16195a6cf"
        )

    def test_seed_changes_data(self):
        a = generate(GenConfig(n=500, levels=(3, 4, 2), seed=1))
        b = generate(GenConfig(n=500, levels=(3, 4, 2), seed=2))
        assert a != b

    def test_layout_and_names(self):
        ds = generate(GenConfig(n=50, levels=(3, 4, 2, 4), seed=0))
        assert ds.column_names == ("X", "Y", "Z1", "Z2")
        assert [c.levels for c in ds.columns] == [3, 4, 2, 4]

    def test_level_counts_match_config_when_n_large(self):
        levels = (3, 4, 2, 4)
        ds = generate(GenConfig(n=100 * max(levels), levels=levels, seed=3))
        for col, d in zip(ds.columns, levels):
            assert col.levels == d
            assert np.unique(col.codes).size == d

    def test_codes_in_range_when_n_small(self):
        ds = generate(GenConfig(n=3, levels=(5, 6, 4), seed=11))
        for col, d in zip(ds.columns, (5, 6, 4)):
            assert col.levels == d
            assert col.codes.min() >= 0 and col.codes.max() < d

    def test_first_appearance_renumbering(self):
        ds = generate(GenConfig(n=200, levels=(4, 3, 2), seed=8))
        for col in ds.columns:
            seen = []
            for code in col.codes:
                if code not in seen:
                    seen.append(int(code))
            assert seen == sorted(seen)

    def test_roundtrip_exact_when_all_levels_realized(self):
        ds = generate(GenConfig(n=2000, levels=(3, 4, 2, 4), seed=5))
        assert all(np.unique(c.codes).size == c.levels for c in ds.columns)
        assert _read(_write(ds)) == ds

    def test_write_idempotent_even_when_levels_missing(self):
        ds = generate(GenConfig(n=4, levels=(5, 6), seed=2))
        once = _write(ds)
        again = _write(_read(once))
        assert once == again

    def test_null_mode_is_conditionally_independent_smoke(self):
        # calibration smoke at reduced scale; the precise banded version is
        # the acceptance criterion
        alpha = math.log(0.05)
        rejections = sum(
            ci_test(
                generate(GenConfig(n=5000, levels=(3, 4, 2), seed=s)),
                TestSpec(0, 1, (2,)),
            ).log_p_g2
            < alpha
            for s in range(300)
        )
        assert 0.01 <= rejections / 300 <= 0.10

    def test_dependent_mode_detected(self):
        assert DEPENDENT_MIX_WEIGHT == 0.3
        threshold = math.log(1e-6)
        for seed in range(50):
            ds = generate(GenConfig(n=5000, levels=(3, 4, 2), dependence="dependent", seed=seed))
            assert ci_test(ds, TestSpec(0, 1, (2,))).log_p_g2 < threshold

    def test_marginal_dependence_on_z_present(self):
        # X and Z are marginally associated by construction
        ds = generate(GenConfig(n=20000, levels=(3, 4, 4), seed=6))
        res = ci_test(ds, TestSpec(0, 2))
        assert res.log_p_g2 < math.log(1e-4)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=15)
    def test_generated_data_passes_method_equivalence(self, seed):
        ds = generate(GenConfig(n=400, levels=(3, 3, 2), seed=seed))
        spec = TestSpec(0, 1, (2,))
        closed = ci_test(ds, spec)
        ipf = ci_test(ds, spec, method="ipf")
        assert ipf.g2 == pytest.approx(closed.g2, rel=1e-8, abs=1e-12)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=15)
    def test_generated_data_passes_slice_additivity(self, seed):
        from catci.citest import g2_statistic
        from catci.tabulate import build_table, expected_ci, slice_marginals, table_from_counts

        ds = generate(GenConfig(n=300, levels=(3, 4, 2, 2), seed=seed))
        joint = ci_test(ds, TestSpec(0, 1, (2, 3)))
        arr = build_table(ds, (0, 1, 2, 3)).as_array()
        parts = 0.0
        for z1 in range(2):
            for z2 in range(2):
                cell = arr[:, :, z1, z2]
                if cell.sum() == 0:
                    continue
                sub = table_from_counts(cell)
                parts += g2_statistic(sub, expected_ci(slice_marginals(sub)))
        assert joint.g2 == pytest.approx(parts, rel=1e-9, abs=1e-9)
