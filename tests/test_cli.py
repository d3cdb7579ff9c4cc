import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import catci
from catci import loglinear
from catci.bench import BenchConfig
from catci.cli import _build_parser, main
from catci.io import GenConfig, generate, write_delimited

JSONL_KEYS = [
    "x", "y", "cs", "g2", "chi2", "dof", "dof_adjusted",
    "log_p_g2", "log_p_chi2", "empty_strata", "method", "degenerate",
]


@pytest.fixture
def data_file(tmp_path):
    path = tmp_path / "data.csv"
    write_delimited(generate(GenConfig(n=800, levels=(3, 4, 2, 4, 4), seed=17)), path)
    return str(path)


@pytest.fixture
def wide_file(tmp_path):
    path = tmp_path / "wide.csv"
    write_delimited(generate(GenConfig(n=300, levels=(3, 3, 2, 2, 2), seed=4)), path)
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCmdGen:
    def test_writes_dataset(self, tmp_path, capsys):
        out = tmp_path / "gen.csv"
        code, _, _ = run_cli(capsys, ["gen", "--n", "100", "--levels", "3,4,2", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "X,Y,Z1"
        assert len(lines) == 101

    def test_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, ["gen", "--n", "50", "--levels", "2,2", "--seed", "9", "--out", str(a)])
        run_cli(capsys, ["gen", "--n", "50", "--levels", "2,2", "--seed", "9", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_too_many_strata_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        levels = ",".join(["3", "4"] + ["3"] * 28)
        code, _, err = run_cli(capsys, ["gen", "--n", "10", "--levels", levels, "--out", str(out)])
        assert code == 2
        assert f"{3**28} Z strata" in err
        assert not out.exists()

    def test_bad_levels_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, ["gen", "--n", "10", "--levels", "2,1", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2
        assert "level" in err


class TestCmdTest:
    def test_unconditional_dof(self, data_file, capsys):
        code, out, _ = run_cli(capsys, ["test", "--data", data_file, "--x", "X", "--y", "Y"])
        assert code == 0
        report = json.loads(out)
        assert report["dof"] == (3 - 1) * (4 - 1)
        assert report["cs"] == []
        assert report["p_g2"] == pytest.approx(math.exp(report["log_p_g2"]))

    def test_conditional_dof_192(self, data_file, capsys):
        code, out, _ = run_cli(
            capsys,
            ["test", "--data", data_file, "--x", "X", "--y", "Y", "--cs", "Z1,Z2,Z3"],
        )
        assert code == 0
        assert json.loads(out)["dof"] == 192

    def test_indices_equal_names(self, data_file, capsys):
        _, by_name, _ = run_cli(
            capsys, ["test", "--data", data_file, "--x", "X", "--y", "Y", "--cs", "Z1"]
        )
        _, by_index, _ = run_cli(
            capsys, ["test", "--data", data_file, "--x", "0", "--y", "1", "--cs", "2"]
        )
        assert by_name == by_index

    def test_overlap_is_spec_error(self, data_file, capsys):
        code, _, err = run_cli(capsys, ["test", "--data", data_file, "--x", "X", "--y", "X"])
        assert code == 4
        assert "overlap" in err

    def test_unknown_column(self, data_file, capsys):
        code, _, err = run_cli(capsys, ["test", "--data", data_file, "--x", "W", "--y", "Y"])
        assert code == 4
        assert "W" in err

    def test_missing_file_is_data_error(self, capsys):
        code, _, _ = run_cli(capsys, ["test", "--data", "/nonexistent.csv", "--x", "0", "--y", "1"])
        assert code == 3

    def test_tab_delimited_input(self, tmp_path, capsys):
        path = tmp_path / "data.tsv"
        path.write_text("a\tb\nu\t1\nv\t2\nu\t1\n")
        code, out, _ = run_cli(
            capsys,
            ["test", "--data", str(path), "--delimiter", "tab", "--x", "a", "--y", "b"],
        )
        assert code == 0
        assert json.loads(out)["dof"] == 1

    def test_bad_flag_usage_exit_2(self, data_file):
        with pytest.raises(SystemExit) as err:
            main(["test", "--data", data_file, "--x", "X", "--y", "Y", "--format", "xml"])
        assert err.value.code == 2

    @pytest.mark.parametrize("delimiter", ["", ";;", "\n"])
    def test_bad_delimiter_usage_exit_2(self, data_file, capsys, delimiter):
        with pytest.raises(SystemExit) as err:
            main(["test", "--data", data_file, "--x", "X", "--y", "Y", "--delimiter", delimiter])
        assert err.value.code == 2
        assert "error: argument --delimiter: delimiter must be one character" in capsys.readouterr().err

    def test_invalid_utf8_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"a,b\nx,1\n\xff,2\n")
        code, _, err = run_cli(capsys, ["test", "--data", str(path), "--x", "a", "--y", "b"])
        assert code == 3
        assert f"error: cannot read {path}: invalid UTF-8 at byte 8" in err

    def test_leading_bom_ignored(self, tmp_path, capsys):
        path = tmp_path / "bom.csv"
        path.write_text("\ufeffa,b\nu,1\nv,2\nu,1\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, ["test", "--data", str(path), "--x", "a", "--y", "b"])
        assert code == 0
        assert json.loads(out)["x"] == "a"

    def test_tsv_format(self, data_file, capsys):
        code, out, _ = run_cli(
            capsys,
            ["test", "--data", data_file, "--x", "X", "--y", "Y", "--format", "tsv"],
        )
        assert code == 0
        header, values = out.splitlines()
        assert header.split("\t")[:3] == ["x", "y", "cs"]
        assert values.split("\t")[0] == "X"

    def test_tsv_and_json_carry_same_values(self, data_file, capsys):
        args = ["test", "--data", data_file, "--x", "X", "--y", "Y", "--cs", "Z1"]
        _, json_out, _ = run_cli(capsys, args)
        _, tsv_out, _ = run_cli(capsys, args + ["--format", "tsv"])
        report = json.loads(json_out)
        header, values = (ln.split("\t") for ln in tsv_out.splitlines())
        row = dict(zip(header, values))
        for key in ("g2", "chi2", "log_p_g2", "log_p_chi2"):
            assert row[key] == "%.12g" % report[key]
        assert int(row["dof"]) == report["dof"]

    def test_ipf_method_agrees(self, data_file, capsys):
        _, closed, _ = run_cli(
            capsys, ["test", "--data", data_file, "--x", "X", "--y", "Y", "--cs", "Z1"]
        )
        _, via_ipf, _ = run_cli(
            capsys,
            ["test", "--data", data_file, "--x", "X", "--y", "Y", "--cs", "Z1",
             "--method", "ipf"],
        )
        a, b = json.loads(closed), json.loads(via_ipf)
        assert b["method"] == "ipf"
        assert b["g2"] == pytest.approx(a["g2"], rel=1e-8)

    def test_runs_as_python_module(self, data_file, capsys):
        args = ["test", "--data", data_file, "--x", "X", "--y", "Y", "--cs", "Z1"]
        _, in_process, _ = run_cli(capsys, args)
        env = {**os.environ, "PYTHONPATH": str(Path(catci.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-m", "catci", *args], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout) == json.loads(in_process)
        bad = subprocess.run([sys.executable, "-m", "catci", "test", "--data", data_file,
                              "--x", "X", "--y", "nope"], env=env, capture_output=True, text=True,
                             timeout=120)
        assert bad.returncode == 4 and "nope" in bad.stderr

    def test_unconverged_ipf_is_data_error(self, data_file, capsys, monkeypatch):
        real_fit = loglinear.ipf_fit

        def stalled(table, model):
            return dataclasses.replace(real_fit(table, model), converged=False)

        monkeypatch.setattr(loglinear, "ipf_fit", stalled)
        code, out, err = run_cli(
            capsys,
            ["test", "--data", data_file, "--x", "X", "--y", "Y", "--method", "ipf"],
        )
        assert code == 3
        assert out == "" and "converge" in err

    def test_dof_beyond_float_range(self, tmp_path, capsys):
        # 511 four-level Z columns, each constant after its first four rows:
        # a nominal dof of 6·4**511 gives p = 1.
        n, k = 200, 511
        x = [i % 3 for i in range(n)]
        y = [i * 7 % 4 for i in range(n)]
        rows = ["X,Y," + ",".join(f"Z{j}" for j in range(k))]
        rows += [f"{x[i]},{y[i]}," + ",".join([str(min(i, 4) % 4)] * k) for i in range(n)]
        path = tmp_path / "wide.csv"
        path.write_text("\n".join(rows) + "\n")
        cs = ",".join(f"Z{j}" for j in range(k))
        code, out, err = run_cli(capsys, ["test", "--data", str(path), "--x", "X", "--y", "Y",
                                          "--cs", cs])
        assert code == 0, err
        report = json.loads(out)
        assert report["dof"] == 6 * 4**k
        assert report["log_p_g2"] == report["log_p_chi2"] == 0.0
        assert report["g2"] > 0.0

    def test_ipf_table_over_cell_cap_is_data_error(self, tmp_path, capsys):
        # 4097 x 4096 labels: a dense ipf table just over 2**24 cells.
        path = tmp_path / "wide.csv"
        path.write_text("a,b\n" + "".join(f"x{i},y{i % 4096}\n" for i in range(4097)))
        code, out, err = run_cli(
            capsys, ["test", "--data", str(path), "--x", "a", "--y", "b", "--method", "ipf"]
        )
        assert code == 3
        assert out == "" and f"error: table with {4097 * 4096} cells exceeds" in err


class TestCmdBatch:
    def test_all_pairs_count(self, wide_file, capsys):
        code, out, _ = run_cli(capsys, ["batch", "--data", wide_file, "--pairs", "all"])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 10  # C(5,2)
        assert [json.loads(ln)["x"] for ln in lines][:4] == ["X", "X", "X", "X"]

    def test_jsonl_schema(self, wide_file, capsys):
        _, out, _ = run_cli(capsys, ["batch", "--data", wide_file, "--pairs", "all"])
        for line in out.splitlines():
            assert list(json.loads(line)) == JSONL_KEYS

    def test_worker_count_output_identical(self, wide_file, capsys):
        _, one, _ = run_cli(
            capsys, ["batch", "--data", wide_file, "--pairs", "all", "--workers", "1"]
        )
        _, eight, _ = run_cli(
            capsys, ["batch", "--data", wide_file, "--pairs", "all", "--workers", "8"]
        )
        assert one == eight

    @pytest.mark.parametrize("workers", ["0", "-1", "two"])
    def test_workers_below_one_is_usage_error(self, wide_file, capsys, workers):
        with pytest.raises(SystemExit) as err:
            main(["batch", "--data", wide_file, "--pairs", "all", "--workers", workers])
        assert err.value.code == 2
        assert f"error: argument --workers: expected a positive integer, got {workers!r}" in (
            capsys.readouterr().err
        )

    def test_pairs_file_matches_single_tests(self, wide_file, tmp_path, capsys):
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("X Y\nX,Z1\n3 4\n")
        code, out, _ = run_cli(
            capsys, ["batch", "--data", wide_file, "--pairs", str(pairs)]
        )
        assert code == 0
        lines = [json.loads(ln) for ln in out.splitlines()]
        assert len(lines) == 3
        singles = []
        for x, y in [("X", "Y"), ("X", "Z1"), ("3", "4")]:
            _, single, _ = run_cli(
                capsys, ["test", "--data", wide_file, "--x", x, "--y", y]
            )
            singles.append(json.loads(single))
        for batch_row, single_row in zip(lines, singles):
            for key in JSONL_KEYS:
                assert batch_row[key] == single_row[key]

    def test_all_pairs_exclude_cs_columns(self, wide_file, capsys):
        code, out, _ = run_cli(
            capsys,
            ["batch", "--data", wide_file, "--pairs", "all", "--cs", "X"],
        )
        assert code == 0
        rows = [json.loads(ln) for ln in out.splitlines()]
        assert len(rows) == 6  # C(4,2) over the remaining columns
        assert all("X" not in (r["x"], r["y"]) for r in rows)
        assert all(r["cs"] == ["X"] for r in rows)

    @pytest.mark.parametrize("fmt", ["jsonl", "tsv"])
    def test_all_pairs_need_two_free_columns(self, tmp_path, capsys, fmt):
        path = tmp_path / "abc.csv"
        path.write_text("a,b,c\nu,1,k\nv,2,k\n")
        code, out, err = run_cli(
            capsys,
            ["batch", "--data", str(path), "--pairs", "all", "--cs", "a,b", "--format", fmt],
        )
        assert code == 4
        assert out == ""
        assert err == "error: --pairs all needs two columns outside --cs, found 1\n"

    def test_pairs_file_overlap_reports_position(self, wide_file, tmp_path, capsys):
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("X Y\nY Y\n")
        code, _, err = run_cli(capsys, ["batch", "--data", wide_file, "--pairs", str(pairs)])
        assert code == 4
        assert "pair 1" in err

    def test_pairs_file_invalid_utf8_is_data_error(self, wide_file, tmp_path, capsys):
        pairs = tmp_path / "pairs.txt"
        pairs.write_bytes(b"X Y\nX \xfe\n")
        code, _, err = run_cli(capsys, ["batch", "--data", wide_file, "--pairs", str(pairs)])
        assert code == 3
        assert f"error: cannot read pairs file {pairs}: invalid UTF-8 at byte 6" in err

    def test_pairs_file_leading_bom_ignored(self, wide_file, tmp_path, capsys):
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("\ufeffX Y\nX,Z1\n", encoding="utf-8")
        code, out, err = run_cli(capsys, ["batch", "--data", wide_file, "--pairs", str(pairs)])
        assert code == 0, err
        rows = [json.loads(ln) for ln in out.splitlines()]
        assert [(r["x"], r["y"]) for r in rows] == [("X", "Y"), ("X", "Z1")]

    def test_degenerate_flag_in_rows(self, tmp_path, capsys):
        path = tmp_path / "const.csv"
        path.write_text("a,b,c\nu,1,k\nv,2,k\nu,1,k\nv,1,k\n")
        for fmt in ("jsonl", "tsv"):
            code, out, _ = run_cli(
                capsys, ["batch", "--data", str(path), "--pairs", "all", "--format", fmt]
            )
            assert code == 0
            if fmt == "jsonl":
                rows = [json.loads(ln) for ln in out.splitlines()]
            else:
                header, *lines = (ln.split("\t") for ln in out.splitlines())
                rows = [dict(zip(header, ln)) for ln in lines]
            flags = {(r["x"], r["y"]): r["degenerate"] for r in rows}
            true, false = (True, False) if fmt == "jsonl" else ("True", "False")
            assert flags == {("a", "b"): false, ("a", "c"): true, ("b", "c"): true}

    def test_tsv_format(self, wide_file, capsys):
        _, out, _ = run_cli(
            capsys,
            ["batch", "--data", wide_file, "--pairs", "all", "--format", "tsv"],
        )
        lines = out.splitlines()
        assert lines[0].split("\t") == JSONL_KEYS
        assert len(lines) == 11


class TestCmdBench:
    @pytest.mark.parametrize("flag, value", [
        ("--scenarios", "3,4,x"), ("--scenarios", "3,4;2,x"), ("--test-counts", "x"),
        ("--sample-sizes", "10,x"), ("--test-counts", ""), ("--sample-sizes", " , "),
    ])
    def test_bad_list_is_usage_error(self, capsys, flag, value):
        with pytest.raises(SystemExit) as err:
            main(["bench", "--repetitions", "1", flag, value])
        assert err.value.code == 2
        lines = capsys.readouterr().err.splitlines()
        bad = value.split(";")[-1]
        assert [ln for ln in lines if "error:" in ln] == [
            f"catci bench: error: argument {flag}: expected comma-separated integers, got {bad!r}"
        ]

    _SMALL_GRID = ["bench", "--test-counts", "1", "--sample-sizes", "10", "--scenarios", "3,4",
                   "--repetitions", "1"]

    @pytest.mark.parametrize("methods", ["foo", "closed,foo", ""])
    def test_unknown_method_is_usage_error(self, capsys, methods):
        with pytest.raises(SystemExit) as err:
            main(self._SMALL_GRID + ["--methods", methods])
        assert err.value.code == 2
        lines = capsys.readouterr().err.splitlines()
        assert [ln for ln in lines if "error:" in ln] == [
            "catci bench: error: argument --methods: "
            f"expected a comma-separated subset of closed,ipf, got {methods!r}"
        ]

    @pytest.mark.parametrize("repetitions", ["0", "-1", "x"])
    def test_bad_repetitions_is_usage_error(self, capsys, repetitions):
        with pytest.raises(SystemExit) as err:
            main(["bench", "--repetitions", repetitions])
        assert err.value.code == 2
        lines = capsys.readouterr().err.splitlines()
        assert [ln for ln in lines if "error:" in ln] == [
            f"catci bench: error: argument --repetitions: expected a positive integer, "
            f"got {repetitions!r}"
        ]

    def test_no_scenarios_exits_2(self, capsys):
        code, out, err = run_cli(capsys, ["bench", "--scenarios", ""])
        assert (code, out) == (2, "")
        assert err.splitlines() == ["error: bad benchmark configuration: scenarios must be nonempty"]

    def test_defaults_are_bench_config_defaults(self):
        args = _build_parser().parse_args(["bench"])
        fields = {f.name for f in dataclasses.fields(BenchConfig)}
        assert {name: getattr(args, name) for name in fields} == dataclasses.asdict(BenchConfig())

    def test_unwritable_out_fails_before_the_grid(self, tmp_path, capsys):
        with mock.patch("catci.bench.run_bench") as run_bench:
            code, out, err = run_cli(capsys, ["bench", "--out", str(tmp_path / "nodir" / "x")])
        assert (code, out) == (3, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        run_bench.assert_not_called()

    @pytest.mark.parametrize("seed", ["-3", str(2**64 - 1)])
    def test_seed_out_of_range_exits_2(self, capsys, seed):
        # The grid draws two datasets, with seeds `seed` and `seed + 1`.
        code, out, err = run_cli(capsys, self._SMALL_GRID + ["--methods", "closed", "--seed", seed])
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "error: bad benchmark configuration: seed must lie in [0, 2**64 - 2] so that "
            f"each of the 2 datasets gets a 64-bit unsigned seed, got {seed}"
        ]

    def test_largest_seed_runs(self, capsys):
        code, out, _ = run_cli(
            capsys, self._SMALL_GRID + ["--methods", "closed", "--seed", str(2**64 - 2)]
        )
        assert code == 0
        assert len(out.splitlines()) == 2

    def test_smoke_run(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["bench", "--test-counts", "5", "--sample-sizes", "300",
             "--scenarios", "3,4,2", "--repetitions", "2", "--methods", "closed,ipf"],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split("\t")[0] == "scenario"
        assert len(lines) == 3

    def test_closed_only_normalized_one(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["bench", "--test-counts", "4,8", "--sample-sizes", "200",
             "--scenarios", "3,4,2", "--repetitions", "2", "--methods", "closed"],
        )
        assert code == 0
        for line in out.splitlines()[1:]:
            assert line.split("\t")[-1] == "1.000"

    def test_report_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.tsv"
        code, out, _ = run_cli(
            capsys,
            ["bench", "--test-counts", "3", "--sample-sizes", "200",
             "--scenarios", "3,4,2", "--repetitions", "1", "--methods", "closed",
             "--out", str(out_path)],
        )
        assert code == 0
        assert out == ""
        assert out_path.read_text().startswith("scenario\t")
