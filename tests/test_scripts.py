"""The scripts under scripts/ run end to end on small inputs.

Source comments and the README cite their output, so each is run once on a
small shape and its rows are checked, not its timings.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

try:
    import resource
except ImportError:  # not on every platform
    resource = None

ROOT = Path(__file__).resolve().parents[1]


def _rows(*argv):
    out = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout
    return [json.loads(line) for line in out.splitlines()]


def test_kernel_stages():
    # z2 and screen count by bincount; hc6 (49152 cells for 200 rows) by
    # sorting, and drops lone cells before its marginals.
    rows = _rows("scripts/kernel_stages.py", "--shapes", "z2", "hc6", "screen",
                 "--rows", "200", "--rounds", "1", "--calls", "2")
    assert [row["shape"] for row in rows] == ["z2", "hc6", "screen"]
    for row in rows:
        stages = row["src"]
        # Minor page faults per call, where the platform counts them.
        faults = {"minflt"} if resource else set()
        assert set(stages) == {"call", "strata_code", "cells", "closed_form", "log_sf",
                               "results", "other"} | faults
        assert stages["call"] > 0 and stages["log_sf"] > 0
        assert stages["cells"] > 0 and stages["closed_form"] > 0
        assert stages.get("minflt", 0) >= 0


def test_reader_shapes(tmp_path):
    rows = _rows("scripts/reader_shapes.py", "--shapes", "digits", "ids", "--rows", "2000",
                 "--rounds", "1", "--reps", "1", "--dir", str(tmp_path))
    assert [row["shape"] for row in rows] == ["digits", "ids"]
    for row in rows:
        assert row["bytes"] == (tmp_path / f"{row['shape']}-2000.csv").stat().st_size
        assert set(row["src"]) == {"read_s", "peak_rss_mb", "traced_peak_mb", "beyond_result_mb"}
        assert row["src"]["read_s"] > 0


def test_null_calibration_study():
    # The script imports catci as installed; run it on this checkout's source.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "scripts/null_calibration_study.py", "--seeds", "2",
         "--sample-sizes", "300", "--method", "ipf"],
        cwd=ROOT, env=env, check=True, capture_output=True, text=True,
    ).stdout
    header, *rows = [line.split("\t") for line in out.splitlines()]
    assert header == ["scenario", "n", "stat", "rate@0.01", "rate@0.05", "rate@0.1"]
    assert [row[:3] for row in rows] == [
        [scenario, "300", stat]
        for scenario in ("3x4x2", "3x4x2x4", "3x4x2x4x4")
        for stat in ("G2", "chi2")
    ]
    for row in rows:
        # Two seeds: each rate is a share of two tests.
        assert all(rate in ("0.0000", "0.5000", "1.0000") for rate in row[3:])
