"""The timing scripts under scripts/ run end to end on small inputs.

Source comments cite their output, so each is run once on a small shape and
its JSON rows are checked, not its timings.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _rows(*argv):
    out = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout
    return [json.loads(line) for line in out.splitlines()]


def test_kernel_stages():
    rows = _rows("scripts/kernel_stages.py", "--shapes", "z2", "screen",
                 "--rows", "200", "--rounds", "1", "--calls", "2")
    assert [row["shape"] for row in rows] == ["z2", "screen"]
    for row in rows:
        stages = row["src"]
        assert set(stages) == {"call", "strata_code", "cells", "closed_form", "log_sf",
                               "results", "other"}
        assert stages["call"] > 0 and stages["log_sf"] > 0


def test_reader_shapes(tmp_path):
    rows = _rows("scripts/reader_shapes.py", "--shapes", "digits", "ids", "--rows", "2000",
                 "--rounds", "1", "--reps", "1", "--dir", str(tmp_path))
    assert [row["shape"] for row in rows] == ["digits", "ids"]
    for row in rows:
        assert row["bytes"] == (tmp_path / f"{row['shape']}-2000.csv").stat().st_size
        assert set(row["src"]) == {"read_s", "peak_rss_mb", "traced_peak_mb", "beyond_result_mb"}
        assert row["src"]["read_s"] > 0
