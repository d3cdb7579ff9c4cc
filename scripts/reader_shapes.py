#!/usr/bin/env python3
"""Time read_delimited on files of different token shapes, for one or more source trees.

Each shape is a CSV with a header and 5 columns (long_equal: 2):

    digits        one-digit tokens, 4 values per column
    labels_10_30  10-30 character labels, 8 values per column
    prefixed      labels sharing a 15-character prefix, 8 values per column
    labels_40_80  40-80 character labels, 8 values per column
    ids           one column of distinct 12-character ids, four of digits
    uuids         one column of distinct 36-character UUIDs, four of digits
    nonascii      5-15 character Cyrillic/emoji labels, 8 values per column
    sparse_long   one-digit tokens, one in a thousand a 500-character token
    long_equal    20k rows of digits plus two equal 100k-character tokens

Every read runs in a fresh process (so its peak RSS is its own), and the
source trees alternate, starting with a different one each round.  Each
process reports the best time of its reads, its peak RSS (VmHWM, which
includes the interpreter's own 30 MB or so) and, from one more read under
tracemalloc, the peak that read_delimited itself allocates
(traced_peak_mb) and how much of it lies beyond the result's codes and
labels (beyond_result_mb): the reader's own scratch.  Run from the
root of a checkout, e.g. to compare with another checkout:

    python3 scripts/reader_shapes.py --src ../parent/src src --rounds 5

Files are written once to --dir (default ./reader_shapes) and reused.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import uuid
from pathlib import Path

import numpy as np

SHAPES = (
    "digits", "labels_10_30", "prefixed", "labels_40_80", "ids", "uuids",
    "nonascii", "sparse_long", "long_equal",
)
_LETTERS = "abcdefghijklmnopqrstuvwxyz_"


def _labels(rng, k, lo, hi, alphabet=_LETTERS):
    chars = np.array(list(alphabet))
    return ["".join(rng.choice(chars, size=rng.integers(lo, hi + 1))) for _ in range(k)]


def _digits(rng, n):
    return [str(v) for v in rng.integers(0, 4, n)]


def _columns(shape, rows, rng):
    def drawn(values):
        return np.array(values)[rng.integers(0, len(values), rows)].tolist()

    if shape == "digits":
        return [_digits(rng, rows) for _ in range(5)]
    if shape == "labels_10_30":
        return [drawn(_labels(rng, 8, 10, 30)) for _ in range(5)]
    if shape == "prefixed":
        return [drawn(["category_group_" + s for s in _labels(rng, 8, 3, 10)]) for _ in range(5)]
    if shape == "labels_40_80":
        return [drawn(_labels(rng, 8, 40, 80)) for _ in range(5)]
    if shape == "ids":
        ids = [f"id{v:010d}" for v in rng.permutation(rows)]
        return [ids] + [_digits(rng, rows) for _ in range(4)]
    if shape == "uuids":
        ids = [str(uuid.UUID(int=int(v))) for v in rng.integers(0, 2**63, rows)]
        return [ids] + [_digits(rng, rows) for _ in range(4)]
    if shape == "nonascii":
        letters = "абвгдежзиклмнé\U0001f600"
        return [drawn(_labels(rng, 8, 5, 15, letters)) for _ in range(5)]
    if shape == "sparse_long":
        columns = []
        for _ in range(5):
            column = _digits(rng, rows)
            for r in rng.integers(0, rows, rows // 1000).tolist():
                column[r] = "y" * 500
            columns.append(column)
        return columns
    if shape == "long_equal":
        column = _digits(rng, 20_000)
        column[5] = column[9000] = "x" * 100_000
        return [column, _digits(rng, 20_000)]
    raise ValueError(f"unknown shape {shape!r}")


def write_shape(shape: str, rows: int, path: Path) -> None:
    columns = _columns(shape, rows, np.random.default_rng(SHAPES.index(shape)))
    header = ",".join(f"C{j}" for j in range(len(columns)))
    body = "\n".join(",".join(row) for row in zip(*columns))
    path.write_text(header + "\n" + body + "\n", encoding="utf-8")


def _peak_rss_mb() -> float:
    """This process's peak resident set size.

    VmHWM, where there is one, starts afresh at exec; ru_maxrss keeps the
    peak of the process that forked this one.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _child(src: str, path: str, reps: int) -> None:
    import time
    import tracemalloc

    sys.path.insert(0, src)
    from catci.io import read_delimited

    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        read_delimited(path)
        best = min(best, time.perf_counter() - start)
    peak_rss = _peak_rss_mb()
    tracemalloc.start()
    data = read_delimited(path)
    traced = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    result = sum(
        col.codes.nbytes + sys.getsizeof(col.labels) + sum(map(sys.getsizeof, col.labels))
        for col in data.columns
    ) / 2**20
    print(json.dumps({"read_s": best, "peak_rss_mb": peak_rss, "traced_peak_mb": traced,
                      "beyond_result_mb": traced - result}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", nargs="+", default=["src"], help="source trees holding catci")
    parser.add_argument("--shapes", nargs="+", choices=SHAPES, default=list(SHAPES))
    parser.add_argument("--rows", type=int, default=500_000, help="rows per file (not long_equal)")
    parser.add_argument("--rounds", type=int, default=3, help="processes per shape and tree")
    parser.add_argument("--reps", type=int, default=3, help="reads per process; the best counts")
    parser.add_argument("--dir", type=Path, default=Path("reader_shapes"))
    parser.add_argument("--child", nargs=3, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        _child(args.child[0], args.child[1], int(args.child[2]))
        return 0

    args.dir.mkdir(parents=True, exist_ok=True)
    for shape in args.shapes:
        path = args.dir / f"{shape}-{args.rows}.csv"
        if not path.exists():
            write_shape(shape, args.rows, path)
        runs = {src: [] for src in args.src}
        for r in range(args.rounds):
            shift = r % len(args.src)
            for src in args.src[shift:] + args.src[:shift]:
                out = subprocess.run(
                    [sys.executable, __file__, "--child", src, str(path), str(args.reps)],
                    check=True, capture_output=True, text=True,
                ).stdout
                runs[src].append(json.loads(out))
        row = {"shape": shape, "bytes": path.stat().st_size}
        for src, results in runs.items():
            row[src] = {
                key: round(statistics.median(res[key] for res in results), 4)
                for key in ("read_s", "peak_rss_mb", "traced_peak_mb", "beyond_result_mb")
            }
        print(json.dumps(row, ensure_ascii=False), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
