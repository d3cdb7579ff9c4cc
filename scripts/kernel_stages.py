#!/usr/bin/env python3
"""Time the stages of the closed-form kernel, for one or more source trees.

Per call it reports, in microseconds (medians over the calls of a process,
then over the processes of a tree):

    call          the whole call, untimed stages
    strata_code   tabulate._strata_code: the Z code of the rows
    cells         the rest of tabulate.stacked_cells: counting the cells
                  (tabulate._count_distinct) and splitting each into its
                  stratum head and (x, y) code (tabulate._stack)
    closed_form   citest._closed_form: the lone-cell drop, numbering the
                  strata left, marginals, terms and sums
    log_sf        citest.log_sf_chisq: the p-values, one call a lane
    results       the rest of citest._results: building the TestResults
    other         the rest of the timed call (validation, grouping)

and the minor page faults of a call (minflt: the process's getrusage
ru_minflt over the untimed calls, divided by their number), where the
platform counts them.

The stages are timed in separate calls from the untimed ones, by wrappers
swapped onto the module attributes, so the stages and other of a call add
up to more than call by the wrappers' own cost.  log_sf's wrapper runs once
per p-value lane, so its own cost is counted once per lane.  The shapes:

    hc6 .. hc12   one ci_test of X3, Y4 and k four-level Z columns (the
                  high_card_z workload)
    z2, z2x4, z2x4x4   one ci_test of X3, Y4 with the paper's conditioning sets
    screen        one batch_screen group like pc_screen's: every pair of 29
                  columns of 2, 3 and 4 levels given one 4-level column, 406
                  tests (812 p-value lanes) a call

All columns are drawn uniformly with a fixed seed.  Every tree runs in a
fresh process, and the trees alternate, starting with a different one each
round.  Run from the root of a checkout, e.g. to compare with another
checkout:

    python3 scripts/kernel_stages.py --src ../parent/src src --rounds 5
    python3 scripts/kernel_stages.py --shapes screen --rows 10000 --calls 20
"""

from __future__ import annotations

import argparse
import itertools
import json
import statistics
import subprocess
import sys
from time import perf_counter_ns

import numpy as np

try:
    import resource
except ImportError:  # not on every platform
    resource = None

SHAPES = {f"hc{k}": (3, 4) + (4,) * k for k in range(6, 13)}
SHAPES.update({"z2": (3, 4, 2), "z2x4": (3, 4, 2, 4), "z2x4x4": (3, 4, 2, 4, 4)})
SHAPES["screen"] = (3, 4, 2, 2, 3, 4, 4, 2, 3) * 3 + (3, 4, 4)
STAGES = ("call", "strata_code", "cells", "closed_form", "log_sf", "results", "other")


def _minor_faults() -> int | None:
    """The process's minor page faults so far, or None where they are not counted."""
    if resource is None:
        return None
    return getattr(resource.getrusage(resource.RUSAGE_SELF), "ru_minflt", None)


def _child(src: str, shape: str, rows: int, calls: int) -> None:
    sys.path.insert(0, src)
    from catci import citest, tabulate
    from catci.core import CategoricalColumn, Dataset, TestSpec

    rng = np.random.default_rng(list(SHAPES).index(shape))
    levels = SHAPES[shape]
    data = Dataset(rows, tuple(
        CategoricalColumn(f"V{j}", d, rng.integers(0, d, size=rows),
                          labels=tuple(map(str, range(d))))
        for j, d in enumerate(levels)
    ))
    if shape == "screen":
        z = len(levels) - 1
        specs = [TestSpec(x, y, (z,)) for x, y in itertools.combinations(range(z), 2)]

        def kernel():
            citest.batch_screen(data, specs)
    else:
        spec = TestSpec(0, 1, tuple(range(2, len(levels))))

        def kernel():
            citest.ci_test(data, spec)

    def run() -> int:
        start = perf_counter_ns()
        kernel()
        return perf_counter_ns() - start

    run()
    faults = _minor_faults()
    whole = [run() for _ in range(calls)]
    if faults is not None:
        faults = (_minor_faults() - faults) / calls

    spent = dict.fromkeys(STAGES[1:6], 0)

    def timed(module, name, stage):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[stage] += perf_counter_ns() - start

        setattr(module, name, wrapper)

    def timed_generator(module, name, stage):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                start = perf_counter_ns()
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    spent[stage] += perf_counter_ns() - start
                yield item

        setattr(module, name, wrapper)

    timed(tabulate, "_strata_code", "strata_code")
    timed_generator(tabulate, "stacked_cells", "cells")
    timed(citest, "_closed_form", "closed_form")
    citest._ROUTES["closed_form"] = citest._closed_form  # _screen takes it from this table
    timed(citest, "log_sf_chisq", "log_sf")
    timed(citest, "_results", "results")
    per_call = {stage: [] for stage in STAGES[1:]}
    for _ in range(calls):
        before = dict(spent)
        start = perf_counter_ns()
        kernel()
        per_call["other"].append(perf_counter_ns() - start)
        for stage in STAGES[1:6]:
            per_call[stage].append(spent[stage] - before[stage])
    # stacked_cells' time includes the _strata_code call it makes, and
    # _results' the log_sf_chisq calls; other is the rest of the same call.
    per_call["cells"] = [c - s for c, s in zip(per_call["cells"], per_call["strata_code"])]
    per_call["results"] = [r - p for r, p in zip(per_call["results"], per_call["log_sf"])]
    per_call["other"] = [
        total - sum(per_call[stage][i] for stage in STAGES[1:6])
        for i, total in enumerate(per_call["other"])
    ]
    row = {stage: statistics.median(ns) / 1e3 for stage, ns in per_call.items()}
    row["call"] = statistics.median(whole) / 1e3
    if faults is not None:
        row["minflt"] = faults
    print(json.dumps(row))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", nargs="+", default=["src"], help="source trees holding catci")
    parser.add_argument("--shapes", nargs="+", choices=list(SHAPES), default=list(SHAPES))
    parser.add_argument("--rows", type=int, default=3000)
    parser.add_argument("--rounds", type=int, default=3, help="processes per shape and tree")
    parser.add_argument("--calls", type=int, default=200, help="calls per process and mode")
    parser.add_argument("--child", nargs=4, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        _child(args.child[0], args.child[1], int(args.child[2]), int(args.child[3]))
        return 0

    for shape in args.shapes:
        runs = {src: [] for src in args.src}
        for r in range(args.rounds):
            shift = r % len(args.src)
            for src in args.src[shift:] + args.src[:shift]:
                out = subprocess.run(
                    [sys.executable, __file__, "--child", src, shape, str(args.rows), str(args.calls)],
                    check=True, capture_output=True, text=True,
                ).stdout
                runs[src].append(json.loads(out))
        row = {"shape": shape, "rows": args.rows}
        for src, results in runs.items():
            row[src] = {
                column: round(statistics.median(res[column] for res in results), 1)
                for column in (*STAGES, "minflt")
                if all(column in res for res in results)
            }
        print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
