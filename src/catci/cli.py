"""Command-line surface: single test, batch screening, generation, benchmark.

Exit codes: 0 success, 2 usage errors, 3 data errors (unreadable or
malformed input), 4 test-spec errors (bad or overlapping columns).
P-values are printed in natural log scale (``log_p_*``); the single-test
report adds linear ``p_*`` for readability.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import nullcontext
from itertools import combinations
from pathlib import Path
from typing import Sequence

from . import bench as bench_mod
from . import io as io_mod
from .citest import batch_screen, ci_test
from .core import METHODS, DataError, Dataset, SpecError, TestResult, TestSpec

_EXIT_DATA = 3
_EXIT_SPEC = 4

_TSV_FLOAT = "%.12g"  # fixed TSV precision; JSON carries full precision


def _resolve_column(token: str, data: Dataset) -> int:
    """Map a column name or 0-based index to a column position."""
    names = data.column_names
    if token in names:
        return names.index(token)
    try:
        idx = int(token)
    except ValueError:
        raise SpecError(f"unknown column {token!r}") from None
    if not 0 <= idx < data.n_cols:
        raise SpecError(f"column index {idx} out of range for {data.n_cols} columns")
    return idx


def _parse_cs(arg: str | None, data: Dataset) -> tuple[int, ...]:
    if not arg:
        return ()
    return tuple(_resolve_column(tok.strip(), data) for tok in arg.split(",") if tok.strip())


def _delimiter(text: str) -> str:
    delimiter = "\t" if text == "tab" else text
    try:
        io_mod.check_delimiter(delimiter)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None
    return delimiter


def _load_dataset(args: argparse.Namespace) -> Dataset:
    return io_mod.read_delimited(
        args.data, delimiter=args.delimiter, has_header=not args.no_header
    )


# Each method by its short name, the part before any "_", and by its tag.
_SHORT_NAMES = {method.split("_")[0]: method for method in METHODS}
_METHOD_NAMES = {name: method for short, method in _SHORT_NAMES.items() for name in (short, method)}


def _result_fields(data: Dataset, spec: TestSpec, res: TestResult) -> dict:
    return {
        "x": data.columns[spec.x].name,
        "y": data.columns[spec.y].name,
        "cs": [data.columns[c].name for c in spec.cs],
        "g2": res.g2,
        "chi2": res.chi2,
        "dof": res.dof,
        "dof_adjusted": res.dof_adjusted,
        "log_p_g2": res.log_p_g2,
        "log_p_chi2": res.log_p_chi2,
        "empty_strata": res.empty_strata,
        "method": res.method,
        "degenerate": res.degenerate,
    }


def _tsv_cell(value) -> str:
    if isinstance(value, float):
        return _TSV_FLOAT % value
    if isinstance(value, list):
        return ",".join(value)
    return str(value)


def _cmd_test(args: argparse.Namespace) -> int:
    data = _load_dataset(args)
    spec = TestSpec(
        x=_resolve_column(args.x, data),
        y=_resolve_column(args.y, data),
        cs=_parse_cs(args.cs, data),
    )
    res = ci_test(data, spec, method=_METHOD_NAMES[args.method], adjust_dof=args.adjust_dof)
    fields = _result_fields(data, spec, res)
    del fields["degenerate"]  # the single-test report keeps it last, after p_g2, p_chi2
    fields["p_g2"] = math.exp(res.log_p_g2)
    fields["p_chi2"] = math.exp(res.log_p_chi2)
    fields["degenerate"] = res.degenerate
    if args.format == "json":
        print(json.dumps(fields))
    else:
        keys = list(fields)
        print("\t".join(keys))
        print("\t".join(_tsv_cell(fields[k]) for k in keys))
    return 0


def _read_pairs(args: argparse.Namespace, data: Dataset) -> list[TestSpec]:
    cs = _parse_cs(args.cs, data)
    if args.pairs == "all":
        candidates = [i for i in range(data.n_cols) if i not in cs]
        if len(candidates) < 2:
            raise SpecError(
                f"--pairs all needs two columns outside --cs, found {len(candidates)}"
            )
        return [TestSpec(x=i, y=j, cs=cs) for i, j in combinations(candidates, 2)]
    try:
        text = Path(args.pairs).read_text(encoding="utf-8")
    except OSError as err:
        raise DataError(f"cannot read pairs file {args.pairs}: {err}") from err
    except UnicodeDecodeError as err:
        raise DataError(
            f"cannot read pairs file {args.pairs}: invalid UTF-8 at byte {err.start}"
        ) from err
    specs = []
    for lineno, line in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
        if not line.strip():
            continue
        tokens = [t for t in line.replace(",", " ").split() if t]
        if len(tokens) != 2:
            raise DataError(f"pairs file line {lineno}: expected two columns, got {len(tokens)}")
        specs.append(
            TestSpec(x=_resolve_column(tokens[0], data), y=_resolve_column(tokens[1], data), cs=cs)
        )
    if not specs:
        raise DataError("pairs file lists no pairs")
    return specs


def _cmd_batch(args: argparse.Namespace) -> int:
    data = _load_dataset(args)
    specs = _read_pairs(args, data)
    results = batch_screen(
        data,
        specs,
        workers=args.workers,
        method=_METHOD_NAMES[args.method],
        adjust_dof=args.adjust_dof,
    )
    rows = [_result_fields(data, s, r) for s, r in zip(specs, results)]
    if args.format == "jsonl":
        for row in rows:
            print(json.dumps(row))
    else:
        keys = list(rows[0])
        print("\t".join(keys))
        for row in rows:
            print("\t".join(_tsv_cell(row[k]) for k in keys))
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    try:
        levels = tuple(int(tok) for tok in args.levels.split(","))
        config = io_mod.GenConfig(
            n=args.n,
            levels=levels,
            dependence={"null": "null_ci", "dependent": "dependent"}[args.mode],
            seed=args.seed,
        )
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2  # bad flag values are usage errors
    data = io_mod.generate(config)
    io_mod.write_delimited(data, args.out)
    return 0


def _int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        values = ()
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return values


def _scenario_list(text: str) -> tuple[tuple[int, ...], ...]:
    return tuple(_int_list(block) for block in text.split(";") if block.strip())


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _method_list(text: str) -> tuple[str, ...]:
    names = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not names or not all(name in _METHOD_NAMES for name in names):
        message = f"expected a comma-separated subset of {','.join(_SHORT_NAMES)}, got {text!r}"
        raise argparse.ArgumentTypeError(message)
    return tuple(_METHOD_NAMES[name] for name in names)


def _cmd_bench(args: argparse.Namespace) -> int:
    try:
        config = bench_mod.BenchConfig(
            test_counts=args.test_counts,
            sample_sizes=args.sample_sizes,
            scenarios=args.scenarios,
            repetitions=args.repetitions,
            methods=args.methods,
            seed=args.seed,
        )
    except ValueError as err:
        print(f"error: bad benchmark configuration: {err}", file=sys.stderr)
        return 2
    # Opened before the grid runs, so that an unwritable path fails at once.
    out = nullcontext(sys.stdout) if args.out is None else open(args.out, "w", encoding="utf-8")
    with out as fh:
        fh.write(bench_mod.emit_report(bench_mod.run_bench(config), format=args.format))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catci",
        description="Conditional independence tests for categorical data "
        "(G2 and chi-squared, natural-log p-values).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--data", required=True, help="delimited text dataset")
        p.add_argument("--delimiter", default=",", type=_delimiter,
                       help="one-character field delimiter ('tab' for tabs)")
        p.add_argument("--no-header", action="store_true", help="data has no header row")

    p_test = sub.add_parser("test", help="one conditional independence test")
    add_data_flags(p_test)
    p_test.add_argument("--x", required=True, help="first variable (name or 0-based index)")
    p_test.add_argument("--y", required=True, help="second variable (name or 0-based index)")
    p_test.add_argument("--cs", default="", help="comma-separated conditioning columns")
    p_test.add_argument("--method", choices=tuple(_METHOD_NAMES), default="closed")
    p_test.add_argument("--adjust-dof", action="store_true", dest="adjust_dof",
                        help="use dof counting only occupied conditioning combinations")
    p_test.add_argument("--format", choices=("json", "tsv"), default="json")
    p_test.set_defaults(handler=_cmd_test)

    p_batch = sub.add_parser("batch", help="screen many pairs")
    add_data_flags(p_batch)
    p_batch.add_argument("--pairs", required=True,
                         help="'all' or a file with one 'x y' (or 'x,y') pair per line")
    p_batch.add_argument("--cs", default="", help="conditioning columns applied to every pair")
    p_batch.add_argument("--workers", type=_positive_int, default=1)
    p_batch.add_argument("--method", choices=tuple(_METHOD_NAMES), default="closed")
    p_batch.add_argument("--adjust-dof", action="store_true", dest="adjust_dof")
    p_batch.add_argument("--format", choices=("jsonl", "tsv"), default="jsonl")
    p_batch.set_defaults(handler=_cmd_batch)

    p_gen = sub.add_parser("gen", help="generate a synthetic dataset")
    p_gen.add_argument("--n", type=int, required=True, help="number of rows")
    p_gen.add_argument("--levels", required=True,
                       help="comma-separated level counts for X,Y,Z1..Zk (e.g. 3,4,2,4,4)")
    p_gen.add_argument("--mode", choices=("null", "dependent"), default="null")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True, help="output path")
    p_gen.set_defaults(handler=_cmd_gen)

    p_bench = sub.add_parser("bench", help="timing benchmark over the scenario grid")
    defaults = bench_mod.BenchConfig
    p_bench.add_argument("--test-counts", default=defaults.test_counts, type=_int_list,
                         help="comma-separated test counts T (default %(default)s)")
    p_bench.add_argument("--sample-sizes", default=defaults.sample_sizes, type=_int_list,
                         help="comma-separated sample sizes n (default %(default)s)")
    p_bench.add_argument("--scenarios", default=defaults.scenarios, type=_scenario_list,
                         help="semicolon-separated level tuples, e.g. '3,4,2;3,4,2,4,4' "
                         "(default %(default)s)")
    p_bench.add_argument("--repetitions", default=defaults.repetitions, type=_positive_int,
                         help="datasets timed per cell (default %(default)s)")
    p_bench.add_argument("--methods", default=defaults.methods, type=_method_list,
                         help=f"subset of {','.join(_SHORT_NAMES)} (default all)")
    p_bench.add_argument("--seed", default=defaults.seed, type=int)
    p_bench.add_argument("--format", choices=("tsv", "markdown"), default="tsv")
    p_bench.add_argument("--out", help="write the report here instead of stdout")
    p_bench.set_defaults(handler=_cmd_bench)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except SpecError as err:
        print(f"error: {err}", file=sys.stderr)
        return _EXIT_SPEC
    except DataError as err:
        print(f"error: {err}", file=sys.stderr)
        return _EXIT_DATA
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return _EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
