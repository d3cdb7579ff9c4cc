"""Benchmark of catci: one workload per run, metrics as one JSON line on stdout.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

The run builds its inputs from ``--seed``, sets up several times (``setup_s``
is their median), warms up with one untimed pass, then repeats timed passes
for ``--seconds``.  Afterwards it checks the results outside the timed
region: every pass must repeat the first pass exactly, and the workload's
own checks (brute-force oracle, mpmath, closed form vs ipf, workers=2 vs
workers=1, CLI vs in-memory) must pass.  A call that raised or failed a
check counts as failed.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, including
the tracing overhead (traced minus untraced).  Both write
``benchmark/results/<workload>-seed<N>-trace<T>.json`` with the median,
quartiles and sample count of every metric; a traced run also writes its
spans to ``<workload>-seed<N>.trace.jsonl``.  Metric names and units are
listed in ``BENCHMARK.json`` at the root of the repository.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"
SETUP_MIN_REPS = 5  # setup_s is the median of at least this many set-ups ...
SETUP_MIN_SECONDS = 1.0  # ... and of as many more as fit in this much set-up time
SETUP_MAX_REPS = 50

END_TO_END = {
    "setup_s": "s",
    "tests_per_s": "1/s",
    "rows_per_s": "rows/s",
    "test_us_p50": "us",
    "test_us_tail": "us",
    "peak_rss_mb": "MB",
}

# Self time of each layer as a share of the traced passes' wall time.
LAYER_SHARES = (
    "tabulate.build_table",
    "tabulate.slice_marginals",
    "tabulate.expected_ci",
    "citest.g2_statistic",
    "citest.chi2_statistic",
    "citest.log_sf_chisq",
    "citest.ci_test",
    "citest.batch_screen",
    "loglinear.ipf_fit",
    "io.read_delimited",
    "core.from_tokens",
    "cli.main",
)
# Counters from the tracer, per traced pass.
PASS_COUNTS = (
    "tabulate.build_table.calls",
    "tabulate.cells_nominal",
    "tabulate.cells_occupied",
    "tabulate.dense_tables",
    "tabulate.sparse_tables",
    "tabulate.strata_nominal",
    "tabulate.strata_occupied",
    "citest.log_sf_chisq.calls",
    "citest.log_sf_chisq.series_calls",
    "citest.log_sf_chisq.cf_calls",
    "loglinear.ipf_fit.iterations",
    "loglinear.ipf_fit.unconverged",
)
PER_LAYER = {
    **{f"{layer}.self_pct": "%" for layer in LAYER_SHARES},
    "io.generate.setup_pct": "%",
    **{name: "count" for name in PASS_COUNTS},
    "tabulate.dense_bytes_computed": "B",
    "citest.cs_reuse_share": "ratio",
    "io.bytes_per_s": "B/s",
    "ipf_tests_per_s": "1/s",
    "pool_tests_per_s": "1/s",
    "ipf_over_closed": "ratio",
    "citest.batch_screen.pool_speedup": "ratio",
    "trace.overhead_pct": "%",
}


def load_program() -> None:
    """Put the checkout's ``src`` first on the path and import catci from it."""
    src = ROOT / "src"
    if not (src / "catci" / "__init__.py").is_file():
        raise SystemExit(f"error: no catci sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import catci

    if Path(catci.__file__).resolve().parent != (src / "catci").resolve():
        raise SystemExit(f"error: catci was imported from {catci.__file__}, not from {src}")


def summary(samples: list[float]) -> dict:
    """Median, quartiles and count; the median is the reported value."""
    if len(samples) >= 2:
        q1, med, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = med = q3 = samples[0]
    return {"value": med, "median": med, "q1": q1, "q3": q3, "n": len(samples)}


def percentile(samples: list[float], pct: float) -> float:
    """Linearly interpolated percentile; ``pct`` 100 is the maximum."""
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * pct / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def rate(rec, kind: str, field: str, passes: set) -> dict:
    """``field`` (tests or rows) of ``kind`` calls per second of their time.

    The value is the total over the passes, which weighs every stretch of
    the run by its length; the per-pass median and quartiles go alongside.
    """
    totals: dict[int, list[int]] = {}
    calls = rec.calls.get(kind, {f: () for f in ("pass_no", field, "ns")})
    for pass_no, amount, ns in zip(calls["pass_no"], calls[field], calls["ns"]):
        if pass_no in passes:
            row = totals.setdefault(pass_no, [0, 0])
            row[0] += amount
            row[1] += ns
    if not totals:
        return {"value": 0.0, "n": 0}
    amount, ns = (sum(column) for column in zip(*totals.values()))
    return {**summary([a * 1e9 / t for a, t in totals.values()]), "value": amount * 1e9 / ns}


def run_passes(workload, state, rec, seconds: float, tracer=None) -> tuple[set, set, list]:
    """Timed passes until ``seconds`` have elapsed.

    With a tracer, untraced and traced passes alternate, so that drift in
    the machine's speed hits both alike.  Returns the untraced and traced
    pass numbers and the wall ns of each traced pass.
    """
    plain, traced, walls = set(), set(), []
    start = perf_counter()
    while not plain or perf_counter() - start < seconds:
        rec.pass_no += 1
        plain.add(rec.pass_no)
        workload.run_pass(state, rec)
        if tracer is not None:
            rec.pass_no += 1
            traced.add(rec.pass_no)
            rec.tracer = tracer
            with tracer:
                t0 = perf_counter_ns()
                workload.run_pass(state, rec)
                walls.append(perf_counter_ns() - t0)
            rec.tracer = None
    return plain, traced, walls


def corrupt(result):
    """A deliberately wrong copy of a closed-form result (for testing the gate)."""
    if isinstance(result, list):
        return [corrupt(r) for r in result]
    if isinstance(result, tuple):  # (exit code, JSON report) from the CLI
        code, text = result
        report = json.loads(text)
        report["g2"] = report["g2"] * 1.01 + 1.0
        return code, json.dumps(report)
    return dataclasses.replace(result, g2=result.g2 * 1.01 + 1.0)


def gate(workload, state, rec, seed: int, inject_fault: bool) -> tuple[int, dict]:
    """Failed test count and the problems found, checked outside the timed region."""
    results = dict(rec.first)
    if inject_fault:
        results = {k: corrupt(v) if rec.kind_of[k] == "closed" else v for k, v in results.items()}
    flagged = workload.check(state, results, np.random.default_rng(seed))
    failed = sum(rec.attempted[k] if k in flagged else rec.bad[k] for k in rec.attempted)
    problems = {k: list(v) for k, v in flagged.items()}
    for key, error in rec.errors.items():
        problems.setdefault(key, []).append(error)
    return failed, problems


def end_to_end(workload, rec, passes: set, setup_times: list[float], rss_kb: int) -> dict:
    calls = rec.calls["closed"]
    latencies = [ns / t / 1e3 for p, t, ns in zip(calls["pass_no"], calls["tests"], calls["ns"]) if p in passes]
    tail = percentile(latencies, workload.tail_pct)
    return {
        "setup_s": summary(setup_times),
        "tests_per_s": rate(rec, "closed", "tests", passes),
        "rows_per_s": rate(rec, "closed", "rows", passes),
        "test_us_p50": summary(latencies),
        "test_us_tail": {
            "value": tail,
            "percentile": workload.tail_pct,
            "n": len(latencies),
            "beyond": sum(v > tail for v in latencies),
        },
        "peak_rss_mb": {"value": rss_kb / 1024},
    }


def route_figures(rec, passes: set) -> dict:
    """Figures of the ipf route and the process pool, where the workload has them (else 0)."""
    closed, ipf, pool = (rate(rec, kind, "tests", passes)["value"] for kind in ("closed", "ipf", "pool"))
    return {
        "ipf_tests_per_s": rate(rec, "ipf", "tests", passes),
        "pool_tests_per_s": rate(rec, "pool", "tests", passes),
        # ipf time per test over closed-form time per test, as in the paper
        "ipf_over_closed": {"value": closed / ipf if ipf else 0.0},
        "citest.batch_screen.pool_speedup": {"value": pool / closed if pool else 0.0},
    }


def per_layer(workload, state, rec, plain: set, traced: set, setup_tracer, setup_s, tracer, walls) -> dict:
    times = tracer.layer_times()
    wall = sum(walls)
    out = {}
    for layer in LAYER_SHARES:
        self_ns = times.get(layer, {}).get("self_ns", 0)
        out[f"{layer}.self_pct"] = {"value": 100.0 * self_ns / wall, "self_s_per_pass": self_ns / 1e9 / len(walls)}
    generate_s = setup_tracer.layer_times().get("io.generate", {}).get("total_ns", 0) / 1e9
    out["io.generate.setup_pct"] = {"value": 100.0 * generate_s / setup_s, "generate_s": generate_s}
    for name in PASS_COUNTS:
        out[name] = {"value": tracer.counts[name] / len(walls), "passes": len(walls)}
    out["tabulate.dense_bytes_computed"] = {"value": tracer.maxima.get("tabulate.dense_bytes_computed", 0)}
    out["citest.cs_reuse_share"] = {"value": workload.cs_reuse_share(state)}
    read_ns = times.get("io.read_delimited", {}).get("total_ns", 0)
    out["io.bytes_per_s"] = {"value": tracer.counts["io.read_delimited.bytes"] * 1e9 / read_ns if read_ns else 0.0}
    out.update(route_figures(rec, plain))
    untraced_tps = rate(rec, "closed", "tests", plain)["value"]
    traced_tps = rate(rec, "closed", "tests", traced)["value"]
    out["trace.overhead_pct"] = {
        "value": 100.0 * (untraced_tps / traced_tps - 1.0),
        "untraced_tests_per_s": untraced_tps,
        "traced_tests_per_s": traced_tps,
    }
    return out


def run(name: str, seed: int, seconds: float, trace: bool, *, tiny: bool = False, inject_fault: bool = False) -> dict:
    """One benchmark run; returns the result line and the detailed record."""
    from tracing import Tracer
    from workloads import WORKLOADS, Recorder

    workload = WORKLOADS[name](tiny=tiny)
    RESULTS.mkdir(exist_ok=True)
    setup_tracer = Tracer()
    start = perf_counter_ns()
    with setup_tracer if trace else contextlib.nullcontext():
        state = workload.setup(seed, RESULTS)
    setup_times = [(perf_counter_ns() - start) / 1e9]
    notes = []
    try:
        workload.run_pass(state, Recorder())  # warm-up, untimed and unchecked
        rec = Recorder()
        tracer = Tracer() if trace else None
        plain, traced, walls = run_passes(workload, state, rec, seconds, tracer)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        failed, problems = gate(workload, state, rec, seed, inject_fault)
        if trace:
            metrics = per_layer(workload, state, rec, plain, traced, setup_tracer, setup_times[0], tracer, walls)
            if name == "pc_screen":
                notes.append("spans inside forked pool workers are not collected: the workers=2 "
                             "pool is measured by wall time only, as citest.batch_screen self time")
    finally:
        workload.cleanup(state)
    if not trace:
        while len(setup_times) < SETUP_MIN_REPS or (
            sum(setup_times) < SETUP_MIN_SECONDS and len(setup_times) < SETUP_MAX_REPS
        ):
            start = perf_counter_ns()
            workload.cleanup(workload.setup(seed, RESULTS))
            setup_times.append((perf_counter_ns() - start) / 1e9)
        metrics = {**end_to_end(workload, rec, plain, setup_times, rss_kb), **route_figures(rec, plain)}

    units = PER_LAYER if trace else END_TO_END
    attempted = sum(rec.attempted.values())
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m]["value"], "unit": units[m]} for m in units},
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "passes": rec.pass_no,
        "failed_frac": failed / attempted,
        "problems": {repr(k): v[:3] for k, v in problems.items()},
        "notes": notes,
        "metrics": metrics,
        "units": {**END_TO_END, **PER_LAYER},
    }
    stem = RESULTS / f"{name}-seed{seed}"
    if trace:
        record["layers"] = tracer.layer_times()  # calls, total and self ns per span name
        tracer.write(f"{stem}.trace.jsonl")
    Path(f"{stem}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    return {"line": line, "record": record}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed nonnegative")
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    record = out["record"]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: passes={record['passes']} "
          f"failed_frac={record['failed_frac']}", file=sys.stderr)
    for key, problems in record["problems"].items():
        print(f"  FAILED {key}: {problems}", file=sys.stderr)
    for note in record["notes"]:
        print(f"  note: {note}", file=sys.stderr)
    print(json.dumps(out["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
