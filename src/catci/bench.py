"""Wall-clock timing harness for repeated conditional independence tests.

Grids over (scenario, sample size, test count, method), one generated
dataset per repetition, the monotonic clock around T back-to-back test
calls, data generation excluded from the timed region.  Times are reported
both raw (mean seconds) and normalized against the closed-form route of the
same cell.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from .citest import ci_test
from .core import METHODS, TestSpec
from .io import GenConfig, generate


@dataclass(frozen=True)
class BenchConfig:
    """Benchmark grid; defaults mirror the standard T/n/scenario layout.

    Each scenario is the full level tuple (X, Y, Z_1..Z_k); the defaults are
    the 12-, 48- and 192-dof configurations.  Every cell times each method
    in ``methods`` by T back-to-back :func:`ci_test` calls.  No value
    stands for a default: an empty grid axis or zero repetitions is a
    ``ValueError``.
    """

    test_counts: tuple[int, ...] = (500, 1000, 2000, 3000, 5000)
    sample_sizes: tuple[int, ...] = (3000, 5000, 10000)
    scenarios: tuple[tuple[int, ...], ...] = ((3, 4, 2), (3, 4, 2, 4), (3, 4, 2, 4, 4))
    repetitions: int = 50
    methods: tuple[str, ...] = METHODS
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "test_counts", tuple(int(t) for t in self.test_counts))
        object.__setattr__(self, "sample_sizes", tuple(int(n) for n in self.sample_sizes))
        object.__setattr__(
            self, "scenarios", tuple(tuple(int(d) for d in s) for s in self.scenarios)
        )
        object.__setattr__(self, "methods", tuple(self.methods))
        if not self.test_counts or any(t < 1 for t in self.test_counts):
            raise ValueError("test counts must be positive")
        if not self.sample_sizes or any(n < 1 for n in self.sample_sizes):
            raise ValueError("sample sizes must be positive")
        if not self.scenarios:
            raise ValueError("scenarios must be nonempty")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if not self.methods or any(m not in METHODS for m in self.methods):
            raise ValueError(f"methods must be a nonempty subset of {METHODS}")
        for scenario in self.scenarios:
            if len(scenario) < 2 or any(d < 2 for d in scenario):
                raise ValueError(f"scenario needs >= 2 variables with >= 2 levels: {scenario}")
            GenConfig(n=1, levels=scenario)  # rejects scenarios too large to generate
        # run_bench draws each dataset with the next seed after the last one.
        datasets = len(self.scenarios) * len(self.sample_sizes) * (
            1 + len(self.test_counts) * self.repetitions
        )
        if not 0 <= self.seed <= 2**64 - datasets:
            raise ValueError(
                f"seed must lie in [0, 2**64 - {datasets}] so that each of the {datasets} "
                f"datasets gets a 64-bit unsigned seed, got {self.seed}"
            )


@dataclass(frozen=True)
class BenchRecord:
    """One timed grid cell: mean seconds over repetitions plus normalization."""

    scenario: str
    n: int
    tests: int
    method: str
    mean_seconds: float
    normalized: float


def scenario_id(levels: Sequence[int]) -> str:
    """Stable scenario label, e.g. (3, 4, 2, 4) -> 'X3-Y4-Z2x4'."""
    levels = tuple(int(d) for d in levels)
    head = f"X{levels[0]}-Y{levels[1]}"
    if len(levels) > 2:
        return head + "-Z" + "x".join(str(d) for d in levels[2:])
    return head


def run_bench(config: BenchConfig = BenchConfig()) -> list[BenchRecord]:
    """Measure the full grid and return records in (scenario, n, T, method) order."""
    records: list[BenchRecord] = []
    seed = int(config.seed)

    for scenario in config.scenarios:
        sid = scenario_id(scenario)
        spec = TestSpec(0, 1, tuple(range(2, len(scenario))))
        for n in config.sample_sizes:
            # Warm-up: one untimed pass at the smallest T per method, to
            # absorb one-time allocation and code-path effects.
            warm = generate(GenConfig(n=n, levels=scenario, seed=seed))
            seed += 1
            for method in config.methods:
                for _ in range(min(config.test_counts)):
                    ci_test(warm, spec, method=method)
            for t_count in config.test_counts:
                sums = dict.fromkeys(config.methods, 0.0)
                for _ in range(config.repetitions):
                    data = generate(GenConfig(n=n, levels=scenario, seed=seed))
                    seed += 1
                    for method in config.methods:
                        start = time.perf_counter()
                        for _ in range(t_count):
                            ci_test(data, spec, method=method)
                        sums[method] += time.perf_counter() - start
                means = {method: s / config.repetitions for method, s in sums.items()}
                baseline = means.get(METHODS[0], means[config.methods[0]])
                for method in config.methods:
                    records.append(
                        BenchRecord(
                            scenario=sid,
                            n=n,
                            tests=t_count,
                            method=method,
                            mean_seconds=means[method],
                            normalized=means[method] / baseline,
                        )
                    )
    return records


def emit_report(records: Sequence[BenchRecord], format: str = "tsv") -> str:
    """Render records as TSV or a markdown table, 3-decimal normalized times.

    Rows are sorted by (scenario, n, T, method); mean seconds carry 6
    decimals so sub-millisecond cells stay distinguishable.
    """
    if not records:
        raise ValueError("no benchmark records to report")
    if format not in ("tsv", "markdown"):
        raise ValueError(f"format must be 'tsv' or 'markdown', got {format!r}")
    ordered = sorted(records, key=lambda r: (r.scenario, r.n, r.tests, r.method))
    header = ("scenario", "n", "T", "method", "mean_seconds", "normalized")
    rows = [
        (r.scenario, str(r.n), str(r.tests), r.method, f"{r.mean_seconds:.6f}", f"{r.normalized:.3f}")
        for r in ordered
    ]
    if format == "tsv":
        lines = ["\t".join(header)] + ["\t".join(row) for row in rows]
        return "\n".join(lines) + "\n"
    widths = [max(len(h), *(len(row[i]) for row in rows)) for i, h in enumerate(header)]
    def fmt(cells: Sequence[str]) -> str:
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"
    lines = [fmt(header), "| " + " | ".join("-" * w for w in widths) + " |"]
    lines += [fmt(row) for row in rows]
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> list[BenchRecord]:
    """Inverse of the TSV format of :func:`emit_report`."""
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0].split("\t") != ["scenario", "n", "T", "method", "mean_seconds", "normalized"]:
        raise ValueError("not a benchmark TSV report")
    out = []
    for ln in lines[1:]:
        scenario, n, tests, method, mean_seconds, normalized = ln.split("\t")
        out.append(
            BenchRecord(
                scenario=scenario,
                n=int(n),
                tests=int(tests),
                method=method,
                mean_seconds=float(mean_seconds),
                normalized=float(normalized),
            )
        )
    return out
