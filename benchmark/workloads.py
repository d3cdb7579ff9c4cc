"""The four benchmark workloads: inputs from a seed, one timed pass, checks.

Every workload is a closed loop with a single caller: the next call into
catci starts when the previous one has returned.  Within one pass no
(dataset, spec) pair repeats; passes repeat until the run's time is up.
Inputs are generated from the workload seed by the benchmark (through
``catci.io.generate``); catci receives only the generated data.

The calls go through module attributes (``citest.ci_test``, not a local
alias) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from array import array
from collections import Counter
from itertools import combinations
from time import perf_counter_ns

import numpy as np

import checks
from catci import citest, cli
from catci import io as cio
from catci.core import CategoricalColumn, Dataset, TestSpec
from catci.io import GenConfig

POOL_WORKERS = 2  # the sizes were chosen on a 2-core host
IPF_REL_TOL = 1e-8  # closed form vs ipf, as pinned by the acceptance suite


class Recorder:
    """Times calls into catci and keeps only what the metrics and checks need.

    Per kind of call it keeps four integer arrays (pass, tests, rows, ns).
    Per key it keeps the first result, the tests attempted, and the tests
    whose call raised or returned something other than the first result.
    A raising case is kept as a failure, not raised: the sweep goes on.
    """

    FIELDS = ("pass_no", "tests", "rows", "ns")

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.pass_no = 0
        self.n_calls = 0
        self.calls: dict[str, dict[str, array]] = {}
        self.kind_of: dict[tuple, str] = {}
        self.first: dict[tuple, object] = {}
        self.attempted: Counter = Counter()
        self.bad: Counter = Counter()
        self.errors: dict[tuple, str] = {}

    def call(self, kind: str, key: tuple, tests: int, rows: int, fn) -> None:
        """Time ``fn()``, a call carrying ``tests`` tests over ``rows`` data rows."""
        self.n_calls += 1
        if self.tracer is not None:
            self.tracer.test_id = self.n_calls
        start = perf_counter_ns()
        try:
            result, error = fn(), None
        except Exception as err:
            result, error = None, f"{type(err).__name__}: {err}"
        ns = perf_counter_ns() - start
        columns = self.calls.setdefault(kind, {f: array("q") for f in self.FIELDS})
        for field, value in zip(self.FIELDS, (self.pass_no, tests, rows, ns)):
            columns[field].append(value)
        self.kind_of[key] = kind
        self.attempted[key] += tests
        if error is None and key not in self.first:
            self.first[key] = result
        elif error is not None or result != self.first[key]:
            self.bad[key] += tests
            self.errors.setdefault(key, error or f"pass {self.pass_no} differs from the first pass")


def _seeds(seed: int):
    rng = np.random.default_rng(seed)
    while True:
        yield int(rng.integers(0, 2**63))


def _dataset(columns, names) -> Dataset:
    cols = tuple(
        CategoricalColumn(name=name, levels=c.levels, codes=c.codes, labels=c.labels)
        for name, c in zip(names, columns)
    )
    return Dataset(n_rows=cols[0].codes.size, columns=cols)


def _reuse_share(keys: list) -> float:
    """Share of tests whose (dataset, conditioning set) appeared earlier in the pass."""
    seen, reused = set(), 0
    for key in keys:
        reused += key in seen
        seen.add(key)
    return reused / len(keys)


class Workload:
    """Shared defaults; each workload sets ``name`` and ``tail_pct`` and defines
    ``setup``, ``run_pass``, ``cs_reuse_share`` and ``check``."""

    def cleanup(self, state) -> None:
        """Remove what ``setup`` left outside memory."""


class PaperGrid(Workload):
    """The paper's scenarios at n = 3k, 5k and 10k; one fresh dataset per test."""

    name = "paper_grid"
    tail_pct = 99
    scenarios = ((3, 4, 2), (3, 4, 2, 4), (3, 4, 2, 4, 4))

    def __init__(self, tiny: bool = False) -> None:
        # Three sizes, as in catci's standard grid: with nine cells the median
        # test falls inside a cell's latency cluster, not in a gap between two.
        self.sizes = (200, 300, 500) if tiny else (3000, 5000, 10000)
        self.per_cell = 2 if tiny else 14

    def setup(self, seed: int, workdir) -> list:
        seeds = _seeds(seed)
        tests = []
        for levels in self.scenarios:
            spec = TestSpec(0, 1, tuple(range(2, len(levels))))
            for n in self.sizes:
                for _ in range(self.per_cell):
                    closed = cio.generate(GenConfig(n=n, levels=levels, seed=next(seeds)))
                    ipf = cio.generate(GenConfig(n=n, levels=levels, seed=next(seeds)))
                    tests.append((spec, closed, ipf))
        return tests

    def run_pass(self, tests: list, rec: Recorder) -> None:
        # Closed form and ipf alternate, so drift hits both routes alike.
        for i, (spec, closed, ipf) in enumerate(tests):
            rec.call("closed", ("closed", i), 1, closed.n_rows, lambda: citest.ci_test(closed, spec))
            rec.call("ipf", ("ipf", i), 1, ipf.n_rows, lambda: citest.ci_test(ipf, spec, method="ipf"))

    def cs_reuse_share(self, tests: list) -> float:
        return _reuse_share([(id(d), spec.cs) for spec, c, i in tests for d in (c, i)])

    def check(self, tests: list, results: dict, rng) -> dict:
        problems: dict = {}
        for i, (spec, closed, ipf) in enumerate(tests):
            for key, data, other in ((("closed", i), closed, "ipf"), (("ipf", i), ipf, "closed_form")):
                if key in results:
                    ref = citest.ci_test(data, spec, method=other)
                    got = results[key]
                    bad = [f for f in ("g2", "chi2") if not checks.close(getattr(got, f), getattr(ref, f), IPF_REL_TOL)]
                    if bad:
                        problems.setdefault(key, []).append(f"{key}: {bad} differ from {other}")
        for i in rng.choice(len(tests), size=min(8, len(tests)), replace=False):
            key = ("closed", int(i))
            if key in results:
                spec, closed, _ = tests[int(i)]
                found = checks.against_oracle(closed, spec, results[key]) + checks.against_mpmath(results[key])
                if found:
                    problems.setdefault(key, []).extend(found)
        return problems


class PcScreen(Workload):
    """A PC-style screen over ~30 columns: |Z| = 0, then a few fixed Z of size 1 and 2."""

    name = "pc_screen"
    tail_pct = 75
    block_levels = ((3, 4, 2), (2, 3, 4), (4, 2, 3))

    def __init__(self, tiny: bool = False) -> None:
        self.n = 400 if tiny else 10_000
        self.blocks = 3 if tiny else 10
        self.z_sizes = (1, 2) if tiny else (1, 1, 2, 2)

    def setup(self, seed: int, workdir) -> dict:
        # Stacked small generate() blocks: one generate() call over ~28 Z
        # columns tries to allocate per-stratum tables for every nominal stratum.
        seeds = _seeds(seed)
        columns = []
        for b in range(self.blocks):
            mode = "dependent" if b % 2 else "null_ci"
            levels = self.block_levels[b % len(self.block_levels)]
            columns += cio.generate(GenConfig(n=self.n, levels=levels, dependence=mode, seed=next(seeds))).columns
        data = _dataset(columns, [f"V{j + 1}" for j in range(len(columns))])
        picks = iter(np.random.default_rng(next(seeds)).permutation(data.n_cols).tolist())
        z_sets = [()] + [tuple(sorted(next(picks) for _ in range(k))) for k in self.z_sizes]
        groups = []
        for cs in z_sets:
            free = [c for c in range(data.n_cols) if c not in cs]
            groups.append([TestSpec(x, y, cs) for x, y in combinations(free, 2)])
        return {"data": data, "groups": groups}

    def run_pass(self, state: dict, rec: Recorder) -> None:
        data, n = state["data"], state["data"].n_rows
        for workers, kind in ((1, "closed"), (POOL_WORKERS, "pool")):
            for g, specs in enumerate(state["groups"]):
                rec.call(
                    kind, (kind, g), len(specs), n * len(specs),
                    lambda: citest.batch_screen(data, specs, workers=workers),
                )

    def cs_reuse_share(self, state: dict) -> float:
        keys = [spec.cs for _ in (1, POOL_WORKERS) for specs in state["groups"] for spec in specs]
        return _reuse_share(keys)

    def check(self, state: dict, results: dict, rng) -> dict:
        problems: dict = {}
        for g, specs in enumerate(state["groups"]):
            single, pooled = results.get(("closed", g)), results.get(("pool", g))
            if single is None:
                continue
            if pooled is not None and pooled != single:
                for key in (("closed", g), ("pool", g)):
                    problems.setdefault(key, []).append(f"group {g}: workers={POOL_WORKERS} != workers=1")
            for i in rng.choice(len(specs), size=min(2, len(specs)), replace=False):
                found = checks.against_oracle(state["data"], specs[i], single[i])
                found += checks.against_mpmath(single[i])
                if found:
                    problems.setdefault(("closed", g), []).extend(found)
        return problems


class HighCardZ(Workload):
    """X3, Y4 and k four-level Z columns at n = 3k, k swept across the dense/sparse switch."""

    name = "high_card_z"
    tail_pct = 75

    def __init__(self, tiny: bool = False) -> None:
        self.n = 300 if tiny else 3000
        self.ks = (2, 3, 4) if tiny else tuple(range(6, 13))

    def setup(self, seed: int, workdir) -> list:
        # Z columns past the sixth come from extra generate() blocks: one call
        # with k = 12 would allocate per-stratum tables for 4^12 strata.
        seeds = _seeds(seed)
        cases = []
        for k in self.ks:
            columns = list(cio.generate(GenConfig(n=self.n, levels=(3, 4) + (4,) * min(k, 6), seed=next(seeds))).columns)
            while len(columns) < 2 + k:
                block = cio.generate(GenConfig(n=self.n, levels=(4,) * 6, seed=next(seeds)))
                columns += block.columns[: 2 + k - len(columns)]
            data = _dataset(columns, ["X", "Y"] + [f"Z{j + 1}" for j in range(k)])
            cases.append((k, data, TestSpec(0, 1, tuple(range(2, 2 + k)))))
        return cases

    def run_pass(self, cases: list, rec: Recorder) -> None:
        for k, data, spec in cases:
            rec.call("closed", ("k", k), 1, data.n_rows, lambda: citest.ci_test(data, spec))

    def cs_reuse_share(self, cases: list) -> float:
        return _reuse_share([(id(data), spec.cs) for _, data, spec in cases])

    def check(self, cases: list, results: dict, rng) -> dict:
        problems: dict = {}
        for k, data, spec in cases:
            key = ("k", k)
            if key in results:
                found = checks.against_oracle(data, spec, results[key]) + checks.against_mpmath(results[key])
                if found:
                    problems[key] = found
        return problems


class IngestCli(Workload):
    """``catci test`` from a large CSV file to its JSON report, in process."""

    name = "ingest_cli"
    tail_pct = 100  # a run holds only a few calls; the tail is their maximum
    levels = (3, 4, 2, 4, 4)
    names = ("X", "Y", "Z1", "Z2", "Z3")

    def __init__(self, tiny: bool = False) -> None:
        self.rows = 2000 if tiny else 1_000_000
        self.chunks = 2 if tiny else 8

    def setup(self, seed: int, workdir) -> dict:
        # Written in chunks so that set-up memory stays far below the
        # reader's; every token is one digit, so a row is 10 bytes.
        path = workdir / f"ingest-{seed}-{os.getpid()}.csv"
        seeds = _seeds(seed)
        kept = []
        with open(path, "wb") as fh:
            fh.write((",".join(self.names) + "\n").encode())
            for _ in range(self.chunks):
                block = cio.generate(GenConfig(n=self.rows // self.chunks, levels=self.levels, seed=next(seeds)))
                codes = np.stack([c.codes for c in block.columns], axis=1).astype(np.uint8)
                line = np.empty((codes.shape[0], 2 * len(self.names)), dtype=np.uint8)
                line[:, 0::2] = codes + ord("0")
                line[:, 1::2] = ord(",")
                line[:, -1] = ord("\n")
                fh.write(line.tobytes())
                kept.append(codes)
        return {"path": path, "codes": np.concatenate(kept)}

    def _cli(self, path) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["test", "--data", str(path), "--x", "X", "--y", "Y", "--cs", "Z1,Z2,Z3", "--format", "json"])
        return code, out.getvalue()

    def run_pass(self, state: dict, rec: Recorder) -> None:
        rec.call("closed", ("cli",), 1, self.rows, lambda: self._cli(state["path"]))

    def cs_reuse_share(self, state: dict) -> float:
        return 0.0  # one test per pass

    def check(self, state: dict, results: dict, rng) -> dict:
        if ("cli",) not in results:
            return {}
        # The file's first chunk realises every level in code order, so the
        # reader's first-appearance factorisation reproduces these codes.
        columns = [
            CategoricalColumn(name=name, levels=lv, codes=state["codes"][:, j], labels=tuple(str(c) for c in range(lv)))
            for j, (name, lv) in enumerate(zip(self.names, self.levels))
        ]
        data = Dataset(n_rows=state["codes"].shape[0], columns=tuple(columns))
        spec = TestSpec(0, 1, (2, 3, 4))
        ref = citest.ci_test(data, spec)
        code, text = results[("cli",)]
        problems = [] if code == 0 else [f"exit code {code}"]
        if code == 0:
            report = json.loads(text)
            for field in ("g2", "chi2", "dof", "dof_adjusted", "log_p_g2", "log_p_chi2", "empty_strata", "degenerate"):
                if report[field] != getattr(ref, field):
                    problems.append(f"cli {field} {report[field]!r} != in-memory {getattr(ref, field)!r}")
        problems += checks.against_oracle(data, spec, ref) + checks.against_mpmath(ref)
        return {("cli",): problems} if problems else {}

    def cleanup(self, state) -> None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(state["path"])


WORKLOADS = {w.name: w for w in (PaperGrid, PcScreen, HighCardZ, IngestCli)}
