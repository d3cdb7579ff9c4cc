"""Span tracing of catci from the outside, by swapping public functions.

While a :class:`Tracer` is installed, each traced function of the catci
modules is replaced, under every name it is bound to inside the package, by
a wrapper that records one span: layer name, start, end, parent span and
the test id the benchmark set before the call.  Spans stay in memory and
are written out once, at the end of the run.

Counters (table sizes, strata, log-tail branch, IPF iterations, bytes read)
are computed after the wrapped call returns.  That work is itself recorded
as a ``trace.counters`` span under the caller, so it never lands in any
layer's self time; it shows only in the traced-minus-untraced overhead.

Functions run inside forked pool workers record into the worker's copy of
the tracer, which is discarded with the worker: those spans are lost.
"""

from __future__ import annotations

import json
import math
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

import numpy as np

from catci import citest, cli, core, loglinear, tabulate
from catci import io as cio

COUNTERS = "trace.counters"


def _count_table(counts: Counter, maxima: dict, args, kwargs, table) -> None:
    counts["tabulate.build_table.calls"] += 1
    counts["tabulate.cells_nominal"] += table.n_cells
    if table.is_dense:
        counts["tabulate.dense_tables"] += 1
        counts["tabulate.cells_occupied"] += int(np.count_nonzero(table.dense))
        maxima["tabulate.dense_bytes_computed"] = max(
            maxima.get("tabulate.dense_bytes_computed", 0), table.dense.nbytes
        )
    else:
        counts["tabulate.sparse_tables"] += 1
        counts["tabulate.cells_occupied"] += int(table.sparse_index.size)


def _count_marginals(counts: Counter, maxima: dict, args, kwargs, marginals) -> None:
    counts["tabulate.strata_nominal"] += marginals.n_slices
    counts["tabulate.strata_occupied"] += marginals.occupied_slices


def _count_log_sf(counts: Counter, maxima: dict, args, kwargs, _out) -> None:
    # Mirrors log_sf_chisq's branch choice from its arguments alone.
    stat, dof = float(args[0]), args[1]
    counts["citest.log_sf_chisq.calls"] += 1
    if stat == 0.0 or math.isinf(stat):
        return
    if 0.5 * stat < 0.5 * dof + 1.0:
        counts["citest.log_sf_chisq.series_calls"] += 1
    else:
        counts["citest.log_sf_chisq.cf_calls"] += 1


def _count_ipf(counts: Counter, maxima: dict, args, kwargs, fit) -> None:
    counts["loglinear.ipf_fit.iterations"] += fit.iterations
    counts["loglinear.ipf_fit.unconverged"] += int(not fit.converged)


def _count_read(counts: Counter, maxima: dict, args, kwargs, _data) -> None:
    source = args[0] if args else kwargs.get("source")
    if isinstance(source, (str, os.PathLike)):
        counts["io.read_delimited.bytes"] += os.path.getsize(source)


# (span name, owner object, attribute, counter or None)
TARGETS = (
    ("io.generate", cio, "generate", None),
    ("io.read_delimited", cio, "read_delimited", _count_read),
    ("core.from_tokens", core.CategoricalColumn, "from_tokens", None),
    ("core.validate_spec", core, "validate_spec", None),
    ("tabulate.build_table", tabulate, "build_table", _count_table),
    ("tabulate.slice_marginals", tabulate, "slice_marginals", _count_marginals),
    ("tabulate.expected_ci", tabulate, "expected_ci", None),
    ("citest.g2_statistic", citest, "g2_statistic", None),
    ("citest.chi2_statistic", citest, "chi2_statistic", None),
    ("citest.log_sf_chisq", citest, "log_sf_chisq", _count_log_sf),
    ("citest.ci_test", citest, "ci_test", None),
    ("citest.batch_screen", citest, "batch_screen", None),
    ("loglinear.ipf_fit", loglinear, "ipf_fit", _count_ipf),
    ("cli.main", cli, "main", None),
)


class Tracer:
    """Records spans and counters while installed; restores everything on exit."""

    def __init__(self) -> None:
        # A span is [name, start_ns, end_ns, parent index or -1, test id].
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: dict = {}
        self.test_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            span = [name, 0, 0, parent, self.test_id]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if counter is not None:
                counter(self.counts, self.maxima, args, kwargs, out)
                spans.append([COUNTERS, span[2], perf_counter_ns(), parent, self.test_id])
            return out

        traced.__wrapped__ = fn
        return traced

    def _bind(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items()) if n == "catci" or n.startswith("catci.")]
        for name, owner, attr, counter in TARGETS:
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                self._bind(owner, attr, classmethod(self._wrap(name, raw.__func__, counter)))
                continue
            wrapped = self._wrap(name, raw, counter)
            # Rebind every alias inside the package (e.g. cli.ci_test,
            # citest.validate_spec), so internal callers see the wrapper too.
            for module in modules:
                for alias, value in list(vars(module).items()):
                    if value is raw:
                        self._bind(module, alias, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def layer_times(self) -> dict[str, dict[str, int]]:
        """Per span name: calls, total ns and self ns (total minus child spans)."""
        child_ns = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, int]] = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0})
        for index, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_ns"] += end - start
            row["self_ns"] += end - start - child_ns[index]
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "test"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
