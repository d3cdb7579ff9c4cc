"""Correctness checks run after the timed region: an independent oracle and mpmath.

The oracle shares no code with catci: it counts the occupied (x, y, z)
cells with ``np.unique`` over the stacked rows, builds the slice marginals
as plain dicts, and sums G² and χ² cell by cell.  Log p-values are checked
against mpmath's regularized upper incomplete gamma function.
"""

from __future__ import annotations

import math
from collections import defaultdict

import mpmath
import numpy as np

REL_TOL = 1e-9  # statistics: catci and the oracle both sum exactly (fsum)
LOG_P_TOL = 1e-9  # catci documents ~1e-12 absolute accuracy in log scale


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def oracle(data, spec) -> dict:
    """G², χ², nominal dof and empty strata of ``spec`` on ``data`` by brute force."""
    levels = [data.levels(c) for c in (spec.x, spec.y, *spec.cs)]
    rows = np.stack([data.columns[c].codes for c in (spec.x, spec.y, *spec.cs)], axis=1)
    cells, counts = np.unique(rows, axis=0, return_counts=True)
    cell = {}
    n_xz, n_yz, n_z = defaultdict(int), defaultdict(int), defaultdict(int)
    for (x, y, *z), c in zip(cells.tolist(), counts.tolist()):
        z = tuple(z)
        cell[(x, y, z)] = c
        n_xz[(x, z)] += c
        n_yz[(y, z)] += c
        n_z[z] += c
    g2_terms, chi2_terms = [], []
    for z, nz in n_z.items():
        for x in range(levels[0]):
            for y in range(levels[1]):
                e = n_xz[(x, z)] * n_yz[(y, z)] / nz
                if e == 0:
                    continue
                n = cell.get((x, y, z), 0)
                chi2_terms.append((n - e) ** 2 / e)
                if n:
                    g2_terms.append(2.0 * n * math.log(n / e))
    degenerate = levels[0] == 1 or levels[1] == 1
    return {
        "g2": 0.0 if degenerate else max(0.0, math.fsum(g2_terms)),
        "chi2": 0.0 if degenerate else math.fsum(chi2_terms),
        "dof": 0 if degenerate else (levels[0] - 1) * (levels[1] - 1) * math.prod(levels[2:]),
        "empty_strata": math.prod(levels[2:]) - len(n_z),
    }


def against_oracle(data, spec, result) -> list[str]:
    """Problems found comparing one closed-form ``TestResult`` with the oracle."""
    ref = oracle(data, spec)
    problems = []
    for field in ("g2", "chi2"):
        if not close(getattr(result, field), ref[field], REL_TOL):
            problems.append(f"{field} {getattr(result, field)!r} != oracle {ref[field]!r}")
    for field in ("dof", "empty_strata"):
        if getattr(result, field) != ref[field]:
            problems.append(f"{field} {getattr(result, field)} != oracle {ref[field]}")
    return problems


def log_sf_reference(stat: float, dof: int) -> float:
    if stat == 0.0:
        return 0.0
    with mpmath.workdps(40):
        q = mpmath.gammainc(mpmath.mpf(dof) / 2, mpmath.mpf(stat) / 2, mpmath.inf, regularized=True)
        return float(mpmath.log(q))


def against_mpmath(result) -> list[str]:
    """Problems found comparing the log p-values of a result with mpmath."""
    if result.degenerate:
        return []
    problems = []
    for stat, log_p, label in (
        (result.g2, result.log_p_g2, "log_p_g2"),
        (result.chi2, result.log_p_chi2, "log_p_chi2"),
    ):
        ref = log_sf_reference(stat, result.dof)  # the benchmark never adjusts dof
        if not abs(log_p - ref) <= LOG_P_TOL * max(1.0, abs(ref)):
            problems.append(f"{label} {log_p!r} != mpmath {ref!r}")
    return problems
