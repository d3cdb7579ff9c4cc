"""G² and χ² conditional independence tests with log-scale p-values.

The closed-form route tabulates (x, y) within the occupied strata of
z_1..z_k in one pass, derives the slice marginals from the occupied cells
and sums the statistics over those cells alone; pairs that share z_1..z_k
share its index and one vectorised pass over their stacked cells, and a
single test is the batch of one.  The ipf route fits the
conditional-independence log-linear model to the same compressed table
instead.  Both agree to floating precision.

P-values are carried in natural-log scale throughout: mass screening
multiplies tiny tail probabilities far past linear underflow.  Statistic
reductions use exact compensated summation, so results are invariant under
any relabeling of the variable levels.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from typing import Sequence

import numpy as np

from . import loglinear, tabulate
from .core import (
    ContingencyTable,
    DataError,
    Dataset,
    SpecError,
    TestResult,
    TestSpec,
    validate_spec,
)

_SERIES_MAX_TERMS = 100_000
_CF_MAX_TERMS = 100_000

# _closed_form folds the cells that add exactly nothing to G² when they are
# more than this share of a stack; either way the sums are the same.  Folding
# costs about 10 µs a stack and pays from a share of about 0.1-0.25 on
# tables of 300-10k cells; smaller tables need a larger share.
_FOLD_SHARE = 0.5


def _cells(
    observed: ContingencyTable | np.ndarray, expected: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Observed counts and expected frequencies, both flat in the table's cell order.

    Arrays shaped like the table are flattened with the first axis fastest.
    """
    if isinstance(observed, ContingencyTable):
        observed = observed.dense
    obs = np.asarray(observed).ravel(order="F")
    exp = np.asarray(expected, dtype=np.float64).ravel(order="F")
    if exp.size != obs.size:
        raise ValueError(f"expected frequencies have {exp.size} cells, observed has {obs.size}")
    return obs, exp


def g2_statistic(observed: ContingencyTable | np.ndarray, expected: np.ndarray) -> float:
    """Likelihood-ratio statistic ``2 Σ N ln(N / E)`` over occupied cells.

    Cells with ``N == 0`` contribute nothing; an occupied cell with zero
    expectation is an error (it cannot arise from conditional-independence
    expected frequencies, where ``N > 0`` forces both margins positive).
    """
    obs, exp = _cells(observed, expected)
    pos = obs > 0
    n = obs[pos].astype(np.float64)
    e = exp[pos]
    if np.any(e <= 0):
        raise ValueError("zero expected frequency at an occupied cell")
    terms = 2.0 * n * np.log(n / e)
    return max(0.0, math.fsum(terms))


def chi2_statistic(observed: ContingencyTable | np.ndarray, expected: np.ndarray) -> float:
    """Pearson statistic ``Σ (N - E)² / E`` over cells with ``E > 0``.

    Cells with ``E == 0`` (forcing ``N == 0`` under conditional-independence
    expectations) contribute nothing.
    """
    obs, exp = _cells(observed, expected)
    if np.any((obs > 0) & (exp <= 0)):
        raise ValueError("zero expected frequency at an occupied cell")
    pos = exp > 0
    diff = obs[pos].astype(np.float64) - exp[pos]
    return math.fsum(diff * diff / exp[pos])


def dof(levels_x: int, levels_y: int, levels_cs: Sequence[int] = ()) -> int:
    """Nominal degrees of freedom ``(|X|-1)(|Y|-1) Π|Z_i|``."""
    if levels_x < 1 or levels_y < 1 or any(d < 1 for d in levels_cs):
        raise ValueError("level counts must be >= 1")
    return (levels_x - 1) * (levels_y - 1) * math.prod(levels_cs)


def log_sf_chisq(stat: float, dof: int) -> float:
    """Natural-log upper-tail probability ``ln P(χ²_dof > stat)``.

    Evaluates the regularized upper incomplete gamma function Q(dof/2,
    stat/2) in log space: a lower-tail series when ``stat/2 < dof/2 + 1``,
    a continued fraction otherwise.  The absolute error in log p grows
    with dof: against mpmath it is 7e-11 at dof 1e5, 2e-10 at 1e6 and 1e-8
    at 1e8 (at stat = dof).  From about dof 1e9 on, the series or the
    continued fraction does not converge within its iteration limit and
    RuntimeError is raised.  Rely on it for dof up to about 1e5 where
    1e-10 matters.
    """
    if dof < 1:
        raise ValueError("dof must be >= 1; degenerate tests map to p = 1 upstream")
    stat = float(stat)
    if math.isnan(stat) or stat < 0:
        raise ValueError(f"statistic must be nonnegative, got {stat}")
    if stat == 0.0:
        return 0.0
    if math.isinf(stat):
        return -math.inf
    a = 0.5 * dof
    x = 0.5 * stat
    if x < a + 1.0:
        log_p = _log_gamma_lower_series(a, x)
        p = math.exp(log_p)
        if p >= 1.0:
            return -math.ulp(0.5)  # series regime keeps p well below 1; guard rounding
        return min(0.0, math.log1p(-p))
    return min(0.0, _log_gamma_upper_cf(a, x))


def _log_gamma_lower_series(a: float, x: float) -> float:
    # log P(a, x) with P(a, x) = x^a e^-x / Γ(a+1) · Σ_{n>=0} x^n / Π_{m=1..n}(a+m)
    term = 1.0
    total = 1.0
    for n in range(1, _SERIES_MAX_TERMS):
        term *= x / (a + n)
        total += term
        if term < total * 1e-17:
            break
    else:
        raise RuntimeError("lower incomplete gamma series failed to converge")
    return a * math.log(x) - x - math.lgamma(a + 1.0) + math.log(total)


def _log_gamma_upper_cf(a: float, x: float) -> float:
    # log Q(a, x) via Q(a, x) = x^a e^-x / Γ(a) · h, h from modified Lentz.
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _CF_MAX_TERMS):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    else:
        raise RuntimeError("upper incomplete gamma continued fraction failed to converge")
    return a * math.log(x) - x - math.lgamma(a) + math.log(h)


def _closed_form(cells: tabulate.OccupiedCells) -> list[tuple[float, float]]:
    """G² and χ² of every table in a stack, from marginals derived from its cells.

    Within a stratum the expectations sum to the observed total, so
    Σ (N - E)² / E over all cells with E > 0 equals Σ N² / E - n, and only
    occupied cells enter that sum.  The terms of the whole stack come from
    one vectorised pass; each table's are then summed exactly, so its
    statistics do not depend on the other tables in the stack.  A cell
    whose terms come out as exactly 0 and exactly N (one X or one Y level in
    its stratum, say) adds nothing to the G² sum and N to the other; when
    such cells are most of the stack, each table's are summed as one exact
    integer term, which leaves the correctly rounded sums unchanged.
    """
    dx, dy = cells.dims_xy
    n = cells.count.astype(np.float64)
    xz = cells.stratum * dx + cells.x
    yz = cells.stratum * dy + cells.y
    n_xz = np.bincount(xz, weights=n)
    n_yz = np.bincount(yz, weights=n)
    n_z = np.bincount(cells.stratum, weights=n)
    e = n_xz[xz] * n_yz[yz] / n_z[cells.stratum]
    g2 = 2.0 * n * np.log(n / e)
    chi2 = n * n / e
    bounds = cells.bounds
    folded = []
    # Only a cell with a zero G² term can fold, and counting those is cheap.
    # (int(): comparing a numpy integer with a float costs microseconds.)
    if g2.size - int(np.count_nonzero(g2)) > _FOLD_SHARE * g2.size:
        fold = (g2 == 0.0) & (chi2 == n)
        if int(np.count_nonzero(fold)) > _FOLD_SHARE * fold.size:
            keep = ~fold
            starts = bounds[:-1]
            folded = np.add.reduceat(cells.count * fold, starts).tolist()
            kept = np.add.reduceat(keep, starts, dtype=np.int64).tolist()
            bounds = (0, *itertools.accumulate(kept))
            g2, chi2 = g2[keep], chi2[keep]
    g2_terms = g2.tolist()
    chi2_terms = chi2.tolist()
    if len(bounds) == 2:  # one table: sum the whole lists, not copies
        tables = [(g2_terms, chi2_terms)]
    else:
        tables = [(g2_terms[a:b], chi2_terms[a:b]) for a, b in zip(bounds, bounds[1:])]
    for (_, terms), total in zip(tables, folded):
        terms.append(total)
    return [(max(0.0, math.fsum(g)), max(0.0, math.fsum(c) - cells.total)) for g, c in tables]


def _result(
    dims_xy: tuple[int, int],
    strata_nominal: int,
    n_strata: int,
    stats: tuple[float, float],
    method: str,
    adjust_dof: bool,
) -> TestResult:
    """The ``TestResult`` of one table from its shape, strata and statistics."""
    dx, dy = dims_xy
    empty_strata = strata_nominal - n_strata
    if dx == 1 or dy == 1:
        return TestResult(
            g2=0.0,
            chi2=0.0,
            dof=0,
            dof_adjusted=0,
            log_p_g2=0.0,
            log_p_chi2=0.0,
            empty_strata=empty_strata,
            method=method,
            degenerate=True,
        )
    g2, chi2 = stats
    nominal_dof = (dx - 1) * (dy - 1) * strata_nominal
    adj_dof = (dx - 1) * (dy - 1) * n_strata
    used_dof = adj_dof if adjust_dof else nominal_dof
    return TestResult(
        g2=g2,
        chi2=chi2,
        dof=nominal_dof,
        dof_adjusted=adj_dof,
        log_p_g2=log_sf_chisq(g2, used_dof),
        log_p_chi2=log_sf_chisq(chi2, used_dof),
        empty_strata=empty_strata,
        method=method,
    )


def _ipf_test(data: Dataset, spec: TestSpec, adjust_dof: bool) -> TestResult:
    cells = tabulate.occupied_cells(data, spec.x, spec.y, spec.cs)
    stats = (0.0, 0.0)
    if 1 not in cells.dims_xy:
        # Both classes of the CI model contain Z, so fitting over the occupied
        # strata alone leaves the fitted means and deviance unchanged.
        fit = loglinear.ipf_fit(cells.as_table(), loglinear.ci_model(1))
        if not fit.converged:
            raise DataError(f"ipf fit did not converge within {fit.iterations} iterations")
        stats = fit.deviance, fit.pearson
    strata_nominal = math.prod(data.levels(c) for c in spec.cs)
    return _result(cells.dims_xy, strata_nominal, cells.n_strata, stats, "ipf", adjust_dof)


def _screen(
    data: Dataset, cs: tuple[int, ...], specs: list[TestSpec], adjust_dof: bool
) -> list[TestResult]:
    """Closed-form results, in order, of ``specs`` that all condition on ``cs``."""
    strata_nominal = math.prod([data.levels(c) for c in cs])
    results: list[TestResult | None] = [None] * len(specs)
    for positions, cells in tabulate.stacked_cells(data, cs, [(s.x, s.y) for s in specs]):
        for k, stats in zip(positions, _closed_form(cells)):
            results[k] = _result(
                cells.dims_xy, strata_nominal, cells.n_strata, stats, "closed_form", adjust_dof
            )
    return results


def _run(data: Dataset, specs: list[TestSpec], method: str, adjust_dof: bool) -> list[TestResult]:
    """Results of validated ``specs`` in order.

    The closed form groups the specs by conditioning set, so each set is
    indexed once and the pairs that share it are computed together; ipf
    fits one table per spec.
    """
    if specs and data.n_rows == 0:
        raise DataError("dataset is empty")
    if method == "ipf":
        return [_ipf_test(data, spec, adjust_dof) for spec in specs]
    if len(specs) == 1:
        return _screen(data, specs[0].cs, specs, adjust_dof)
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, spec in enumerate(specs):
        groups.setdefault(spec.cs, []).append(i)
    results: list[TestResult | None] = [None] * len(specs)
    for cs, members in groups.items():
        for i, result in zip(members, _screen(data, cs, [specs[i] for i in members], adjust_dof)):
            results[i] = result
    return results


def _check_method(method: str) -> None:
    if method not in ("closed_form", "ipf"):
        raise ValueError(f"method must be 'closed_form' or 'ipf', got {method!r}")


def ci_test(
    data: Dataset,
    spec: TestSpec,
    *,
    method: str = "closed_form",
    adjust_dof: bool = False,
) -> TestResult:
    """Test X ⊥ Y | Z on ``data`` and return the full outcome.

    With an empty conditioning set this is the plain Pearson/likelihood-ratio
    independence test (never continuity-corrected) with
    ``dof = (|X|-1)(|Y|-1)``.  ``adjust_dof`` selects the empty-stratum
    corrected dof for the p-values; the nominal formula is the default.
    This is :func:`batch_screen` with a batch of one.
    """
    _check_method(method)
    validate_spec(spec, data)
    return _run(data, [spec], method, adjust_dof)[0]


# Worker-process state for batch screening: the dataset is shipped once per
# worker through the pool initializer, not once per task.
_WORKER: dict = {}


def _batch_init(data: Dataset, method: str, adjust_dof: bool) -> None:
    _WORKER["data"] = data
    _WORKER["method"] = method
    _WORKER["adjust_dof"] = adjust_dof


def _batch_chunk(specs: list[TestSpec]) -> list[TestResult]:
    return _run(_WORKER["data"], specs, _WORKER["method"], _WORKER["adjust_dof"])


def batch_screen(
    data: Dataset,
    pairs: Sequence[TestSpec],
    workers: int = 1,
    *,
    method: str = "closed_form",
    adjust_dof: bool = False,
) -> list[TestResult]:
    """Run many tests and return results in input order.

    Specs that share a conditioning set share one Z index, and their
    closed-form statistics are computed together (see :func:`_run`).
    Results are identical to standalone :func:`ci_test` calls regardless of
    ``workers`` and of which specs are batched together; the pool only
    distributes independent chunks of specs and reassembles them in order.
    """
    _check_method(method)
    pairs = list(pairs)
    for position, spec in enumerate(pairs):
        try:
            validate_spec(spec, data)
        except SpecError as err:
            raise SpecError(f"pair {position}: {err}") from None

    if workers <= 1 or len(pairs) <= 1:
        return _run(data, pairs, method, adjust_dof)

    chunk_size = max(1, math.ceil(len(pairs) / (workers * 4)))
    chunks = [pairs[i : i + chunk_size] for i in range(0, len(pairs), chunk_size)]
    with ProcessPoolExecutor(
        max_workers=min(workers, len(chunks)),
        initializer=_batch_init,
        initargs=(data, method, adjust_dof),
    ) as pool:
        results: list[TestResult] = []
        for chunk_result in pool.map(_batch_chunk, chunks):
            results.extend(chunk_result)
    return results
