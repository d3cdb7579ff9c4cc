"""G² and χ² conditional independence tests with log-scale p-values.

Tests that share z_1..z_k share its index: their (x, y) tables are
tabulated within its occupied strata in one pass and stacked, and a single
test is the batch of one.  The routes differ only in a stack's statistics.
The closed form sums them over the occupied cells alone, from slice
marginals derived from those cells, in one vectorised pass; the ipf route
fits the conditional-independence log-linear model to each table.  Both
agree to floating precision.

P-values are carried in natural-log scale throughout: mass screening
multiplies tiny tail probabilities far past linear underflow.  Each is one
scalar :func:`log_sf_chisq` call, in a single test and in a screen group
alike.  Statistic reductions use exact compensated summation, so results
are invariant under any relabeling of the variable levels.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

import numpy as np

from . import loglinear, tabulate
from .core import (
    METHODS,
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

# After the terms, _closed_form drops the cells with E = N when they and the
# lone cells it dropped before the marginals are more than this share of a
# stack; either way the sums are the same.  Dropping pays from a share of
# about 0.1 on tables of 3k-10k cells and about 0.3 on 300 cells (numpy 2.4
# on x86-64); smaller tables need a larger share.
_FOLD_SHARE = 0.5

# Before the marginals, _closed_form looks for the cells alone in their
# stratum only where its strata hold fewer than this many cells on average.
# Stacks of a few full strata, such as the paper's grid or a screen given one
# Z column, thus skip the search (two compares a cell) at the cost of one
# integer comparison.
_LONE_STRATA = 2


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

    Evaluates the regularized upper incomplete gamma function Q(a, x), with
    a = dof/2 and x = stat/2, in log space.  Below dof 200 it is the exact
    finite sum of :func:`_log_q_finite`, of at most 100 terms (a non-integer
    dof takes the series or the continued fraction instead), except where
    Q is within 1e-3 of 1 and the lower-tail series, converging fast there,
    resolves ln Q better.  From dof 200 on, where x lies within 30% of a it
    uses Temme's uniform asymptotic expansion, in O(1) time; elsewhere the
    lower-tail series when x < a + 1 and a continued fraction otherwise,
    each converging within a few hundred steps.  Against mpmath the absolute
    error in log p is at most about 1e-12 (relative where |log p| > 1) for
    any dof from 1 to 1e15 and any finite nonnegative statistic, and no such
    input raises.
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
    if a >= _TEMME_MIN_A:
        if abs(x - a) < _TEMME_BAND * a:
            return _log_q_temme(a, x)
    elif dof % 1 == 0:  # a is a whole or a half: Q is a finite sum
        log_q = _log_q_finite(a, x)
        if log_q < _FINITE_MAX_LOG_Q:
            return log_q
    if x < a + 1.0:
        p = math.exp(a * math.log(x) - x - math.lgamma(a + 1.0) + math.log(_lower_series_sum(a, x)))
        if p >= 1.0:
            return -math.ulp(0.5)  # series regime keeps p well below 1; guard rounding
        return min(0.0, math.log1p(-p))
    return min(0.0, a * math.log(x) - x - math.lgamma(a) + math.log(_upper_cf(a, x)))


def _lower_series_sum(a: float, x: float) -> float:
    # Σ_{n>=0} x^n / Π_{m=1..n}(a+m), the sum in P(a, x) = x^a e^-x / Γ(a+1) · Σ.
    term = total = 1.0
    for n in range(1, _SERIES_MAX_TERMS):
        term *= x / (a + n)
        total += term
        if term < total * 1e-17:
            return total
    raise RuntimeError("lower incomplete gamma series failed to converge")


_TINY = 1e-300


def _upper_cf(a: float, x: float) -> float:
    # h in Q(a, x) = x^a e^-x / Γ(a) · h, by modified Lentz.
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _CF_MAX_TERMS):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h
    raise RuntimeError("upper incomplete gamma continued fraction failed to converge")


# _log_q_finite's ln Q carries an absolute error of a few 1e-16, too coarse
# for ln Q = ln(1 - P) ≈ -P once ln Q is above this; there the lower series,
# which converges fast, answers instead.
_FINITE_MAX_LOG_Q = -1e-3


def _log_q_finite(a: float, x: float) -> float:
    """ln Q(a, x) for 2a an integer and a below ``_TEMME_MIN_A``, as a finite sum.

    With a = m + c and c = 0 or 1/2 (Abramowitz & Stegun 26.4.4-5),
    Q(a, x) = e^-x Σ_{k<m} t_k, plus erfc(√x) when c = 1/2, where
    t_k = x^(k+c) / Γ(k+c+1).  The terms rise while k + c < x.  Below
    x = a they are summed from t_0 up, and the sum stays below e^x ≤ e^100;
    from x = a on, from the largest, t_(m-1) = x^(a-1) / Γ(a), down, as
    multiples of it with its log held out, so no finite x overflows.
    """
    m = int(a)
    c = a - m
    if x < a:
        held = 0.0
        term = 2.0 * math.sqrt(x / math.pi) if c else 1.0
        total = term if m else 0.0
        for k in range(1, m):
            term *= x / (k + c)
            total += term
    else:
        held = (a - 1.0) * math.log(x) - math.lgamma(a)
        term = 1.0
        total = 1.0 if m else 0.0
        for k in range(m - 1, 0, -1):
            term *= (k + c) / x
            total += term
    if c:  # erfc(√x) = e^-x·erfcx(√x), in units of e^(held - x)
        y = math.sqrt(x)
        if y < _ERFC_SAFE:
            total += math.erfc(y) * math.exp(x - held)
        else:
            total += _erfcx(y, x) * math.exp(-held)
    return held - x + math.log(total)


# Temme's expansion (Temme 1979; DiDonato & Morris 1986; Gil, Segura & Temme
# 2012) is used for a >= _TEMME_MIN_A and |x - a| < _TEMME_BAND·a.  There the
# prefactor a·ln x - x - lgamma(a) of the series and the continued fraction
# cancels to about ln(a)·a·1e-16 absolute, 1e-12 near a = 1000, and their
# step counts grow like sqrt(a).  No dof up to 192 enters the band.
_TEMME_MIN_A = 100.0
_TEMME_BAND = 0.3
# Row k holds the Taylor coefficients in η of C_k(η), where
# Q(a, x) = erfc(η√(a/2))/2 + exp(-aη²/2)/√(2πa) · Σ_k C_k(η) a^-k and
# η²/2 = λ - 1 - ln λ, λ = x/a, sign(η) = sign(λ - 1); C_0 = 1/(λ-1) - 1/η and
# C_k = C_{k-1}'/η + (-1)^k g_k/(λ-1), g_k making C_k regular at η = 0.
# Truncated where a term stays below 1e-19 over the band.
_TEMME_C = (
    (
        -0.3333333333333333, 0.08333333333333333, -0.014814814814814815, 0.0011574074074074073,
        0.0003527336860670194, -0.0001787551440329218, 3.919263178522438e-05,
        -2.185448510679992e-06, -1.85406221071516e-06, 8.296711340953087e-07,
        -1.7665952736826078e-07, 6.707853543401498e-09, 1.0261809784240309e-08,
        -4.382036018453353e-09, 9.14769958223679e-10, -2.5514193994946248e-11,
        -5.830772132550426e-11, 2.4361948020667415e-11,
    ),
    (
        -0.001851851851851852, -0.003472222222222222, 0.0026455026455026454,
        -0.0009902263374485596, 0.00020576131687242798, -4.018775720164609e-07,
        -1.8098550334489977e-05, 7.64916091608111e-06, -1.6120900894563446e-06,
        4.647127802807434e-09, 1.378633446915721e-07, -5.752545603517705e-08,
        1.1951628599778148e-08, -1.7543241719747647e-11, -1.0091543710600413e-09,
        4.162792991842583e-10,
    ),
    (
        0.004133597883597883, -0.0026813271604938273, 0.0007716049382716049,
        2.0093878600823047e-06, -0.0001073665322636516, 5.2923448829120125e-05,
        -1.2760635188618728e-05, 3.423578734096138e-08, 1.3721957309062934e-06,
        -6.298992138380055e-07, 1.4280614206064242e-07, -2.0477098421990866e-10,
        -1.409252991086752e-08, 6.228974084922022e-09,
    ),
    (
        0.0006494341563786008, 0.00022947209362139917, -0.0004691894943952557,
        0.00026772063206283885, -7.561801671883977e-05, -2.396505113867297e-07,
        1.1082654115347302e-05, -5.6749528269915965e-06, 1.4230900732435883e-06,
        -2.7861080291528143e-11, -1.6958404091930278e-07, 8.099464905388083e-08,
    ),
    (
        -0.0008618882909167117, 0.0007840392217200666, -0.0002990724803031902,
        -1.4638452578843418e-06, 6.641498215465122e-05, -3.968365047179435e-05,
        1.1375726970678419e-05, 2.507497226237533e-10, -1.6954149536558305e-06,
        8.907507532205309e-07,
    ),
    (
        -0.00033679855336635813, -6.972813758365857e-05, 0.0002772753244959392,
        -0.00019932570516188847, 6.797780477937208e-05, 1.419062920643967e-07,
        -1.3594048189768693e-05, 8.018470256334202e-06,
    ),
    (
        0.0005313079364639922, -0.0005921664373536939, 0.0002708782096718045,
        7.902353232660328e-07, -8.153969367561969e-05, 5.61168275310625e-05,
    ),
    (
        0.00034436760689237765, 5.171790908260592e-05, -0.00033493161081142234,
    ),
)
# (-1)^k (2k-1)!!: erfcx(y) = exp(y²) erfc(y) ≈ Σ_k c_k (2y²)^-k / (y√π) for large y.
_ERFCX_TERMS = (1.0, -1.0, 3.0, -15.0, 105.0, -945.0, 10395.0, -135135.0, 2027025.0, -34459425.0)
_ERFC_SAFE = 26.0  # erfc(y) stays a normal float up to here


def _log_q_temme(a: float, x: float) -> float:
    """ln Q(a, x) from Temme's uniform expansion, for x within the band around a."""
    mu = (x - a) / a  # exact difference: x and a are within a factor 2
    # φ = μ - ln(1+μ) = μt - 2(t³/3 + t⁵/5 + ...) with t = μ/(2+μ), |t| < 0.18
    t = mu / (2.0 + mu)
    t2 = t * t
    odd = 0.0
    for j in range(12, -1, -1):
        odd = odd * t2 + 1.0 / (2 * j + 3)
    phi = mu * t - 2.0 * t * t2 * odd
    y2 = a * phi  # y = η√(a/2), y² = aφ
    eta = math.copysign(math.sqrt(2.0 * phi), mu)
    y = math.copysign(math.sqrt(y2), mu)
    series = 0.0
    for row in reversed(_TEMME_C):
        c = 0.0
        for coef in reversed(row):
            c = c * eta + coef
        series = series / a + c
    s = series / math.sqrt(2.0 * math.pi * a)
    if y < 0.0:
        return min(0.0, math.log1p(-(0.5 * math.erfc(-y) - math.exp(-y2) * s)))
    if y < _ERFC_SAFE:
        return math.log(0.5 * math.erfc(y) + math.exp(-y2) * s)
    return -y2 + math.log(0.5 * _erfcx(y, y2) + s)


def _erfcx(y: float, y2: float) -> float:
    """erfcx(y) = exp(y²)·erfc(y) for y >= ``_ERFC_SAFE``, given y2 = y², by asymptotic series."""
    u = 0.5 / y2
    erfcx = 0.0
    for coef in reversed(_ERFCX_TERMS):
        erfcx = erfcx * u + coef
    return erfcx / (y * math.sqrt(math.pi))


def _closed_form(cells: tabulate.OccupiedCells) -> list[tuple[float, float]]:
    """G² and χ² of every table in a stack, from marginals derived from its cells.

    Within a stratum the expectations sum to the observed total, so
    Σ (N - E)² / E over all cells with E > 0 equals Σ (N² / E - N) over the
    occupied cells alone.  The terms of the whole stack come from one
    vectorised pass; each table's are then summed exactly, so its statistics
    do not depend on the other tables in the stack.  A cell with E = N adds
    exactly 0 to both sums, and dropping it leaves the correctly rounded
    sums unchanged, so such cells are dropped, by one rule, where they are
    many.  A cell alone in its stratum has E = N; where the stack has fewer
    than ``_LONE_STRATA`` cells a stratum, these are found from the strata
    of their neighbours and dropped before the marginals, so marginals,
    terms and sums cover only strata of two or more cells.  The other cells
    with E = N (one X or one Y level in their stratum, say) are dropped
    after the terms when they and the lone ones are more than
    ``_FOLD_SHARE`` of the stack.
    """
    dx, dy = cells.dims_xy
    count, x, y, stratum = cells.count, cells.x, cells.y, cells.stratum
    size = count.size
    keep = None  # the positions of the cells left, once any are dropped
    # Cells are sorted by stratum and no stratum spans two tables, so a cell
    # is alone in its stratum when both its neighbours lie in others.
    if size < _LONE_STRATA * cells.n_strata * (len(cells.bounds) - 1):
        head = np.ones(size + 1, dtype=bool)  # where a stratum's first cell is
        np.not_equal(stratum[1:], stratum[:-1], out=head[1:-1])
        lone = head[:-1] & head[1:]
        if lone.any():
            keep = np.flatnonzero(~lone)
            count, x, y = count[keep], x[keep], y[keep]
            # Strata renumbered from 0, so the marginals span only those left.
            stratum = np.cumsum(head[keep]) - 1
    n = count.astype(np.float64)
    xz = stratum * dx + x
    yz = stratum * dy + y
    n_xz = np.bincount(xz, weights=n)
    n_yz = np.bincount(yz, weights=n)
    n_z = np.bincount(stratum, weights=n)
    e = n_xz[xz] * n_yz[yz] / n_z[stratum]
    g2 = 2.0 * n * np.log(n / e)
    chi2 = n * n
    chi2 /= e
    chi2 -= n
    # Every cell with E = N has a zero G² term, and counting those is cheap;
    # the lone cells, dropped already, count towards the share.
    # (int(): comparing a numpy integer with a float costs microseconds.)
    if size - int(np.count_nonzero(g2)) > _FOLD_SHARE * size:
        rest = np.flatnonzero(n != e)
        g2, chi2 = g2[rest], chi2[rest]
        keep = rest if keep is None else keep[rest]
    bounds = cells.bounds if keep is None else np.searchsorted(keep, cells.bounds).tolist()
    g2_terms = g2.tolist()
    chi2_terms = chi2.tolist()
    if len(bounds) == 2:  # one table: sum the whole lists, not copies
        tables = [(g2_terms, chi2_terms)]
    else:
        tables = [(g2_terms[a:b], chi2_terms[a:b]) for a, b in zip(bounds, bounds[1:])]
    return [(max(0.0, math.fsum(g)), max(0.0, math.fsum(c))) for g, c in tables]


def _ipf(cells: tabulate.OccupiedCells) -> list[tuple[float, float]]:
    """Deviance and Pearson statistic of the CI model fitted to each table of a stack.

    Both classes of the model contain Z, so fitting over the occupied strata
    alone leaves the fit unchanged.  A stack with one X or one Y level
    yields zeros unfitted.  A table too large to fit or a fit that does not
    converge is a ``DataError`` whose ``table`` is the table's index.
    """
    n_tables = len(cells.bounds) - 1
    if 1 in cells.dims_xy:
        return [(0.0, 0.0)] * n_tables
    model = loglinear.ci_model(1)
    stats = []
    for k in range(n_tables):
        try:
            fit = loglinear.ipf_fit(cells.as_table(k), model)
            if not fit.converged:
                raise DataError(f"ipf fit did not converge within {fit.iterations} iterations")
        except DataError as err:
            err.table = k
            raise
        stats.append((fit.deviance, fit.pearson))
    return stats


# The statistic of each method, computed for every table of a stack.
_ROUTES = dict(zip(METHODS, (_closed_form, _ipf)))


def _results(
    tables: list[tuple[tuple[int, int], int, tuple[float, float]]],
    strata_nominal: int,
    method: str,
    adjust_dof: bool,
) -> list[TestResult]:
    """The ``TestResult`` of each table, given as its shape, strata and statistics.

    Each p-value is one :func:`log_sf_chisq` call; a table with one X or
    one Y level gets dof 0, zero statistics and p = 1.
    """
    results = []
    for (dx, dy), n_strata, pair in tables:
        free = (dx - 1) * (dy - 1)
        g2, chi2 = pair if free else (0.0, 0.0)
        used = free * (n_strata if adjust_dof else strata_nominal)
        results.append(TestResult._trusted(
            g2=g2,
            chi2=chi2,
            dof=free * strata_nominal,
            dof_adjusted=free * n_strata,
            log_p_g2=log_sf_chisq(g2, used) if free else 0.0,
            log_p_chi2=log_sf_chisq(chi2, used) if free else 0.0,
            empty_strata=strata_nominal - n_strata,
            method=method,
            degenerate=not free,
        ))
    return results


def _screen(
    data: Dataset, specs: list[TestSpec], members: list[int], method: str, adjust_dof: bool
) -> list[TestResult]:
    """Results, in order, of the ``specs`` at ``members``, which share one conditioning set.

    A ``DataError`` from the statistics gets the position in ``specs`` of
    the pair it arose on as its ``pair``.
    """
    statistics = _ROUTES[method]
    cs = specs[members[0]].cs
    strata_nominal = math.prod([data.levels(c) for c in cs])
    tables: list = [None] * len(members)
    pairs = [(specs[i].x, specs[i].y) for i in members]
    for positions, cells in tabulate.stacked_cells(data, cs, pairs):
        try:
            stack = statistics(cells)
        except DataError as err:
            err.pair = members[positions[err.table]]
            raise
        for k, stats in zip(positions, stack):
            tables[k] = (cells.dims_xy, cells.n_strata, stats)
    return _results(tables, strata_nominal, method, adjust_dof)


def _run(data: Dataset, specs: list[TestSpec], method: str, adjust_dof: bool) -> list[TestResult]:
    """Results of validated ``specs`` in order, on either method.

    The specs are grouped by conditioning set, so each set is indexed once
    and the pairs that share it are tabulated and computed stack by stack.
    """
    if specs and data.n_rows == 0:
        raise DataError("dataset is empty")
    if len(specs) == 1:
        return _screen(data, specs, [0], method, adjust_dof)
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, spec in enumerate(specs):
        groups.setdefault(spec.cs, []).append(i)
    results: list[TestResult | None] = [None] * len(specs)
    for members in groups.values():
        for i, result in zip(members, _screen(data, specs, members, method, adjust_dof)):
            results[i] = result
    return results


def _check_method(method: str) -> None:
    if method not in _ROUTES:
        raise ValueError(f"method must be one of {tuple(_ROUTES)}, got {method!r}")


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
    statistics are computed together on either method (see :func:`_run`).
    Results are identical to standalone :func:`ci_test` calls regardless of
    ``workers`` and of which specs are batched together: with ``workers``
    above 1, capped at the number of specs and of CPUs, each thread runs
    one chunk of consecutive specs on the shared read-only dataset.  The
    ipf route runs in the calling thread whatever ``workers`` is; a
    ``DataError`` from one of its fits names the pair, as a bad spec does.
    """
    _check_method(method)
    pairs = list(pairs)
    for position, spec in enumerate(pairs):
        try:
            validate_spec(spec, data)
        except SpecError as err:
            raise SpecError(f"pair {position}: {err}") from None

    workers = min(workers, len(pairs), os.cpu_count() or 1)
    if workers <= 1 or method == "ipf":  # ipf's fits hold the GIL: threads only add cost
        try:
            return _run(data, pairs, method, adjust_dof)
        except DataError as err:
            if not hasattr(err, "pair"):
                raise
            raise DataError(f"pair {err.pair}: {err}") from None

    size = math.ceil(len(pairs) / workers)
    chunks = [pairs[i : i + size] for i in range(0, len(pairs), size)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = pool.map(lambda chunk: _run(data, chunk, method, adjust_dof), chunks)
        return [result for part in parts for result in part]
