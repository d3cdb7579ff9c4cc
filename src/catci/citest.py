"""G² and χ² conditional independence tests with log-scale p-values.

Tests that share z_1..z_k share its index: their (x, y) tables are
tabulated within its occupied strata in one pass and stacked, and a single
test is the batch of one.  The routes differ only in a stack's statistics.
The closed form sums them over the occupied cells alone, from slice
marginals derived from those cells, in one vectorised pass; the ipf route
fits the conditional-independence log-linear model to each table.  Both
agree to floating precision.

P-values are carried in natural-log scale throughout: mass screening
multiplies tiny tail probabilities far past linear underflow.  Statistic
reductions use exact compensated summation, so results are invariant under
any relabeling of the variable levels.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
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

    Evaluates the regularized upper incomplete gamma function Q(a, x), with
    a = dof/2 and x = stat/2, in log space.  Where a >= 100 and x lies within
    30% of a, it uses Temme's uniform asymptotic expansion, in O(1) time;
    elsewhere a lower-tail series when x < a + 1 and a continued fraction
    otherwise, each converging within a few hundred steps.  Against mpmath
    the absolute error in log p is at most about 1e-12 (relative where
    |log p| > 1) for any dof from 1 to 1e15 and any finite nonnegative
    statistic, and no such input raises.
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
    if a >= _TEMME_MIN_A and abs(x - a) < _TEMME_BAND * a:
        return _log_q_temme(a, x)
    if x < a + 1.0:
        p = math.exp(a * math.log(x) - x - math.lgamma(a + 1.0) + math.log(_lower_series_sum(a, x)))
        if p >= 1.0:
            return -math.ulp(0.5)  # series regime keeps p well below 1; guard rounding
        return min(0.0, math.log1p(-p))
    return min(0.0, a * math.log(x) - x - math.lgamma(a) + math.log(_upper_cf(a, x)))


def _lower_series_sum(
    a: float, x: float, term: float = 1.0, total: float = 1.0, n: int = 1
) -> float:
    # Σ_{n>=0} x^n / Π_{m=1..n}(a+m), the sum in P(a, x) = x^a e^-x / Γ(a+1) · Σ,
    # from its term n on, given the term and the sum before it.
    for n in range(n, _SERIES_MAX_TERMS):
        term *= x / (a + n)
        total += term
        if term < total * 1e-17:
            return total
    raise RuntimeError("lower incomplete gamma series failed to converge")


_TINY = 1e-300


def _upper_cf(a: float, x: float) -> float:
    # h in Q(a, x) = x^a e^-x / Γ(a) · h, by modified Lentz.
    b = x + 1.0 - a
    return _lentz(a, b, 1.0 / _TINY, 1.0 / b, 1.0 / b, 1)


def _lentz(a: float, b: float, c: float, d: float, h: float, i: int) -> float:
    # The modified Lentz steps of _upper_cf from step i on, given the state before it.
    for i in range(i, _CF_MAX_TERMS):
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
    u = 0.5 / y2
    erfcx = 0.0
    for coef in reversed(_ERFCX_TERMS):
        erfcx = erfcx * u + coef
    erfcx /= y * math.sqrt(math.pi)
    return -y2 + math.log(0.5 * erfcx + s)


# _log_sf_lanes loops the scalar log_sf_chisq below this many lanes: a numpy
# step costs about as much as a few scalar ones.
_LOCKSTEP_LANES = 32
# Terms per lane and lockstep step of the series; 16 float64 terms of 1000
# lanes are 128 kB.
_SERIES_BLOCK = 16


def _log_sf_lanes(stats: list[float], dofs: list[int]) -> list[float]:
    """``log_sf_chisq(stats[i], dofs[i])`` of every lane, each ``==`` to that call.

    The series lanes and the continued-fraction lanes each step in lockstep
    over arrays, with the scalar routine's operations in its order, and a
    lane leaves the arrays at the step where the scalar loop would stop.
    The series takes ``_SERIES_BLOCK`` terms a step, by a running product
    and a running sum, both sequential.  The logs and the other ``math``
    functions are applied lane by lane.  Lanes in Temme's band, with a
    statistic of 0, inf or an invalid one, and batches of fewer than
    ``_LOCKSTEP_LANES`` lanes go through ``log_sf_chisq`` itself.
    """
    if len(stats) < _LOCKSTEP_LANES:
        return list(map(log_sf_chisq, stats, dofs))
    stat = np.array(stats, dtype=np.float64)
    a = 0.5 * np.array(dofs, dtype=np.float64)
    x = 0.5 * stat
    # NaN fails every comparison, so it goes the scalar way too.
    stepped = (stat > 0.0) & (stat < math.inf) & (a >= 0.5)
    stepped &= (a < _TEMME_MIN_A) | ~(np.abs(x - a) < _TEMME_BAND * a)
    lower = stepped & (x < a + 1.0)
    upper = stepped & ~lower
    out = np.empty(stat.size)
    for i in np.flatnonzero(~stepped).tolist():
        out[i] = log_sf_chisq(stats[i], dofs[i])
    lanes = np.flatnonzero(lower)
    if lanes.size:
        al, xl = a[lanes], x[lanes]
        # log_sf_chisq's series branch, lane by lane
        p = _map(math.exp, al * _map(math.log, xl) - xl - _map(math.lgamma, al + 1.0)
                 + _map(math.log, _lower_series_sums(al, xl)))
        log_q = np.full(p.size, -math.ulp(0.5))
        below = p < 1.0
        log_q[below] = _map(math.log1p, -p[below])
        out[lanes] = log_q
    lanes = np.flatnonzero(upper)
    if lanes.size:
        al, xl = a[lanes], x[lanes]
        # log_sf_chisq's continued-fraction branch, lane by lane
        out[lanes] = (al * _map(math.log, xl) - xl - _map(math.lgamma, al)
                      + _map(math.log, _upper_cfs(al, xl)))
    # min(0.0, v), which gives 0.0 for v = -0.0
    return np.where(out < 0.0, out, 0.0).tolist()


def _map(fn, values: np.ndarray) -> np.ndarray:
    return np.fromiter(map(fn, values.tolist()), np.float64, values.size)


def _lower_series_sums(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``_lower_series_sum`` of every lane."""
    sums = np.empty(a.size)
    lanes = np.arange(a.size)
    term = np.ones(a.size)
    total = np.ones(a.size)
    offsets = np.arange(_SERIES_BLOCK, dtype=np.float64)
    n = 1
    while lanes.size >= _LOCKSTEP_LANES and n < _SERIES_MAX_TERMS:
        terms = x[:, None] / (a[:, None] + (offsets + n))
        terms[:, 0] *= term
        np.multiply.accumulate(terms, axis=1, out=terms)
        totals = terms.copy()
        totals[:, 0] += total
        np.add.accumulate(totals, axis=1, out=totals)
        n += _SERIES_BLOCK
        done = terms < totals * 1e-17
        stop = done.any(axis=1)
        if stop.any():
            stopped = totals[stop]
            sums[lanes[stop]] = stopped[np.arange(stopped.shape[0]), done[stop].argmax(axis=1)]
            go = ~stop
            lanes, a, x, terms, totals = lanes[go], a[go], x[go], terms[go], totals[go]
        term, total = terms[:, -1], totals[:, -1]
    state = zip(lanes.tolist(), a.tolist(), x.tolist(), term.tolist(), total.tolist())
    for lane, *series in state:
        sums[lane] = _lower_series_sum(*series, n)
    return sums


def _upper_cfs(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``_upper_cf`` of every lane."""
    hs = np.empty(a.size)
    lanes = np.arange(a.size)
    b = x + 1.0 - a
    c = np.full(a.size, 1.0 / _TINY)
    d = 1.0 / b
    h = d
    i = 1
    while lanes.size >= _LOCKSTEP_LANES and i < _CF_MAX_TERMS:
        an = -i * (i - a)
        b = b + 2.0
        d = an * d + b
        d[np.abs(d) < _TINY] = _TINY
        c = b + an / c
        c[np.abs(c) < _TINY] = _TINY
        d = 1.0 / d
        delta = d * c
        h = h * delta
        i += 1
        done = np.abs(delta - 1.0) < 1e-16
        if done.any():
            hs[lanes[done]] = h[done]
            go = ~done
            lanes, a, b, c, d, h = lanes[go], a[go], b[go], c[go], d[go], h[go]
    state = zip(lanes.tolist(), a.tolist(), b.tolist(), c.tolist(), d.tolist(), h.tolist())
    for lane, *lentz in state:
        hs[lane] = _lentz(*lentz, i)
    return hs


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


def _ipf(cells: tabulate.OccupiedCells) -> list[tuple[float, float]]:
    """Deviance and Pearson statistic of the CI model fitted to each table of a stack.

    Both classes of the model contain Z, so fitting over the occupied strata
    alone leaves the fit unchanged.  A stack with one X or one Y level
    yields zeros unfitted; a fit that does not converge is a ``DataError``.
    """
    n_tables = len(cells.bounds) - 1
    if 1 in cells.dims_xy:
        return [(0.0, 0.0)] * n_tables
    model = loglinear.ci_model(1)
    stats = []
    for k in range(n_tables):
        fit = loglinear.ipf_fit(cells.as_table(k), model)
        if not fit.converged:
            raise DataError(f"ipf fit did not converge within {fit.iterations} iterations")
        stats.append((fit.deviance, fit.pearson))
    return stats


# The statistic of each method, computed for every table of a stack.
_ROUTES = {"closed_form": _closed_form, "ipf": _ipf}


def _results(
    tables: list[tuple[tuple[int, int], int, tuple[float, float]]],
    strata_nominal: int,
    method: str,
    adjust_dof: bool,
) -> list[TestResult]:
    """The ``TestResult`` of each table, given as its shape, strata and statistics.

    The p-values of all tables come from one :func:`_log_sf_lanes` call; a
    table with one X or one Y level gets dof 0, zero statistics and p = 1.
    """
    stats: list[float] = []
    dofs: list[int] = []
    for (dx, dy), n_strata, pair in tables:
        if dx > 1 and dy > 1:
            used = (dx - 1) * (dy - 1) * (n_strata if adjust_dof else strata_nominal)
            stats += pair
            dofs += (used, used)
    log_ps = iter(_log_sf_lanes(stats, dofs))
    results = []
    for (dx, dy), n_strata, pair in tables:
        free = (dx - 1) * (dy - 1)
        g2, chi2 = pair if free else (0.0, 0.0)
        results.append(TestResult(
            g2=g2,
            chi2=chi2,
            dof=free * strata_nominal,
            dof_adjusted=free * n_strata,
            log_p_g2=next(log_ps) if free else 0.0,
            log_p_chi2=next(log_ps) if free else 0.0,
            empty_strata=strata_nominal - n_strata,
            method=method,
            degenerate=not free,
        ))
    return results


def _screen(
    data: Dataset, cs: tuple[int, ...], specs: list[TestSpec], method: str, adjust_dof: bool
) -> list[TestResult]:
    """Results, in order, of ``specs`` that all condition on ``cs``."""
    statistics = _ROUTES[method]
    strata_nominal = math.prod([data.levels(c) for c in cs])
    tables: list = [None] * len(specs)
    for positions, cells in tabulate.stacked_cells(data, cs, [(s.x, s.y) for s in specs]):
        for k, stats in zip(positions, statistics(cells)):
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
        return _screen(data, specs[0].cs, specs, method, adjust_dof)
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, spec in enumerate(specs):
        groups.setdefault(spec.cs, []).append(i)
    results: list[TestResult | None] = [None] * len(specs)
    for cs, members in groups.items():
        group = _screen(data, cs, [specs[i] for i in members], method, adjust_dof)
        for i, result in zip(members, group):
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
    ipf route runs in the calling thread whatever ``workers`` is.
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
        return _run(data, pairs, method, adjust_dof)

    size = math.ceil(len(pairs) / workers)
    chunks = [pairs[i : i + size] for i in range(0, len(pairs), size)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = pool.map(lambda chunk: _run(data, chunk, method, adjust_dof), chunks)
        return [result for part in parts for result in part]
