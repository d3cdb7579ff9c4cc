"""Independent reference implementations the suite checks the package against.

Everything here is deliberately written as plain nested loops (or arbitrary
precision quadrature), sharing no code path with the package.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import mpmath as mp
import numpy as np


def tabulate_bruteforce(data, variables):
    """Row-by-row recount: coordinate tuple -> count."""
    counts: dict[tuple[int, ...], int] = {}
    for r in range(data.n_rows):
        key = tuple(int(data.columns[v].codes[r]) for v in variables)
        counts[key] = counts.get(key, 0) + 1
    return counts


def marginals_bruteforce(arr):
    """Per z-combination marginal sums of an [x, y, z...] count array."""
    arr = np.asarray(arr)
    dx, dy = arr.shape[0], arr.shape[1]
    z_dims = arr.shape[2:]
    n_xz, n_yz, n_z = {}, {}, {}
    for z in itertools.product(*(range(d) for d in z_dims)):
        n_xz[z] = [sum(int(arr[(x, y) + z]) for y in range(dy)) for x in range(dx)]
        n_yz[z] = [sum(int(arr[(x, y) + z]) for x in range(dx)) for y in range(dy)]
        n_z[z] = sum(n_xz[z])
    return n_xz, n_yz, n_z


def expected_bruteforce(arr):
    """Per-cell N_{x+z} N_{+yz} / N_{++z}, zero on empty slices."""
    arr = np.asarray(arr)
    n_xz, n_yz, n_z = marginals_bruteforce(arr)
    out = np.zeros(arr.shape, dtype=float)
    dx, dy = arr.shape[0], arr.shape[1]
    for z in itertools.product(*(range(d) for d in arr.shape[2:])):
        if n_z[z] == 0:
            continue
        for x in range(dx):
            for y in range(dy):
                out[(x, y) + z] = n_xz[z][x] * n_yz[z][y] / n_z[z]
    return out


def g2_bruteforce(obs, exp):
    obs = np.asarray(obs)
    exp = np.asarray(exp)
    total = 0.0
    for coords in itertools.product(*(range(d) for d in obs.shape)):
        n = int(obs[coords])
        if n > 0:
            total += 2.0 * n * math.log(n / float(exp[coords]))
    return total


def chi2_bruteforce(obs, exp):
    obs = np.asarray(obs)
    exp = np.asarray(exp)
    total = 0.0
    for coords in itertools.product(*(range(d) for d in obs.shape)):
        e = float(exp[coords])
        if e > 0:
            total += (int(obs[coords]) - e) ** 2 / e
    return total


def log_sf_quadrature(stat, dof, dps=50):
    """ln P(chi2_dof > stat) by adaptive quadrature of the density.

    The integrand is rescaled by its value at the peak of the integration
    range before quadrature: deep-tail integrals have magnitudes like
    1e-300, far below mpmath's absolute convergence tolerance, and would
    otherwise be accepted unrefined.
    """
    with mp.workdps(dps):
        s = mp.mpf(stat)
        if s == 0:
            return 0.0
        a = mp.mpf(dof) / 2

        def log_density(t):
            return (a - 1) * mp.log(t) - t / 2 - a * mp.log(2) - mp.loggamma(a)

        mode = mp.mpf(max(float(dof - 2), 0.0))
        peak = max(s, mode)
        log_scale = log_density(peak)

        def scaled(t):
            return mp.e ** (log_density(t) - log_scale)

        width = max(1.0, math.sqrt(2 * dof))
        points = sorted({float(s), float(peak), float(peak) + 60 * width})
        integral = mp.quad(scaled, points + [mp.inf])
        return float(log_scale + mp.log(integral))


def log_sf_gammainc(stat, dof, dps=40):
    """ln P(chi2_dof > stat) from mpmath's regularized upper incomplete gamma function.

    Faster than :func:`log_sf_quadrature`; for moderate dof (mpmath stalls
    near stat = dof from about dof 1e8 on).
    """
    with mp.workdps(dps):
        q = mp.gammainc(mp.mpf(dof) / 2, mp.mpf(stat) / 2, mp.inf, regularized=True)
        return float(mp.log(q))


def temme_coefficients(lengths):
    """Exact Taylor coefficients in η of Temme's C_k(η), the first ``lengths[k]`` of row k.

    With η²/2 = μ - ln(1 + μ), μ = λ - 1: C_0 = 1/μ - 1/η, and C_k = C_{k-1}'/η
    + s_k/μ with the constant s_k that cancels the pole at η = 0.  μ(η) comes
    from Lagrange inversion of η = μ·r(μ)^½, r = 2(μ - ln(1 + μ))/μ², in
    exact rational arithmetic.
    """
    from fractions import Fraction

    deg = max(lengths) + 2 * len(lengths) + 1
    r = [Fraction(2 * (-1) ** k, k + 2) for k in range(deg + 1)]

    def power(alpha, top):  # r**alpha up to degree top (J. C. P. Miller)
        p = [Fraction(1)] + [Fraction(0)] * top
        for m in range(1, top + 1):
            p[m] = sum(((alpha + 1) * k - m) * r[k] * p[m - k] for k in range(1, m + 1)) / m
        return p

    # μ = Σ b_n η^n with b_n = [μ^(n-1)] r^(-n/2) / n; then 1/μ = Σ inv[j] η^(j-1).
    b = [Fraction(0)] + [power(Fraction(-n, 2), n - 1)[n - 1] / n for n in range(1, deg + 1)]
    inv = [Fraction(1)]
    for j in range(1, deg):
        inv.append(-sum(b[i + 1] * inv[j - i] for i in range(1, j + 1)))
    rows = [inv[1:]]
    for _ in range(1, len(lengths)):
        prev = rows[-1]
        rows.append([(j + 2) * prev[j + 2] - prev[1] * inv[j + 1] for j in range(len(prev) - 2)])
    return [row[:n] for row, n in zip(rows, lengths)]


def _slice_counts(data, spec):
    """Row-by-row counts of ``spec``'s (x, y, z-tuple) cells and their slice marginals."""
    cell, n_xz, n_yz, n_z = {}, {}, {}, {}
    for r in range(data.n_rows):
        x = int(data.columns[spec.x].codes[r])
        y = int(data.columns[spec.y].codes[r])
        z = tuple(int(data.columns[c].codes[r]) for c in spec.cs)
        cell[(x, y, z)] = cell.get((x, y, z), 0) + 1
        n_xz[(x, z)] = n_xz.get((x, z), 0) + 1
        n_yz[(y, z)] = n_yz.get((y, z), 0) + 1
        n_z[z] = n_z.get(z, 0) + 1
    return cell, n_xz, n_yz, n_z


def ci_occupied_bruteforce(data, spec):
    """G², χ², dof, adjusted dof and empty strata of ``spec`` by dict loops.

    Rows are counted into (x, y, z-tuple) cells; each occupied stratum then
    visits only the x and y levels it contains, so the nominal cell space
    never appears and any number of conditioning columns is fine.  χ² sums
    (N - E)² / E over every cell with E > 0, empty ones included.
    """
    cell, n_xz, n_yz, n_z = _slice_counts(data, spec)
    xs_in = {z: [x for (x, zz) in n_xz if zz == z] for z in n_z}
    ys_in = {z: [y for (y, zz) in n_yz if zz == z] for z in n_z}
    g2_terms, chi2_terms = [], []
    for z, nz in n_z.items():
        for x in xs_in[z]:
            for y in ys_in[z]:
                e = n_xz[(x, z)] * n_yz[(y, z)] / nz
                n = cell.get((x, y, z), 0)
                chi2_terms.append((n - e) ** 2 / e)
                if n:
                    g2_terms.append(2.0 * n * math.log(n / e))
    dx, dy = data.levels(spec.x), data.levels(spec.y)
    nominal = math.prod(data.levels(c) for c in spec.cs)
    degenerate = dx == 1 or dy == 1
    return {
        "g2": 0.0 if degenerate else max(0.0, math.fsum(g2_terms)),
        "chi2": 0.0 if degenerate else math.fsum(chi2_terms),
        "dof": (dx - 1) * (dy - 1) * nominal,
        "dof_adjusted": (dx - 1) * (dy - 1) * len(n_z),
        "empty_strata": nominal - len(n_z),
        "degenerate": degenerate,
    }


def read_delimited_reference(text, *, delimiter=",", has_header=True):
    """Line-by-line parse of delimited ``text``, factorizing with a plain dict.

    Same contract as ``catci.io.read_delimited`` on already-read text: one
    leading byte-order mark and one trailing empty line are ignored, and the
    first offending line's error is raised (ragged before missing value on
    one line), ahead of the duplicate-header check.
    """
    from catci.core import CategoricalColumn, DataError, Dataset

    if text.startswith("\ufeff"):
        text = text[1:]
    lines = text.splitlines()
    if not lines or all(not ln for ln in lines):
        raise DataError("empty input")

    rows = []
    names = None
    width = None
    for lineno, line in enumerate(lines, start=1):
        if line == "" and lineno == len(lines):
            break  # trailing newline
        fields = line.split(delimiter)
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise DataError(f"line {lineno}: expected {width} fields, found {len(fields)}")
        for j, tok in enumerate(fields):
            if tok == "":
                raise DataError(f"line {lineno}: missing value in field {j + 1}")
        if has_header and names is None:
            names = fields
        else:
            rows.append(fields)

    if has_header and names is not None and len(set(names)) != len(names):
        dup = next(nm for i, nm in enumerate(names) if nm in names[:i])
        raise DataError(f"duplicate column name {dup!r} in header")
    if not rows:
        raise DataError("empty input: no data rows")
    if names is None:
        names = [f"V{j + 1}" for j in range(width)]

    columns = []
    for j, name in enumerate(names):
        mapping = {}
        codes = []
        for row in rows:
            codes.append(mapping.setdefault(row[j], len(mapping)))
        columns.append(
            CategoricalColumn(
                name=name,
                levels=len(mapping),
                codes=np.array(codes, dtype=np.int64),
                labels=tuple(mapping),
            )
        )
    return Dataset(n_rows=len(rows), columns=tuple(columns))


def chi2_exact(data, spec):
    """χ² of ``spec`` on ``data`` in exact rational arithmetic, as a ``Fraction``.

    Sums (N - E)² / E over every cell of every occupied stratum, which
    equals Σ N²·N_z / (N_xz·N_yz) - n over the occupied cells.
    """
    cell, n_xz, n_yz, n_z = _slice_counts(data, spec)
    total = Fraction(0)
    for (x, zx), nx in n_xz.items():
        for (y, zy), ny in n_yz.items():
            if zx == zy:
                e = Fraction(nx * ny, n_z[zx])
                total += (cell.get((x, y, zx), 0) - e) ** 2 / e
    return total


def closed_form_unfolded(cells):
    """Each table's G² and χ² from an ``OccupiedCells`` stack, nothing folded.

    The per-cell terms come from the same float operations as the kernel's;
    every cell's G² and N²/E - N term then enters one ``math.fsum`` per table.
    Strata are numbered from 0 across the stack, every one of them.
    """
    dx, dy = cells.dims_xy
    n = cells.count.astype(np.float64)
    stratum = np.cumsum(cells.head[:-1]) - 1
    x, y = np.divmod(cells.xy, dy)
    xz = stratum * dx + x
    yz = stratum * dy + y
    n_xz = np.bincount(xz, weights=n)
    n_yz = np.bincount(yz, weights=n)
    n_z = np.bincount(stratum, weights=n)
    e = n_xz[xz] * n_yz[yz] / n_z[stratum]
    g2 = (2.0 * n * np.log(n / e)).tolist()
    chi2 = (n * n / e - n).tolist()
    b = cells.bounds
    return [
        (max(0.0, math.fsum(g2[i:j])), max(0.0, math.fsum(chi2[i:j])))
        for i, j in zip(b, b[1:])
    ]
