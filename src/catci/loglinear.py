"""Hierarchical Poisson log-linear models fitted by iterative proportional fitting.

Models are specified by their maximal generating classes rather than design
matrices: IPF cyclically rescales the fitted means to match each class's
observed margin, which keeps the fit allocation-light and exact after a
single cycle for decomposable models such as the conditional-independence
model.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain, combinations
from typing import Sequence

import numpy as np

from .core import ContingencyTable, DataError, FitResult, LogLinearModel


def ci_model(k: int) -> LogLinearModel:
    """Conditional-independence model for a table laid out as (x, y, z_1..z_k).

    The two maximal generating classes are ``{x} ∪ Z`` and ``{y} ∪ Z``;
    for ``k == 0`` this degenerates to the main-effects independence model
    with classes ``{x}`` and ``{y}``.
    """
    if k < 0:
        raise ValueError(f"conditioning set size must be >= 0, got {k}")
    z = tuple(range(2, k + 2))
    return LogLinearModel(n_vars=k + 2, generating_classes=((0,) + z, (1,) + z))


def saturated_model(n_vars: int) -> LogLinearModel:
    """Single-class model containing every variable; fits the table exactly."""
    if n_vars < 1:
        raise ValueError("saturated model needs at least one variable")
    return LogLinearModel(n_vars=n_vars, generating_classes=(tuple(range(n_vars)),))


def model_dof(dims: Sequence[int], model: LogLinearModel) -> int:
    """Residual degrees of freedom of ``model`` on a table with ``dims``.

    Parameters are counted by inclusion-exclusion over the distinct subsets
    of the generating classes: each subset S contributes prod(d_i - 1) free
    parameters, the empty subset being the grand mean.
    """
    dims = tuple(int(d) for d in dims)
    if len(dims) != model.n_vars:
        raise ValueError(f"model is over {model.n_vars} variables, table has {len(dims)}")
    if any(d < 1 for d in dims):
        raise ValueError("every dimension must be >= 1")
    return _model_dof_cached(dims, model.generating_classes)


@lru_cache(maxsize=1024)
def _model_dof_cached(dims: tuple[int, ...], classes: tuple[tuple[int, ...], ...]) -> int:
    seen: set[tuple[int, ...]] = set()
    params = 0
    for cls in classes:
        for r in range(len(cls) + 1):
            for subset in combinations(cls, r):
                if subset not in seen:
                    seen.add(subset)
                    params += math.prod(dims[i] - 1 for i in subset)
    return math.prod(dims) - params


# Cells per block of the Pearson sum: its terms become Python floats a block
# at a time, never a table's worth at once.
_BLOCK_CELLS = 1 << 16


def _pearson_blocks(observed: np.ndarray, fitted: np.ndarray):
    """(observed - fitted)² / fitted where the fitted mean is positive, as one list per block."""
    for lo in range(0, fitted.size, _BLOCK_CELLS):
        block = fitted[lo : lo + _BLOCK_CELLS]
        positive = block > 0
        expected = block[positive]
        diff = observed[lo : lo + _BLOCK_CELLS][positive] - expected
        yield (diff * diff / expected).tolist()


def ipf_fit(
    table: ContingencyTable,
    model: LogLinearModel,
    tol: float = 1e-8,
    max_iter: int = 50,
) -> FitResult:
    """Fit ``model`` to ``table`` by cyclic proportional margin scaling.

    Starts from an all-ones array (cells whose observed class margins are
    zero are pinned to zero first) and rescales per generating class until
    the largest absolute margin discrepancy drops below ``tol``.  On
    non-convergence the partial fit is returned with ``converged=False``.
    Besides ``table`` the fit holds one float64 array of the fitted means;
    only a class that holds every variable adds more arrays of that size.
    """
    if model.n_vars != len(table.dims):
        raise ValueError(
            f"model is over {model.n_vars} variables, table has {len(table.dims)} dims"
        )
    if table.total == 0:
        raise DataError("cannot fit a model to an empty table")
    if tol <= 0:
        raise ValueError("tol must be positive")

    counts = table.as_array()
    m = counts.ndim
    classes = model.generating_classes
    complements = [tuple(i for i in range(m) if i not in cls) for cls in classes]
    # Summed as float64, exactly: counts and their sums are integers below 2⁵³.
    obs_margins = [counts.sum(axis=comp, keepdims=True, dtype=np.float64) for comp in complements]

    fitted = np.ones(counts.shape, order="F")
    for margin in obs_margins:
        fitted *= margin > 0

    iterations = 0
    converged = False
    for _ in range(max_iter):
        for comp, margin in zip(complements, obs_margins):
            fit_margin = fitted.sum(axis=comp, keepdims=True) if comp else fitted
            fitted *= np.divide(
                margin, fit_margin, out=np.zeros_like(margin), where=fit_margin > 0
            )
        iterations += 1
        discrepancy = 0.0
        for comp, margin in zip(complements, obs_margins):
            fit_margin = fitted.sum(axis=comp, keepdims=True) if comp else fitted
            discrepancy = max(discrepancy, float(np.abs(fit_margin - margin).max()))
        if discrepancy < tol:
            converged = True
            break

    # Over the flat cells: the deviance over the occupied ones (at most one a
    # row), the Pearson sum a block at a time, so neither copies the table.
    flat = fitted.reshape(-1, order="F")
    occupied = np.flatnonzero(table.dense)
    observed, expected = table.dense[occupied], flat[occupied]
    if np.any(expected <= 0):
        raise DataError("fitted mean vanished at an occupied cell; model margins are inconsistent")
    deviance = max(0.0, math.fsum(2.0 * observed * np.log(observed / expected)))
    pearson = math.fsum(chain.from_iterable(_pearson_blocks(table.dense, flat)))

    fitted.setflags(write=False)
    return FitResult(
        fitted=fitted,
        deviance=deviance,
        pearson=pearson,
        iterations=iterations,
        converged=converged,
        model_dof=model_dof(table.dims, model),
    )
