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
from itertools import combinations
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
    """
    if model.n_vars != len(table.dims):
        raise ValueError(
            f"model is over {model.n_vars} variables, table has {len(table.dims)} dims"
        )
    if table.total == 0:
        raise DataError("cannot fit a model to an empty table")
    if tol <= 0:
        raise ValueError("tol must be positive")

    observed = table.dense.reshape(table.dims, order="F").astype(np.float64)
    m = observed.ndim
    classes = model.generating_classes
    complements = [tuple(i for i in range(m) if i not in cls) for cls in classes]
    obs_margins = [
        observed.sum(axis=comp, keepdims=True) if comp else observed
        for comp in complements
    ]

    fitted = np.ones_like(observed)
    for margin in obs_margins:
        fitted = fitted * (margin > 0)

    iterations = 0
    converged = False
    for _ in range(max_iter):
        for comp, margin in zip(complements, obs_margins):
            fit_margin = fitted.sum(axis=comp, keepdims=True) if comp else fitted
            ratio = np.divide(
                margin, fit_margin, out=np.zeros_like(margin), where=fit_margin > 0
            )
            fitted = fitted * ratio
        iterations += 1
        discrepancy = 0.0
        for comp, margin in zip(complements, obs_margins):
            fit_margin = fitted.sum(axis=comp, keepdims=True) if comp else fitted
            discrepancy = max(discrepancy, float(np.abs(fit_margin - margin).max()))
        if discrepancy < tol:
            converged = True
            break

    occupied = observed > 0
    if np.any(fitted[occupied] <= 0):
        raise DataError("fitted mean vanished at an occupied cell; model margins are inconsistent")
    dev_terms = 2.0 * observed[occupied] * np.log(observed[occupied] / fitted[occupied])
    deviance = max(0.0, math.fsum(dev_terms))
    positive = fitted > 0
    diff = observed[positive] - fitted[positive]
    pearson = math.fsum(diff * diff / fitted[positive])

    fitted.setflags(write=False)
    return FitResult(
        fitted=fitted,
        deviance=deviance,
        pearson=pearson,
        iterations=iterations,
        converged=converged,
        model_dof=model_dof(table.dims, model),
    )
