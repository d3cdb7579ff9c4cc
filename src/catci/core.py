"""Shared domain types: datasets, test specs, tables, and result records.

Everything here is an immutable value object; the numerical work lives in
:mod:`catci.tabulate`, :mod:`catci.citest` and :mod:`catci.loglinear`.
All types are safe to share across threads, such as the ones
:func:`catci.citest.batch_screen` runs its chunks of specs on.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np


class DataError(ValueError):
    """Raised for malformed datasets or unreadable input files."""


class SpecError(ValueError):
    """Raised for invalid test specifications (bad or overlapping indices)."""


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _integers(values, what: str) -> np.ndarray:
    """``values`` as an array, or a ``DataError`` naming ``what`` unless they are whole numbers.

    Integer and bool arrays pass as they are; a floating array passes when
    every value is integral and within int64's range, so NaN and infinities
    do not.  Anything else (text, objects) is refused: nothing is silently
    truncated or parsed.
    """
    arr = np.asarray(values)
    if arr.dtype.kind in "biu" or (
        arr.dtype.kind == "f" and np.all(np.abs(arr) < 2.0**63) and np.all(arr == np.trunc(arr))
    ):
        return arr
    raise DataError(f"{what} must be integers")


@dataclass(frozen=True, eq=False)
class CategoricalColumn:
    """One categorical variable, integer-coded.

    Codes are 0-based and contiguous: without explicit ``labels`` every value
    in ``[0, levels)`` must occur in ``codes``; with labels, unused top codes
    are allowed (e.g. a generated dataset too small to realize every level).

    Attributes:
        name: Column identifier.
        levels: Number of distinct levels the variable can take.
        codes: Per-row level codes, shape ``(n_rows,)``.
        labels: Original level tokens, index = code.  ``None`` for columns
            that were never backed by text tokens.
    """

    name: str
    levels: int
    codes: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        codes = np.array(
            _integers(self.codes, f"column {self.name!r}: codes"), dtype=np.int64, copy=True
        )
        if codes.ndim != 1:
            raise DataError(f"column {self.name!r}: codes must be one-dimensional")
        object.__setattr__(self, "codes", _freeze(codes))
        if self.levels < 1:
            raise DataError(f"column {self.name!r}: levels must be >= 1, got {self.levels}")
        if codes.size:
            lo, hi = int(codes.min()), int(codes.max())
            if lo < 0 or hi >= self.levels:
                raise DataError(
                    f"column {self.name!r}: codes must lie in [0, {self.levels}), "
                    f"found range [{lo}, {hi}]"
                )
        if self.labels is not None:
            labels = tuple(self.labels)
            # Readers pass str labels already: check them without a Python-level loop.
            if not all(map(str.__instancecheck__, labels)):
                labels = tuple(map(str, labels))
            object.__setattr__(self, "labels", labels)
            if len(self.labels) != self.levels:
                raise DataError(
                    f"column {self.name!r}: {len(self.labels)} labels for {self.levels} levels"
                )
        else:
            # Contiguity: unused codes are only legal when labels pin them down.
            present = np.bincount(codes, minlength=self.levels) > 0
            if not present.all():
                missing = int(np.flatnonzero(~present)[0])
                raise DataError(
                    f"column {self.name!r}: code {missing} unused; supply labels "
                    f"explicitly or reduce levels"
                )

    @classmethod
    def _owning(cls, name: str, codes: np.ndarray, labels: tuple[str, ...]) -> "CategoricalColumn":
        """A column that takes over ``codes`` instead of copying and checking them.

        For readers that build codes and labels together: ``codes`` must be
        a one-dimensional int64 array that no one else holds, with every
        value in ``[0, len(labels))``, and ``labels`` a tuple of ``str``.
        """
        column = cls.__new__(cls)
        for field, value in (("name", name), ("levels", len(labels)),
                             ("codes", _freeze(codes)), ("labels", labels)):
            object.__setattr__(column, field, value)
        return column

    @classmethod
    def from_tokens(cls, name: str, tokens: Sequence[str]) -> "CategoricalColumn":
        """Factorize raw tokens to codes in first-appearance order."""
        labels = tuple(dict.fromkeys(tokens))
        if not labels:
            raise DataError(f"column {name!r}: no observations to factorize")
        lut = dict(zip(labels, range(len(labels))))
        codes = np.fromiter(map(lut.__getitem__, tokens), np.int64, count=len(tokens))
        return cls(name=name, levels=len(labels), codes=codes, labels=labels)

    def tokens(self) -> list[str]:
        """Per-row tokens: each code's label, or its decimal string when unlabeled."""
        if self.labels is not None:
            lut = np.asarray(self.labels, dtype=object)
            return list(lut[self.codes])
        return [str(c) for c in self.codes]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CategoricalColumn):
            return NotImplemented
        return (
            self.name == other.name
            and self.levels == other.levels
            and self.labels == other.labels
            and np.array_equal(self.codes, other.codes)
        )


@dataclass(frozen=True, eq=False)
class Dataset:
    """Columnar table of integer-coded categorical observations.

    Attributes:
        n_rows: Sample size.
        columns: Per-variable :class:`CategoricalColumn`, all of length
            ``n_rows``.
    """

    n_rows: int
    columns: tuple[CategoricalColumn, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(self.columns))
        for col in self.columns:
            if col.codes.size != self.n_rows:
                raise DataError(
                    f"column {col.name!r} has {col.codes.size} rows, dataset has {self.n_rows}"
                )

    @property
    def n_cols(self) -> int:
        return len(self.columns)

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def levels(self, index: int) -> int:
        return self.columns[index].levels

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.n_rows == other.n_rows and self.columns == other.columns


@dataclass(frozen=True)
class TestSpec:
    """Which variables to test: x and y given the conditioning set cs.

    The indices must be pairwise disjoint and in range for the dataset;
    :func:`validate_spec` enforces this at every entry point.
    """

    __test__: ClassVar[bool] = False  # not a pytest collectable

    x: int
    y: int
    cs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        # operator.index refuses floats and strings, which int() would truncate or parse.
        try:
            object.__setattr__(self, "cs", tuple(map(operator.index, self.cs)))
            object.__setattr__(self, "x", operator.index(self.x))
            object.__setattr__(self, "y", operator.index(self.y))
        except TypeError:
            raise SpecError(f"spec indices must be integers: {self!r}") from None


def validate_spec(spec: TestSpec, data: Dataset) -> None:
    """Check index ranges and pairwise disjointness of ``spec`` against ``data``.

    Raises:
        SpecError: naming the offending index, if out of range or overlapping.
    """
    p = data.n_cols
    for label, idx in (("x", spec.x), ("y", spec.y)):
        if not 0 <= idx < p:
            raise SpecError(f"{label} index {idx} out of range for {p} columns")
    for idx in spec.cs:
        if not 0 <= idx < p:
            raise SpecError(f"conditioning index {idx} out of range for {p} columns")
    if spec.x == spec.y:
        raise SpecError(f"x and y overlap (both index {spec.x})")
    if spec.x in spec.cs:
        raise SpecError(f"x index {spec.x} overlaps the conditioning set")
    if spec.y in spec.cs:
        raise SpecError(f"y index {spec.y} overlaps the conditioning set")
    if len(set(spec.cs)) != len(spec.cs):
        dup = next(c for i, c in enumerate(spec.cs) if c in spec.cs[:i])
        raise SpecError(f"conditioning index {dup} listed twice")


@dataclass(frozen=True, eq=False)
class ContingencyTable:
    """Multi-way cell counts over a variable subset, stored densely.

    Cells are addressed by a mixed-radix index with the *first* dimension
    varying fastest: ``flat = v0 + dims[0]*(v1 + dims[1]*(v2 + ...))``.

    Attributes:
        dims: Level count per tabulated variable, in tabulation order.
        total: Number of dataset rows tabulated (= sum of all cells).
        dense: Flat count array of length ``prod(dims)``.
    """

    dims: tuple[int, ...]
    total: int
    dense: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if any(d < 1 for d in self.dims):
            raise DataError(f"table dims must be >= 1, got {self.dims}")
        if self.dense is None:
            raise DataError("table needs dense storage, got None")
        dense = np.ascontiguousarray(_integers(self.dense, "cell counts"), dtype=np.int64)
        if dense.shape != (self.n_cells,):
            raise DataError(
                f"dense storage has {dense.size} cells, dims {self.dims} need {self.n_cells}"
            )
        if dense.size and int(dense.min()) < 0:
            raise DataError("negative cell count")
        if int(dense.sum()) != self.total:
            raise DataError(f"cell counts sum to {int(dense.sum())}, total is {self.total}")
        object.__setattr__(self, "dense", _freeze(dense))

    @property
    def n_cells(self) -> int:
        return math.prod(self.dims)

    def as_array(self) -> np.ndarray:
        """Counts as an ndarray shaped ``dims``."""
        return self.dense.reshape(self.dims, order="F")

    def __eq__(self, other: object) -> bool:
        """Cell-by-cell equality."""
        if not isinstance(other, ContingencyTable):
            return NotImplemented
        return self.dims == other.dims and np.array_equal(self.dense, other.dense)


# The method tag of each route a test can take.  The first is the default,
# and the route that timings are normalised by.
METHODS = ("closed_form", "ipf")


@dataclass(frozen=True)
class TestResult:
    """Full outcome of one conditional independence test.

    ``log_p_*`` are natural-log upper-tail probabilities from the selected
    degrees of freedom (the nominal ``dof`` by default, ``dof_adjusted``
    when the test was run with empty-stratum adjustment).

    A degenerate test (x or y observed with a single level) carries
    ``dof == 0``, zero statistics and ``log_p == 0`` (p = 1).
    """

    __test__: ClassVar[bool] = False

    g2: float
    chi2: float
    dof: int
    dof_adjusted: int
    log_p_g2: float
    log_p_chi2: float
    empty_strata: int
    method: str
    degenerate: bool = False

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method tag {self.method!r}")
        if self.g2 < 0 or self.chi2 < 0:
            raise ValueError("statistics must be nonnegative")
        if self.log_p_g2 > 0 or self.log_p_chi2 > 0:
            raise ValueError("log p-values must be nonpositive")
        if self.dof_adjusted > self.dof:
            raise ValueError("adjusted dof cannot exceed nominal dof")

    @classmethod
    def _trusted(
        cls, g2: float, chi2: float, dof: int, dof_adjusted: int, log_p_g2: float,
        log_p_chi2: float, empty_strata: int, method: str, degenerate: bool,
    ) -> "TestResult":
        """A result built without ``__post_init__``'s checks.

        For the test kernels, whose statistics, log p-values, dofs and
        method tags already satisfy them.  The fields are set one by one, as
        ``__init__`` does: a whole ``__dict__`` would take twice the memory.
        """
        result = cls.__new__(cls)
        set_field = object.__setattr__
        set_field(result, "g2", g2)
        set_field(result, "chi2", chi2)
        set_field(result, "dof", dof)
        set_field(result, "dof_adjusted", dof_adjusted)
        set_field(result, "log_p_g2", log_p_g2)
        set_field(result, "log_p_chi2", log_p_chi2)
        set_field(result, "empty_strata", empty_strata)
        set_field(result, "method", method)
        set_field(result, "degenerate", degenerate)
        return result


@dataclass(frozen=True)
class LogLinearModel:
    """Hierarchical log-linear model given by its maximal generating classes.

    The conditional-independence model for a table laid out as
    ``(x, y, z_1..z_k)`` has the two classes ``{0, 2..k+1}`` and
    ``{1, 2..k+1}``; see :func:`catci.loglinear.ci_model`.
    """

    n_vars: int
    generating_classes: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        classes = tuple(tuple(sorted(set(int(i) for i in c))) for c in self.generating_classes)
        object.__setattr__(self, "generating_classes", classes)
        if not classes:
            raise ValueError("model needs at least one generating class")
        for c in classes:
            for i in c:
                if not 0 <= i < self.n_vars:
                    raise ValueError(f"class index {i} out of range for {self.n_vars} variables")
        for a in classes:
            for b in classes:
                if a != b and set(a) <= set(b):
                    raise ValueError(f"class {a} is contained in {b}; list maximal classes only")


@dataclass(frozen=True, eq=False)
class FitResult:
    """Outcome of an iterative proportional fit.

    ``deviance`` is ``2 * sum(N * ln(N / fitted))`` over occupied cells and
    ``pearson`` is ``sum((N - fitted)^2 / fitted)`` over cells with positive
    fitted means; ``model_dof`` is the residual degrees of freedom.
    """

    fitted: np.ndarray
    deviance: float
    pearson: float
    iterations: int
    converged: bool
    model_dof: int
