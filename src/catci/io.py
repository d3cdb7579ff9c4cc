"""Delimited-text ingestion, serialization, and synthetic scenario generation.

File format: UTF-8 text (a leading byte-order mark is ignored), one
observation per row, fields split on a single delimiter character that is
not a line break (comma by default, no quoting — tokens must not contain
the delimiter), first line an optional header.  Columns are factorized to
0-based codes in first-appearance order.

The generator is deterministic given (seed, config) via numpy's PCG64
stream, so datasets are bit-reproducible across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO

import numpy as np

from .core import CategoricalColumn, DataError, Dataset

# Weight with which the dependent scenario pulls Y toward a deterministic
# function of X, breaking conditional independence.
DEPENDENT_MIX_WEIGHT = 0.3

_GEN_MODES = ("null_ci", "dependent")

# generate() draws a probability vector over X and one over Y for every
# nominal Z stratum; configurations whose tables would hold more entries
# than this (2 GiB of float64) are rejected rather than attempted.
_MAX_TABLE_ENTRIES = 1 << 28


@dataclass(frozen=True)
class GenConfig:
    """Scenario description for :func:`generate`.

    ``levels`` lists the level counts for (X, Y, Z_1..Z_k) in order, so the
    benchmark scenario with two conditioning variables of 2 and 4 levels is
    ``levels=(3, 4, 2, 4)``.
    """

    n: int
    levels: tuple[int, ...]
    dependence: str = "null_ci"
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(int(d) for d in self.levels))
        if self.n < 1:
            raise ValueError(f"sample size must be >= 1, got {self.n}")
        if len(self.levels) < 2:
            raise ValueError("need level counts for at least X and Y")
        if any(d < 2 for d in self.levels):
            raise ValueError(f"every level count must be >= 2, got {self.levels}")
        strata = math.prod(self.levels[2:])
        if strata * (self.levels[0] + self.levels[1]) > _MAX_TABLE_ENTRIES:
            raise ValueError(
                f"levels {self.levels} give {strata} Z strata, too many for per-stratum "
                f"probability tables of at most {_MAX_TABLE_ENTRIES} entries"
            )
        if self.dependence not in _GEN_MODES:
            raise ValueError(f"dependence must be one of {_GEN_MODES}, got {self.dependence!r}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")


def _draw_categories(prob_rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One draw per row from that row's probability vector."""
    u = rng.random(prob_rows.shape[0])
    cdf = np.cumsum(prob_rows, axis=1)
    draw = (u[:, None] > cdf).sum(axis=1)
    return np.minimum(draw, prob_rows.shape[1] - 1).astype(np.int64)


def _first_appearance_map(codes: np.ndarray, levels: int) -> np.ndarray:
    """Bijection on level codes sending first-appearance order to 0,1,2,..."""
    values, first_pos = np.unique(codes, return_index=True)
    by_appearance = values[np.argsort(first_pos)]
    mapping = np.full(levels, -1, dtype=np.int64)
    mapping[by_appearance] = np.arange(by_appearance.size)
    unseen = np.flatnonzero(mapping < 0)
    mapping[unseen] = np.arange(by_appearance.size, levels)
    return mapping


def generate(config: GenConfig) -> Dataset:
    """Draw a synthetic dataset with columns (X, Y, Z_1..Z_k).

    null_ci mode: each Z_i is uniform; X and Y are drawn independently
    given the realized Z combination from per-slice conditional
    distributions (normalized uniform draws), so X ⊥ Y | Z holds by
    construction while X and Y both depend on Z marginally.

    dependent mode additionally replaces Y by a deterministic function of X
    with probability ``DEPENDENT_MIX_WEIGHT``, so X ⊥̸ Y | Z.

    Level codes are renumbered to first-appearance order after the draw
    (a relabeling the construction is invariant under), which makes
    write_delimited / read_delimited an exact round trip whenever every
    level is realized.
    """
    rng = np.random.default_rng(config.seed)
    n = config.n
    dx, dy, *dzs = config.levels
    n_slices = math.prod(dzs) if dzs else 1

    z_cols = [rng.integers(0, d, size=n, dtype=np.int64) for d in dzs]
    z_index = np.zeros(n, dtype=np.int64)
    stride = 1
    for col, d in zip(z_cols, dzs):
        z_index += stride * col
        stride *= d

    p_x = rng.random((n_slices, dx))
    p_x /= p_x.sum(axis=1, keepdims=True)
    p_y = rng.random((n_slices, dy))
    p_y /= p_y.sum(axis=1, keepdims=True)

    x = _draw_categories(p_x[z_index], rng)
    y = _draw_categories(p_y[z_index], rng)
    if config.dependence == "dependent":
        forced = rng.random(n) < DEPENDENT_MIX_WEIGHT
        y = np.where(forced, x % dy, y)

    names = ["X", "Y"] + [f"Z{i + 1}" for i in range(len(dzs))]
    columns = []
    for name, codes, levels in zip(names, [x, y, *z_cols], config.levels):
        remap = _first_appearance_map(codes, levels)
        columns.append(
            CategoricalColumn(
                name=name,
                levels=levels,
                codes=remap[codes],
                labels=tuple(str(c) for c in range(levels)),
            )
        )
    return Dataset(n_rows=n, columns=tuple(columns))


def _read_text(source: str | Path | IO[str]) -> str:
    if hasattr(source, "read"):
        text = source.read()
    else:
        try:
            text = Path(source).read_text(encoding="utf-8")
        except OSError as err:
            raise DataError(f"cannot read {source}: {err}") from err
        except UnicodeDecodeError as err:
            raise DataError(f"cannot read {source}: invalid UTF-8 at byte {err.start}") from err
    return text.removeprefix("\ufeff")


def _breaks_line(text: str) -> bool:
    """Whether ``text`` holds a line break, any separator of ``str.splitlines``."""
    return "".join(text.splitlines()) != text


def check_delimiter(delimiter: str) -> None:
    """Raise ValueError unless ``delimiter`` is one character that does not break lines."""
    if len(delimiter) != 1 or delimiter.splitlines() != [delimiter]:
        raise ValueError(
            f"delimiter must be one character that is not a line break, got {delimiter!r}"
        )


def _first_line_error(chars: np.ndarray, delimiter: str) -> str | None:
    """Message for the first ragged row or empty field, or None if there is none.

    ``chars`` holds the code points of the lines joined by "\\n".  A line is
    ragged when its field count differs from the first line's; on one line a
    ragged row is reported before a missing value.
    """
    is_sep = (chars == ord(delimiter)) | (chars == ord("\n"))
    sep = np.flatnonzero(is_sep)  # field k ends at sep[k], the last one at chars.size
    last_field = np.append(np.flatnonzero(chars[sep] == ord("\n")), sep.size)
    n_fields = np.diff(last_field, prepend=-1)
    ragged = np.flatnonzero(n_fields != n_fields[0])
    # A field is empty where two separators meet or one sits at either end.
    bounds = np.ones(chars.size + 2, dtype=bool)
    bounds[1:-1] = is_sep
    empty = np.flatnonzero(bounds[:-1] & bounds[1:])  # where each empty field ends
    if empty.size:
        field = int(np.searchsorted(sep, empty[0]))
        empty_line = int(np.searchsorted(last_field, field))
    else:
        empty_line = last_field.size
    if ragged.size and ragged[0] <= empty_line:
        line = int(ragged[0])
        return f"line {line + 1}: expected {int(n_fields[0])} fields, found {int(n_fields[line])}"
    if empty.size:
        first_field = int(last_field[empty_line - 1]) + 1 if empty_line else 0
        return f"line {empty_line + 1}: missing value in field {field - first_field + 1}"
    return None


def read_delimited(
    source: str | Path | IO[str],
    *,
    delimiter: str = ",",
    has_header: bool = True,
) -> Dataset:
    """Parse a delimited text table into a factorized :class:`Dataset`.

    Lines are those of ``str.splitlines``; one trailing empty line and one
    leading byte-order mark are ignored.  Raises ValueError unless the
    delimiter is one character that is not a line break, and DataError for
    unreadable or empty input, ragged rows, empty fields (naming the first
    offending physical line) or a duplicate header name.
    """
    check_delimiter(delimiter)
    lines = _read_text(source).splitlines()
    if not any(lines):
        raise DataError("empty input")
    if lines[-1] == "":
        lines.pop()  # trailing newline
    n_lines = len(lines)
    joined = "\n".join(lines)
    del lines
    error = _first_line_error(np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32), delimiter)
    if error is not None:
        raise DataError(error)

    tokens = joined.replace("\n", delimiter).split(delimiter)
    del joined
    width = len(tokens) // n_lines
    if has_header:
        names = tokens[:width]
        if len(set(names)) != width:
            dup = next(nm for i, nm in enumerate(names) if nm in names[:i])
            raise DataError(f"duplicate column name {dup!r} in header")
        start, n_rows = width, n_lines - 1
    else:
        names = [f"V{j + 1}" for j in range(width)]
        start, n_rows = 0, n_lines
    if not n_rows:
        raise DataError("empty input: no data rows")
    columns = tuple(
        CategoricalColumn.from_tokens(name, tokens[start + j :: width])
        for j, name in enumerate(names)
    )
    return Dataset(n_rows=n_rows, columns=columns)


def write_delimited(
    data: Dataset,
    dest: str | Path | IO[str],
    *,
    delimiter: str = ",",
) -> None:
    """Serialize ``data`` with a header row; inverse of :func:`read_delimited`.

    Values are written as the original labels when present, decimal codes
    otherwise.  Raises ValueError for a delimiter :func:`read_delimited`
    rejects, and DataError for a column name or label that contains the
    delimiter or a line break (there is no quoting).
    """
    check_delimiter(delimiter)
    names = [col.name for col in data.columns]
    for name in names:
        if delimiter in name:
            raise DataError(f"column name {name!r} contains the delimiter")
        if _breaks_line(name):
            raise DataError(f"column name {name!r} contains a line break")
    for col in data.columns:
        for tok in col.labels or ():
            if delimiter in tok:
                raise DataError(f"column {col.name!r}: token {tok!r} contains the delimiter")
            if _breaks_line(tok):
                raise DataError(f"column {col.name!r}: token {tok!r} contains a line break")
    token_columns = [col.tokens() for col in data.columns]

    out = [delimiter.join(names)]
    for row in zip(*token_columns):
        out.append(delimiter.join(row))
    text = "\n".join(out) + "\n"

    if hasattr(dest, "write"):
        dest.write(text)
    else:
        try:
            Path(dest).write_text(text, encoding="utf-8")
        except OSError as err:
            raise DataError(f"cannot write {dest}: {err}") from err
