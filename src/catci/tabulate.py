"""Single-pass multi-way tabulation and conditional expected frequencies.

A table over ``(x, y, z_1..z_k)`` is built once from the dataset; per-slice
marginals and expected frequencies are then derived from it without ever
re-scanning the rows.  Cells use a mixed-radix flat index with the first
variable fastest, so each conditioning combination owns one contiguous
``dx * dy`` block.

:func:`stacked_cells` is the tabulation behind ``ci_test`` and
``batch_screen``: it indexes a conditioning set once, compressing it to
its occupied strata at most once (and, for a single pair, only when the
cell code would overflow), and tabulates every pair that shares it
against that index, so its memory grows with the rows and the occupied
strata, never with ``prod |Z_i|`` or the number of pairs.  Both test
routes take their stacks from it; ipf fits each :meth:`OccupiedCells.as_table`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .core import ContingencyTable, DataError, Dataset, SpecError, _freeze, _integers

# Stacked cell ids beyond this range would overflow int64 arithmetic.
_MAX_CELLS = 1 << 62

# Id spaces up to this multiple of the id count are counted with bincount and
# a lookup table; wider ones are sorted by np.unique.
_BINCOUNT_SPAN = 4

# A stack of tables sharing a conditioning set holds at most this many cells
# per data row, which bounds its memory independently of the number of pairs.
_STACK_ROWS = 1


@dataclass(frozen=True, eq=False)
class SliceMarginals:
    """Per-conditioning-combination marginals of an ``(x, y, z...)`` table.

    Row ``s`` of ``n_xz`` / ``n_yz`` / ``n_z`` holds ``N_{x+z}``, ``N_{+yz}``
    and ``N_{++z}`` for z-combination ``s``; all ``n_slices`` combinations
    are present, in flat order, empty ones included.  The unconditional case
    is the single-slice instance (``n_slices == 1``).
    """

    dims_xy: tuple[int, int]
    n_slices: int
    n_xz: np.ndarray
    n_yz: np.ndarray
    n_z: np.ndarray
    total: int

    @property
    def occupied_slices(self) -> int:
        return int(np.count_nonzero(self.n_z))


@dataclass(frozen=True, eq=False)
class OccupiedCells:
    """The occupied cells of ``(x, y | Z)`` tables that share Z, ``|X|`` and ``|Y|``.

    Table ``k`` owns cells ``bounds[k]:bounds[k + 1]``.  Every table has the
    same ``n_strata`` strata, the Z combinations that occur in the rows, and
    counts all ``total`` rows.  Cell ``i`` holds ``count[i]`` rows with
    codes ``x[i]``, ``y[i]`` in stratum ``stratum[i]``.  Strata are numbered
    from 0 across the stack, table by table and within a table in
    lexicographic order of their codes; cells are sorted by
    ``(stratum, x, y)``.  A single pair tabulated by
    :func:`stacked_cells` gives a stack of one table.
    """

    dims_xy: tuple[int, int]
    n_strata: int
    bounds: tuple[int, ...]
    x: np.ndarray
    y: np.ndarray
    stratum: np.ndarray
    count: np.ndarray
    total: int

    def as_table(self, k: int = 0) -> ContingencyTable:
        """Dense ``(x, y, stratum)`` table ``k`` of the stack, strata from 0.

        It holds at most ``|X|·|Y|·n_rows`` cells.

        Raises:
            DataError: if the table would have more than 2²⁴ cells, the
                limit of :func:`build_table`; nothing is allocated then.
        """
        dx, dy = self.dims_xy
        n_cells = dx * dy * self.n_strata
        if n_cells > _TABLE_CELLS:
            raise DataError(
                f"table with {n_cells} cells exceeds the {_TABLE_CELLS}-cell limit; "
                "the closed form tabulates the occupied cells only"
            )
        cells = slice(self.bounds[k], self.bounds[k + 1])
        stratum = self.stratum[cells] - k * self.n_strata
        dense = np.zeros(n_cells, dtype=np.int64)
        dense[self.x[cells] + dx * (self.y[cells] + dy * stratum)] = self.count[cells]
        return ContingencyTable(dims=(dx, dy, self.n_strata), total=self.total, dense=dense)


def _count_distinct(
    ids: np.ndarray, space: int, *, inverse: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Sorted distinct values of ``ids`` (all in ``[0, space)``) and their counts.

    With ``inverse`` also returns each id's position among the distinct values.
    Scratch beyond the result is one array over ``space`` (bincount), or
    two arrays and a mask over ``ids`` (sort).
    """
    if space <= _BINCOUNT_SPAN * ids.size:
        counts = np.bincount(ids, minlength=space)
        (values,) = counts.nonzero()
        found = counts[values]
        if not inverse:
            return values, found, None
        counts[values] = np.arange(values.size)  # now each value's position
        return values, found, counts[ids]
    if not inverse:
        values, counts = np.unique(ids, return_counts=True)
        return values, counts, None
    order = np.argsort(ids)
    ranks = ids[order]
    head = np.ones(ids.size, dtype=bool)  # where a run of equal sorted ids starts
    np.not_equal(ranks[1:], ranks[:-1], out=head[1:])
    values = ranks[head]
    ranks[...] = head
    del head
    np.cumsum(ranks, out=ranks)  # in place: a cumsum of the bool mask would copy it to int64
    ranks -= 1
    positions = np.empty_like(ranks)
    positions[order] = ranks
    del order, ranks
    return values, np.bincount(positions, minlength=values.size), positions


def _strata_code(
    data: Dataset, cs: Sequence[int], max_radix: int
) -> tuple[np.ndarray | None, int]:
    """Each row's Z stratum as a code in ``[0, radix)``, and the radix.

    The code is mixed-radix, built column by column in one int64 array with
    the first column most significant.  It is compressed to the occupied
    strata, which keeps their order, only where the next column would take
    the radix past ``_MAX_CELLS`` and once at the end if the radix exceeds
    ``max_radix``; below 2⁶² nominal strata that is at most once.  ``None``
    stands for an empty conditioning set.
    """
    code: np.ndarray | None = None
    radix = 1
    for c in cs:
        column = data.columns[c]
        if radix * column.levels > _MAX_CELLS:
            strata, _, code = _count_distinct(code, radix, inverse=True)
            radix = strata.size
        if code is None:
            code = column.codes.copy()
        else:
            code *= column.levels
            code += column.codes
        radix *= column.levels
    if radix > max_radix:
        strata, _, code = _count_distinct(code, radix, inverse=True)
        radix = strata.size
    return code, radix


def _stack(
    dims_xy: tuple[int, int], parts: list, counts: list, bounds: list[int], total: int
) -> OccupiedCells:
    """Decompose the offset cell indices of one or more tables into a stack."""
    dx, dy = dims_xy
    index = parts[0] if len(parts) == 1 else np.concatenate(parts)
    count = counts[0] if len(counts) == 1 else np.concatenate(counts)
    # Floor division and a multiply-subtract split the ids faster than divmod.
    rest = index // dy
    ys = index - rest * dy
    index = rest // dx
    xs = rest - index * dx
    # index is now each cell's stratum offset by its table, sorted, so each
    # stratum is one run.  Every table has the same strata, those of the rows,
    # so each holds an equal share of the runs.
    stratum = np.zeros(index.size, dtype=np.int64)
    np.cumsum(index[1:] != index[:-1], out=stratum[1:])
    return OccupiedCells(
        dims_xy=dims_xy,
        n_strata=(int(stratum[-1]) + 1) // len(parts) if stratum.size else 0,
        bounds=tuple(bounds),
        x=_freeze(xs),
        y=_freeze(ys),
        stratum=_freeze(stratum),
        count=_freeze(count.astype(np.int64, copy=False)),
        total=total,
    )


def stacked_cells(
    data: Dataset, cs: Sequence[int], pairs: Sequence[tuple[int, int]]
) -> Iterator[tuple[list[int], OccupiedCells]]:
    """Tabulate many ``(x, y)`` pairs within the occupied strata of one ``cs``.

    The Z code is built once (see :func:`_strata_code`), and
    ``(z·|X| + x)·|Y|`` once per run of pairs with the same x and ``|Y|``,
    so each pair costs one add and one count of its distinct cells.  Many
    pairs share a Z compressed to at most ``n_rows`` strata.  A single pair
    is counted on its full ``(z, x, y)`` code, with Z compressed first only
    if that code would pass ``_MAX_CELLS``; its count already yields the
    occupied strata.  Pairs with equal ``(|X|, |Y|)`` are stacked, each
    table's cell ids offset past the previous one's.  A stack is yielded,
    with the positions of its pairs in ``pairs``, before it would hold more
    than ``_STACK_ROWS · n_rows`` cells, so the extra memory is O(n_rows)
    however many pairs share ``cs``.  Indices are assumed valid (see
    ``validate_spec``).
    """
    n = data.n_rows
    columns = data.columns
    if len(pairs) == 1:
        # One table is counted on its full (z, x, y) code, in the Z code's own
        # array if any: _stack numbers its strata from the runs of that code.
        ((x, y),) = pairs
        code, radix = _strata_code(data, cs, _MAX_CELLS // (columns[x].levels * columns[y].levels))
        order = [0]
        zxy_buf = buf = np.empty(n, dtype=np.int64) if code is None else code
    else:
        code, radix = _strata_code(data, cs, n)
        order = sorted(
            range(len(pairs)),
            key=lambda i: (columns[pairs[i][0]].levels, columns[pairs[i][1]].levels, pairs[i][0]),
        )
        zxy_buf = np.empty(n, dtype=np.int64)
        buf = np.empty(n, dtype=np.int64)
    last = None
    dims = (0, 0)
    positions: list[int] = []
    parts: list[np.ndarray] = []
    counts: list[np.ndarray] = []
    bounds = [0]
    for i in order:
        x, y = pairs[i]
        dx, dy = columns[x].levels, columns[y].levels
        if (x, dy) != last:  # the pairs are sorted by (|X|, |Y|, x)
            if code is None:
                zxy = np.multiply(columns[x].codes, dy, out=zxy_buf)
            else:
                zxy = np.multiply(code, dx, out=zxy_buf)
                zxy += columns[x].codes
                zxy *= dy
            last = (x, dy)
        np.add(zxy, columns[y].codes, out=buf)
        space = radix * dx * dy
        index, count, _ = _count_distinct(buf, space)
        if parts and (
            (dx, dy) != dims
            or bounds[-1] + index.size > _STACK_ROWS * n
            or (len(parts) + 1) * space > _MAX_CELLS
        ):
            yield positions, _stack(dims, parts, counts, bounds, n)
            positions, parts, counts, bounds = [], [], [], [0]
        if parts:
            index += len(parts) * space
        dims = (dx, dy)
        positions.append(i)
        parts.append(index)
        counts.append(count)
        bounds.append(bounds[-1] + index.size)
    if parts:
        yield positions, _stack(dims, parts, counts, bounds, n)


# build_table and OccupiedCells.as_table allocate every cell of their table;
# beyond this many they refuse.
_TABLE_CELLS = 1 << 24


def build_table(data: Dataset, variables: Sequence[int]) -> ContingencyTable:
    """Cross-tabulate the given columns in one pass over the rows.

    An empty variable list yields the scalar table holding ``n_rows``.

    Raises:
        DataError: if the table would have more than 2²⁴ cells; nothing is
            allocated then.  Tests on large conditioning sets go through
            ``ci_test`` or ``batch_screen``, which count occupied strata only.
    """
    variables = tuple(int(v) for v in variables)
    for v in variables:
        if not 0 <= v < data.n_cols:
            raise SpecError(f"table variable index {v} out of range for {data.n_cols} columns")
    if len(set(variables)) != len(variables):
        dup = next(v for i, v in enumerate(variables) if v in variables[:i])
        raise SpecError(f"table variable index {dup} listed twice")

    dims = tuple(data.levels(v) for v in variables)
    n_cells = math.prod(dims)
    if n_cells > _TABLE_CELLS:
        raise DataError(
            f"table with {n_cells} cells exceeds the {_TABLE_CELLS}-cell limit; "
            "ci_test and batch_screen tabulate the occupied strata only"
        )
    flat = np.zeros(data.n_rows, dtype=np.int64)
    stride = 1
    for v, d in zip(variables, dims):
        flat += stride * data.columns[v].codes
        stride *= d
    cells = np.bincount(flat, minlength=n_cells)
    return ContingencyTable(dims=dims, total=data.n_rows, dense=cells)


def table_from_counts(counts: np.ndarray | Sequence) -> ContingencyTable:
    """Wrap an explicit count array (indexed ``[x, y, z...]``) as a table."""
    arr = _integers(counts, "cell counts")
    flat = np.asarray(arr, dtype=np.int64).ravel(order="F")  # a scalar gives one cell
    return ContingencyTable(dims=arr.shape, total=int(flat.sum()), dense=flat)


def slice_marginals(table: ContingencyTable) -> SliceMarginals:
    """Marginal counts for every conditioning combination of the table.

    The table's first two dimensions are taken as x and y; all remaining
    dimensions form the conditioning set.
    """
    if len(table.dims) < 2:
        raise DataError("slice marginals need a table with at least x and y dimensions")
    dx, dy = table.dims[0], table.dims[1]
    n_slices = math.prod(table.dims[2:])
    # [z, y, x] view of the flat buffer: z blocks are contiguous.
    arr = table.dense.reshape(n_slices, dy, dx)
    return SliceMarginals(
        dims_xy=(dx, dy),
        n_slices=n_slices,
        n_xz=_freeze(arr.sum(axis=1)),
        n_yz=_freeze(arr.sum(axis=2)),
        n_z=_freeze(arr.sum(axis=(1, 2))),
        total=table.total,
    )


def expected_ci(marginals: SliceMarginals) -> np.ndarray:
    """Expected frequencies under conditional independence, per slice.

    ``E[x, y, z] = N_{x+z} * N_{+yz} / N_{++z}``; slices with no
    observations get all-zero expectations.  The result is a flat float
    array in the source table's cell layout.
    """
    n_xz = marginals.n_xz.astype(np.float64)
    n_yz = marginals.n_yz.astype(np.float64)
    n_z = marginals.n_z.astype(np.float64)
    outer = n_xz[:, None, :] * n_yz[:, :, None]  # [z, y, x]
    denom = n_z[:, None, None]
    expected = np.divide(outer, denom, out=np.zeros_like(outer), where=denom > 0)
    return expected.reshape(-1)
