"""Delimited-text ingestion, serialization, and synthetic scenario generation.

File format: UTF-8 text (a leading byte-order mark is ignored), one
observation per row, fields split on a single delimiter character that is
not a line break (comma by default, no quoting — tokens must not contain
the delimiter), first line an optional header.  Columns are factorized to
0-based codes in first-appearance order.

The reader streams its input and reads it once.  It reads the bytes of a
file, a pipe or a binary stream (or a text stream's characters, as UTF-8)
about ``_CHUNK_BYTES`` at a time and decodes them as UTF-8, and carries each
chunk's last, partial line into the next.  A chunk's whole lines become one
numpy array of code points (uint8 for ASCII, uint32 otherwise), whose
delimiters and line breaks give the fields, which are checked.  Each
column's tokens are factorised by a mixed-radix code over their code points
built one offset at a time; once the tokens still being read are few or
long, they are sliced and finished as ``str`` dict keys instead.  The
chunk's ids become the column's codes by a ``str`` lookup of each id's
first token (or, in a mostly distinct column, by one merge of the
repeated labels at the end), kept per chunk in the narrowest unsigned
dtype that holds the labels so far, and widened once to int64.
Memory is the codes, the labels and one chunk's text and scratch (or one
line's, where a line is longer): no input is held whole, and no array
spans every line or field.  Reading is linear in the input's size.  The
numpy path pays per code point, so its gain over splitting lines with
``str.split`` is largest for short tokens (scripts/reader_shapes.py).

The generator is deterministic given (seed, config) via numpy's PCG64
stream, so datasets are bit-reproducible across platforms.
"""

from __future__ import annotations

import codecs
import math
from dataclasses import dataclass
from itertools import compress, repeat
from pathlib import Path
from typing import IO, Callable

import numpy as np

from . import tabulate
from .core import CategoricalColumn, DataError, Dataset

# Weight with which the dependent scenario pulls Y toward a deterministic
# function of X, breaking conditional independence.
DEPENDENT_MIX_WEIGHT = 0.3

_GEN_MODES = ("null_ci", "dependent")

# generate() draws a probability vector over X and one over Y for every
# nominal Z stratum; configurations whose tables would hold more entries
# than this (2 GiB of float64) are rejected rather than attempted.
_MAX_TABLE_ENTRIES = 1 << 28

# When _factorise stops extending token codes in numpy and finishes the
# tokens still being read as str keys of a dict: slicing and looking up one
# str token costs about as much as the fixed overhead of a numpy step over
# _STEP_TOKENS tokens, or as reading _CODE_POINTS_PER_TOKEN code points in
# numpy steps (x86-64, numpy 2.4; scripts/reader_shapes.py: numpy wins on
# 10-30 character labels, str on 40-80 character labels).
_STEP_TOKENS = 20
_CODE_POINTS_PER_TOKEN = 40

# _first_tokens searches this many tokens per id for the first token of each.
_HEAD_TOKENS_PER_ID = 16

# The reader reads about this many bytes (or a text stream's characters) at
# a time and takes the whole lines among them, so the lines read at every
# code-point offset stay in cache and the scratch stays small.
_CHUNK_BYTES = 1 << 20

# Tokens sliced from the text per block of Python int positions.
_SLICE_BLOCK = 1 << 16

# The line separators of str.splitlines.
_LINE_BREAKS = "\n\x0b\x0c\r\x1c\x1d\x1e\x85\u2028\u2029"


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


def _draw_categories(cdf: np.ndarray, strata: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One draw per row from its stratum's row of ``cdf``, cumulative probabilities."""
    u = rng.random(strata.size)
    draw = (u[:, None] > cdf[strata]).sum(axis=1)
    return np.minimum(draw, cdf.shape[1] - 1).astype(np.int64)


def _first_appearance_map(codes: np.ndarray, levels: int) -> np.ndarray:
    """Bijection on level codes sending first-appearance order to 0,1,2,..., unseen codes last."""
    mapping = np.empty(levels, dtype=np.int64)
    mapping[np.argsort(_first_tokens(codes, levels), kind="stable")] = np.arange(levels)
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

    # Each stratum's cumulative probabilities, summed in place.
    x = _draw_categories(np.cumsum(p_x, axis=1, out=p_x), z_index, rng)
    y = _draw_categories(np.cumsum(p_y, axis=1, out=p_y), z_index, rng)
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


def _first_duplicate(names: list[str]) -> str | None:
    """The first name that repeats an earlier one, or None."""
    seen: set[str] = set()
    for name in names:
        if name in seen:
            return name
        seen.add(name)
    return None


def _breaks_line(text: str) -> bool:
    """Whether ``text`` holds a line break, any separator of ``str.splitlines``."""
    return "".join(text.splitlines()) != text


def check_delimiter(delimiter: str) -> None:
    """Raise ValueError unless ``delimiter`` is one character that does not break lines."""
    if len(delimiter) != 1 or delimiter.splitlines() != [delimiter]:
        raise ValueError(
            f"delimiter must be one character that is not a line break, got {delimiter!r}"
        )


def _code_points(text: str) -> np.ndarray:
    """``text`` as one array of code points: uint8 for ASCII, uint32 otherwise."""
    if text.isascii():
        return np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    return np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)


def _line_breaks(chars: np.ndarray, top: int) -> np.ndarray:
    """Sorted positions of the code points in ``chars`` at which ``str.splitlines`` breaks.

    "\\r\\n" must already be one "\\n".  ``top`` is the largest code point.
    The breaks are U+000A..U+000D, U+001C..U+001E, U+0085, U+2028 and
    U+2029; the last three are only looked for when ``top`` reaches them.
    """
    candidate = chars <= 0x1E
    if top >= 0x85:
        candidate |= (chars == 0x85) | ((chars >= 0x2028) & (chars <= 0x2029))
    pos = np.flatnonzero(candidate)
    del candidate
    cp = chars[pos]
    return pos[((cp >= 0x0A) & (cp <= 0x0D)) | (cp >= 0x1C)]


def _line_ends(breaks: np.ndarray, size: int, final: bool) -> np.ndarray:
    """Where the whole lines of a text of ``size`` code points end, given its line breaks.

    Each line ends at its break, the last at ``ends[-1]``.  The text starts
    a line.  Unless it is the ``final`` text of the input, its whole lines
    are those that end before its last code point: a line that ends the
    text may be the input's trailing empty line.  In the final text, the
    final line break, and then one trailing empty line, are dropped.
    """
    if not final:
        return breaks[: np.searchsorted(breaks, size - 1)]
    if breaks.size and breaks[-1] == size - 1:
        breaks, size = breaks[:-1], size - 1
    if size == (int(breaks[-1]) + 1 if breaks.size else 0):
        return breaks
    return np.append(breaks, size)


def _alphabet(chars: np.ndarray, top: int, delimiter: str) -> tuple[np.ndarray, int, int]:
    """``chars`` renumbered to its distinct code points, their count, and the delimiter's number.

    ASCII code points are kept as they are.  Other text is renumbered so
    that the mixed-radix token codes of :func:`_factorise` grow by the size
    of the alphabet per code point, not by the largest code point.  A
    delimiter that is not in the text gets a number that no code point has.
    """
    sep = ord(delimiter)
    if top < 1 << 8:
        return chars, top + 1, sep
    blocks = range(0, chars.size, _CHUNK_BYTES)  # bounds numpy's intp copy of each index
    rank = np.zeros(top + 1, dtype=np.int64)
    for lo in blocks:
        rank[chars[lo : lo + _CHUNK_BYTES]] = 1
    present = sep <= top and rank[sep]
    np.cumsum(rank, out=rank)
    base = int(rank[-1])
    rank -= 1
    # Gathered in the result's dtype; "clip" (no index is out of range) skips take's buffer.
    table = rank.astype(np.uint16 if base <= 1 << 16 else np.uint32)
    dense = np.empty(chars.size, dtype=table.dtype)
    for lo in blocks:
        hi = lo + _CHUNK_BYTES
        np.take(table, chars[lo:hi], out=dense[lo:hi], mode="clip")
    return dense, base, int(rank[sep]) if present else base


def _fields(
    chars: np.ndarray, ends: np.ndarray, sep: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fields of whole lines of code points.

    Line ``l`` ends at ``ends[l]``, at a line break or, for the last line,
    at ``chars.size``; ``sep`` is the delimiter.  Returns ``(bounds,
    last_field, empty)``: field ``f`` is ``chars[bounds[f] + 1 : bounds[f +
    1]]``, fields run line after line, line ``l`` ends with field
    ``last_field[l]``, and ``empty`` holds where each empty field ends.
    """
    # is_sep[p + 1]: a field ends at p; a virtual one at -1 and at the end.
    is_sep = np.ones(chars.size + 2, dtype=bool)
    np.equal(chars, sep, out=is_sep[1:-1])
    is_sep[ends[:-1] + 1] = True
    empty = np.flatnonzero(is_sep[:-1] & is_sep[1:])
    bounds = np.flatnonzero(is_sep)
    del is_sep
    bounds -= 1
    last_field = np.append(np.flatnonzero(chars[bounds[1:-1]] != sep), bounds.size - 2)
    return bounds, last_field, empty


def _first_line_error(
    bounds: np.ndarray, last_field: np.ndarray, empty: np.ndarray, width: int, line0: int
) -> str | None:
    """Message for the first ragged row or empty field of some lines, or None if there is none.

    The lines are those of :func:`_fields` (``bounds``, ``last_field`` and
    ``empty``), and the first of them is line ``line0 + 1`` of the file.  A
    line is ragged when it does not have ``width`` fields; on one line a
    ragged row is reported before a missing value.
    """
    n_fields = np.diff(last_field, prepend=-1)
    ragged = np.flatnonzero(n_fields != width)
    if empty.size:
        field = int(np.searchsorted(bounds, empty[0])) - 1
        empty_line = int(np.searchsorted(last_field, field))
    else:
        empty_line = last_field.size
    if ragged.size and ragged[0] <= empty_line:
        line = int(ragged[0])
        return f"line {line0 + line + 1}: expected {width} fields, found {int(n_fields[line])}"
    if empty.size:
        first_field = int(last_field[empty_line - 1]) + 1 if empty_line else 0
        return f"line {line0 + empty_line + 1}: missing value in field {field - first_field + 1}"
    return None


def _slices(text: str, starts: np.ndarray, stops: np.ndarray) -> list[str]:
    """``text[starts[k]:stops[k]]`` for every k.

    Positions become Python ints a block at a time; as whole lists they
    would take more memory than short tokens themselves.
    """
    out: list[str] = []
    for lo in range(0, starts.size, _SLICE_BLOCK):
        hi = lo + _SLICE_BLOCK
        out += map(text.__getitem__, map(slice, starts[lo:hi].tolist(), stops[lo:hi].tolist()))
    return out


def _str_ids(text: str, starts: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, int]:
    """Ids of the tokens ``text[starts[k]:stops[k]]`` as ``str`` dict keys, and their count."""
    keys = _slices(text, starts, stops)
    index = {key: j for j, key in enumerate(dict.fromkeys(keys))}
    return np.fromiter(map(index.__getitem__, keys), np.int64, len(keys)), len(index)


def _reads_as_str(n: int, steps: int, code_points: int) -> bool:
    """Whether ``n`` tokens are cheaper to finish as ``str`` than in ``steps`` numpy steps."""
    return n <= _STEP_TOKENS * steps + code_points // _CODE_POINTS_PER_TOKEN


def _factorise(
    text: str, chars: np.ndarray, base: int, starts: np.ndarray, stops: np.ndarray
) -> tuple[np.ndarray, int]:
    """Factorise the non-empty tokens ``text[starts[k]:stops[k]]``.

    ``chars`` holds the code points of ``text`` as numbers below ``base``.
    Returns each token's id and a bound on the ids, at most the number of
    tokens: two tokens have the same id exactly when they are equal, and
    some ids below the bound may go unused.  The tokens are ordered longest
    first, so the tokens longer than ``i`` are always a prefix.  At each
    offset ``i`` they extend a mixed-radix code by their code point at
    ``i``, re-compressed to its distinct values before its radix outgrows a
    bincount over them.  Tokens that end at ``i`` take ids past those of
    shorter tokens, so equal ids mean equal tokens, and the work at ``i``
    touches only the tokens longer than ``i``: O(code points) in all.  Once
    those tokens all have distinct codes they are done; once they are few
    or long enough that slicing them as ``str`` costs less than the steps
    left (:func:`_reads_as_str`), they are finished as dict keys.
    """
    n = starts.size
    lengths = stops - starts
    longest = int(lengths.max())
    if _reads_as_str(n, longest, int(lengths.sum())):
        return _str_ids(text, starts, stops)
    if int(lengths.min()) == longest:
        order = None
        longer = np.zeros(longest + 1, dtype=np.int64)
        longer[:-1] = n  # tokens longer than i
    else:
        key = longest - lengths
        order = np.argsort(key.astype(np.uint16) if longest < 1 << 16 else key, kind="stable")
        del key
        starts, stops = starts[order], stops[order]
        longer = n - np.cumsum(np.bincount(lengths[order], minlength=longest + 1))
    del lengths
    rest = np.cumsum(longer[::-1])[::-1].tolist()  # their code points at offsets i and on
    longer = longer.tolist()
    ids = np.empty(n, dtype=np.int64)
    code = np.take(chars, starts).astype(np.int64)
    radix, n_ids, m = base, 0, n
    for i in range(1, longest + 1):
        if longer[i] < m:  # tokens longer[i] : m end at i
            np.add(code[longer[i] : m], n_ids, out=ids[longer[i] : m])
            n_ids += radix
            m = longer[i]
            if m == 0:  # no token is longer than i
                break
        if radix > m or radix * base > tabulate._BINCOUNT_SPAN * m:
            values, _, code = tabulate._count_distinct(code[:m], radix, inverse=True)
            radix = values.size
            if radix == m:  # told apart: the code points left change nothing
                np.add(code, n_ids, out=ids[:m])
                n_ids += m
                break
        if _reads_as_str(m, longest - i, rest[i]):
            str_ids, n_str = _str_ids(text, starts[:m], stops[:m])
            np.add(str_ids, n_ids, out=ids[:m])
            n_ids += n_str
            break
        active = code[:m]
        active *= base
        active += np.take(chars[i:], starts[:m])
        radix *= base
    del code, starts, stops
    if n_ids > n:  # leave at most n unused ids
        values, _, ids = tabulate._count_distinct(ids, n_ids, inverse=True)
        n_ids = values.size
        del values
    if order is not None:
        row_ids = np.empty(n, dtype=np.int64)
        row_ids[order] = ids
        ids = row_ids
        del row_ids, order
    return ids, n_ids


def _first_tokens(ids: np.ndarray, n_ids: int) -> np.ndarray:
    """Each id's first position in ``ids``, or ``ids.size`` for an id that never occurs.

    It alone gives first-appearance order: of a chunk's token ids in
    :class:`_Column` and of :func:`generate`'s codes.  Where ids are few
    they all occur, as a rule, among the first ``_HEAD_TOKENS_PER_ID``
    tokens per id: that head is searched, and the rest only checked for ids
    it missed, about a third of the cost of ``np.minimum.at`` over the
    rest.  That runs where ids are many, or where the head misses one.
    """
    n = ids.size
    first = np.full(n_ids, n, dtype=np.int64)
    head = _HEAD_TOKENS_PER_ID * n_ids
    if head < n:
        values, index = np.unique(ids[:head], return_index=True)
        first[values] = index
        if np.take(first < n, ids[head:]).all():
            return first
    else:
        head = 0
    np.minimum.at(first, ids[head:], np.arange(head, n))
    return first


class _Text:
    """The text of a source of UTF-8 bytes, read a piece at a time.

    The bytes are decoded as they are read; invalid UTF-8 raises DataError
    at its byte offset in the source.  Pieces come without a leading
    byte-order mark and with each "\\r\\n" as one line break, also where a
    piece ends between the two.
    """

    def __init__(self, read: Callable[[int], bytes], name: str) -> None:
        self._read = read  # read(size) of the source, empty at its end
        self._name = name  # the source's name, for errors
        self._bytes = b""  # the bytes read but not yet decoded
        self._offset = 0  # their offset in the source
        self._first = True  # no text has come yet
        self._cr = False  # the text so far ends with "\r"
        self.done = False

    def read(self, size: int) -> str:
        """The next piece of text, from about ``size`` more bytes."""
        chunk = self._read(size)
        self.done = not chunk
        data = self._bytes + chunk
        try:
            piece, used = codecs.utf_8_decode(data, "strict", self.done)
        except UnicodeDecodeError as err:
            raise DataError(
                f"cannot read {self._name}: invalid UTF-8 at byte {self._offset + err.start}"
            ) from err
        self._bytes = data[used:]  # a code point that the chunk cut
        self._offset += used
        if piece:
            if self._first:
                piece = piece.removeprefix("\ufeff")
            if self._cr and piece.startswith("\n"):  # the rest of "\r\n"
                piece = piece[1:]
            self._first, self._cr = False, piece.endswith("\r")
            if "\r" in piece:
                piece = piece.replace("\r\n", "\n")
        return piece


def _utf8(piece: str | bytes, name: str) -> bytes:
    """A piece of a text or binary stream as UTF-8 bytes; a lone surrogate raises DataError."""
    if isinstance(piece, bytes):
        return piece
    try:
        return piece.encode("utf-8")
    except UnicodeEncodeError as err:
        raise DataError(f"cannot read {name}: lone surrogate {piece[err.start]!r}") from err


def _merge(labels: list[str]) -> tuple[np.ndarray, list[str]] | None:
    """Each label's code among the distinct ``labels``, in order of first appearance, and those.

    Only labels whose hash another label shares are compared, as ``str``
    dict keys.  Returns None when the labels are distinct.
    """
    n = len(labels)
    hashes = np.fromiter(map(hash, labels), np.int64, n)
    ordered = np.sort(hashes)
    repeats = np.unique(ordered[1:][ordered[1:] == ordered[:-1]])  # the hashes labels share
    del ordered
    if not repeats.size:
        return None
    at = np.minimum(np.searchsorted(repeats, hashes), repeats.size - 1)
    shared = np.flatnonzero(repeats[at] == hashes).tolist()
    del hashes, at
    first = np.arange(n)  # each label's first equal label
    seen: dict[str, int] = {}
    first[shared] = list(map(seen.setdefault, map(labels.__getitem__, shared), shared))
    distinct = first == np.arange(n)
    return (np.cumsum(distinct) - 1)[first], list(compress(labels, distinct))


class _Column:
    """One column's codes, an array per chunk widened once at the end, and its labels.

    Each chunk's tokens are factorised on their own into ids, and the ids,
    ordered by their first tokens (:func:`_first_tokens`), give the chunk's
    labels in first-appearance order.  Looking up those first tokens as
    ``str`` in the labels seen so far gives a table from the chunk's ids to
    the column's codes, kept in the narrowest unsigned dtype that holds
    every label seen so far (one byte a row for up to 255 labels), through
    which the chunk's ids are mapped once.  A column whose first chunk is
    more than half distinct (ids) skips the lookup: each chunk's first
    tokens join the labels as they are, and the labels that repeat are
    merged once, at the end (:func:`_merge`).  Looking up nearly every token
    in a dict that grows to hold them all would take 50-70% more time and
    some 33 MB more memory on 500k distinct ids or UUIDs
    (scripts/reader_shapes.py).
    """

    def __init__(self) -> None:
        self.chunks: list[np.ndarray] = []  # each chunk's codes
        self.labels: list[str] = []  # in order of first appearance, repeats until merged
        self.index: dict[str, int] | None = {}  # each label's code; None: merged at the end

    def add(self, text: str, chars: np.ndarray, base: int,
            starts: np.ndarray, stops: np.ndarray) -> None:
        """Read the tokens ``text[starts[k]:stops[k]]`` of the next rows."""
        ids, n_ids = _factorise(text, chars, base, starts, stops)
        first = _first_tokens(ids, n_ids)
        seen = np.argsort(first)[: np.count_nonzero(first < ids.size)]  # ids by first token
        tokens = _slices(text, starts[first[seen]], stops[first[seen]])
        known = len(self.labels)
        if not known and 2 * len(tokens) > ids.size:
            self.index = None
        if self.index is None:
            codes = np.arange(known, known + len(tokens))
        else:
            codes = np.fromiter(map(self.index.get, tokens, repeat(-1)), np.int64, len(tokens))
            new = np.flatnonzero(codes < 0)
            codes[new] = np.arange(known, known + new.size)
            tokens = list(map(tokens.__getitem__, new.tolist()))
            self.index.update(zip(tokens, range(known, known + new.size)))
        self.labels += tokens
        lookup = np.zeros(n_ids, dtype=np.min_scalar_type(len(self.labels)))  # unused ids: 0
        lookup[seen] = codes
        self.chunks.append(np.take(lookup, ids))

    def column(self, name: str) -> CategoricalColumn:
        """The finished column, whose int64 codes join every chunk's."""
        codes = np.concatenate(self.chunks, dtype=np.int64)
        labels, merge = self.labels, self.index is None
        self.chunks = self.labels = self.index = None
        merged = _merge(labels) if merge else None
        if merged is not None:
            remap, labels = merged
            for lo in range(0, codes.size, _SLICE_BLOCK):
                block = codes[lo : lo + _SLICE_BLOCK]
                block[:] = remap[block]
        return CategoricalColumn._owning(name, codes, tuple(labels))


class _Table:
    """The columns of the whole lines read so far, and their names."""

    def __init__(self, delimiter: str, has_header: bool) -> None:
        self.delimiter = delimiter
        self.has_header = has_header
        self.names: list[str] | None = None
        self.columns: list[_Column] = []
        self.lines = self.rows = 0

    def add(self, text: str, final: bool) -> str:
        """Read the whole lines of ``text``, which starts a line; returns the text after them.

        ``final`` marks the input's last text.  Raises DataError for the
        first ragged row or empty field.
        """
        chars = _code_points(text)
        top = int(chars.max()) if chars.size else 0
        ends = _line_ends(_line_breaks(chars, top), chars.size, final)
        if not ends.size:
            return text
        chars, base, sep = _alphabet(chars[: int(ends[-1])], top, self.delimiter)
        bounds, last_field, empty = _fields(chars, ends, sep)
        if not self.lines:
            self.columns = [_Column() for _ in range(int(last_field[0]) + 1)]
        width = len(self.columns)
        error = _first_line_error(bounds, last_field, empty, width, self.lines)
        if error is not None:
            raise DataError(error)
        del last_field, empty
        first = 0
        if not self.lines and self.has_header:
            self.names = _slices(text, bounds[:width] + 1, bounds[1 : width + 1])
            first = width
        n = (bounds.size - 1 - first) // width
        if n:
            for field, column in enumerate(self.columns, start=first):
                column.add(text, chars, base, bounds[field:-1:width] + 1,
                           bounds[field + 1 :: width])
        self.lines += ends.size
        self.rows += n
        return text[int(ends[-1]) + 1 :]

    def dataset(self) -> Dataset:
        if self.names is None:
            names = [f"V{j + 1}" for j in range(len(self.columns))]
        else:
            names = self.names
            dup = _first_duplicate(names)
            if dup is not None:
                raise DataError(f"duplicate column name {dup!r} in header")
        if not self.rows:
            raise DataError("empty input: no data rows")
        return Dataset(n_rows=self.rows, columns=tuple(
            column.column(name) for column, name in zip(self.columns, names)))


def _read(text: _Text, table: _Table) -> Dataset:
    """Read ``text`` into ``table`` a chunk at a time, carrying each chunk's last line on."""
    tail = ""
    blank = True  # the text so far is all line breaks
    while not text.done:
        chunk = tail + text.read(max(_CHUNK_BYTES, len(tail)))  # a long line is read in doublings
        blank = blank and not chunk.strip(_LINE_BREAKS)
        if blank and text.done:
            raise DataError("empty input")
        try:
            tail = table.add(chunk, text.done)
        except DataError:
            while not text.done:  # invalid UTF-8 and empty input are reported first
                piece = text.read(_CHUNK_BYTES)
                blank = blank and not piece.strip(_LINE_BREAKS)
            if blank:
                raise DataError("empty input") from None
            raise
    return table.dataset()


def read_delimited(
    source: str | Path | IO[str] | IO[bytes],
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

    The input is streamed and read once, whatever it is: a file, a file
    that cannot seek such as a pipe, or a text or binary stream, read from
    where it stands (a text stream as UTF-8; its lone surrogate is a
    DataError).  About ``_CHUNK_BYTES`` of it are read at a time, and each
    chunk's whole lines are split, checked and factorised column by column
    into narrow per-chunk codes, widened once to one int64 array per
    column at the end.  Memory is the codes, the labels and one chunk's
    text and scratch (or one line's, where a line is longer).  Time is
    linear in the input's length (see the module docstring).
    """
    check_delimiter(delimiter)
    table = _Table(delimiter, has_header)
    if hasattr(source, "read"):
        name = str(getattr(source, "name", "<stream>"))
        return _read(_Text(lambda size: _utf8(source.read(size), name), name), table)
    try:
        with open(source, "rb") as file:
            return _read(_Text(file.read, str(source)), table)
    except OSError as err:
        raise DataError(f"cannot read {source}: {err}") from err


def write_delimited(
    data: Dataset,
    dest: str | Path | IO[str],
    *,
    delimiter: str = ",",
) -> None:
    """Serialize ``data`` with a header row; inverse of :func:`read_delimited`.

    Values are written as the original labels when present, decimal codes
    otherwise.  Raises ValueError for a delimiter :func:`read_delimited`
    rejects, and DataError for what it would not read back: an empty or
    duplicate column name, a first column name that starts with a
    byte-order mark, and a column name or label that is empty or contains
    the delimiter or a line break (there is no quoting).
    """
    check_delimiter(delimiter)
    names = [col.name for col in data.columns]
    dup = _first_duplicate(names)
    if dup is not None:
        raise DataError(f"duplicate column name {dup!r}")
    if names and names[0].startswith("\ufeff"):
        raise DataError(f"column name {names[0]!r} starts with a byte-order mark")
    for name in names:
        if not name:
            raise DataError("empty column name")
        if delimiter in name:
            raise DataError(f"column name {name!r} contains the delimiter")
        if _breaks_line(name):
            raise DataError(f"column name {name!r} contains a line break")
    for col in data.columns:
        for tok in col.labels or ():
            if not tok:
                raise DataError(f"column {col.name!r}: empty token")
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
