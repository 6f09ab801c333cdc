"""Streaming row-echelon accumulators over small prime fields.

Rows are inserted one at a time and reduced against the pivots found so
far, so the rank of any prefix of the insertion order can be read off
mid-stream.

Pivots are kept in a map from pivot column to pivot row, in insertion
order. A pivot row's lowest nonzero entry is its column, where it holds
a 1, and it is zero at every pivot column found before it.

One reduction rule serves every field: clear the pivot columns a row
meets in ascending order. Clearing column c adds a multiple of c's pivot
row, which is zero below c, so no column already cleared is touched and
each pivot column is visited at most once. The reduced row is the unique
member of ``row + span(pivots)`` that is zero at every pivot column, so
every field and every visiting order agree on it.

Each field supplies four primitives, the steps that depend on its row
form: ``pack`` (rows to that form), the reduction kernel
``_reduce(row, mask)`` over the pivot columns in ``mask``, and ``_lead``
and ``_unit`` (find a reduced row's pivot column and scale it to 1
there). GF(2) rows are packed into single Python integers and GF(3) rows
into two bitplanes, so a whole-row operation costs a handful of big-int
ops. Other primes keep a row's nonzero entries in a dict and do
arithmetic on Python ints, which is exact for any p. All of them give
identical results.

The elimination computes ranks only. The package's one nonsingularity
certificate is the field-free peel of :mod:`airindex._peel`; an
integer determinant is :func:`airindex.linalg.det_exact`.

This is the package's one GF(p) elimination.
:func:`airindex.linalg.rank_mod_p` and the window verifier insert rows
and read ranks. The codec reaches it only through :mod:`airindex.linalg`,
for a receiver its peel does not certify: one elimination gives that
receiver's rank before and after its wanted rows are inserted.

Every engine converts rows to its own form with ``pack(rows)`` and
accumulates them with ``insert_packed(rows)``; ``insert`` is exactly
``insert_packed(pack(rows))``. A caller that inserts the same rows into
many accumulators of one width and field packs them once and passes
slices of the packed rows. Packed rows are never modified, so they can
be shared.
"""

from __future__ import annotations

import numpy as np


def _rows(rows, p: int) -> np.ndarray:
    """``rows`` mod p as a 2-D int64 array; a 1-D ``rows`` is one row."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim == 1:
        rows = rows[None]
    # the division is the costly step and encoder rows are already reduced;
    # read as unsigned, a negative entry is out of range too
    if rows.view(np.uint64).max(initial=0) >= p:
        rows = rows % p
    return rows


def _pack_rows(bits: np.ndarray) -> list[int]:
    """One int per row of a 2-D bool array."""
    # little-endian: bit i of the r-th int is bits[r, i]
    packed = np.packbits(bits, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _low_bit(x: int) -> int:
    """Index of the lowest set bit of ``x``; -1 when ``x`` is 0."""
    return (x & -x).bit_length() - 1


class _Echelon:
    """The accumulator contract; each field supplies the row form."""

    p: int

    def __init__(self, cols: int):
        self.cols = cols
        self._pivots: dict = {}  # pivot column -> row
        self._pivot_mask = 0

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def _insert_one(self, row) -> bool:
        row = self._reduce(row, self._pivot_mask)
        c = self._lead(row)
        if c < 0:
            return False
        self._pivots[c] = self._unit(row, c)
        self._pivot_mask |= 1 << c
        return True

    def insert_packed(self, rows) -> int:
        return sum(map(self._insert_one, rows))

    def insert(self, rows) -> int:
        return self.insert_packed(self.pack(rows))


class _EchelonGF2(_Echelon):
    p = 2

    def pack(self, rows) -> list[int]:
        return _pack_rows(_rows(rows, 2) != 0)

    def _reduce(self, row: int, mask: int) -> int:
        pivots = self._pivots
        hit = row & mask
        while hit:
            row ^= pivots[(hit & -hit).bit_length() - 1]
            hit = row & mask
        return row

    def _lead(self, row: int) -> int:
        return _low_bit(row)

    def _unit(self, row: int, c: int) -> int:
        return row


class _EchelonGF3(_Echelon):
    # values live in two disjoint bitplanes: 1 -> lo bit, 2 -> hi bit
    p = 3

    def __init__(self, cols: int):
        super().__init__(cols)
        self._mask = (1 << cols) - 1

    def pack(self, rows) -> list[tuple[int, int]]:
        v = _rows(rows, 3)
        return list(zip(_pack_rows(v == 1), _pack_rows(v == 2)))

    def _reduce(self, row: tuple[int, int], mask: int) -> tuple[int, int]:
        lo, hi = row
        pivots, full = self._pivots, self._mask
        hit = (lo | hi) & mask
        while hit:
            low = hit & -hit
            plo, phi = pivots[low.bit_length() - 1]
            if lo & low:
                plo, phi = phi, plo  # subtract the pivot row: add twice it
            # else subtract twice the pivot row: add it once
            # componentwise sum mod 3 of disjoint-bitplane words
            za = full ^ (lo | hi)
            zb = full ^ (plo | phi)
            twos = lo & plo
            ones = hi & phi
            lo, hi = (lo & zb) | (za & plo) | ones, (hi & zb) | (za & phi) | twos
            hit = (lo | hi) & mask
        return lo, hi

    def _lead(self, row: tuple[int, int]) -> int:
        return _low_bit(row[0] | row[1])

    def _unit(self, row: tuple[int, int], c: int) -> tuple[int, int]:
        lo, hi = row
        if hi >> c & 1:
            return hi, lo  # scale by 2 so the pivot entry is 1
        return row


class _EchelonGeneric(_Echelon):
    # rows are sparse: a dict from column to nonzero entry; AIR rows have
    # at most 3 ones and their pivot rows stay about as sparse

    def __init__(self, cols: int, p: int):
        super().__init__(cols)
        self.p = p

    def pack(self, rows) -> list[dict[int, int]]:
        v = _rows(rows, self.p)
        packed: list[dict[int, int]] = [{} for _ in range(v.shape[0])]
        rows, cols = np.nonzero(v)
        for r, c, x in zip(rows.tolist(), cols.tolist(), v[rows, cols].tolist()):
            packed[r][c] = x
        return packed

    def _reduce(self, row: dict[int, int], mask: int) -> dict[int, int]:
        pivots, p = self._pivots, self.p
        hit = sum(1 << c for c in row) & mask
        if hit:
            row = dict(row)  # packed rows are shared
        while hit:
            low = hit & -hit
            c = low.bit_length() - 1
            f = row.get(c)
            if f:
                touched = 0
                for j, y in pivots[c].items():
                    x = (row.get(j, 0) - f * y) % p  # exact: Python ints
                    if x:
                        row[j] = x
                    else:
                        del row[j]
                    touched |= 1 << j
                # a touched column that cancelled is visited and skipped
                hit |= touched & mask
            hit ^= low
        return row

    def _lead(self, row: dict[int, int]) -> int:
        return min(row, default=-1)

    def _unit(self, row: dict[int, int], c: int) -> dict[int, int]:
        inv, p = pow(row[c], -1, self.p), self.p
        return {j: x * inv % p for j, x in row.items()}


def stream_echelon(cols: int, p: int) -> _Echelon:
    """Echelon accumulator for width ``cols`` rows over GF(p).

    Picks the packed implementation for p in {2, 3}, sparse rows
    otherwise. ``insert(rows)`` adds one row, or the rows of a 2-D block
    in order (packed in one call), and returns how many of them raised
    the rank; ``insert_packed`` does the same for rows ``pack`` already
    converted, on any accumulator of the same width and field.
    """
    if p == 2:
        return _EchelonGF2(cols)
    if p == 3:
        return _EchelonGF3(cols)
    return _EchelonGeneric(cols, p)
