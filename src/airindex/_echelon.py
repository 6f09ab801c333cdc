"""Streaming row-echelon accumulators over small prime fields.

Rows are inserted one at a time and reduced against the pivots found so
far, so the rank of any prefix of the insertion order can be read off
mid-stream. Each row may carry auxiliary bookkeeping columns that ride
along under the same row operations; reducing a fresh vector against the
accumulated pivots reports whether it lies in their row space and what
auxiliary combination expresses it.

Pivots are kept in a map from pivot column to pivot row. A pivot row's
lowest nonzero main entry is its column, where it holds a 1, and it is
zero at every pivot column found before it. The packed engines reduce a
row by clearing its lowest pivot column, then the next one, until none
is left, so they visit only the pivot columns present in the row, not
every pivot; the numpy engine checks each pivot in insertion order. The
reduced row is the unique member of ``row + span(pivots)`` that is zero
at every pivot column, so all engines and visiting orders agree.

``solved_form()`` back-reduces the pivot rows in descending pivot-column
order until each is zero at every pivot column but its own. It returns
the pivot columns in ascending order and the matching aux parts, so a
matrix T that is zero off the pivot columns and equals those aux parts on
them satisfies ``main @ T == aux`` for every pivot row and every
combination of pivot rows. When the aux columns track which inserted
rows each pivot row combines, T is read off directly, with no solve.

GF(2) rows are packed into single Python integers and GF(3) rows into two
bitplanes, so a whole-row operation costs a handful of big-int ops; other
primes use plain numpy vectors. All three give identical results. The
numpy engine multiplies entries below p in int64, so it is exact only
while ``(p-1)**2 < 2**63``; its callers enforce that bound.

The GF(3) engine also certifies integer determinants. Read GF(3) in
balanced form {-1, 0, 1}: clearing a pivot column is ``row - pivot`` or
``row + pivot``, and the plane swap that makes a pivot entry 1 is a
negation. These are integer row operations, exact over Z unless a cell
wraps (1 + 1 or (-1) + (-1)). The engine keeps a sticky mask of every
cell that wrapped and a count of the negations. If the rows that raised
the rank had entries in {-1, 0, 1}, fill every main column and no main
column ever wrapped, the pivot rows are those rows times a unit lower
triangular matrix and a diagonal of signs, and sorted by pivot column
they are unit upper triangular. Their determinant is therefore
``(-1)**negations`` times the sign of the permutation from insertion
order to pivot column; ``unimodular_det()`` returns it, or ``None``.
The mask covers every reduction, ``reduce()`` included, so a stray wrap
can only withdraw a certificate, never grant one.

This is the package's one GF(p) elimination: the codec's receiver plans
and :func:`airindex.linalg.rank_mod_p` both run on it.

Every engine converts rows to its own form with ``pack(main, aux=None)``
and accumulates them with ``insert_packed(rows)``; ``insert`` is exactly
``insert_packed(pack(main, aux))``. A caller that inserts the same rows
into many accumulators of one width and field packs them once and passes
slices of the packed rows. Packed rows are never modified, so they can be
shared. Rows packed without aux columns carry zeros there.
"""

from __future__ import annotations

import numpy as np


def _rows(main, aux, p: int) -> np.ndarray:
    """[main | aux] mod p as a 2-D int64 array; a 1-D ``main`` is one row."""
    rows = np.asarray(main, dtype=np.int64)
    if aux is not None:
        rows = np.hstack([rows, np.asarray(aux, dtype=np.int64)])
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


def _unpack_rows(words: list[int], width: int) -> np.ndarray:
    """(len(words), width) 0/1 array; row i holds the low bits of words[i]."""
    nbytes = max(1, (width + 7) // 8)
    raw = b"".join(w.to_bytes(nbytes, "little") for w in words)
    grid = np.frombuffer(raw, dtype=np.uint8).reshape(len(words), nbytes)
    bits = np.unpackbits(grid, axis=1, bitorder="little")
    return bits[:, :width].astype(np.int64)


def _unpack_bits(x: int, width: int) -> np.ndarray:
    return _unpack_rows([x], width)[0]


class _EchelonGF2:
    p = 2

    def __init__(self, main_cols: int, aux_cols: int):
        self.main_cols = main_cols
        self.aux_cols = aux_cols
        self._main_mask = (1 << main_cols) - 1
        self._pivots: dict[int, int] = {}  # pivot column -> packed row
        self._pivot_mask = 0

    @property
    def rank(self) -> int:
        return len(self._pivots)

    @property
    def pivot_cols(self) -> list[int]:
        return list(self._pivots)

    def pack(self, main, aux=None) -> list[int]:
        return _pack_rows(_rows(main, aux, 2) != 0)

    def _reduce_packed(self, row: int) -> int:
        pivots, mask = self._pivots, self._pivot_mask
        hit = row & mask
        while hit:
            row ^= pivots[(hit & -hit).bit_length() - 1]
            hit = row & mask
        return row

    def _insert_one(self, row: int) -> bool:
        row = self._reduce_packed(row)
        lead = row & self._main_mask
        if lead == 0:
            return False
        lead &= -lead
        self._pivots[lead.bit_length() - 1] = row
        self._pivot_mask |= lead
        return True

    def insert_packed(self, rows: list[int]) -> int:
        return sum(map(self._insert_one, rows))

    def insert(self, main, aux=None) -> int:
        return self.insert_packed(self.pack(main, aux))

    def reduce(self, main, aux=None) -> tuple[bool, np.ndarray]:
        row = self._reduce_packed(self.pack(main, aux)[0])
        aux_out = _unpack_bits(row >> self.main_cols, self.aux_cols)
        return (row & self._main_mask) == 0, aux_out

    def solved_form(self) -> tuple[np.ndarray, np.ndarray]:
        cols = sorted(self._pivots)
        solved: dict[int, int] = {}
        for c in reversed(cols):
            row = self._pivots[c]
            # solved rows are zero at every other pivot column, so clearing
            # one of these bits never sets or clears another
            hit = (row & self._pivot_mask) ^ (1 << c)
            while hit:
                low = hit & -hit
                row ^= solved[low.bit_length() - 1]
                hit ^= low
            solved[c] = row
        aux = _unpack_rows([solved[c] >> self.main_cols for c in cols], self.aux_cols)
        return np.array(cols, dtype=np.int64), aux


class _EchelonGF3:
    # values live in two disjoint bitplanes: 1 -> lo bit, 2 -> hi bit
    p = 3

    def __init__(self, main_cols: int, aux_cols: int):
        self.main_cols = main_cols
        self.aux_cols = aux_cols
        self._main_mask = (1 << main_cols) - 1
        self._mask = (1 << (main_cols + aux_cols)) - 1
        self._pivots: dict[int, tuple[int, int]] = {}  # pivot column -> (lo, hi)
        self._pivot_mask = 0
        self._wrapped = 0  # every cell where a reduction added 1+1 or 2+2
        self._negations = 0  # pivot rows scaled by 2 on insertion

    @property
    def rank(self) -> int:
        return len(self._pivots)

    @property
    def pivot_cols(self) -> list[int]:
        return list(self._pivots)

    def pack(self, main, aux=None) -> list[tuple[int, int]]:
        v = _rows(main, aux, 3)
        return list(zip(_pack_rows(v == 1), _pack_rows(v == 2)))

    def _clear(self, lo: int, hi: int, bit: int, plo: int, phi: int) -> tuple[int, int]:
        # zero the entry at ``bit`` with the pivot row whose entry there is 1
        if lo & bit:
            plo, phi = phi, plo  # subtract the pivot row: add twice it
        # else subtract twice the pivot row: add it once
        # componentwise sum mod 3 of disjoint-bitplane words
        za = self._mask ^ (lo | hi)
        zb = self._mask ^ (plo | phi)
        return (lo & zb) | (za & plo) | (hi & phi), (hi & zb) | (za & phi) | (lo & plo)

    def _reduce_packed(self, lo: int, hi: int) -> tuple[int, int]:
        # _clear inlined: this loop is the hot path of every GF(3) plan and
        # window, and the wrap bits (1 + 1, 2 + 2) come for free here
        pivots, mask, full = self._pivots, self._pivot_mask, self._mask
        wrapped = 0
        hit = (lo | hi) & mask
        while hit:
            low = hit & -hit
            plo, phi = pivots[low.bit_length() - 1]
            if lo & low:
                plo, phi = phi, plo  # subtract the pivot row: add twice it
            za = full ^ (lo | hi)
            zb = full ^ (plo | phi)
            twos = lo & plo
            ones = hi & phi
            lo, hi = (lo & zb) | (za & plo) | ones, (hi & zb) | (za & phi) | twos
            wrapped |= twos | ones
            hit = (lo | hi) & mask
        self._wrapped |= wrapped
        return lo, hi

    def _insert_one(self, row: tuple[int, int]) -> bool:
        lo, hi = self._reduce_packed(*row)
        lead = (lo | hi) & self._main_mask
        if lead == 0:
            return False
        lead &= -lead
        if hi & lead:
            lo, hi = hi, lo  # scale by 2 so the pivot entry is 1
            self._negations += 1
        self._pivots[lead.bit_length() - 1] = (lo, hi)
        self._pivot_mask |= lead
        return True

    def unimodular_det(self) -> int | None:
        """Integer determinant of the rows that raised the rank, when proven.

        Valid for rows inserted with entries in {-1, 0, 1}, read as
        integers in insertion order. Returns +-1 when they fill every main
        column and no main column wrapped (see the module docstring);
        ``None`` when the run proves nothing.
        """
        if self.rank != self.main_cols or self._wrapped & self._main_mask:
            return None
        sign = -1 if self._negations % 2 else 1
        # sort insertion order into pivot-column order; each swap flips the sign
        cols = list(self._pivots)
        for i in range(len(cols)):
            while cols[i] != i:
                j = cols[i]
                cols[i], cols[j] = cols[j], j
                sign = -sign
        return sign

    def insert_packed(self, rows: list[tuple[int, int]]) -> int:
        return sum(map(self._insert_one, rows))

    def insert(self, main, aux=None) -> int:
        return self.insert_packed(self.pack(main, aux))

    def reduce(self, main, aux=None) -> tuple[bool, np.ndarray]:
        lo, hi = self._reduce_packed(*self.pack(main, aux)[0])
        aux_out = _unpack_bits(lo >> self.main_cols, self.aux_cols) + 2 * _unpack_bits(
            hi >> self.main_cols, self.aux_cols
        )
        return ((lo | hi) & self._main_mask) == 0, aux_out

    def solved_form(self) -> tuple[np.ndarray, np.ndarray]:
        cols = sorted(self._pivots)
        solved: dict[int, tuple[int, int]] = {}
        for c in reversed(cols):
            lo, hi = self._pivots[c]
            # as in GF(2): each step touches no other pivot column
            hit = ((lo | hi) & self._pivot_mask) ^ (1 << c)
            while hit:
                low = hit & -hit
                lo, hi = self._clear(lo, hi, low, *solved[low.bit_length() - 1])
                hit ^= low
            solved[c] = (lo, hi)
        shift = self.main_cols
        lo_aux = _unpack_rows([solved[c][0] >> shift for c in cols], self.aux_cols)
        hi_aux = _unpack_rows([solved[c][1] >> shift for c in cols], self.aux_cols)
        return np.array(cols, dtype=np.int64), lo_aux + 2 * hi_aux


class _EchelonGeneric:
    def __init__(self, main_cols: int, aux_cols: int, p: int):
        self.p = p
        self.main_cols = main_cols
        self.aux_cols = aux_cols
        self._pivots: dict[int, np.ndarray] = {}  # pivot column -> row

    @property
    def rank(self) -> int:
        return len(self._pivots)

    @property
    def pivot_cols(self) -> list[int]:
        return list(self._pivots)

    def pack(self, main, aux=None) -> np.ndarray:
        v = _rows(main, aux, self.p)
        out = np.zeros((v.shape[0], self.main_cols + self.aux_cols), dtype=np.int64)
        out[:, : v.shape[1]] = v
        return out

    def _reduce_vec(self, v: np.ndarray) -> np.ndarray:
        # insertion order: a later pivot row is zero at every earlier
        # pivot column, so each column is cleared once and stays clear
        for c, prow in self._pivots.items():
            f = int(v[c])
            if f:
                v = (v - f * prow) % self.p
        return v

    def _insert_one(self, v: np.ndarray) -> bool:
        v = self._reduce_vec(v)
        lead = np.nonzero(v[: self.main_cols])[0]
        if lead.size == 0:
            return False
        c = int(lead[0])
        self._pivots[c] = v * pow(int(v[c]), -1, self.p) % self.p
        return True

    def insert_packed(self, rows: np.ndarray) -> int:
        return sum(map(self._insert_one, rows))

    def insert(self, main, aux=None) -> int:
        return self.insert_packed(self.pack(main, aux))

    def reduce(self, main, aux=None) -> tuple[bool, np.ndarray]:
        v = self._reduce_vec(self.pack(main, aux)[0])
        return not np.any(v[: self.main_cols]), v[self.main_cols :]

    def solved_form(self) -> tuple[np.ndarray, np.ndarray]:
        cols = sorted(self._pivots)
        if not cols:
            return np.zeros(0, dtype=np.int64), np.zeros((0, self.aux_cols), dtype=np.int64)
        rows = np.array([self._pivots[c] for c in cols])
        upper = rows[:, cols]  # unit upper triangular
        aux = rows[:, self.main_cols :].copy()
        for j in range(len(cols) - 2, -1, -1):
            aux[j] = (aux[j] - upper[j, j + 1 :] @ aux[j + 1 :]) % self.p
        return np.array(cols, dtype=np.int64), aux


def stream_echelon(main_cols: int, aux_cols: int, p: int):
    """Echelon accumulator for width ``main_cols`` rows over GF(p).

    ``aux_cols`` extra columns follow the same row operations. Picks the
    packed implementation for p in {2, 3}, numpy rows otherwise.
    ``insert(main, aux)`` adds one row, or the rows of a 2-D block in
    order (packed in one call), and returns how many of them raised the
    rank; ``insert_packed`` does the same for rows ``pack`` already
    converted, on any accumulator of the same width and field.
    """
    if p == 2:
        return _EchelonGF2(main_cols, aux_cols)
    if p == 3:
        return _EchelonGF3(main_cols, aux_cols)
    return _EchelonGeneric(main_cols, aux_cols, p)
