"""Construction and verification of adjacent-independent-row (AIR) matrices.

An AIR matrix is a binary m x n matrix (n <= m) tiled by rectangles
whose shapes follow the Euclidean divisions of (m, n). The walk
alternates two moves on the shrinking unfilled bottom-right corner: a
row fill covers the corner's full width, a column fill its full height,
until a remainder hits zero. Each rectangle's long side is a multiple of
its short side, and it holds the identity tiled along its long side: an
h x w rectangle at (top, left) has its ones at

    (top + i % h, left + i % w)    for i < max(h, w),

the one formula ``build_air`` writes. The family is designed so that
every window of n adjacent rows is nonsingular over every field;
:func:`verify_adjacent_independence` checks that claim window by window
with the peel certificate of :mod:`airindex._peel` (determinant +-1),
an exact determinant wherever the peel certifies nothing, and per-prime
ranks. Every prime runs the same sparse elimination of
:mod:`airindex._echelon` on rows packed once per matrix and prime; an
AIR row holds at most 3 ones.

``build_air`` refuses a shape that is wider than tall or has more than
``MAX_CELLS`` entries before allocating it; the codec's encoders and
every ``AirMatrix`` pass the same check. Primes pass :func:`airindex.linalg.require_prime` on entry.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ._echelon import Echelon
from ._peel import _Cells, _window_peels
from .linalg import as_int_matrix, det_exact, require_prime

__all__ = [
    "MAX_CELLS",
    "AirMatrix",
    "build_air",
    "VerificationReport",
    "verify_adjacent_independence",
]


# Largest dense array the package allocates, in int64 cells (512 MiB): about
# 40x the 2130x781 encoder of (K, D, U) = (71, 25, 1).
MAX_CELLS = 2**26


def _fill_blocks(m: int, n: int) -> Iterator[tuple[int, int, int, int]]:
    """Yield ``(top, left, h, w)`` rectangles tiling the m x n grid.

    Each step works on the unfilled corner of ``rows_left x cols_left``
    cells anchored at ``(top, left)``: a row fill covers the corner's
    full width with a rectangle ``q`` times as tall, a column fill covers
    its full height with one ``q`` times as wide. Divisions follow the
    Euclidean recursion on (m, n), so the corner shrinks strictly and the
    walk terminates with the grid exactly covered.
    """
    top = left = 0
    rows_left, cols_left = m, n
    while True:
        q, r = divmod(rows_left, cols_left)
        yield top, left, q * cols_left, cols_left
        top += q * cols_left
        if r == 0:
            return
        q2, r2 = divmod(cols_left, r)
        yield top, left, r, q2 * r
        left += q2 * r
        if r2 == 0:
            return
        rows_left, cols_left = r, r2


def _block_cells(m: int, n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield the row and column indices of the ones of each rectangle.

    Rectangle by rectangle of ``_fill_blocks``, each by the index
    formula; the rectangles tile the m x n grid, so no cell repeats.
    """
    for top, left, h, w in _fill_blocks(m, n):
        i = np.arange(max(h, w))
        yield top + i % h, left + i % w


@dataclass(frozen=True, eq=False)
class AirMatrix:
    """A built m x n AIR matrix.

    ``entries`` is an (m, n) array of 0/1 values, write-protected so the
    object can be shared freely after construction. Construction refuses
    entries of any other shape, and any m x n that ``build_air`` refuses.
    """

    m: int
    n: int
    entries: np.ndarray

    def __post_init__(self):
        m, n = _require_shape(self.m, self.n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        if np.shape(self.entries) != (self.m, self.n):
            raise ValueError(
                f"entries have shape {np.shape(self.entries)}, not ({self.m}, {self.n})"
            )

    def row_window(self, start: int, wrap: bool = False) -> np.ndarray:
        """The n x n window of rows ``start .. start+n-1``.

        With ``wrap`` the row indices are taken modulo m, so every start
        in ``[0, m)`` is valid; without it the window must fit.
        """
        if wrap:
            idx = np.arange(start, start + self.n) % self.m
            return self.entries[idx]
        if start < 0 or start + self.n > self.m:
            raise ValueError(
                f"window [{start}, {start + self.n}) does not fit in {self.m} rows"
            )
        return self.entries[start : start + self.n]

    def to_text(self) -> str:
        """m lines of n characters, '0'/'1' per cell."""
        return "\n".join("".join(str(int(v)) for v in row) for row in self.entries)

    def to_csv(self) -> str:
        """Comma-separated variant of :meth:`to_text`."""
        return "\n".join(",".join(str(int(v)) for v in row) for row in self.entries)


def _require_shape(m: int, n: int) -> tuple[int, int]:
    """(m, n) as plain ints, refused unless 1 <= n <= m and m*n <= MAX_CELLS.

    Coercing first keeps m*n exact: in a numpy integer type it could wrap.
    """
    m, n = operator.index(m), operator.index(n)
    if n < 1 or m < n:
        raise ValueError(f"need 1 <= n <= m, got m={m}, n={n}")
    if m * n > MAX_CELLS:
        raise ValueError(
            f"AIR matrix would have {m}x{n} = {m * n} entries, over the limit of {MAX_CELLS}"
        )
    return m, n


def build_air(m: int, n: int) -> AirMatrix:
    """Assemble the m x n AIR matrix (requires 1 <= n <= m).

    Every rectangle ``(top, left, h, w)`` of the tiling gets its ones at
    ``(top + i % h, left + i % w)`` for ``i < max(h, w)``, written
    straight into the grid. Deterministic: the same (m, n) always yields
    bit-identical entries. When n | m the result is m/n stacked
    identities; m == n gives the identity matrix. More than
    ``MAX_CELLS`` entries raise ``ValueError``.
    """
    m, n = _require_shape(m, n)
    grid = np.zeros((m, n), dtype=np.int64)
    for rows, cols in _block_cells(m, n):
        grid[rows, cols] = 1
    grid.setflags(write=False)
    return AirMatrix(m=m, n=n, entries=grid)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the adjacent-row independence check.

    ``failures`` lists the window start indices (ordered) where either
    the exact determinant was not +-1 or some prime saw a rank drop.
    Failures are report content, never exceptions.
    """

    m: int
    n: int
    wrap: bool
    windows_checked: int
    failures: tuple[int, ...]
    primes: tuple[int, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "wrap": self.wrap,
            "windows_checked": self.windows_checked,
            "failures": list(self.failures),
            "primes": list(self.primes),
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def verify_adjacent_independence(
    air: AirMatrix,
    primes: tuple[int, ...] = (2, 3, 5),
    wrap: bool = False,
) -> VerificationReport:
    """Check every n-row window of ``air`` for full rank.

    Each window must have exact determinant +-1 (nonsingular over every
    field) and full rank over each requested prime. Window starts are
    ``0 .. m-n`` without wrap and ``0 .. m-1`` with cyclic wrap. When the
    entries are 0/1 and every row and column holds a one, as in every
    AIR matrix, the peel of :mod:`airindex._peel` runs over every window
    at once, and a window it solves has determinant +-1; any other
    window gets ``det_exact``. The rows are packed once per requested
    prime into the sparse form of :class:`airindex._echelon.Echelon`,
    the one elimination for every prime, and each window eliminates its
    slice of them. Every prime passes ``require_prime`` before any
    window is checked.
    """
    primes = tuple(require_prime(q) for q in primes)
    m, n = air.m, air.n
    starts = np.arange(m if wrap else m - n + 1)
    rows = as_int_matrix(air.entries)
    peeled = [False] * starts.size
    # the precondition of ``_Cells.from_nonzero``
    if rows.min() >= 0 and rows.max() <= 1 and rows.any(axis=0).all() and rows.any(axis=1).all():
        cells = _Cells.from_nonzero(*rows.nonzero(), m, n)
        peeled = _window_peels(cells, starts, n).tolist()
    if wrap:
        # window s is rows s .. s+n-1 in both modes
        rows = rows[np.arange(m + n - 1) % m]
    packed = {q: Echelon(n, q).pack(rows) for q in primes}
    failures = []
    for s in range(starts.size):
        ok = (peeled[s] or det_exact(rows[s : s + n]) in (-1, 1)) and all(
            Echelon(n, q).insert_packed(field_rows[s : s + n]) == n
            for q, field_rows in packed.items()
        )
        if not ok:
            failures.append(s)
    return VerificationReport(
        m=m,
        n=n,
        wrap=wrap,
        windows_checked=starts.size,
        failures=tuple(failures),
        primes=primes,
    )
