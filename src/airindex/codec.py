"""Vector-linear encoding, decodability checks, decoding and simulation.

The encoder for a (K, D, U) instance with a feasible pair (a, b) over
GF(p) is the K*b x (b*(D+1)+a) AIR matrix; its 0/1 entries make the
construction field-agnostic. An encoder holds only the matrix's nonzero
cells, read from the AIR block layout; ``Encoder.matrix`` builds the
dense matrix from them on demand, and the codec never reads it. Message
k owns the b consecutive encoder rows starting at k*b, so receiver k's
unknowns are the (D+U+1)*b rows of the cyclic message window k-U .. k+D
and its side information covers the rest. A broadcast is c = x @ L;
receiver k subtracts the known message contributions and solves the
remaining system, whose wanted coordinates are unique exactly when

    rank([interference rows; wanted rows]) == rank(interference rows) + b

over GF(p). The first ``decodable``, ``receiver_ranks``, ``decode`` or
``simulate`` on an encoder peels all of its receivers at once. No prime
enters the peel, so ``Encoder.over`` shares it with the same encoder
over any other prime, and ``verify-code`` peels once for all its primes.
Once the side information's share is subtracted, a codeword column is
the plain sum of its unknown rows, as L is 0/1, so a column with one
unsolved unknown row solves that row by +-1 steps. A receiver whose b
wanted rows all peel, and whose leftover rows pass a second peel, is
decodable over every field: the peel gives its ranks and its decoder
with integer coefficients, with no field arithmetic. Only a receiver
whose peel stalls gets its ranks from one GF(p) elimination of its
window's rows, built dense from the cells, once per prime and only when
ranks are asked for; every stalled receiver seen so far is undecodable
at every prime. That every receiver of every feasible pair peels is a
checked conjecture, not a theorem. The tests check it for every
minimal-rate encoder with K <= 20 and for drawn pairs with a, b <= 3,
and it has held for every minimal-rate encoder with K <= 30 and for
(71,25,1), (53,6,2), (60,20,10), (100,10,3) and (37,8,8).

The peel runs on integer arrays, every receiver in step, over the
encoder's nonzero cells. Each receiver's count and sum of unknown rows
per column come from one cumulative sum over the receivers, as
consecutive windows differ by one message at each end. Then, round by
round, every column left with one unsolved row solves it; where several
columns hold the same row, the first in column order wins, as in the
first round of a peel that takes one column at a time. The first peel
took at most three rounds on every minimal-rate encoder tried, and the
number of array operations grows with the rounds and with the runs of
receivers that the build's memory cap allows, not with K itself. The
same build keeps each receiver's two ranks and adds its decoder, with
integer coefficients, to the encoder's batch decoder, so even a single
``decodable`` on a fresh encoder builds the decoders of all its
receivers.

A receiver's decoder is a matrix M = [T | P] over the codeword columns.
For a codeword c' corrected by the side information's share (the
known encoder rows' contribution to each column), c' @ T gives the
wanted symbols, and c' @ P is zero exactly when c' lies in the span of
the unknown rows. T's column for a wanted row is its peel expression:
the column that solved it, minus the expressions of the other rows that
column holds. P has one column per parity column f, a column that no
peel step used and no unsolved row meets: f minus the expressions of its
rows. There are n minus the rank of them, each with its 1 at its own
column, so together they are every check. Coefficients are summed over
the integers, and an entry whose sum is 0 is dropped, so every prime
shares them; each has been +1 or -1 on every encoder tried. A receiver
sees only its window of D+U+1 messages, so M is very sparse (T is about
0.2% nonzero on (71,25,1)). Most receivers have no parity column; those of
minimal-rate encoders with K <= 40 have at most four.

The encoder keeps the nonzero entries of every decodable receiver's M
in one sparse batch. Each entry names a codeword column, that column's
rows inside its receiver's window, and a nonzero integer coefficient.
The entries are sorted into one contiguous segment per output (a wanted
symbol or a parity check), and each receiver owns one contiguous range
of entries and of outputs. Decoding a batch of codewords takes three
steps, all in ``_BatchDecoder.outputs`` but the first: correct each
entry's codeword symbol by the side information's share, multiply it by
the entry's integer coefficient, and sum every segment with one
``np.add.reduceat``, reducing each output once mod p. The batch is
entry-major: one row per entry, one column per codeword. ``encode`` and
``decode`` sum codeword columns one way, with one ``np.add.reduceat``
over the nonzero rows in column order: ``encode`` every column of the
whole message, ``decode`` only its receiver's columns of a message that
holds only its receiver's known messages, its unknown ones zero, which
it subtracts from the codeword. ``simulate`` checks each receiver's
decoder on its window's rows instead: each entry's corrected symbol is
the sum of its column's rows inside its receiver's window, each row
gathered whole across the trials, so it forms no codeword, and
``encode``/``decode`` cover the broadcast. It runs every receiver at
once, where ``decode`` runs one receiver's range.

Message vectors, codewords and side information must hold integers
(:func:`airindex.linalg.as_int_array`); receiver indices go through
``operator.index``. Neither is ever truncated.

Supported sizes. All arithmetic is exact in int64. ``build_encoder``
and ``Encoder.over`` take every prime that
:func:`airindex.linalg.require_prime` accepts, the one range of every
GF(p) entry point: (p-1)**2 < 2**63, so p-1 < 2**31.5. The codec adds
one bound of its own, on the decoder, checked once when it is built. A
decoder output is one sum of corrected symbols times integer
coefficients. A corrected symbol is at most p-1 times its column's
weight in magnitude, so every product and partial sum of an output is
at most (p-1)*``load``, where ``load`` is the largest sum, over an
output's entries, of |coefficient| times column weight (see
``_build_decoder``). The build raises ``OverflowError`` when ``load``
exceeds 2**31, so the first ``decodable``, ``receiver_ranks``,
``decode`` or ``simulate`` on such an encoder raises before anything is
summed, and within it no output exceeds (p-1)*2**31 < 2**62.5 at any
accepted prime. No AIR encoder comes near the bound: ``load`` is 18 on
(71,25,1), at most 28 on the minimal-rate encoders with K <= 20, and
K/2 on D = 1. A column sum of ``encode`` adds at most rows symbols below
p, and rows <= ``MAX_CELLS`` = 2**26, so it stays below 2**58. An
encoder holds its nonzero cells, not its dense matrix, yet
``build_encoder`` still refuses, before allocating anything, a shape
that ``build_air`` would refuse (rows*cols over ``MAX_CELLS``); that cap
stays until caps on what the build allocates replace it. A stalled receiver's window rows, w x n
dense, are refused past the same cap, and ``simulate`` refuses a run
whose message batch (trials*K*b symbols) exceeds it. The batch decoder
holds entries x window rows cells: one row per entry, as wide as the
most rows one column holds inside one window (5 on (71,25,1), at most 2
on D = 1 for K <= 40), so at a fixed window it grows linearly in K. Its
build takes the receivers a run at a time, so that none of its receivers
x columns or receivers x window rows arrays exceeds ``_PEEL_CELLS``
cells.
"""

from __future__ import annotations

import json
import operator
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .air import MAX_CELLS, AirMatrix, _block_cells, _require_shape
from .linalg import _stacked_ranks_mod_p, as_int_array, require_prime
from .rates import ProblemInstance, RateSolution, is_feasible

__all__ = [
    "MAX_CELLS",
    "interference_set",
    "Encoder",
    "build_encoder",
    "encode",
    "decodable",
    "receiver_ranks",
    "decode",
    "SimReport",
    "simulate",
]


def interference_set(problem: ProblemInstance, k: int) -> set[int]:
    """The D+U message indices receiver k can neither cancel nor wants.

    These are the U messages before and D after message k on the cycle;
    side information is the complement of this set plus k itself.
    """
    k = _receiver(problem, k)
    return set(_window(problem, k)) - {k}


def _receiver(problem: ProblemInstance, k) -> int:
    """The receiver index as a plain int, refused unless in [0, K)."""
    k = operator.index(k)
    if not 0 <= k < problem.K:
        raise ValueError(f"receiver index must be in [0, {problem.K}), got {k}")
    return k


def _window(problem: ProblemInstance, k: int) -> list[int]:
    """Receiver k's cyclic message window k-U .. k+D, in that order.

    Its D+U+1 indices are distinct, as D+U < K.
    """
    return [(k + i) % problem.K for i in range(-problem.U, problem.D + 1)]


@dataclass(frozen=True, eq=False)
class Encoder:
    """An instance bound to its AIR encoding matrix over GF(p).

    Holds the problem, the pair and p; ``rows`` is K*b and ``cols`` is
    b*(D+1)+a. It keeps only the matrix's nonzero cells, never the dense
    matrix, which ``matrix`` builds on each access. Immutable after
    construction. Cached internally and shared by decodability checks,
    decoding and simulation: the nonzero cells (``_cells``), read from
    the AIR block layout, which the peel, the column sums and a stalled
    receiver's ranks read; the batch decoder (``_decoder``), which holds
    the peel's ranks and the decoder of every decodable receiver, built
    by one batched peel of all receivers on first use; and every
    receiver's ranks over GF(p) (``_ranks``). The cells and the decoder
    read no p, so ``over`` shares them with the same encoder over another
    prime. Decoding corrects codewords by the side information's share
    through the same column sums that encode them.
    """

    problem: ProblemInstance
    solution: RateSolution
    p: int

    @property
    def b(self) -> int:
        return self.solution.b_min

    @property
    def a(self) -> int:
        return self.solution.a_min

    @property
    def rows(self) -> int:
        return self.problem.K * self.b

    @property
    def cols(self) -> int:
        return self.b * (self.problem.D + 1) + self.a

    @property
    def matrix(self) -> AirMatrix:
        """The dense rows x cols 0/1 matrix, write-protected int64 entries.

        Built from ``_cells`` on each access and never cached, so an
        encoder holds only its cells; the codec itself never reads it.
        A shape that ``build_air`` refuses is refused before allocating.
        """
        m, n = _require_shape(self.rows, self.cols)
        entries = self._cells.dense(np.arange(m))
        entries.setflags(write=False)
        return AirMatrix(m, n, entries)

    @cached_property
    def _cells(self) -> _Cells:
        """The nonzero cells, read from the AIR block layout; see ``_Cells``."""
        m, n = self.rows, self.cols
        rows, cols = (np.concatenate(part) for part in zip(*_block_cells(m, n)))
        # every sort in this module is the stable one: ``_firsts`` needs it,
        # and one sort kernel keeps fewer of numpy's code pages resident
        by_row = (rows * n + cols).argsort(kind="stable")
        rows, cols = rows[by_row], cols[by_row]
        counts = np.bincount(rows, minlength=m)
        row_ptr = np.zeros(2 * m + 1, dtype=np.int64)
        np.cumsum(np.concatenate([counts, counts]), out=row_ptr[1:])
        keys = cols * (2 * m) + rows
        keys.sort(kind="stable")
        # each column's (start, end) in the column-ordered rows
        bounds = keys.searchsorted(np.arange(n + 1) * (2 * m)).repeat(2)[1:-1]
        return _Cells(
            row_ptr=row_ptr,
            row_cols=np.concatenate([cols, cols]),
            cell_rows=np.concatenate([rows, rows]),
            row_col_sums=np.add.reduceat(cols, row_ptr[:m]),
            col_keys=np.sort(np.concatenate([keys, keys + m]), kind="stable"),
            col_rows=np.concatenate([keys, [0]]) % (2 * m),
            col_bounds=bounds.reshape(n, 2),
        )

    @cached_property
    def _decoder(self) -> _BatchDecoder:
        """Every receiver's peel and decoder, built on first use; see ``_BatchDecoder``."""
        return _build_decoder(self)

    @cached_property
    def _ranks(self) -> list[tuple[int, int]]:
        """Every receiver's (interference rank, stacked rank) over GF(p).

        A receiver the peel certifies has the peel's ranks, which hold in
        every field. One whose peel stalls gets its ranks from one
        elimination of its window's w x n rows, built dense from the
        cells, interference rows first and wanted rows last; a block over
        ``MAX_CELLS`` cells raises ``ValueError`` before any is built.
        Every stalled receiver seen so far is undecodable at every prime.
        One that these ranks call decodable would need a decoder the peel
        did not give, so this raises instead, whichever receiver was asked
        about.
        """
        problem, b, p, n = self.problem, self.b, self.p, self.cols
        ranks = list(self._decoder.ranks)
        stalled = [k for k, rank in enumerate(ranks) if rank is None]
        w = (problem.D + problem.U + 1) * b
        if stalled and w * n > MAX_CELLS:
            raise ValueError(
                f"receiver {stalled[0]} of {problem} at (a={self.a}, b={b}): its peel "
                f"stalled, and its {w}x{n} = {w * n} window rows are over the limit of {MAX_CELLS}"
            )
        for k in stalled:
            window = _window(problem, k)
            interference = [r for j in window if j != k for r in range(j * b, (j + 1) * b)]
            block = self._cells.dense(interference + list(range(k * b, (k + 1) * b)))
            rank_interference, rank_all = _stacked_ranks_mod_p(block[:-b], block[-b:], p)
            if rank_all == rank_interference + b:
                raise AssertionError(
                    f"receiver {k} of {problem} at (a={self.a}, b={b}) over GF({p}): "
                    "the peel stalled, yet elimination finds it decodable"
                )
            ranks[k] = (rank_interference, rank_all)
        return ranks

    def over(self, p) -> Encoder:
        """The same encoder over GF(p), sharing this one's cells and peel.

        Peels this encoder first if it has not been peeled yet. Only the
        ranks of receivers whose peel stalls are computed again, at p.
        """
        enc = Encoder(self.problem, self.solution, require_prime(p))
        # a cached_property reads the instance's dict first
        vars(enc).update(_cells=self._cells, _decoder=self._decoder)
        return enc

    def _column_sums(self, X: np.ndarray, cols=slice(None)) -> np.ndarray:
        """``out[:, j]`` = the sum of ``X[:, r]`` over the nonzero rows r of
        column ``cols[j]``, of every column by default.

        X is a 2-D batch with at least the encoder's rows as columns. One
        gather of the nonzero rows in column order and one
        ``np.add.reduceat`` at each asked column's start and end, whose
        even segments are the columns' runs, nonempty as every AIR column
        holds a one; the odd ones, between runs, are dropped. So ``decode``
        sums only its receiver's columns.
        """
        cells = self._cells
        sums = np.add.reduceat(X[:, cells.col_rows], cells.col_bounds[cols].ravel(), axis=1)
        return sums[:, ::2]

    def _broadcast(self, X: np.ndarray) -> np.ndarray:
        """``X @ L % p`` for a 2-D batch X of message vectors with entries < p.

        As L is 0/1, each codeword symbol is the sum of the message
        symbols at its column's nonzero rows. Gathering those few
        symbols per column reads X once, where the dense product streams
        all of L once per message vector.
        """
        return self._column_sums(X) % self.p


class _Cells(NamedTuple):
    """An encoder's nonzero cells, read from the AIR block layout.

    Rows are doubled: row r is stored again as row r + m, so that every
    cyclic run of w <= m rows starting at lo < m is the plain run
    lo .. lo+w-1 of the doubled rows. Row r's cells, for r < 2m, are
    ``row_ptr[r] .. row_ptr[r + 1] - 1``, with their columns, ascending,
    in ``row_cols`` and their row mod m in ``cell_rows``. ``col_keys``
    holds c * 2m + r for every doubled cell (r, c), sorted, so a
    column's rows inside a run are one range of it. ``col_rows`` lists
    the rows of the (undoubled) cells column by column, then row 0 as
    padding, so that every column's end, the last one's too, indexes it
    (see ``Encoder._column_sums``); column c's rows are
    ``col_rows[start:end]`` for (start, end) = ``col_bounds[c]``, and
    every AIR column holds a one.
    ``row_col_sums[r]`` is the sum of row r's columns, for r < m, which
    the peel's second pass starts from.
    """

    row_ptr: np.ndarray
    row_cols: np.ndarray
    cell_rows: np.ndarray
    row_col_sums: np.ndarray
    col_keys: np.ndarray
    col_rows: np.ndarray
    col_bounds: np.ndarray

    def dense(self, rows) -> np.ndarray:
        """The given rows (each < m) as a dense len(rows) x n int64 0/1 array."""
        rows = np.asarray(rows, dtype=np.int64)
        q, idx = _ranges(self.row_ptr[rows], self.row_ptr[rows + 1])
        out = np.zeros((rows.size, self.col_bounds.shape[0]), dtype=np.int64)
        out[q, self.row_cols[idx]] = 1
        return out


def _pad(X: np.ndarray) -> np.ndarray:
    """The trials x symbols batch X entry-major: one contiguous row per
    message symbol, one column per trial, and a zero row appended at the
    padding index of the decoder's tables."""
    padded = np.empty((X.shape[1] + 1, X.shape[0]), dtype=np.int64)
    padded[:-1] = X.T
    padded[-1] = 0
    return padded


def _gather_sum(padded: np.ndarray, support: np.ndarray) -> np.ndarray:
    """``out[j]`` = the sum of the rows ``padded[i]`` over the i in ``support[j]``.

    Each slot of the table gathers whole rows, and adding one slot at a
    time keeps every temporary to the size of ``out``.
    """
    out = np.zeros((support.shape[0], padded.shape[1]), dtype=np.int64)
    for slot in support.T:
        out += np.take(padded, slot, axis=0)
    return out


def build_encoder(
    problem: ProblemInstance,
    solution: RateSolution,
    p,
    allow_infeasible: bool = False,
) -> Encoder:
    """Build the K*b x (b*(D+1)+a) encoder for a feasible (a, b).

    Refuses an infeasible pair unless ``allow_infeasible`` is set (useful
    as a negative control: such encoders leave some receiver undecodable).
    Always refuses a pair whose rate exceeds K: its encoder would have
    more columns than rows.
    """
    if solution.problem != problem:
        raise ValueError(
            f"solution is for {solution.problem}, not for {problem}"
        )
    a, b = solution.a_min, solution.b_min
    if not allow_infeasible and not is_feasible(problem, a, b):
        raise ValueError(
            f"(a={a}, b={b}) is not feasible for {problem}; "
            "pass allow_infeasible=True to build a negative control"
        )
    rows = problem.K * b
    cols = b * (problem.D + 1) + a
    if cols > rows:
        raise ValueError(
            f"(a={a}, b={b}) for {problem} has rate {Fraction(cols, b)}, above K={problem.K}: "
            f"its {rows}x{cols} encoder would be wider than tall"
        )
    _require_shape(rows, cols)
    return Encoder(problem=problem, solution=solution, p=require_prime(p))


def encode(encoder: Encoder, x) -> np.ndarray:
    """Codeword x @ L over GF(p) for a length-K*b message vector."""
    xv = as_int_array(x)
    if xv.ndim != 1 or xv.shape[0] != encoder.rows:
        raise ValueError(
            f"message vector must have length {encoder.rows}, got shape {xv.shape}"
        )
    return encoder._broadcast((xv % encoder.p)[None])[0]


class _BatchDecoder(NamedTuple):
    """Every receiver's peel and every decodable one's decoder, as sparse entries.

    Built by ``_build_decoder`` from one batched peel of all receivers,
    which reads no p, so every prime shares it. ``ranks[k]`` is receiver
    k's (rank of interference rows, rank with wanted rows stacked on),
    which hold in every field, or None where its peel stalls. Entry e
    reads column ``cols[e]`` of its receiver's corrected codeword and
    multiplies it by ``coef[e]``, a nonzero integer that every prime
    shares. ``window_rows[e]`` holds that column's rows inside its
    receiver's window, padded with the index ``encoder.rows``. Output o
    sums the entries ``starts[o]`` up to the next output's start, mod p,
    each output's entries in column order; it must equal message row
    ``targets[o]`` for a wanted symbol, and zero, read at the padding
    index, for a parity column. Receiver k owns entries
    ``entry_bounds[k] : entry_bounds[k + 1]`` and outputs
    ``output_bounds[k] : output_bounds[k + 1]``: its b wanted symbols,
    then one parity check per parity column, ascending. An undecodable
    receiver owns none. The build bounds every output's sum, at every
    prime ``require_prime`` accepts, inside int64; see ``_build_decoder``.
    """

    ranks: list[tuple[int, int] | None]
    cols: np.ndarray
    window_rows: np.ndarray
    coef: np.ndarray
    starts: np.ndarray
    targets: np.ndarray
    entry_bounds: np.ndarray
    output_bounds: np.ndarray

    def outputs(self, fixed: np.ndarray, p: int, k: int | None = None) -> np.ndarray:
        """Receiver k's outputs over GF(p), or every receiver's, for each column of ``fixed``.

        ``fixed`` is entry-major: one row per entry of that range, holding
        the entry's column of its receiver's corrected codeword (the
        codeword less the side information's share), and one column per
        codeword of the batch. The result has one row per output. A
        genuine codeword gives the sent symbols and zero parity. Each
        output is one sum of the integer products ``fixed[e] * coef[e]``,
        reduced once into [0, p). An entry's corrected symbol is either the
        codeword symbol reduced into [0, p) less its column's known rows,
        each in [0, p) (``decode``), or the sum of its column's rows inside
        its receiver's window, each in [0, p) (``simulate``), so it is at
        most p-1 times its column's weight in magnitude, and the sum is
        exact by the build's bound on ``load``.
        """
        lo, hi = (0, self.cols.size) if k is None else self.entry_bounds[k : k + 2].tolist()
        outs = slice(None) if k is None else slice(*self.output_bounds[k : k + 2].tolist())
        out = np.add.reduceat(fixed * self.coef[lo:hi, None], self.starts[outs] - lo, axis=0)
        out %= p
        return out


# bound on the cells of each entries x trials array in one decode step
# of ``simulate``, so that its working set stays near the message batch's
_DECODE_CELLS = 1 << 16

# bound on the cells of each receivers x columns and receivers x window
# rows array of the decoder build, which holds up to about twenty of them
# at once
_PEEL_CELLS = 1 << 14

# bound on every merged coefficient of ``_peel`` and on a decoder's load;
# below it every sum either makes stays inside int64 (see ``_build_decoder``)
_MAX_TERM = 2**31


def _segment_starts(outs: np.ndarray, n: int) -> np.ndarray:
    """First index of each of the n segments of the sorted labels ``outs``.

    Refuses an empty segment: ``np.add.reduceat`` over one silently
    returns the next element instead of zero.
    """
    counts = np.bincount(outs, minlength=n)
    if not counts.all():
        empty = np.flatnonzero(counts == 0).tolist()
        raise AssertionError(f"decoder outputs {empty} have no entry")
    return np.cumsum(counts) - counts


def _ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every index of the ranges lo[q] .. hi[q]-1, in q order, and its q."""
    size = hi - lo
    owner = np.arange(size.size).repeat(size)
    return owner, np.arange(owner.size) + (lo - size.cumsum() + size).repeat(size)


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """The index at which each run of equal values of the sorted ``keys`` starts."""
    new = np.empty(keys.size, dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return new.nonzero()[0]


def _firsts(keys: np.ndarray) -> np.ndarray:
    """The index of each distinct key's first occurrence, ascending."""
    order = keys.argsort(kind="stable")
    first = order[_run_starts(keys[order])]
    first.sort(kind="stable")
    return first


def _cut(cells: _Cells, cols: np.ndarray, lo: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows of each column ``cols[q]`` in the cyclic run of w rows from ``lo[q]``.

    Returns (q, offset) pairs, grouped by q and ascending within it: the
    row is ``(lo[q] + offset) % m``. Found by two searches of the sorted
    cells, so a heavy column, which on D = 1 holds about K/2 rows, costs
    nothing more than its rows in the run.
    """
    base = cols * (cells.row_ptr.size - 1) + lo
    keys = cells.col_keys
    q, idx = _ranges(keys.searchsorted(base), keys.searchsorted(base + w))
    return q, keys[idx] - base[q]


def _window_counts(
    cells: _Cells, lo: np.ndarray, w: int, b: int, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """For each window i of w rows from ``lo[i]`` and each column c: the
    number and the sum of the window's rows in column c, flattened i-major.

    The windows are consecutive receivers', so each starts b rows past
    the one before. Window i's counts are window i-1's plus the b rows
    that enter it and less the b rows that leave, so one cumulative sum
    over those changes gives them all.
    """
    C = lo.size
    # the first window whole, then the rows entering windows 1.., then
    # the rows leaving them
    first = np.concatenate([lo[:1], lo[:-1] + w, lo[:-1]])
    size = np.full(first.size, b)
    size[0] = w
    q, idx = _ranges(cells.row_ptr[first], cells.row_ptr[first + size])
    leaving = q >= C
    at = (q - leaving * (C - 1)) * n + cells.row_cols[idx]
    sign = 1 - 2 * leaving.astype(np.int64)
    count = np.zeros((C, n), dtype=np.int64)
    total = np.zeros((C, n), dtype=np.int64)
    np.add.at(count.ravel(), at, sign)
    np.add.at(total.ravel(), at, sign * cells.cell_rows[idx])
    np.cumsum(count, axis=0, out=count)
    np.cumsum(total, axis=0, out=total)
    return count.ravel(), total.ravel()


def _sum_cells(keys: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, ascending, and the sum of each one's values,
    less the keys whose sum is 0."""
    order = keys.argsort(kind="stable")
    keys, vals = keys[order], vals[order]
    if not keys.size:
        return keys, vals
    first = _run_starts(keys)
    sums = np.add.reduceat(vals, first)
    keep = sums != 0
    return keys[first[keep]], sums[keep]


def _peel(encoder: Encoder, lo: np.ndarray) -> tuple[np.ndarray, ...]:
    """Peel the consecutive receivers whose windows start at rows ``lo``.

    A receiver's unknown rows are its window's w = (D+U+1)*b rows. Once
    the side information's share is subtracted, codeword column j is the
    plain sum of its unknown rows, as L is 0/1, so a column with one
    unsolved unknown row r solves it: x_r = c'_j minus the other rows of
    j, all solved before. Every receiver peels at once, in rounds: in
    each, every column left with one unsolved row solves it, and of the
    columns that hold the same row the first in column order wins; the
    losers become parity columns. The rows a peel solves, and so the
    verdicts and ranks, do not depend on that choice, and every choice
    gives a valid decoder. A receiver stalls unless its b wanted rows
    are solved.

    The unsolved rows meet only the columns left with two or more of
    them. A second peel, in rounds too, clears each column that an
    unsolved row is the last to meet. The rows it uses form a unit
    triangle against the columns, so the leftover block has full column
    rank in every field; a receiver stalls unless this clears all of its
    columns. The solved rows form a unit triangle against their columns
    too, so a receiver that peels has unknown rows of rank n minus its
    count of parity columns, those that no round used and no unsolved
    row meets, in every field.

    Returns ``ok`` and ``parity`` (that count) per receiver, and the
    decoders of the receivers that peel as entries ``outs``, ``cols`` and
    ``coef`` (nonzero integers), sorted, with outputs numbered from 0 over
    those receivers: each one's b wanted rows, then, per parity column
    f ascending, f minus the expressions of its rows, which vanishes on
    every combination of the unknown rows. A wanted row's expression is
    the column that solved it minus the expressions of the other rows
    that column holds, which earlier rounds solved, so each output is
    expanded through the winners round by round, with the repeats of a
    winner in an output merged. No step reads p: coefficients are summed
    over the integers, and a term is dropped only when its sum is 0. Each
    has been +1 or -1 on every AIR encoder tried. A merged term past
    ``_MAX_TERM`` raises ``OverflowError`` before a later merge could
    leave int64; the final coefficients are bounded by ``_build_decoder``,
    through the decoder's load, not here.
    """
    cells, b, m, n = encoder._cells, encoder.b, encoder.rows, encoder.cols
    w = (encoder.problem.D + encoder.problem.U + 1) * b
    C = lo.size
    count, total = _window_counts(cells, lo, w, b, n)
    # first peel: each round's winners as receiver * n + column, and
    # who[i * w + offset], the winner that solved that row of window i, or -1
    empty = np.zeros(0, dtype=np.int64)
    wins, bounds = [empty], [0]
    who = np.full(C * w, -1)
    cand = (count == 1).nonzero()[0]
    while cand.size:
        rows = total[cand]
        i = cand // n
        first = _firsts(i * m + rows)
        cand, rows, i = cand[first], rows[first], i[first]
        who[i * w + (rows - lo[i]) % m] = np.arange(bounds[-1], bounds[-1] + cand.size)
        wins.append(cand)
        bounds.append(bounds[-1] + cand.size)
        q, idx = _ranges(cells.row_ptr[rows], cells.row_ptr[rows + 1])
        touched = i[q] * n + cells.row_cols[idx]
        np.add.at(count, touched, -1)
        np.add.at(total, touched, -rows[q])
        count[cand] = -1
        touched.sort(kind="stable")
        touched = touched[_run_starts(touched)]
        cand = touched[count[touched] == 1]
    win = np.concatenate(wins)
    win_i, win_c = win // n, win % n
    del total, wins, win  # each as large as a receivers x columns array
    at = encoder.problem.U * b  # the receiver's own message's offset in its window
    wanted = who.reshape(C, w)[:, at : at + b]
    ok = (wanted >= 0).all(axis=1)
    count = count.reshape(C, n)
    parity = (count == 0).sum(axis=1)
    live = (count >= 2).sum(axis=1)
    check = ok & (live > 0)
    if check.any():
        # second peel, over each window row's count and sum of live columns
        rows = (lo[:, None] + np.arange(w)) % m
        deg = np.diff(cells.row_ptr[: m + 1])[rows]
        deg[(who.reshape(C, w) >= 0) | ~check[:, None]] = 0
        deg = deg.ravel()
        csum = cells.row_col_sums[rows].ravel()
        cleared = np.zeros(C, dtype=np.int64)
        cand = (deg == 1).nonzero()[0]
        while cand.size:
            i, c = cand // w, csum[cand]
            first = _firsts(i * n + c)
            i, c = i[first], c[first]
            cleared += np.bincount(i, minlength=C)
            q, off = _cut(cells, c, lo[i], w)
            off += i[q] * w
            np.add.at(deg, off, -1)
            np.add.at(csum, off, -c[q])
            cand = (deg == 1).nonzero()[0]
        ok &= ~check | (cleared == live)
    if not ok.any():
        return ok, parity, empty, empty, empty
    # outputs: each receiver's b wanted rows, then its parity columns
    outputs = (b + parity) * ok
    base = outputs.cumsum() - outputs
    par = (count.ravel() == 0).nonzero()[0]
    par = par[ok[par // n]]
    par_i, par_c = par // n, par % n
    par_o = base[par_i] + b + np.arange(par.size) - par_i.searchsorted(par_i)
    q, off = _cut(cells, par_c, lo[par_i], w)
    # each output is a sum of terms (output, column, coefficient): a parity
    # output's own column, then the expressions of the winners it holds,
    # wanted rows with sign +1 and a parity column's rows with -1; a
    # winner's expression is its column, less the expressions of the other
    # rows that column holds, all from earlier rounds, so expanding the
    # winners round by round ends within the peel's rounds
    terms = [(par_o, par_c, np.ones(par.size, dtype=np.int64))]
    o = np.concatenate([(base[ok][:, None] + np.arange(b)).ravel(), par_o[q]])
    u = np.concatenate([wanted[ok].ravel(), who[par_i[q] * w + off]])
    sign = np.where(np.arange(o.size) < o.size - q.size, 1, -1)
    while True:
        terms.append((o, win_c[u], sign))
        late = u >= bounds[1]
        if not late.any():
            break
        o, u, sign = o[late], u[late], sign[late]
        q, off = _cut(cells, win_c[u], lo[win_i[u]], w)
        held = who[win_i[u][q] * w + off]
        other = held != u[q]
        # merge the repeats of a winner within an output, so that the terms
        # grow with the winners reached, not with the paths to them
        keys, sign = _sum_cells(o[q][other] * win_c.size + held[other], -sign[q][other])
        # a merge adds at most w terms and the outputs at most one per
        # round, so terms within _MAX_TERM keep every sum inside int64
        if np.abs(sign).max(initial=0) > _MAX_TERM:
            raise OverflowError(f"a decoder coefficient of {encoder.problem} exceeds 2**31")
        o, u = keys // win_c.size, keys % win_c.size
    o, c, v = (np.concatenate(part) for part in zip(*terms))
    keys, coef = _sum_cells(o * n + c, v)
    return ok, parity, keys // n, keys % n, coef


def _build_decoder(encoder: Encoder) -> _BatchDecoder:
    """The encoder's batch decoder, from one batched peel of every receiver.

    ``_peel`` runs over runs of consecutive receivers, each small enough
    that no receivers x columns or receivers x window rows array exceeds
    ``_PEEL_CELLS`` cells. A receiver the peel certifies is decodable,
    with the peel's ranks. Every output's segment is nonempty, as each
    holds its own column with coefficient 1. A receiver whose peel stalls
    gets no ranks and no entries; ``Encoder._ranks`` eliminates its
    window's rows at each prime. Each entry's window rows are its
    column's rows inside its receiver's window, cut from the encoder's
    cells. Nothing here reads p.

    The decoder's ``load`` is the largest, over its outputs, of the sum
    over the output's entries e of |coef[e]| times the weight of column
    ``cols[e]`` (its count of nonzero rows). An output sums corrected
    symbols of at most p-1 times their column's weight in magnitude, so
    each of its products and partial sums is at most (p-1)*load. Every
    prime ``require_prime`` accepts has p-1 < 2**31.5, so a load within
    ``_MAX_TERM`` = 2**31 keeps every output's sum below 2**63 at every
    such prime, and since the load is at least every |coef|, it bounds
    the final coefficients too. A larger load raises ``OverflowError``
    here, before any window rows are cut and before any caller sums
    anything; no AIR encoder comes near it.
    """
    problem, b, m, n = encoder.problem, encoder.b, encoder.rows, encoder.cols
    K, w = problem.K, (problem.D + problem.U + 1) * b
    lo = (np.arange(K) - problem.U) % K * b
    step = max(1, _PEEL_CELLS // max(n, w))
    firsts = range(0, K, step)
    ok, parity, outs, cols, coef = zip(*(_peel(encoder, lo[k : k + step]) for k in firsts))
    ok, parity = np.concatenate(ok), np.concatenate(parity)
    outputs = (b + parity) * ok
    output_bounds = np.concatenate([[0], np.cumsum(outputs)])
    # each run numbers its outputs from 0
    outs = np.concatenate([o + output_bounds[k] for k, o in zip(firsts, outs)])
    ranks = [(r - b, r) if good else None for r, good in zip((n - parity).tolist(), ok.tolist())]
    # output o's receiver and its target: the receiver's own rows, then
    # the padding index for each parity check
    recv = np.repeat(np.arange(K), outputs)
    slot = np.arange(recv.size) - output_bounds[recv]
    targets = np.where(slot < b, recv * b + slot, m)
    cols, coef = np.concatenate(cols), np.concatenate(coef)
    starts = _segment_starts(outs, recv.size)
    bounds = encoder._cells.col_bounds
    weight = bounds[:, 1] - bounds[:, 0]
    load = np.add.reduceat(np.abs(coef) * weight[cols], starts).max(initial=0)
    if load > _MAX_TERM:
        raise OverflowError(
            f"the decoder of {problem} at (a={encoder.a}, b={b}) has load {load}, "
            f"over {_MAX_TERM}: its output sums could leave int64"
        )
    entry_lo = lo[recv[outs]]
    q, off = _cut(encoder._cells, cols, entry_lo, w)
    sizes = np.bincount(q, minlength=cols.size)
    window_rows = np.full((cols.size, sizes.max(initial=0)), m, dtype=np.int64)
    # row-major, so each entry's rows fill the front of its row
    window_rows[np.arange(window_rows.shape[1]) < sizes[:, None]] = (entry_lo[q] + off) % m
    return _BatchDecoder(
        ranks=ranks,
        cols=cols,
        window_rows=window_rows,
        coef=coef,
        starts=starts,
        targets=targets,
        entry_bounds=np.append(starts, cols.size)[output_bounds],
        output_bounds=output_bounds,
    )


def decodable(encoder: Encoder, k: int) -> bool:
    """Rank criterion for receiver k.

    True iff stacking the wanted rows onto the interference rows raises
    the rank by exactly b over GF(p), which is equivalent to the wanted
    symbols being uniquely determined given the side information. The
    first call on an encoder peels every receiver and builds the batch
    decoder that ``decode`` and ``simulate`` reuse.
    """
    rank_interference, rank_all = receiver_ranks(encoder, k)
    return rank_all == rank_interference + encoder.b


def receiver_ranks(encoder: Encoder, k: int) -> tuple[int, int]:
    """(rank of interference rows, rank with wanted rows stacked on)."""
    return encoder._ranks[_receiver(encoder.problem, k)]


def _known_symbols(side_info, messages: list[int], b: int) -> np.ndarray:
    """The b symbols of each of ``messages`` from ``side_info``, in order,
    concatenated and as int64.

    One lookup per message and one conversion of the stacked values.
    Values that do not stack into an integer len(messages) x b array (a
    message missing, of the wrong length or not integer, or floats, which
    could round a stacked int64 past 2**53) are read one message at a
    time instead, so that an error names its message.
    """
    try:
        known = np.asarray([side_info[j] for j in messages])
    except (KeyError, TypeError, IndexError, ValueError):
        known = None
    if known is not None and known.dtype.kind in "bi" and known.shape == (len(messages), b):
        return as_int_array(known).ravel()
    known = []
    for j in messages:
        try:
            v = side_info[j]
        except (KeyError, TypeError, IndexError):
            raise ValueError(f"side information for message {j} is missing") from None
        v = as_int_array(v)
        if v.shape != (b,):
            raise ValueError(f"side information for message {j} must have length {b}")
        known.append(v)
    return np.array(known, dtype=np.int64).ravel()


def decode(encoder: Encoder, k: int, codeword, side_info) -> np.ndarray:
    """Recover receiver k's b symbols from a codeword and side information.

    ``side_info`` maps message index j to its b symbols for every j the
    receiver knows (anything outside the interference window and k
    itself); extra entries are ignored. Runs the receiver's range of the
    encoder's batch decoder on a batch of one: the side information goes
    into a message row whose unknown messages stay zero, and the codeword
    less that row's encoding at the receiver's columns, by the column sums
    that ``encode`` uses, is its corrected codeword. The first call on an
    encoder, like the first ``decodable``, peels every receiver and builds
    the decoders of all of them, and raises ``OverflowError`` if the
    decoder's load is past the build's bound, before anything is summed.
    Raises if the receiver is not decodable or the codeword fails the
    receiver's parity check, as no genuine codeword can.
    """
    problem, p, b = encoder.problem, encoder.p, encoder.b
    k = _receiver(problem, k)
    if not decodable(encoder, k):
        raise ValueError(f"receiver {k} cannot decode with this encoder")
    c = as_int_array(codeword)
    if c.ndim != 1 or c.shape[0] != encoder.cols:
        raise ValueError(f"codeword must have length {encoder.cols}, got shape {c.shape}")
    # the known messages are the cyclic run of K-D-U-1 after the window's
    # last, k+D, and so are their rows
    K, first = problem.K, (k + problem.D + 1) % problem.K
    last = first + K - problem.D - problem.U - 1
    messages = [*range(first, min(last, K)), *range(last - K)]
    known = _known_symbols(side_info, messages, b) % p
    dec = encoder._decoder
    x = np.zeros((1, encoder.rows), dtype=np.int64)
    head = min(known.size, encoder.rows - first * b)
    x[0, first * b : first * b + head] = known[:head]
    x[0, : known.size - head] = known[head:]
    lo, hi = dec.entry_bounds[k : k + 2].tolist()
    cols = dec.cols[lo:hi]
    fixed = c[cols] % p - encoder._column_sums(x, cols)[0]
    out = dec.outputs(fixed[:, None], p, k)[:, 0]
    if out[b:].any():
        raise ArithmeticError(
            "codeword is not a combination of the unknown rows; "
            "it was not produced by this encoder"
        )
    return out[:b]


@dataclass(frozen=True)
class SimReport:
    """Result of a seeded encode/decode run.

    ``failures`` holds (trial, receiver) pairs in lexicographic order;
    empty failures means every decode returned the exact sent symbols.
    """

    problem: ProblemInstance
    a: int
    b: int
    p: int
    trials: int
    seed: int
    failures: tuple[tuple[int, int], ...]
    elapsed_ms: float

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "K": self.problem.K,
            "D": self.problem.D,
            "U": self.problem.U,
            "a": self.a,
            "b": self.b,
            "p": self.p,
            "trials": self.trials,
            "seed": self.seed,
            "failures": [{"trial": t, "receiver": k} for t, k in self.failures],
            "elapsed_ms": self.elapsed_ms,
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def simulate(
    problem: ProblemInstance,
    solution: RateSolution,
    p,
    trials: int = 100,
    seed: int = 0,
    encoder: Encoder | None = None,
) -> SimReport:
    """Encode/decode ``trials`` uniform random message vectors.

    Messages are drawn from a generator seeded with ``seed``, so reports
    are reproducible bit for bit. The encoder's batch decoder decodes the
    whole batch at every receiver at once, as ``decode`` does one
    codeword at one; a trial fails at a receiver that is undecodable,
    whose decoded symbols differ from the sent ones, or whose corrected
    codeword fails its parity check, recorded per (trial, receiver). The
    first call on an encoder, like the first ``decodable`` or ``decode``,
    peels every receiver and builds the batch decoder; pass a prebuilt
    ``encoder`` to reuse it. It checks each receiver's decoder on its
    window's rows: an entry's corrected symbol, the codeword less the
    side information's share, is the sum of its column's rows inside its
    receiver's window, so no codeword is formed; ``encode`` and
    ``decode`` cover the broadcast. Raises ``ValueError`` before
    allocating a message batch of more than ``MAX_CELLS`` cells, and
    ``OverflowError``, from the decoder's build, before drawing one for an
    encoder whose decoder's load is past the build's bound.
    """
    trials, seed = operator.index(trials), operator.index(seed)
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    symbols = trials * problem.K * solution.b_min
    if symbols > MAX_CELLS:
        raise ValueError(
            f"{trials} trials of {problem.K * solution.b_min} message symbols "
            f"= {symbols}, over the limit of {MAX_CELLS}"
        )
    start = time.perf_counter()
    enc = encoder if encoder is not None else build_encoder(problem, solution, p)
    # the pair fixes the encoder; the solution's source label does not
    if (
        enc.problem != problem
        or (enc.a, enc.b) != (solution.a_min, solution.b_min)
        or enc.p != operator.index(p)
    ):
        raise ValueError("supplied encoder does not match the requested simulation")
    K, b = problem.K, enc.b
    dec = enc._decoder
    enc._ranks  # raises if a receiver whose peel stalls is decodable at p
    rng = np.random.default_rng(seed)
    X = rng.integers(0, enc.p, size=(trials, K * b), dtype=np.int64)
    # every decodable receiver owns at least its b outputs
    receivers = np.flatnonzero(np.diff(dec.output_bounds))
    firsts = dec.output_bounds[receivers]
    failed = np.ones((trials, K), dtype=bool)
    # a slice of the trials at a time, so no entries x trials array
    # exceeds _DECODE_CELLS
    step = max(1, _DECODE_CELLS // max(1, dec.cols.size))
    for lo in range(0, trials, step):
        chunk = _pad(X[lo : lo + step])
        fixed = _gather_sum(chunk, dec.window_rows)
        wrong = dec.outputs(fixed, enc.p) != np.take(chunk, dec.targets, axis=0)
        failed[lo : lo + step, receivers] = np.logical_or.reduceat(wrong, firsts, axis=0).T
    # row-major order is (trial, receiver) order
    failures = tuple(zip(*(i.tolist() for i in np.nonzero(failed))))
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return SimReport(
        problem=problem,
        a=enc.a,
        b=b,
        p=enc.p,
        trials=trials,
        seed=seed,
        failures=failures,
        elapsed_ms=round(elapsed_ms, 3),
    )
