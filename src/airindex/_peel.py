"""The field-free peel: every receiver's ranks and decoder from the AIR cells.

The codec's decoder build, and the package's one nonsingularity
certificate. It imports only numpy, never another module of this
package, so any of them can use it; it reads a 0/1 matrix's nonzero
cells (``_Cells``) and the shape numbers of its windows, never a prime.
A receiver's unknowns are a cyclic window of w consecutive rows, the
windows of consecutive receivers start b rows apart, and its b wanted
rows start ``at`` rows into its window.

The certificate. The first peel (``_first_peel``) solves, round by
round, each row that is the one unsolved row of some column of its
window, and that column wins it. If it solves every row of a square
window, its n winners are all n columns. List the rows in solve order
and each row's winner in the same order: a winner holds its own row
with entry 1 and none of the other rows unsolved when it won, so none
listed after its own, and the window is a permutation of a unit
triangular matrix. Its determinant is therefore +-1, and it has full
rank in every field. ``_window_peels`` gives this verdict for every
window of a matrix at once, and
:func:`airindex.air.verify_adjacent_independence` reads it for every
AIR window.

Once the side information's share is subtracted, a codeword column is
the plain sum of its unknown rows, as the matrix is 0/1, so a column
with one unsolved unknown row solves that row by +-1 steps. A receiver
whose b wanted rows all peel, and whose leftover rows pass a second
peel, is decodable over every field: the peel gives its ranks and its
decoder with integer coefficients, with no field arithmetic. A receiver
whose peel stalls gets neither; the codec eliminates its window's rows
over GF(p) when its ranks are asked for, and every stalled receiver
seen so far is undecodable at every prime. That every receiver of every
feasible pair peels is a checked conjecture, not a theorem. The tests
check it for every minimal-rate encoder with K <= 20 and for drawn
pairs with a, b <= 3, and it has held for every minimal-rate encoder
with K <= 30 and for (71,25,1), (53,6,2), (60,20,10), (100,10,3) and
(37,8,8).

The peel runs on integer arrays, every receiver in step, over the
nonzero cells. Each receiver's count and sum of unknown rows per column
come from its window's cells, gathered once and counted by
``np.bincount``. Then, round by round, every column left with one
unsolved row solves it; where several columns hold the same row, the
first in column order wins, as in the first round of a peel that takes
one column at a time. The second peel is the same round loop
(``_rounds``) run from the row side: an unsolved row left with one live
column clears that column. The first peel took at most three
rounds on every minimal-rate encoder tried, and the number of array
operations grows with the rounds and with the runs of receivers that
the build's memory cap allows, not with K itself. The same build keeps
each receiver's two ranks and adds its decoder, with integer
coefficients, to the batch decoder, so even a single ``decodable`` on a
fresh encoder builds the decoders of all its receivers.

A receiver's decoder is a matrix M = [T | P] over the codeword columns.
For a codeword c' corrected by the side information's share (the
known rows' contribution to each column), c' @ T gives the wanted
symbols, and c' @ P is zero exactly when c' lies in the span of the
unknown rows. T's column for a wanted row is its peel expression: the
column that solved it, minus the expressions of the other rows that
column holds. P has one column per parity column f, a column that no
peel step used and no unsolved row meets: f minus the expressions of its
rows. There are n minus the rank of them, each with its 1 at its own
column, so together they are every check. Coefficients are summed over
the integers, and an entry whose sum is 0 is dropped, so every prime
shares them; each has been +1 or -1 on every encoder tried. A receiver
sees only its window of D+U+1 messages, so M is very sparse (T is about
0.2% nonzero on (71,25,1)). Most receivers have no parity column; those of
minimal-rate encoders with K <= 40 have at most four.

The batch decoder (``_BatchDecoder``) keeps the nonzero entries of
every decodable receiver's M. Each entry names a codeword column, that
column's rows inside its receiver's window, and a nonzero integer
coefficient. The entries are sorted into one contiguous segment per
output (a wanted symbol or a parity check), and each receiver owns one
contiguous range of entries and of outputs. The batch is entry-major:
one row per entry, one column per codeword.

Every decoder output's sum stays inside int64 at every accepted prime
by the build's bound on the decoder's load, argued once at its check in
``_build_decoder``. The batch decoder holds entries x window rows cells:
one row per entry, as wide as the most rows one column holds inside one
window (5 on (71,25,1), at most 2 on D = 1 for K <= 40), so at a fixed
window it grows linearly in K. Its build takes the receivers a run at a
time, so that none of its receivers x columns or receivers x window rows
arrays exceeds ``_PEEL_CELLS`` cells.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# bound on the cells of each receivers x columns and receivers x window
# rows array of the decoder build, which holds up to about twenty of them
# at once; a window of w rows of an AIR matrix holds at most w + n - 1
# cells (the tests check every m <= 60, and it holds for every m < 120),
# so each run's gathered window cells stay under 2 * _PEEL_CELLS too
_PEEL_CELLS = 1 << 14

# bound on every merged coefficient of ``_peel`` and on a decoder's load;
# below it every sum either makes stays inside int64 (see ``_build_decoder``)
_MAX_TERM = 2**31


class _Cells(NamedTuple):
    """The nonzero cells of an m x n 0/1 matrix, such as an encoder's AIR matrix.

    Rows are doubled: row r is stored again as row r + m, so that every
    cyclic run of w <= m rows starting at lo < m is the plain run
    lo .. lo+w-1 of the doubled rows. Row r's cells, for r < 2m, are
    ``row_ptr[r] .. row_ptr[r + 1] - 1``, with their columns, ascending,
    in ``row_cols`` and their row mod m in ``cell_rows``. ``col_keys``
    holds c * 2m + r for every doubled cell (r, c), sorted, so a
    column's rows inside a run are one range of it. ``col_rows`` lists
    the rows of the (undoubled) cells column by column, and column c's
    rows are ``col_rows[col_starts[c]:col_starts[c + 1]]``, so n is
    ``col_starts.size - 1``; a run is empty only for a zero column, which
    no AIR matrix has (see ``Encoder._column_sums``).
    ``row_col_sums[r]`` is the sum of row r's columns, for r < m, which
    the peel's second pass starts from.
    """

    row_ptr: np.ndarray
    row_cols: np.ndarray
    cell_rows: np.ndarray
    row_col_sums: np.ndarray
    col_keys: np.ndarray
    col_rows: np.ndarray
    col_starts: np.ndarray

    @classmethod
    def from_nonzero(cls, rows: np.ndarray, cols: np.ndarray, m: int, n: int) -> _Cells:
        """The cells (rows[i], cols[i]) of an m x n matrix, each given once, in any order.

        Any 0/1 matrix will do: a zero row or column holds no cell, and
        each row's sum of columns is counted by ``np.bincount``, as in
        ``_window_counts``, so an empty row sums to 0.
        """
        # every sort in this module is the stable one: ``_firsts`` needs it,
        # and one sort kernel keeps fewer of numpy's code pages resident
        by_row = (rows * n + cols).argsort(kind="stable")
        rows, cols = rows[by_row], cols[by_row]
        counts = np.bincount(rows, minlength=m)
        row_ptr = np.zeros(2 * m + 1, dtype=np.int64)
        np.cumsum(np.concatenate([counts, counts]), out=row_ptr[1:])
        keys = cols * (2 * m) + rows
        keys.sort(kind="stable")
        return cls(
            row_ptr=row_ptr,
            row_cols=np.concatenate([cols, cols]),
            cell_rows=np.concatenate([rows, rows]),
            # float64 sums are exact: each is below n**2 <= m*n, far under 2**53
            row_col_sums=np.bincount(rows, weights=cols, minlength=m).astype(np.int64),
            col_keys=np.sort(np.concatenate([keys, keys + m]), kind="stable"),
            col_rows=keys % (2 * m),
            col_starts=keys.searchsorted(np.arange(n + 1) * (2 * m)),
        )

    def dense(self, rows) -> np.ndarray:
        """The given rows (each < m) as a dense len(rows) x n int64 0/1 array."""
        rows = np.asarray(rows, dtype=np.int64)
        q, idx = _ranges(self.row_ptr[rows], self.row_ptr[rows + 1])
        out = np.zeros((rows.size, self.col_starts.size - 1), dtype=np.int64)
        out[q, self.row_cols[idx]] = 1
        return out


class _BatchDecoder(NamedTuple):
    """Every receiver's peel and every decodable one's decoder, as sparse entries.

    Built by ``_build_decoder`` from one batched peel of all receivers,
    which reads no p, so every prime shares it. ``ranks[k]`` is receiver
    k's (rank of interference rows, rank with wanted rows stacked on),
    which hold in every field, or None where its peel stalls. Entry e
    reads column ``cols[e]`` of its receiver's corrected codeword and
    multiplies it by ``coef[e]``, a nonzero integer that every prime
    shares. ``window_rows[e]`` holds that column's rows inside its
    receiver's window, padded with the index m. Output o
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
        reduced once into [0, p), and exact by the build's load bound (see
        ``_build_decoder``).
        """
        lo, hi = (0, self.cols.size) if k is None else self.entry_bounds[k : k + 2].tolist()
        outs = slice(None) if k is None else slice(*self.output_bounds[k : k + 2].tolist())
        out = np.add.reduceat(fixed * self.coef[lo:hi, None], self.starts[outs] - lo, axis=0)
        out %= p
        return out


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


def _window_counts(cells: _Cells, lo: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray]:
    """For each window i of w rows from ``lo[i]`` and each column c: the
    number and the sum of the window's rows in column c, flattened i-major.

    Each window's cells are one run of the doubled rows, gathered once
    and counted by two ``np.bincount``, so the starts may come in any
    order. On an AIR matrix each window holds at most w + n - 1 cells.
    """
    n = cells.col_starts.size - 1
    q, idx = _ranges(cells.row_ptr[lo], cells.row_ptr[lo + w])
    at = q * n + cells.row_cols[idx]
    count = np.bincount(at, minlength=lo.size * n)
    # float64 sums are exact: each is at most w*m < 2**52, as every encoder
    # has m <= 2**26 rows
    total = np.bincount(at, weights=cells.cell_rows[idx], minlength=lo.size * n)
    return count, total.astype(np.int64)


def _sum_cells(keys: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, ascending, and the sum of each one's values,
    less the keys whose sum is 0."""
    order = keys.argsort(kind="stable")
    keys, vals = keys[order], vals[order]
    first = _run_starts(keys)
    sums = np.add.reduceat(vals, first)
    keep = sums != 0
    return keys[first[keep]], sums[keep]


def _rounds(
    count: np.ndarray, total: np.ndarray, per: int, items: int, neighbours
) -> tuple[np.ndarray, int]:
    """The peel's round loop over slots grouped by window, ``per`` slots a window.

    Slot s belongs to window s // per; ``count[s]`` is how many unsolved
    items it meets and ``total[s]`` their sum, each item below ``items``.
    In each round every slot whose count is 1 takes the item named by its
    total, and of the slots of one window that take the same item the
    first wins (``_firsts``). ``neighbours(i, item)``, for the winners'
    windows and items, returns (q, slots): the slots of window ``i[q]``
    that meet ``item[q]``, each of whose count drops by 1 and total by
    that item. Each winner's count then becomes -1 and its total the item
    it took. Returns the winners in solve order and the count of the
    first round's winners, which lead them (0 when no round runs).
    """
    wins = [np.zeros(0, dtype=np.int64)]
    first_round = 0
    cand = (count == 1).nonzero()[0]
    while cand.size:
        item = total[cand]
        i = cand // per
        first = _firsts(i * items + item)
        cand, item, i = cand[first], item[first], i[first]
        q, slots = neighbours(i, item)
        np.add.at(count, slots, -1)
        np.add.at(total, slots, -item[q])
        count[cand], total[cand] = -1, item
        wins.append(cand)
        first_round = first_round or cand.size
        cand = (count == 1).nonzero()[0]
    return np.concatenate(wins), first_round


def _first_peel(cells: _Cells, lo: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """The first peel's rounds over the windows of w rows that start at rows ``lo``.

    ``_rounds`` from the column side: a column left with one unsolved row
    of its window solves it, and of the columns that hold the same row
    the first in column order wins. Returns ``who``, where
    ``who[i * w + offset]`` is the winner that solved that row of window
    i, or -1; the winners ``win``, as window * n + column in solve order;
    the count of the first round's winners, which lead ``win``; and each
    window's count of unsolved rows per column, i-major, with -1 at every
    winner.
    """
    m, n = (cells.row_ptr.size - 1) // 2, cells.col_starts.size - 1
    count, total = _window_counts(cells, lo, w)

    def solve(i, rows):
        q, idx = _ranges(cells.row_ptr[rows], cells.row_ptr[rows + 1])
        return q, i[q] * n + cells.row_cols[idx]

    win, first_round = _rounds(count, total, n, m, solve)
    i = win // n
    who = np.full(lo.size * w, -1)
    who[i * w + (total[win] - lo[i]) % m] = np.arange(win.size)
    return who, win, first_round, count


def _window_peels(cells: _Cells, lo: np.ndarray, w: int) -> np.ndarray:
    """Whether the first peel solves every row of each window of w rows from ``lo``.

    A window that peels is nonsingular in every field (see the module
    docstring). The windows run in runs, as in ``_build_decoder``, so
    that no windows x columns array exceeds ``_PEEL_CELLS`` cells.
    """
    step = max(1, _PEEL_CELLS // max(cells.col_starts.size - 1, w))
    runs = (_first_peel(cells, lo[k : k + step], w)[0] for k in range(0, lo.size, step))
    return np.concatenate([(who.reshape(-1, w) >= 0).all(axis=1) for who in runs])


def _peel(cells: _Cells, lo: np.ndarray, w: int, b: int, at: int, name) -> tuple[np.ndarray, ...]:
    """Peel the receivers whose windows of w rows start at rows ``lo``.

    The wanted b rows start ``at`` rows into each window. Once the side
    information's share is subtracted, codeword column j is the plain
    sum of its unknown rows, as the matrix is 0/1, so a column with one
    unsolved unknown row r solves it: x_r = c'_j minus the other rows of
    j, all solved before. Every receiver peels at once, in rounds: in
    each, every column left with one unsolved row solves it, found by one
    scan of the counts, and of the columns that hold the same row the
    first in column order wins; the losers, which hold the solved row,
    drop to no unsolved row and become parity columns. The rows a peel
    solves, and so the verdicts and ranks, do not depend on that choice,
    and every choice gives a valid decoder. A receiver stalls unless its b wanted rows
    are solved.

    The unsolved rows meet only the columns left with two or more of
    them. A second peel, the same round loop run from the row side,
    clears each column that an unsolved row is the last to meet, and of
    the rows of one window that meet the same last column the first
    wins. The rows it uses form a unit triangle against the columns, so
    the leftover block has full column rank in every field; a receiver
    stalls unless this clears all of its columns. The solved rows form a
    unit triangle against their columns too, so a receiver that peels has
    unknown rows of rank n minus its count of parity columns, those that
    no round used and no unsolved row meets, in every field.

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
    ``_MAX_TERM`` raises ``OverflowError``, naming the instance ``name``,
    before a later merge could leave int64; the final coefficients are
    bounded by ``_build_decoder``, through the decoder's load, not here.
    """
    m, n = (cells.row_ptr.size - 1) // 2, cells.col_starts.size - 1
    C = lo.size
    who, win, first_round, count = _first_peel(cells, lo, w)
    win_i, win_c = win // n, win % n
    del win  # as large as a receivers x columns array
    wanted = who.reshape(C, w)[:, at : at + b]
    ok = (wanted >= 0).all(axis=1)
    count = count.reshape(C, n)
    parity = (count == 0).sum(axis=1)
    live = (count >= 2).sum(axis=1)
    # second peel, from the row side: each unsolved row of a receiver whose
    # wanted rows peeled, with its count and sum of columns, all of them live
    rows = (lo[:, None] + np.arange(w)) % m
    deg = np.diff(cells.row_ptr[: m + 1])[rows]
    deg[(who.reshape(C, w) >= 0) | ~ok[:, None]] = 0

    def clear(i, c):
        q, off = _cut(cells, c, lo[i], w)
        return q, i[q] * w + off

    # each winner clears one column: a receiver passes if it clears all its live ones
    cleared = _rounds(deg.ravel(), cells.row_col_sums[rows].ravel(), w, n, clear)[0] // w
    ok &= np.bincount(cleared, minlength=C) == live
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
        late = u >= first_round
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
            raise OverflowError(f"a decoder coefficient of {name} exceeds 2**31")
        o, u = keys // win_c.size, keys % win_c.size
    o, c, v = (np.concatenate(part) for part in zip(*terms))
    keys, coef = _sum_cells(o * n + c, v)
    return ok, parity, keys // n, keys % n, coef


def _build_decoder(cells: _Cells, K: int, w: int, b: int, at: int, name, a: int) -> _BatchDecoder:
    """The batch decoder of K receivers, from one batched peel of every one.

    Receiver k's window is the cyclic run of w rows from k*b - ``at``,
    and its b wanted rows are rows k*b .. k*b+b-1. ``name`` and ``a`` only
    name the encoder, as the instance ``name`` at (a, b), in a refusal.
    ``_peel`` runs over runs of consecutive receivers, each small enough
    that no receivers x columns or receivers x window rows array exceeds
    ``_PEEL_CELLS`` cells. A receiver the peel certifies is decodable,
    with the peel's ranks. Every output's segment is nonempty, as each
    holds its own column with coefficient 1. A receiver whose peel stalls
    gets no ranks and no entries; ``Encoder._ranks`` eliminates its
    window's rows at each prime. Each entry's window rows are its
    column's rows inside its receiver's window, cut from the cells.
    Nothing here reads p. The decoder's ``load`` keeps every output's
    sum inside int64; the argument is at its check, which raises
    ``OverflowError`` past the bound, before any window rows are cut.
    """
    m, n = (cells.row_ptr.size - 1) // 2, cells.col_starts.size - 1
    lo = (np.arange(K) * b - at) % m
    step = max(1, _PEEL_CELLS // max(n, w))
    firsts = range(0, K, step)
    runs = (_peel(cells, lo[k : k + step], w, b, at, name) for k in firsts)
    ok, parity, outs, cols, coef = zip(*runs)
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
    # The load bound. ``load`` is the largest, over the outputs, of the sum
    # over an output's entries e of |coef[e]| times the weight (count of
    # nonzero rows) of column cols[e]. An entry's corrected symbol is the
    # codeword symbol reduced into [0, p) less its column's known rows,
    # each in [0, p) (``decode``), or the sum of its column's rows inside
    # its receiver's window, each in [0, p) (``simulate``), so it is at
    # most p-1 times its column's weight in magnitude, and each product
    # and partial sum of an output is at most (p-1)*load. Every prime that
    # ``require_prime`` accepts has p-1 < 2**31.5, so a load within
    # _MAX_TERM = 2**31 keeps each below 2**62.5; as the load is at least
    # every |coef|, it bounds the coefficients too. A larger load raises
    # here, so the first ``decodable``, ``receiver_ranks``, ``decode`` or
    # ``simulate`` on such an encoder raises before anything is summed. No
    # AIR encoder comes near it: the load is 18 on (71,25,1), at most 28
    # on the minimal-rate encoders with K <= 20, and K/2 on D = 1.
    weight = np.diff(cells.col_starts)
    load = np.add.reduceat(np.abs(coef) * weight[cols], starts).max(initial=0)
    if load > _MAX_TERM:
        raise OverflowError(
            f"the decoder of {name} at (a={a}, b={b}) has load {load}, "
            f"over {_MAX_TERM}: its output sums could leave int64"
        )
    entry_lo = lo[recv[outs]]
    q, off = _cut(cells, cols, entry_lo, w)
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
