"""Vector-linear encoding, decodability checks, decoding and simulation.

The encoder for a (K, D, U) instance with a feasible pair (a, b) over
GF(p) is the K*b x (b*(D+1)+a) AIR matrix; its 0/1 entries make the
construction field-agnostic. Message k owns the b consecutive encoder
rows starting at k*b, so receiver k's unknowns are the (D+U+1)*b rows of
the cyclic message window k-U .. k+D and its side information covers the
rest. A broadcast is c = x @ L; receiver k subtracts the known message
contributions and solves the remaining system, whose wanted coordinates
are unique exactly when

    rank([interference rows; wanted rows]) == rank(interference rows) + b

over GF(p). The first ``decodable``, ``receiver_ranks``, ``decode`` or
``simulate`` on an encoder peels every receiver once, each over its
unknown rows. Once the side information's share is subtracted, a
codeword column is the plain sum of its unknown rows, as L is 0/1, so a
column with one unsolved unknown row solves that row by +-1 steps. A
receiver whose b wanted rows all peel, and whose leftover rows pass a
second peel, is decodable over every field: the peel gives its ranks and
its decoder with integer coefficients, with no field arithmetic. Only a
receiver whose peel stalls gets its ranks from one GF(p) elimination
of its window's rows; every stalled receiver seen so far is undecodable
at every prime. That every receiver of every feasible pair peels is a
checked conjecture, not a theorem. The tests check it for every
minimal-rate encoder with K <= 20 and for drawn pairs with a, b <= 3,
and it has held for every minimal-rate encoder with K <= 30 and for
(71,25,1), (53,6,2), (60,20,10), (100,10,3) and (37,8,8). The same pass
keeps each receiver's two ranks and adds its decoder, reduced mod p, to
the encoder's batch decoder, so even a single ``decodable`` on a fresh
encoder builds the decoders of all its receivers.

A receiver's decoder is a matrix M = [T | P] over the codeword columns.
For a codeword c' corrected by the side information's share (the
known encoder rows' contribution to each column), c' @ T gives the
wanted symbols, and c' @ P is zero exactly when c' lies in the span of
the unknown rows. T's column for a wanted row is its peel expression:
the column that solved it, minus the expressions of the other rows that
column holds. P has one column per parity column f, a column that no
peel step used and no unsolved row meets: f minus the expressions of its
rows. There are n minus the rank of them, each with its 1 at its own
column, so together they are every check. Coefficients are reduced mod
p, and an entry that vanishes is dropped. A receiver sees only its
window of D+U+1 messages, so M is very sparse (T is about 0.2% nonzero
on (71,25,1)). Most receivers have no parity column; those of
minimal-rate encoders with K <= 40 have at most four.

The encoder keeps the nonzero entries of every decodable receiver's M
in one sparse batch. Each entry names a codeword column, that column's
rows inside its receiver's window, and a coefficient in [1, p). The
entries are sorted into one contiguous segment per output (a wanted
symbol or a parity check), and each receiver owns one contiguous range
of entries and of outputs. Decoding a batch of codewords takes three
steps: correct each entry's codeword symbol by the side information's
share, form c'[col] % p * coef, and sum every segment with
``np.add.reduceat``. The share is summed over the encoder's column
support, the table ``encode`` gathers codewords through. ``decode``
holds only one receiver's known messages, its unknown ones zero, so at
that receiver's columns the codeword less their support's sum is its
corrected codeword. ``simulate`` holds every message, so each entry
subtracts its column's total and adds back the column's rows in its
receiver's window; it runs every receiver at once, where ``decode``
runs one receiver's range.

Message vectors, codewords and side information must hold integers
(:func:`airindex.linalg.as_int_array`); receiver indices go through
``operator.index``. Neither is ever truncated.

Supported sizes. All arithmetic is exact in int64: each output sums at
most K*b products below p**2, so ``build_encoder`` passes p to
:func:`airindex.linalg.require_prime` with K*b terms. Before allocating
anything it also refuses an encoder shape that ``build_air`` would
refuse, and ``simulate`` refuses a run whose message batch (trials*K*b
symbols) exceeds the same ``MAX_CELLS`` cap. The batch decoder holds
entries x window rows cells: one row per entry, as wide as the most rows
one column holds inside one window (5 on (71,25,1), at most 2 on D = 1
for K <= 40), so at a fixed window it grows linearly in K.
"""

from __future__ import annotations

import json
import operator
import time
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

from .air import MAX_CELLS, AirMatrix, _require_shape, build_air
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


def _cyclic_cut(col: list[int], lo: int, hi: int, m: int) -> list[int]:
    """The rows of ``col`` in the cyclic run lo .. hi-1 mod m, ascending.

    ``col`` is one encoder column's rows, ascending, and 0 <= lo < m,
    hi - lo <= m. Cut by bisection, so a heavy column, which on D = 1
    holds about K/2 rows, costs no step more than the run.
    """
    if hi > m:  # the run wraps past m to the front
        return col[: bisect_left(col, hi - m)] + col[bisect_left(col, lo) :]
    return col[bisect_left(col, lo) : bisect_left(col, hi)]


@dataclass(frozen=True, eq=False)
class Encoder:
    """An instance bound to its AIR encoding matrix over GF(p).

    Immutable after construction. Cached internally and shared by
    decodability checks, decoding and simulation: the nonzero structure
    of the encoder rows and columns, which every peel reads, and the
    batch decoder (``_decoder``), which holds every receiver's ranks and
    the decoder of every decodable receiver, built by one peel per
    receiver on first use. Decoding corrects codewords by the side
    information's share through the same column support that encodes
    them.
    """

    problem: ProblemInstance
    solution: RateSolution
    matrix: AirMatrix
    p: int

    @property
    def b(self) -> int:
        return self.solution.b_min

    @property
    def a(self) -> int:
        return self.solution.a_min

    @property
    def rows(self) -> int:
        return self.matrix.m

    @property
    def cols(self) -> int:
        return self.matrix.n

    @cached_property
    def _incidence(self) -> tuple[list[list[int]], list[list[int]]]:
        """Each row's nonzero columns and each column's nonzero rows, ascending."""
        row_cols: list[list[int]] = [[] for _ in range(self.rows)]
        col_rows: list[list[int]] = [[] for _ in range(self.cols)]
        rows, cols = np.nonzero(self.matrix.entries)
        for r, c in zip(rows.tolist(), cols.tolist()):
            row_cols[r].append(c)
            col_rows[c].append(r)
        return row_cols, col_rows

    @cached_property
    def _col_support(self) -> np.ndarray:
        """Row indices of each encoder column's nonzero entries.

        One row per column, padded with the out-of-range index ``rows``
        to the widest column's count.
        """
        col_rows = self._incidence[1]
        table = np.full((self.cols, max(map(len, col_rows))), self.rows, dtype=np.int64)
        for c, rows in enumerate(col_rows):
            table[c, : len(rows)] = rows
        return table

    @cached_property
    def _decoder(self) -> _BatchDecoder:
        """Every receiver's ranks and decoder, built on first use; see ``_BatchDecoder``."""
        return _build_decoder(self)

    def _broadcast(self, X: np.ndarray) -> np.ndarray:
        """``X @ L % p`` for a 2-D batch X of message vectors with entries < p.

        As L is 0/1, each codeword symbol is the sum of the message
        symbols at its column's nonzero rows. Gathering those few
        symbols per column reads X once, where the dense product streams
        all of L once per message vector.
        """
        return _gather_sum(_pad(X), self._col_support) % self.p


def _pad(X: np.ndarray) -> np.ndarray:
    """X with a zero column at the support tables' padding index appended."""
    padded = np.zeros((X.shape[0], X.shape[1] + 1), dtype=np.int64)
    padded[:, :-1] = X
    return padded


def _gather_sum(padded: np.ndarray, support: np.ndarray) -> np.ndarray:
    """``out[:, j]`` = the sum of ``padded[:, i]`` over the i in ``support[j]``.

    Adding one slot of the table at a time keeps every temporary to the
    size of ``out``.
    """
    out = np.zeros((padded.shape[0], support.shape[0]), dtype=np.int64)
    for slot in support.T:
        out += padded[:, slot]
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
    p = require_prime(p, terms=rows)
    return Encoder(problem=problem, solution=solution, matrix=build_air(rows, cols), p=p)


def encode(encoder: Encoder, x) -> np.ndarray:
    """Codeword x @ L over GF(p) for a length-K*b message vector."""
    xv = as_int_array(x)
    if xv.ndim != 1 or xv.shape[0] != encoder.rows:
        raise ValueError(
            f"message vector must have length {encoder.rows}, got shape {xv.shape}"
        )
    return encoder._broadcast((xv % encoder.p)[None])[0]


def _peel(encoder: Encoder, window: list[int], k: int) -> tuple[int, list[dict], dict] | None:
    """Receiver k's decoder over Z and the rank of its unknown rows, or None on a stall.

    ``window`` is ``_window(problem, k)``, so the unknown rows are one
    cyclic run of encoder rows, starting at its first message's.

    Once the side information's share is subtracted, codeword column j
    is the plain sum of its unknown rows, as L is 0/1. So a column with
    one unsolved unknown row r solves it: x_r = c'_j minus the other
    rows of j, all solved before. Repeating this solves rows in an order
    in which each step's column meets no row solved later. The peel
    stalls unless it solves all b wanted rows.

    The unsolved rows meet only the columns left with two or more of
    them. A second peel clears those columns one at a time, each by an
    unsolved row that meets no other column still left. The rows it
    uses form a unit triangle against the columns, so the leftover
    block has full column rank in every field; the peel stalls unless
    this clears every such column. The solved rows form a unit triangle
    against their columns too, so the unknown rows have rank
    n - len(parity) in every field, where ``parity`` holds the columns
    that no step used and no unsolved row meets.

    Returns that rank, the outputs as {column: integer coefficient}
    maps, and {column: its unknown rows, ascending} for every column the
    outputs hold. The outputs are the b wanted rows' expressions, then,
    per parity column f, f minus the expressions of its rows, which
    vanishes on every combination of the unknown rows. Each output holds
    its own column with coefficient 1, as the rows it subtracts were
    solved from other columns, before it.
    """
    b, m, n = encoder.b, encoder.rows, encoder.cols
    row_cols, col_rows = encoder._incidence
    unknown = [r for j in window for r in range(j * b, (j + 1) * b)]
    count = [0] * n  # each column's unsolved unknown rows; -1 once a step used it
    total = [0] * n  # the sum of their indices, which is the row once count is 1
    for r in unknown:
        for c in row_cols[r]:
            count[c] += 1
            total[c] += r
    # the unknown rows are lo .. hi-1, cyclically mod m
    lo, hi = unknown[0], unknown[0] + len(unknown)

    def mine(c: int) -> list[int]:
        """Column c's unknown rows, ascending."""
        return _cyclic_cut(col_rows[c], lo, hi, m)

    solved = {}  # row -> the column that solved it, in solving order
    queue = [c for c in range(n) if count[c] == 1]
    for c in queue:
        if count[c] != 1:
            continue
        r = total[c]
        solved[r] = c
        for j in row_cols[r]:
            count[j] -= 1
            total[j] -= r
            if count[j] == 1:
                queue.append(j)
        count[c] = -1
    wanted = range(k * b, (k + 1) * b)
    if not all(r in solved for r in wanted):
        return None
    parity = [c for c in range(n) if not count[c]]
    left = n - len(solved) - len(parity)
    # the unsolved rows, each with the number and the sum of the columns
    # it meets that are still left; all of its columns hold two or more
    # unsolved rows at first
    rest = {r: [len(row_cols[r]), sum(row_cols[r])] for r in unknown if r not in solved}
    queue = [r for r, (d, _) in rest.items() if d == 1]
    for r in queue:
        d, c = rest[r]
        if d != 1:
            continue
        left -= 1
        for i in mine(c):
            if i in rest:
                live = rest[i]
                live[0] -= 1
                live[1] -= c
                if live[0] == 1:
                    queue.append(i)
    if left:
        return None
    # the rows the outputs read, and in turn the earlier rows each solved
    # one reads, found in one pass back through the solving order; each
    # column an output holds is cut once
    cut = {f: mine(f) for f in parity}
    need = set(wanted).union(*cut.values())
    for r, c in reversed(solved.items()):
        if r in need:
            cut[c] = mine(c)
            need.update(cut[c])
    exprs: dict[int, dict[int, int]] = {}
    for r, c in solved.items():
        if r in need:
            exprs[r] = _minus_found(c, cut[c], exprs)
    outputs = [exprs[r] for r in wanted]
    outputs += (_minus_found(f, cut[f], exprs) for f in parity)
    return n - len(parity), outputs, cut


def _minus_found(c: int, rows: list[int], exprs: dict) -> dict[int, int]:
    """Column c minus the expressions found so far for its ``rows``."""
    e = {c: 1}
    for i in rows:
        found = exprs.get(i)
        if found:
            for j, v in found.items():
                e[j] = e.get(j, 0) - v
    return e


class _BatchDecoder(NamedTuple):
    """Every receiver's ranks and every decodable one's decoder, as sparse entries.

    ``ranks[k]`` is receiver k's (rank of interference rows, rank with
    wanted rows stacked on). Entry e reads column ``cols[e]`` of its
    receiver's corrected codeword and multiplies it by ``coef[e]`` in
    [1, p). ``window_rows[e]`` holds that column's rows inside its
    receiver's window, padded with the index ``encoder.rows``. Output o
    sums the entries ``starts[o]`` up to the next output's start, mod p;
    it must equal message row ``targets[o]`` for a wanted symbol, and
    zero, read at the padding index, for a parity column. Receiver k owns
    entries ``entry_bounds[k] : entry_bounds[k + 1]`` and outputs
    ``output_bounds[k] : output_bounds[k + 1]``: its b wanted symbols,
    then one parity check per parity column. An undecodable receiver owns
    none.
    """

    p: int
    ranks: list[tuple[int, int]]
    cols: np.ndarray
    window_rows: np.ndarray
    coef: np.ndarray
    starts: np.ndarray
    targets: np.ndarray
    entry_bounds: np.ndarray
    output_bounds: np.ndarray

    def outputs(self, fixed: np.ndarray, k: int | None = None) -> np.ndarray:
        """Receiver k's outputs, or every receiver's, for each row of ``fixed``.

        ``fixed`` holds one value per entry of that range: the entry's
        column of its receiver's corrected codeword, the codeword less the
        side information's share. A genuine codeword gives the sent
        symbols and zero parity.
        """
        lo, hi = (0, len(self.cols)) if k is None else self.entry_bounds[k : k + 2]
        outs = slice(None) if k is None else slice(*self.output_bounds[k : k + 2])
        out = fixed % self.p
        out *= self.coef[lo:hi]
        return np.add.reduceat(out, self.starts[outs] - lo, axis=1) % self.p


# bound on the cells of each temporary array in one decode step of
# ``simulate``, so that its working set stays near the message batch's
_DECODE_CELLS = 1 << 16


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


def _build_decoder(encoder: Encoder) -> _BatchDecoder:
    """The encoder's batch decoder, from one peel of every receiver.

    A receiver the peel certifies is decodable, with the peel's ranks.
    Its outputs' coefficients are reduced mod p, and an entry that is 0
    mod p is dropped. Every segment is nonempty, as each output keeps its
    own column with coefficient 1. A receiver whose peel stalls gets its
    ranks from one elimination of its window's rows, interference rows
    first and wanted rows last, and no entries. Every stalled receiver
    seen so far is undecodable at every prime. One that these ranks call
    decodable would need a decoder the peel did not give, so the build
    raises instead.
    """
    problem, b, p, m = encoder.problem, encoder.b, encoder.p, encoder.rows
    ranks: list[tuple[int, int]] = []
    cols: list[int] = []
    outs: list[int] = []
    coef: list[int] = []
    window_rows: list[list[int]] = []
    targets: list[int] = []
    output_bounds = [0]
    for k in range(problem.K):
        window = _window(problem, k)
        peeled = _peel(encoder, window, k)
        if peeled is None:
            interference = [r for j in window if j != k for r in range(j * b, (j + 1) * b)]
            rank_interference, rank_all = _stacked_ranks_mod_p(
                encoder.matrix.entries[interference], encoder.matrix.entries[k * b : (k + 1) * b], p
            )
            if rank_all == rank_interference + b:
                raise AssertionError(
                    f"receiver {k} of {problem} at (a={encoder.a}, b={b}) over GF({p}): "
                    "the peel stalled, yet elimination finds it decodable"
                )
            ranks.append((rank_interference, rank_all))
        else:
            rank_all, outputs, cut = peeled
            ranks.append((rank_all - b, rank_all))
            for o, expr in enumerate(outputs, len(targets)):
                for c, x in expr.items():
                    x %= p
                    if x:
                        cols.append(c)
                        outs.append(o)
                        coef.append(x)
                        window_rows.append(cut[c])
            targets += range(k * b, (k + 1) * b)
            targets += [m] * (len(outputs) - b)
        output_bounds.append(len(targets))
    width = np.fromiter(map(len, window_rows), dtype=np.int64, count=len(cols))
    table = np.full((len(cols), width.max(initial=0)), m, dtype=np.int64)
    # row-major, so each entry's rows fill the front of its own row
    table[np.arange(table.shape[1]) < width[:, None]] = list(chain.from_iterable(window_rows))
    starts = _segment_starts(np.array(outs, dtype=np.int64), len(targets))
    col_arr = np.array(cols, dtype=np.int64)
    bounds = np.array(output_bounds, dtype=np.int64)
    return _BatchDecoder(
        p=p,
        ranks=ranks,
        cols=col_arr,
        window_rows=table,
        coef=np.array(coef, dtype=np.int64),
        starts=starts,
        targets=np.array(targets, dtype=np.int64),
        entry_bounds=np.append(starts, col_arr.size)[bounds],
        output_bounds=bounds,
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
    return encoder._decoder.ranks[_receiver(encoder.problem, k)]


def decode(encoder: Encoder, k: int, codeword, side_info) -> np.ndarray:
    """Recover receiver k's b symbols from a codeword and side information.

    ``side_info`` maps message index j to its b symbols for every j the
    receiver knows (anything outside the interference window and k
    itself); extra entries are ignored. Runs the receiver's range of the
    encoder's batch decoder on a batch of one: the side information goes
    into a message row whose unknown messages stay zero, so the codeword
    less that row's encoding, read at the columns the receiver's decoder
    reads, is its corrected codeword there. The first call on an encoder,
    like the first ``decodable``, peels every receiver and builds the
    decoders of all of them. Raises if the receiver is not decodable or
    the codeword fails the receiver's parity check, as no genuine
    codeword can.
    """
    problem, p, b = encoder.problem, encoder.p, encoder.b
    k = _receiver(problem, k)
    if not decodable(encoder, k):
        raise ValueError(f"receiver {k} cannot decode with this encoder")
    c = as_int_array(codeword)
    if c.ndim != 1 or c.shape[0] != encoder.cols:
        raise ValueError(f"codeword must have length {encoder.cols}, got shape {c.shape}")
    # the known messages are the cyclic run after the window's last, k+D
    known = []
    for j in ((k + i) % problem.K for i in range(problem.D + 1, problem.K - problem.U)):
        try:
            v = side_info[j]
        except (KeyError, TypeError, IndexError):
            raise ValueError(f"side information for message {j} is missing") from None
        v = as_int_array(v)
        if v.shape != (b,):
            raise ValueError(f"side information for message {j} must have length {b}")
        known.append(v)
    padded = np.zeros((1, encoder.rows + 1), dtype=np.int64)
    if known:  # their rows are one cyclic run too
        first = (k + problem.D + 1) % problem.K * b
        rows = np.arange(first, first + len(known) * b) % encoder.rows
        padded[0, rows] = np.concatenate(known) % p
    dec = encoder._decoder
    cols = dec.cols[slice(*dec.entry_bounds[k : k + 2])]
    # one receiver's columns, so summing their whole support at once is small
    fixed = c[cols] % p - padded[:, encoder._col_support[cols]].sum(axis=2)
    out = dec.outputs(fixed, k)[0]
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
    ``encoder`` to reuse it. Each entry's corrected symbol is its
    column's codeword symbol less the column's total over the batch, plus
    the column's rows in its receiver's window. Raises ``ValueError``
    before allocating a message batch of more than ``MAX_CELLS`` cells.
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
    rng = np.random.default_rng(seed)
    padded = _pad(rng.integers(0, enc.p, size=(trials, K * b), dtype=np.int64))
    dec = enc._decoder
    # every decodable receiver owns at least its b outputs
    receivers = np.flatnonzero(np.diff(dec.output_bounds))
    failed = np.ones((trials, K), dtype=bool)
    # a slice of the trials at a time, so no temporary exceeds _DECODE_CELLS
    step = max(1, _DECODE_CELLS // max(dec.cols.size, enc.cols))
    for lo in range(0, trials, step):
        rows = slice(lo, lo + step)
        total = _gather_sum(padded[rows], enc._col_support)
        # the broadcast codeword less each column's total, at the entries'
        # columns, plus the share of each entry's window rows
        fixed = (total % enc.p - total)[:, dec.cols] + _gather_sum(padded[rows], dec.window_rows)
        wrong = dec.outputs(fixed) != padded[rows, dec.targets]
        firsts = dec.output_bounds[receivers]
        failed[rows, receivers] = np.logical_or.reduceat(wrong, firsts, axis=1)
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
