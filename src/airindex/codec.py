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

over GF(p). Each receiver's plan is one elimination of its unknown rows,
run once per encoder, and the ranks come from it; checking decodability
alone builds no decoder. The first ``decode`` or ``simulate`` on an
encoder builds the decoders of all its decodable receivers in one pass
over their plans' solved forms, so even a single decode on a fresh
encoder eliminates every receiver. Each plan then drops its elimination.

A receiver's decoder is a matrix M = [T | P] over the codeword columns.
For a codeword c' corrected by the side information's share (the
known encoder rows' contribution to each column), c' @ T gives the
wanted symbols, and c' @ P is zero exactly when c' lies in the span of
the unknown rows: P has one column per free (non-pivot) column f, with a
1 at f and -R[:, f] mod p at the pivot columns, where R holds the solved
pivot rows' entries at the free columns. A receiver sees only its window
of D+U+1 messages, so M is very sparse (T is about 0.2% nonzero on
(71,25,1)). Most receivers have no free column; those of minimal-rate
encoders with K <= 40 have at most four.

The encoder keeps the nonzero entries of every decodable receiver's M
in one sparse batch. Each entry names a codeword column, that column's
known encoder rows for its receiver, and a coefficient in [1, p). The
entries are sorted into one contiguous segment per output (a wanted
symbol or a parity column), and each receiver owns one contiguous range
of entries and of outputs. Decoding a batch of codewords takes three
steps: gather each entry's share, form (c[col] - share) % p * coef, and
sum every segment with ``np.add.reduceat``. ``simulate`` runs them once
over all receivers, ``decode`` over one receiver's range.

Message vectors, codewords and side information must hold integers
(:func:`airindex.linalg.as_int_array`); receiver indices go through
``operator.index``. Neither is ever truncated.

Supported sizes. All arithmetic is exact in int64: each output sums at
most K*b products below p**2, so ``build_encoder`` passes p to
:func:`airindex.linalg.require_prime` with K*b terms. Before allocating
anything it also refuses an encoder shape that ``build_air`` would
refuse, and ``simulate`` refuses a run whose message batch (trials*K*b
symbols) exceeds the same ``MAX_CELLS`` cap.
"""

from __future__ import annotations

import json
import operator
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._echelon import stream_echelon
from .air import MAX_CELLS, AirMatrix, _require_shape, build_air
from .linalg import as_int_array, require_prime
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

    Immutable after construction. Cached internally and shared by
    decodability checks, decoding and simulation: the per-receiver plans
    (ranks), the decoder of every decodable receiver as one sparse batch,
    built by the first ``decode`` or ``simulate``, the encoder rows packed
    once for the field's echelon, which each plan inserts as interference
    rows or tags as its own wanted rows, and the nonzero structure of the
    encoder columns.
    """

    problem: ProblemInstance
    solution: RateSolution
    matrix: AirMatrix
    p: int
    _plans: dict = field(default_factory=dict, repr=False)

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
    def _packed_rows(self):
        """The encoder rows in the form its receivers' echelons insert."""
        return stream_echelon(self.cols, self.b, self.p).pack(self.matrix.entries)

    @cached_property
    def _col_support(self) -> np.ndarray:
        """Row indices of each encoder column's nonzero entries."""
        return _support(self.matrix.entries.T)

    @cached_property
    def _decoder(self) -> _BatchDecoder:
        """Every decodable receiver's decoder, built on first use; see ``_BatchDecoder``."""
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


def _support(matrix: np.ndarray) -> np.ndarray:
    """Column indices of the nonzero entries of each row of ``matrix``.

    One row per row of ``matrix``, padded with the out-of-range index
    ``matrix.shape[1]`` to the widest row's count.
    """
    # nonzero() is several times faster on a bool array than on int64
    rows, cols = np.nonzero(matrix != 0)
    m, n = matrix.shape
    counts = np.bincount(rows, minlength=m)
    starts = np.cumsum(counts) - counts
    table = np.full((m, int(counts.max(initial=0))), n, dtype=np.int64)
    table[rows, np.arange(rows.size) - starts[rows]] = cols
    return table


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


class _ReceiverPlan:
    """Ranks for one receiver of an encoder.

    Inserts the interference rows first and the wanted rows last into a
    streaming echelon, recording the rank after each phase; the rank
    criterion falls out of that single pass. A decodable receiver keeps the
    echelon only until ``_build_decoder`` reads its decoder from the
    solved form; an undecodable one drops it at once.
    """

    def __init__(self, encoder: Encoder, k: int):
        problem = encoder.problem
        K, b = problem.K, encoder.b
        window = _window(problem, k)
        in_window = set(window)
        self.k = k
        self.known_messages = [j for j in range(K) if j not in in_window]
        packed = encoder._packed_rows
        ech = stream_echelon(encoder.cols, b, encoder.p)
        for j in window:
            if j != k:
                ech.insert_packed(packed[j * b : (j + 1) * b])
        self.rank_interference = ech.rank
        # wanted row k*b+i carries a 1 at aux column i
        ech.insert_packed(ech.with_unit_aux(packed[k * b : (k + 1) * b]))
        self.rank_all = ech.rank
        self.decodable = self.rank_all == self.rank_interference + b
        self._echelon = ech if self.decodable else None


def _plan(encoder: Encoder, k) -> _ReceiverPlan:
    k = _receiver(encoder.problem, k)
    plan = encoder._plans.get(k)
    if plan is None:
        plan = _ReceiverPlan(encoder, k)
        encoder._plans[k] = plan
    return plan


class _BatchDecoder(NamedTuple):
    """The decoders of all decodable receivers of an encoder, as sparse entries.

    Entry e reads codeword column ``cols[e]``, subtracts the share of
    the message rows in ``known_support[e]`` (that column's support,
    each row its receiver does not know replaced by the padding index
    ``encoder.rows``) and multiplies by ``coef[e]`` in [1, p). Output o
    sums the entries ``starts[o]`` up to the next output's start, mod p;
    it must equal message row ``targets[o]`` for a wanted symbol, and
    zero, read at the padding index, for a parity column. Receiver k
    owns entries ``entry_bounds[k] : entry_bounds[k + 1]`` and outputs
    ``output_bounds[k] : output_bounds[k + 1]``: its b wanted symbols,
    then one parity column per free column. An undecodable receiver owns
    none.
    """

    p: int
    cols: np.ndarray
    known_support: np.ndarray
    coef: np.ndarray
    starts: np.ndarray
    targets: np.ndarray
    entry_bounds: np.ndarray
    output_bounds: np.ndarray

    def outputs(self, C: np.ndarray, padded: np.ndarray, k: int | None = None) -> np.ndarray:
        """Receiver k's outputs, or every receiver's, for each codeword row of C.

        C is a batch of codewords, entries in [0, p); ``padded`` holds the
        matching message vectors, entries in [0, p), with a zero column
        appended (see ``_pad``), of which only the known rows are read.
        A genuine codeword gives the sent symbols and zero parity.
        """
        lo, hi = (0, len(self.cols)) if k is None else self.entry_bounds[k : k + 2]
        outs = slice(None) if k is None else slice(*self.output_bounds[k : k + 2])
        out = C[:, self.cols[lo:hi]]
        out -= _gather_sum(padded, self.known_support[lo:hi])
        out %= self.p
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
    """The encoder's batch decoder, from one pass over every receiver's plan.

    Builds each plan first if needed and drops its echelon once read.
    T solves A @ T = E where A stacks the unknown rows and E marks the
    wanted ones. Once the pivot rows are back-reduced to solved form, T
    is zero off the pivot columns and its pivot rows are the aux
    columns, which track the wanted-row combinations. Solved pivot rows
    are zero at every pivot column but their own, so the combination of
    them that matches c' at the pivot columns has c'[pivots] as
    coefficients; c' is in their span iff it matches at each free
    column f too, c'[f] == c'[pivots] @ R[:, f], which is P's column.
    Every segment is nonempty: each T column is nonzero as A @ T = E,
    and each parity column holds its 1.
    """
    problem, b, p, main = encoder.problem, encoder.b, encoder.p, encoder.cols
    cols: list[int] = []
    outs: list[int] = []
    coef: list[int] = []
    owners: list[int] = []
    targets: list[int] = []
    output_bounds = [0]
    # known[k, j]: receiver k knows message j; the padding index falls in
    # column K, which stays False
    known = np.zeros((problem.K, problem.K + 1), dtype=bool)
    for k in range(problem.K):
        plan = _plan(encoder, k)
        known[k, plan.known_messages] = True
        if plan.decodable:
            free, cells = plan._echelon.solved_cells()
            plan._echelon = None
            base = len(targets)
            parity = {f: base + b + j for j, f in enumerate(free)}
            for c, j, x in cells:
                cols.append(c)
                if j < main:  # P's entry -R[c, j] mod p
                    outs.append(parity[j])
                    coef.append(p - x)
                else:  # T's entry at (c, j - main)
                    outs.append(base + j - main)
                    coef.append(x)
            cols += free
            outs += parity.values()
            coef += [1] * len(free)
            owners += [k] * (len(cols) - len(owners))
            targets += range(k * b, (k + 1) * b)
            targets += [encoder.rows] * len(free)
        output_bounds.append(len(targets))
    outs_arr = np.array(outs, dtype=np.int64)
    order = np.argsort(outs_arr, kind="stable")
    starts = _segment_starts(outs_arr[order], len(targets))
    col_arr = np.array(cols, dtype=np.int64)[order]
    owner_arr = np.array(owners, dtype=np.int64)[order]
    support = encoder._col_support[col_arr]
    bounds = np.array(output_bounds, dtype=np.int64)
    return _BatchDecoder(
        p=p,
        cols=col_arr,
        known_support=np.where(known[owner_arr[:, None], support // b], support, encoder.rows),
        coef=np.array(coef, dtype=np.int64)[order],
        starts=starts,
        targets=np.array(targets, dtype=np.int64),
        entry_bounds=np.append(starts, col_arr.size)[bounds],
        output_bounds=bounds,
    )


def decodable(encoder: Encoder, k: int) -> bool:
    """Rank criterion for receiver k.

    True iff stacking the wanted rows onto the interference rows raises
    the rank by exactly b over GF(p), which is equivalent to the wanted
    symbols being uniquely determined given the side information. Builds
    the receiver's plan, not its decoder.
    """
    return _plan(encoder, k).decodable


def receiver_ranks(encoder: Encoder, k: int) -> tuple[int, int]:
    """(rank of interference rows, rank with wanted rows stacked on)."""
    plan = _plan(encoder, k)
    return plan.rank_interference, plan.rank_all


def decode(encoder: Encoder, k: int, codeword, side_info) -> np.ndarray:
    """Recover receiver k's b symbols from a codeword and side information.

    ``side_info`` maps message index j to its b symbols for every j the
    receiver knows (anything outside the interference window and k
    itself); extra entries are ignored. Runs the receiver's range of the
    encoder's batch decoder on a batch of one: the side information goes
    into a message row whose unknown messages stay zero. The first decode
    or ``simulate`` on an encoder builds every receiver's plan and
    decoder. Raises if the receiver is not decodable or the codeword
    fails the receiver's parity check, as no genuine codeword can.
    """
    plan = _plan(encoder, k)
    if not plan.decodable:
        raise ValueError(f"receiver {k} cannot decode with this encoder")
    p, b = encoder.p, encoder.b
    c = as_int_array(codeword)
    if c.ndim != 1 or c.shape[0] != encoder.cols:
        raise ValueError(f"codeword must have length {encoder.cols}, got shape {c.shape}")
    padded = np.zeros((1, encoder.rows + 1), dtype=np.int64)
    for j in plan.known_messages:
        try:
            v = side_info[j]
        except (KeyError, TypeError, IndexError):
            raise ValueError(f"side information for message {j} is missing") from None
        v = as_int_array(v)
        if v.shape != (b,):
            raise ValueError(f"side information for message {j} must have length {b}")
        padded[0, j * b : (j + 1) * b] = v % p
    out = encoder._decoder.outputs(c[None] % p, padded, plan.k)[0]
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
    first ``simulate`` or ``decode`` on an encoder builds every receiver's
    plan and decoder; pass a prebuilt ``encoder`` to reuse them.
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
    C = _gather_sum(padded, enc._col_support) % enc.p
    dec = enc._decoder
    # every decodable receiver owns at least its b outputs
    receivers = np.flatnonzero(np.diff(dec.output_bounds))
    failed = np.ones((trials, K), dtype=bool)
    # a slice of the trials at a time, so no temporary exceeds _DECODE_CELLS
    step = max(1, _DECODE_CELLS // max(1, dec.cols.size))
    for lo in range(0, trials, step):
        rows = slice(lo, lo + step)
        wrong = dec.outputs(C[rows], padded[rows]) != padded[rows, dec.targets]
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
