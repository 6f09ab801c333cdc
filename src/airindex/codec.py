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
run once per encoder: the ranks come from it, and on the first decode of
a decodable receiver so does its decoder. The plan then drops the
elimination and keeps only the decoder, and every decode, single or
batched, is the same product with it. Checking decodability alone
builds no decoder.

A receiver's decoder is one matrix M = [T | P] over the codeword columns
``cols`` where it has a nonzero row, and the known encoder rows in each
of those columns, over which the receiver gathers its side information's
share of the codeword. For a share-corrected codeword c', c'[cols] @ T
gives the wanted symbols, and c'[cols] @ P is zero exactly when c' lies
in the span of the unknown rows: P has one column per free (non-pivot)
column f, with a 1 at f and -R[:, f] mod p at the pivot columns, where R
holds the solved pivot rows' entries at the free columns. A receiver
sees only its window of D+U+1 messages, so nearly every row of the dense
T is zero, and skipping exactly the all-zero rows of M leaves every
product unchanged. Most receivers have no free column; those of
minimal-rate encoders with K <= 40 have at most four.

Message vectors, codewords and side information must hold integers
(:func:`airindex.linalg.as_int_array`); receiver indices go through
``operator.index``. Neither is ever truncated.

Supported sizes. All arithmetic is exact in int64: the longest dot product
has at most K*b terms, so ``build_encoder`` passes p to
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
    (ranks, then one decoder matrix each), the encoder rows packed
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


class _Decoder(NamedTuple):
    """One receiver's decoder; see the module docstring.

    ``cols`` lists the codeword columns it reads, ascending.
    ``known_support`` is the encoder's column support at ``cols``, each
    unknown row replaced by the padding index ``encoder.rows``. ``M`` is
    [T | P] at ``cols``: b wanted columns, then one parity column per
    free column, entries in [0, p).
    """

    cols: np.ndarray
    known_support: np.ndarray
    M: np.ndarray


class _ReceiverPlan:
    """Ranks, then one decoder matrix, for one receiver of an encoder.

    Inserts the interference rows first and the wanted rows last into a
    streaming echelon, recording the rank after each phase; the rank
    criterion falls out of that single pass. A decodable receiver keeps the
    echelon only until ``decoder`` reads its matrix from the solved form;
    an undecodable one drops it at once.
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
        self._decoder: _Decoder | None = None
        # what the decoder reads of the encoder; holding the encoder itself
        # would make Encoder._plans -> plan -> encoder a reference cycle
        self._col_support = encoder._col_support
        self._pad_index = encoder.rows
        self.b = b
        self.p = encoder.p

    @property
    def decoder(self) -> _Decoder:
        """The decoder, built from the echelon on first use, which then drops it.

        T solves A @ T = E where A stacks the unknown rows and E marks the
        wanted ones. Once the pivot rows are back-reduced to solved form, T
        is zero off the pivot columns and its pivot rows are the aux
        columns, which track the wanted-row combinations. Solved pivot rows
        are zero at every pivot column but their own, so the combination of
        them that matches c' at the pivot columns has c'[pivots] as
        coefficients; c' is in their span iff it matches at each free
        column f too, c'[f] == c'[pivots] @ R[:, f], which is P's column.
        """
        if not self.decodable:
            raise ValueError(f"receiver {self.k} is not decodable; no decoder exists")
        if self._decoder is None:
            ech, b = self._echelon, self.b
            pivots, aux = ech.solved_form()
            free = np.flatnonzero(np.bincount(pivots, minlength=ech.main_cols) == 0)
            M = np.zeros((ech.main_cols, b + free.size), dtype=np.int64)
            M[pivots, :b] = aux
            if free.size:  # most receivers have no free column
                M[pivots, b:] = -ech.pivot_entries(free.tolist()) % self.p
                M[free, b + np.arange(free.size)] = 1
            cols = np.flatnonzero(M.any(axis=1))
            support = self._col_support[cols]
            known = np.zeros(self._pad_index + 1, dtype=bool)  # the padding index stays unknown
            known[:-1].reshape(-1, b)[self.known_messages] = True
            known_support = np.where(known[support], support, self._pad_index)
            self._decoder = _Decoder(cols, known_support, M[cols])
            self._echelon = None
        return self._decoder

    def solve(self, C: np.ndarray, padded: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(wanted symbols, inconsistency flags) for each codeword row of C.

        C is a batch of codewords, entries in [0, p); ``padded`` holds the
        matching message vectors, entries in [0, p), with a zero column
        appended (see ``_pad``), of which only the known rows are read.
        A row is flagged when its share-corrected codeword fails the parity
        columns, that is, lies outside the span of the unknown rows, as no
        genuine codeword does. Each sum has at most cols <= K*b terms.
        """
        cols, known_support, M = self.decoder
        share = _gather_sum(padded, known_support)
        out = (C[:, cols] - share) % self.p @ M % self.p
        return out[:, : self.b], out[:, self.b :].any(axis=1)


def _plan(encoder: Encoder, k) -> _ReceiverPlan:
    k = _receiver(encoder.problem, k)
    plan = encoder._plans.get(k)
    if plan is None:
        plan = _ReceiverPlan(encoder, k)
        encoder._plans[k] = plan
    return plan


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
    itself); extra entries are ignored. A batch of one for the receiver's
    decoder, built on the first decode and kept: the side information
    goes into a message row whose unknown messages stay zero. Raises if
    the receiver is not decodable or the codeword fails the decoder's
    parity check, as no genuine codeword can.
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
    wanted, inconsistent = plan.solve(c[None] % p, padded)
    if inconsistent[0]:
        raise ArithmeticError(
            "codeword is not a combination of the unknown rows; "
            "it was not produced by this encoder"
        )
    return wanted[0]


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
    are reproducible bit for bit. Every receiver decodes the whole batch
    through its decoder, as ``decode`` does one codeword; a trial fails
    at a receiver that is undecodable, whose decoded symbols differ from
    the sent ones, or whose corrected codeword fails its parity check,
    recorded per (trial, receiver). Pass a prebuilt ``encoder`` to reuse
    its cached plans.
    """
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
    X = rng.integers(0, enc.p, size=(trials, K * b), dtype=np.int64)
    padded = _pad(X)
    C = _gather_sum(padded, enc._col_support) % enc.p
    failures: list[tuple[int, int]] = []
    for k in range(K):
        plan = _plan(enc, k)
        if not plan.decodable:
            failures.extend((t, k) for t in range(trials))
            continue
        got, inconsistent = plan.solve(C, padded)
        wrong = inconsistent | np.any(got != X[:, k * b : (k + 1) * b], axis=1)
        failures.extend((int(t), k) for t in np.flatnonzero(wrong))
    failures.sort()
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return SimReport(
        problem=problem,
        a=enc.a,
        b=b,
        p=enc.p,
        trials=trials,
        seed=seed,
        failures=tuple(failures),
        elapsed_ms=round(elapsed_ms, 3),
    )
