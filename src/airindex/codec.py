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
a decodable receiver so do its decode map and parity check. The plan then
drops the elimination and keeps only those, and every decode, single or
batched, applies the same map. Checking decodability alone builds no map.

A receiver's decode map is compact: the nonzero rows of T (the map from
codeword to wanted symbols) with their codeword columns, and the known
encoder rows in each of those columns, over which the receiver gathers
its side information's share of the codeword before applying T. It sees
only its window of D+U+1 messages, so nearly every row of the dense T is
zero; skipping exactly the all-zero rows leaves every product unchanged.
The parity check tells whether a share-corrected codeword lies in the
span of the unknown rows at all: it compares the codeword at the free
(non-pivot) columns with what the pivot columns imply there. Most
receivers have no free column; those of minimal-rate encoders with
K <= 40 have at most four.

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
    (ranks, then decode map and parity check), the encoder rows packed
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


class _ReceiverPlan:
    """Ranks, then decode map and parity check, for one receiver of an encoder.

    Inserts the interference rows first and the wanted rows last into a
    streaming echelon, recording the rank after each phase; the rank
    criterion falls out of that single pass. A decodable receiver keeps the
    echelon only until ``maps()`` reads its map and parity check from the
    solved form; an undecodable one drops it at once.
    """

    def __init__(self, encoder: Encoder, k: int):
        problem = encoder.problem
        K, b = problem.K, encoder.b
        window = _window(problem, k)
        in_window = set(window)
        self.k = k
        self.known_messages = [j for j in range(K) if j not in in_window]
        self.known_rows = (
            np.concatenate([np.arange(j * b, (j + 1) * b) for j in self.known_messages])
            if self.known_messages
            else np.empty(0, dtype=np.int64)
        )
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
        self._maps: tuple[np.ndarray, ...] | None = None
        self._check: tuple[np.ndarray, ...] | None = None
        # what maps() reads of the encoder; holding the encoder itself would
        # make Encoder._plans -> plan -> encoder a reference cycle
        self._col_support = encoder._col_support
        self._pad_index = encoder.rows
        self.p = encoder.p

    def maps(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows_T, T_rows, known_support), the compact decode map.

        ``rows_T`` lists the codeword columns where the dense map T
        (cols x b) is nonzero, ascending, and ``T_rows`` holds exactly those
        rows, entries in [0, p). ``known_support`` is the encoder's column
        support at ``rows_T``, each unknown row replaced by the padding
        index ``encoder.rows``. Over GF(p), the wanted symbols of codeword c
        are (c[rows_T] - share) @ T_rows, where share sums the message
        vector x over ``known_support``: the known messages' part of c.

        T solves A @ T = E where A stacks the unknown rows and E marks
        the wanted ones, so c' @ T recovers the wanted symbols from the
        known-free codeword c'. Once the pivot rows are back-reduced to
        solved form, T is zero off the pivot columns and its pivot rows
        are the aux columns, which track the wanted-row combinations.

        The first call also builds the parity check (see ``consistent``)
        and drops the echelon.
        """
        if not self.decodable:
            raise ValueError(f"receiver {self.k} is not decodable; no map exists")
        if self._maps is None:
            ech = self._echelon
            pivots, aux = ech.solved_form()
            nonzero = aux.any(axis=1)
            rows_T = pivots[nonzero]
            support = self._col_support[rows_T]
            known = np.zeros(self._pad_index + 1, dtype=bool)  # the padding index stays unknown
            known[self.known_rows] = True
            known_support = np.where(known[support], support, self._pad_index)
            self._maps = (rows_T, aux[nonzero], known_support)
            free = np.ones(ech.main_cols, dtype=bool)
            free[pivots] = False
            free = np.flatnonzero(free)
            R = ech.pivot_entries(free.tolist())
            implied = R.any(axis=1)
            self._check = (free, pivots[implied], R[implied])
            self._echelon = None
        return self._maps

    def consistent(self, c: np.ndarray) -> bool:
        """Whether share-corrected codeword c (entries in [0, p)) is in the span.

        Solved pivot rows are zero at every pivot column but their own, so
        the combination of them that matches c at the pivot columns has
        c[pivots] as coefficients. c lies in the span of the unknown rows
        iff that combination matches c at the free columns F as well:
        c[F] == c[pivots] @ R, with R the pivot rows' entries at F. Only
        the pivot columns where R is nonzero are kept.
        """
        self.maps()
        free, cols, R = self._check
        return np.array_equal(c[free], c[cols] @ R % self.p)

    def wanted(self, corrected: np.ndarray) -> np.ndarray:
        """Wanted symbols from share-corrected codeword symbols at ``rows_T``.

        ``corrected`` is c'[rows_T] for one codeword c', or a batch of such
        rows, entries in [0, p); each sum has at most cols <= K*b terms.
        """
        return corrected @ self.maps()[1] % self.p


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
    the receiver's plan, not its decode map.
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
    itself); extra entries are ignored. Subtracts the known messages'
    share of the codeword, checks the rest against the receiver's parity
    check and applies its decode map, both built on the first decode and
    kept. Raises if the receiver is not decodable or the codeword is
    inconsistent with the encoder rows (the latter cannot happen for
    genuine codewords).
    """
    plan = _plan(encoder, k)
    if not plan.decodable:
        raise ValueError(f"receiver {k} cannot decode with this encoder")
    p = encoder.p
    c = as_int_array(codeword)
    if c.ndim != 1 or c.shape[0] != encoder.cols:
        raise ValueError(f"codeword must have length {encoder.cols}, got shape {c.shape}")
    c = c % p
    if plan.known_messages:
        parts = []
        for j in plan.known_messages:
            try:
                v = side_info[j]
            except (KeyError, TypeError, IndexError):
                raise ValueError(f"side information for message {j} is missing") from None
            v = as_int_array(v)
            if v.shape != (encoder.b,):
                raise ValueError(
                    f"side information for message {j} must have length {encoder.b}"
                )
            parts.append(v)
        # the known messages' share of the codeword; unknown rows stay 0
        x_known = np.zeros(encoder.rows, dtype=np.int64)
        x_known[plan.known_rows] = np.concatenate(parts) % p
        c = (c - encoder._broadcast(x_known[None])[0]) % p
    if not plan.consistent(c):
        raise ArithmeticError(
            "codeword is not a combination of the unknown rows; "
            "it was not produced by this encoder"
        )
    return plan.wanted(c[plan.maps()[0]])


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
    are reproducible bit for bit. Every receiver decodes every trial; a
    mismatch (or an undecodable receiver) is recorded per (trial,
    receiver). Pass a prebuilt ``encoder`` to reuse its cached plans.
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
        rows_T, _, known_support = plan.maps()
        share = _gather_sum(padded, known_support)
        got = plan.wanted((C[:, rows_T] - share) % enc.p)
        sent = X[:, k * b : (k + 1) * b]
        for t in np.nonzero(np.any(got != sent, axis=1))[0]:
            failures.append((int(t), k))
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
