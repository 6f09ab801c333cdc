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
``simulate`` on an encoder peels all of its receivers at once and builds
their batch decoder, with integer coefficients, by the field-free peel
of :mod:`airindex._peel`, whose docstring covers the peel, the batch
decoder's layout and its load bound. No prime enters the peel, so
``Encoder.over`` shares it with the same encoder over any other prime,
and ``verify-code`` peels once for all its primes. Only a receiver whose
peel stalls gets its ranks from one GF(p) elimination of its window's
rows, built dense from the cells, once per prime and only when ranks are
asked for; every stalled receiver seen so far is undecodable at every
prime.

Decoding a batch of codewords takes three steps, all in
``_BatchDecoder.outputs`` but the first: correct each entry's codeword
symbol by the side information's share, multiply it by the entry's
integer coefficient, and sum every segment with one ``np.add.reduceat``,
reducing each output once mod p. ``encode`` and ``decode`` sum every
codeword column one way, with one ``np.add.reduceat`` over the nonzero
rows in column order: ``encode`` of the whole message, ``decode`` of a
message that holds only its receiver's known messages, its unknown ones
zero, whose sums at its receiver's columns it subtracts from the
codeword. ``simulate`` checks each receiver's decoder on its window's
rows instead: each entry's corrected symbol is the sum of its column's
rows inside its receiver's window, each row gathered whole across the
trials, so it forms no codeword, and ``encode``/``decode`` cover the
broadcast. It runs every receiver at once, where ``decode`` runs one
receiver's range.

Message vectors, codewords and side information must hold integers
(:func:`airindex.linalg.as_int_array`); receiver indices go through
``operator.index``. Neither is ever truncated.

Supported sizes. All arithmetic is exact in int64. An encoder takes
every prime that :func:`airindex.linalg.require_prime` accepts, the one
range of every GF(p) entry point: (p-1)**2 < 2**63, so p-1 < 2**31.5.
``Encoder`` construction itself applies that gate, the shape cap below
and the check that the solution is for its instance, so an encoder
built directly passes the same checks, with the same messages, as one
from ``build_encoder`` or ``Encoder.over``. Only ``build_encoder``
checks feasibility, so an encoder built directly from an infeasible
pair is a negative control. The codec adds one bound of its own, on
the decoder's ``load``, which keeps every decoder output inside int64
and is argued and checked once in ``airindex._peel._build_decoder``. A
column sum of ``encode`` adds at most rows symbols below p, and
rows <= ``MAX_CELLS`` = 2**26, so it stays below 2**58. An encoder holds its nonzero cells,
not its dense matrix, yet its construction still refuses, before
allocating anything, a shape that ``build_air`` would refuse (rows*cols
over ``MAX_CELLS``); that cap stays until caps on what the build
allocates replace it. A stalled receiver's window rows, w x n dense, are
refused past the same cap, and ``simulate`` refuses a run whose message
batch (trials*K*b symbols) exceeds it. The batch decoder's size, and
the memory cap of its build, are in :mod:`airindex._peel`.
"""

from __future__ import annotations

import json
import operator
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from ._peel import _BatchDecoder, _build_decoder, _Cells
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

    Construction owns the checks on the encoder itself, whether
    ``build_encoder``, ``over`` or a caller builds it: it refuses a
    solution for another instance, a pair whose rate exceeds K (its
    matrix would be wider than tall), a shape that ``build_air`` would
    refuse, before reading any cell, and a modulus that
    ``require_prime`` refuses, and it stores p as a plain int. It does
    not check feasibility, which ``build_encoder`` adds.
    """

    problem: ProblemInstance
    solution: RateSolution
    p: int

    def __post_init__(self):
        problem, a, b = self.problem, self.a, self.b
        if self.solution.problem != problem:
            raise ValueError(f"solution is for {self.solution.problem}, not for {problem}")
        if self.cols > self.rows:
            raise ValueError(
                f"(a={a}, b={b}) for {problem} has rate {Fraction(self.cols, b)}, above K={problem.K}: "
                f"its {self.rows}x{self.cols} encoder would be wider than tall"
            )
        _require_shape(self.rows, self.cols)
        object.__setattr__(self, "p", require_prime(self.p))

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
        rows, cols = (np.concatenate(part) for part in zip(*_block_cells(self.rows, self.cols)))
        return _Cells.from_nonzero(rows, cols, self.rows, self.cols)

    @cached_property
    def _decoder(self) -> _BatchDecoder:
        """Every receiver's peel and decoder, built on first use; see ``_BatchDecoder``."""
        problem, b = self.problem, self.b
        w = (problem.D + problem.U + 1) * b
        return _build_decoder(self._cells, problem.K, w, b, problem.U * b, problem, self.a)

    @cached_property
    def _ranks(self) -> list[tuple[int, int]]:
        """Every receiver's (interference rank, stacked rank) over GF(p).

        A receiver the peel certifies has the peel's ranks, which hold in
        every field. One whose peel stalls gets its ranks from one
        elimination of its window's w x n rows, built dense from the
        cells, interference rows first and wanted rows last; a block over
        ``MAX_CELLS`` cells raises ``ValueError`` before any is built.
        Every stalled receiver seen so far is undecodable at every prime,
        and on AIR cells no receiver whose first peel solved its wanted
        rows has been stalled by the second. One that these ranks call
        decodable would need a decoder the peel did not give, so this
        raises instead, whichever receiver was asked about.
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
        enc = Encoder(self.problem, self.solution, p)
        # a cached_property reads the instance's dict first
        vars(enc).update(_cells=self._cells, _decoder=self._decoder)
        return enc

    def _column_sums(self, X: np.ndarray) -> np.ndarray:
        """``out[:, c]`` = the sum of ``X[:, r]`` over the nonzero rows r of column c.

        X is a 2-D batch with at least the encoder's rows as columns. One
        gather of the nonzero rows in column order and one
        ``np.add.reduceat`` at every column's start; no run is empty, as
        every AIR column holds a one.
        """
        cells = self._cells
        return np.add.reduceat(X[:, cells.col_rows], cells.col_starts[:-1], axis=1)

    def _broadcast(self, X: np.ndarray) -> np.ndarray:
        """``X @ L % p`` for a 2-D batch X of message vectors with entries < p.

        As L is 0/1, each codeword symbol is the sum of the message
        symbols at its column's nonzero rows. Gathering those few
        symbols per column reads X once, where the dense product streams
        all of L once per message vector.
        """
        return self._column_sums(X) % self.p


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


def build_encoder(problem: ProblemInstance, solution: RateSolution, p) -> Encoder:
    """Build the K*b x (b*(D+1)+a) encoder for a feasible (a, b).

    The encoder's own construction refuses a solution for another
    instance, a rate above K, an oversized shape and a modulus outside
    the field gate, in that order; this then refuses an infeasible pair.
    ``Encoder(problem, solution, p)`` runs every check but feasibility,
    so it builds a negative control, an encoder that leaves some receiver
    undecodable.
    """
    encoder = Encoder(problem, solution, p)
    if not is_feasible(problem, encoder.a, encoder.b):
        raise ValueError(
            f"(a={encoder.a}, b={encoder.b}) is not feasible for {problem}; "
            "build Encoder(problem, solution, p) directly for a negative control"
        )
    return encoder


def encode(encoder: Encoder, x) -> np.ndarray:
    """Codeword x @ L over GF(p) for a length-K*b message vector."""
    xv = as_int_array(x)
    if xv.ndim != 1 or xv.shape[0] != encoder.rows:
        raise ValueError(
            f"message vector must have length {encoder.rows}, got shape {xv.shape}"
        )
    return encoder._broadcast((xv % encoder.p)[None])[0]


# bound on the cells of each entries x trials array in one decode step
# of ``simulate``, so that its working set stays near the message batch's
_DECODE_CELLS = 1 << 16


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
    fixed = c[cols] % p - encoder._column_sums(x)[0, cols]
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
    ``decode`` cover the broadcast. Raises ``ValueError`` for negative
    ``trials`` or ``seed`` before building anything, and before
    allocating a message batch of more than ``MAX_CELLS`` cells, and
    ``OverflowError``, from the decoder's build, before drawing one for an
    encoder whose decoder's load is past the build's bound.
    """
    trials, seed = operator.index(trials), operator.index(seed)
    for name, value in (("trials", trials), ("seed", seed)):
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")
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
