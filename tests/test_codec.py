"""Unit tests for the encoder, decodability criterion, decoder and simulator."""

from __future__ import annotations

import gc
import json
import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _reference import rank_mod_p as reference_rank
from _reference import reference_peel, rref_mod_p, solve_left
from airindex._peel import (
    _build_decoder,
    _cut,
    _first_peel,
    _peel,
    _segment_starts,
)
from airindex.air import build_air
from airindex.codec import (
    MAX_CELLS,
    Encoder,
    _misses,
    _pad,
    _segment_sums,
    build_encoder,
    decodable,
    decode,
    encode,
    interference_set,
    receiver_ranks,
    simulate,
)
from airindex.linalg import _stacked_ranks_mod_p, as_int_array
from airindex.rates import (
    ProblemInstance,
    find_min_rate,
    is_feasible,
    oracle_min_rate,
    solution_for_pair,
)


def _encoder(K, D, U, a, b, p, build=build_encoder):
    """The encoder of (K, D, U) at (a, b) over GF(p); ``build=Encoder``
    skips the feasibility check, for a negative control."""
    problem = ProblemInstance(K, D, U)
    return build(problem, solution_for_pair(problem, a, b), p)


def _receiver_slice(enc, k):
    """Receiver k's range of the encoder's batch decoder.

    (cols, terms, coef, outs) per entry, with ``terms`` the message rows
    of the entry's terms and ``outs`` the entry's output counted from the
    receiver's first, and the receiver's output targets.
    """
    dec = enc._decoder
    lo, hi = dec.entry_bounds[k : k + 2]
    first, last = dec.output_bounds[k : k + 2]
    sizes = np.diff(np.append(dec.starts[first:last], hi))
    outs = np.repeat(np.arange(last - first), sizes)
    bounds = dec.entry_terms[lo : hi + 1]
    terms = np.split(dec.term_rows[bounds[0] : bounds[-1]], bounds[1:-1] - bounds[0])
    return dec.cols[lo:hi], terms, dec.coef[lo:hi], outs, dec.targets[first:last]


def _window_shares(padded, dec, lo, hi):
    """The sum of each entry's term rows of ``padded`` for the entries lo .. hi-1,
    entry-major: the share of its receiver's window in the entry's column."""
    bounds = dec.entry_terms[lo : hi + 1]
    rows = dec.term_rows[bounds[0] : bounds[-1]]
    return np.add.reduceat(np.take(padded, rows, axis=0), bounds[:-1] - bounds[0], axis=0)


def _outputs(dec, fixed, p, k):
    """Receiver k's outputs over GF(p) for the entry-major corrected codewords
    ``fixed``, by the kernel and reduction of ``decode``."""
    lo, hi = dec.entry_bounds[k : k + 2]
    first, last = dec.output_bounds[k : k + 2]
    return _segment_sums(fixed, dec.coef[lo:hi], dec.starts[first:last] - lo) % p


def _dense_decoder(enc, k):
    """Receiver k's decoder matrix M = [T | P] over all codeword columns."""
    cols, _, coef, outs, targets = _receiver_slice(enc, k)
    # one entry per cell, so writing them gives M exactly
    assert len(set(zip(cols.tolist(), outs.tolist()))) == cols.size
    dense = np.zeros((enc.cols, targets.size), dtype=np.int64)
    dense[cols, outs] = coef
    return dense


# the largest prime with (p-1)**2 < 2**63, which every GF(p) entry point
# accepts, and the next prime, which every one refuses
LARGEST_PRIME = 3037000493
FIRST_REFUSED_PRIME = 3037000507
TOO_LARGE = r"p=3037000507 is too large: \(p-1\)\*\*2 must stay below 2\*\*63"


class TestInterferenceSet:
    def test_wide_window(self):
        assert interference_set(ProblemInstance(17, 11, 1), 0) == {16} | set(range(1, 12))

    def test_wraparound(self):
        assert interference_set(ProblemInstance(17, 11, 1), 16) == {15} | set(range(0, 11))

    def test_small(self):
        assert interference_set(ProblemInstance(5, 1, 1), 2) == {1, 3}

    def test_one_sided(self):
        assert interference_set(ProblemInstance(6, 2, 0), 4) == {5, 0}

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            interference_set(ProblemInstance(5, 1, 1), 5)


class TestBuildEncoder:
    @pytest.mark.parametrize(
        "K,D,U,a,b,rows,cols",
        [
            (17, 11, 1, 1, 7, 119, 85),
            (71, 25, 1, 1, 30, 2130, 781),
            (37, 2, 1, 1, 12, 444, 37),
        ],
    )
    def test_dimensions(self, K, D, U, a, b, rows, cols):
        enc = _encoder(K, D, U, a, b, p=2)
        assert (enc.rows, enc.cols) == (rows, cols)
        assert enc.matrix.entries.shape == (rows, cols)

    def test_refuses_infeasible_pair(self):
        # the refusal names the direct build of a negative control
        message = r"not feasible .*; build Encoder\(problem, solution, p\) directly"
        with pytest.raises(ValueError, match=message):
            _encoder(17, 11, 1, 1, 6, p=2)

    def test_negative_control_override(self):
        enc = _encoder(17, 11, 1, 1, 6, p=2, build=Encoder)
        assert (enc.rows, enc.cols) == (102, 73)

    def test_rejects_composite_field(self):
        problem = ProblemInstance(17, 11, 1)
        with pytest.raises(ValueError, match="prime"):
            build_encoder(problem, find_min_rate(problem), 4)

    def test_rejects_mismatched_solution(self):
        sol = find_min_rate(ProblemInstance(17, 11, 1))
        with pytest.raises(ValueError, match="solution is for"):
            build_encoder(ProblemInstance(17, 5, 1), sol, 2)

    def test_refuses_rate_above_K(self):
        # (2, 1) is in the gcd feasibility set of (3,1,0), but its rate 4
        # exceeds K=3: the encoder would be 3x4
        problem = ProblemInstance(3, 1, 0)
        sol = solution_for_pair(problem, 2, 1)
        assert is_feasible(problem, 2, 1)
        message = r"\(a=2, b=1\) for ProblemInstance\(K=3, D=1, U=0\) has rate 4, above K=3"
        with pytest.raises(ValueError, match=message):
            build_encoder(problem, sol, 2)
        with pytest.raises(ValueError, match=message):
            simulate(problem, sol, 2, trials=1)

    def test_refuses_oversized_encoder_without_allocating(self, monkeypatch):
        # (1009, 500, 1) needs a 436897x216935 encoder, about 706 GiB dense;
        # it is refused before its cells are read or any array is allocated,
        # by build_encoder and by an Encoder built directly alike
        def no_cells(m, n):
            raise AssertionError(f"_block_cells({m}, {n}) was called")

        monkeypatch.setattr("airindex.codec._block_cells", no_cells)
        problem = ProblemInstance(1009, 500, 1)
        sol = find_min_rate(problem)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="over the limit"):
                build_encoder(problem, sol, 2)
            with pytest.raises(ValueError, match="over the limit"):
                Encoder(problem, sol, 2).matrix
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    def test_direct_encoder_passes_the_same_checks(self):
        # an Encoder built directly refuses every modulus and shape that
        # build_encoder refuses, with the same message: at 2**61 - 1 the
        # int64 sums of (71,25,1) would wrap, and decode would return wrong
        # symbols at some receivers without an error
        problem = ProblemInstance(71, 25, 1)
        sol = find_min_rate(problem)
        cases = [(problem, sol, p) for p in (1, 4, 2**61 - 1, FIRST_REFUSED_PRIME)]
        for K, D, U in ((3, 1, 0), (1009, 500, 1)):
            small = ProblemInstance(K, D, U)
            # (2, 1) is wider than tall for (3,1,0); (1009,500,1) is too large
            cases.append((small, solution_for_pair(small, 2, 1) if K == 3 else find_min_rate(small), 2))
        # a solution for another instance: (71,25,1)'s pair would give
        # (17,5,1) a 510x181 encoder whose solution says 2130x781
        cases.append((ProblemInstance(17, 5, 1), sol, 2))
        for case in cases:
            with pytest.raises(ValueError) as built:
                build_encoder(*case)
            with pytest.raises(ValueError, match=re.escape(str(built.value))):
                Encoder(*case)
        with pytest.raises(TypeError):
            Encoder(problem, sol, 3.0)
        # the largest prime passes, stored as a plain int, and every
        # receiver decodes there
        enc = Encoder(problem, sol, np.int64(LARGEST_PRIME))
        assert type(enc.p) is int and enc.p == LARGEST_PRIME
        b = enc.b
        x = np.random.default_rng(71).integers(0, LARGEST_PRIME, size=enc.rows)
        c = encode(enc, x)
        side = {j: x[j * b : (j + 1) * b] for j in range(71)}
        for k in range(71):
            assert np.array_equal(decode(enc, k, c, side), x[k * b : (k + 1) * b]), k

    @settings(max_examples=30, deadline=None)
    @given(K=st.integers(3, 12), data=st.data(), q=st.sampled_from([2, 3, 5, 65521]))
    def test_matrix_is_built_from_the_cells(self, K, data, q):
        # the encoder holds only its cells; ``matrix`` is built from them on
        # each access, so it shows the cells the codec peels, and it must
        # equal build_air's matrix in values, dtype and write protection
        base = _drawn_encoder(K, data, 2)
        air = build_air(base.rows, base.cols)
        for enc in (base, base.over(q)):
            L = enc.matrix.entries
            assert (enc.matrix.m, enc.matrix.n) == (enc.rows, enc.cols)
            assert L.dtype == air.entries.dtype == np.int64
            assert not L.flags.writeable and not air.entries.flags.writeable
            assert np.array_equal(L, air.entries)
            assert enc.matrix.entries is not L and "matrix" not in vars(enc)

    @pytest.mark.parametrize("K,D,U,a,b", [(5, 1, 1, 1, 2), (17, 5, 1, 3, 8)])
    def test_int64_envelope_edge(self, K, D, U, a, b):
        # the codec has the one prime range of every GF(p) entry point,
        # whatever K*b: its largest prime builds and simulates, and the
        # next prime is refused, by simulate too, with the range's message
        problem = ProblemInstance(K, D, U)
        sol = solution_for_pair(problem, a, b)
        assert _encoder(K, D, U, a, b, LARGEST_PRIME).p == LARGEST_PRIME
        assert simulate(problem, sol, LARGEST_PRIME, trials=20, seed=5).passed
        with pytest.raises(ValueError, match=TOO_LARGE):
            _encoder(K, D, U, a, b, FIRST_REFUSED_PRIME)
        with pytest.raises(ValueError, match=TOO_LARGE):
            simulate(problem, sol, FIRST_REFUSED_PRIME, trials=1)

    @pytest.mark.parametrize("K,D,U", [(5, 1, 1), (17, 5, 1), (71, 25, 1)])
    def test_largest_prime_round_trips(self, K, D, U):
        # at the largest accepted prime every sum the codec makes stays
        # exact: encode equals the dense product over Python ints, every
        # receiver decodes, and simulate passes; the all-(p-1) message
        # makes every column sum as large as it can be
        problem = ProblemInstance(K, D, U)
        sol = find_min_rate(problem)
        p, b = LARGEST_PRIME, sol.b_min
        enc = build_encoder(problem, sol, p)
        L = enc.matrix.entries.astype(object)
        rng = np.random.default_rng(K)
        for x in (rng.integers(0, p, size=enc.rows), np.full(enc.rows, p - 1)):
            c = encode(enc, x)
            assert c.tolist() == [int(v) % p for v in x.astype(object) @ L]
            side = {j: x[j * b : (j + 1) * b] for j in range(K)}
            for k in range(K):
                assert np.array_equal(decode(enc, k, c, side), x[k * b : (k + 1) * b]), k
        assert simulate(problem, sol, p, trials=5, seed=K, encoder=enc).passed


class TestEncode:
    # K*b = 5, cols = 3 toy: a scalar code on 5 messages whose encoder is
    # exactly the 5x3 construction
    def toy(self, p=2):
        return _encoder(5, 2, 0, a=0, b=1, p=p)

    def test_zero_maps_to_zero(self):
        enc = self.toy()
        assert not encode(enc, np.zeros(5, dtype=int)).any()

    def test_unit_vector_picks_a_row(self):
        enc = self.toy()
        assert encode(enc, [1, 0, 0, 0, 0]).tolist() == [1, 0, 0]

    def test_row_addition(self):
        enc = self.toy()
        assert encode(enc, [1, 0, 0, 1, 0]).tolist() == [0, 0, 1]

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            encode(self.toy(), [1, 0])

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.sampled_from([2, 3, 5]),
        data=st.data(),
    )
    def test_linearity(self, p, data):
        enc = _encoder(5, 1, 1, a=1, b=2, p=p)
        vec = st.lists(st.integers(0, p - 1), min_size=10, max_size=10)
        x = np.array(data.draw(vec), dtype=np.int64)
        y = np.array(data.draw(vec), dtype=np.int64)
        lam = data.draw(st.integers(0, p - 1))
        assert np.array_equal(
            encode(enc, (x + y) % p), (encode(enc, x) + encode(enc, y)) % p
        )
        assert np.array_equal(encode(enc, lam * x % p), lam * encode(enc, x) % p)


class TestDecodable:
    def test_5_1_1_all_receivers(self):
        enc = _encoder(5, 1, 1, a=1, b=2, p=2)
        assert all(decodable(enc, k) for k in range(5))

    @pytest.mark.parametrize("p", [2, 3])
    def test_17_11_1_all_receivers(self, p):
        enc = _encoder(17, 11, 1, a=1, b=7, p=p)
        assert all(decodable(enc, k) for k in range(17))

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_numpy_integer_instance(self, p):
        problem = ProblemInstance(np.int64(17), np.int64(11), np.int64(1))
        enc = build_encoder(problem, find_min_rate(problem), p)
        assert all(decodable(enc, k) for k in range(17))

    def test_negative_control_fails_somewhere(self):
        enc = _encoder(17, 11, 1, a=1, b=6, p=2, build=Encoder)
        assert not all(decodable(enc, k) for k in range(17))

    @pytest.mark.parametrize("K,D,U,a,b", [(5, 1, 1, 1, 2), (17, 5, 1, 3, 8)])
    def test_field_independent_verdict(self, K, D, U, a, b):
        verdicts = {
            p: [decodable(_encoder(K, D, U, a, b, p), k) for k in range(K)]
            for p in (2, 3, 5, 7)
        }
        assert all(v == verdicts[2] for v in verdicts.values())

    def test_ranks_match_reference_linalg(self):
        enc = _encoder(5, 1, 1, a=1, b=2, p=3)
        L = enc.matrix.entries
        b = enc.b
        for k in range(5):
            window = [(k - 1 + i) % 5 for i in range(3)]
            interference = [j for j in window if j != k]
            rows_i = np.vstack([L[j * b : (j + 1) * b] for j in interference])
            rows_all = np.vstack([rows_i, L[k * b : (k + 1) * b]])
            assert receiver_ranks(enc, k) == (
                reference_rank(rows_i, 3),
                reference_rank(rows_all, 3),
            )

    def test_unknown_row_count(self):
        # a receiver reads the b symbols of each of its K-D-U-1 known
        # messages, and decode refuses side information missing any of them
        enc = _encoder(17, 5, 1, a=3, b=8, p=2)
        x = np.random.default_rng(17).integers(0, 2, size=enc.rows)
        c = encode(enc, x)
        for k in (0, 5, 16):
            known = sorted(set(range(17)) - interference_set(enc.problem, k) - {k})
            assert len(known) == 17 - 7
            side = {j: x[j * 8 : (j + 1) * 8] for j in known}
            assert sum(v.size for v in side.values()) == (17 - 5 - 1 - 1) * 8
            assert np.array_equal(decode(enc, k, c, side), x[k * 8 : (k + 1) * 8])
            for j in known:
                with pytest.raises(ValueError, match=f"message {j} is missing"):
                    decode(enc, k, c, {i: v for i, v in side.items() if i != j})


class TestDecode:
    def _roundtrip(self, enc, x, receivers=None):
        p, K, b = enc.p, enc.problem.K, enc.b
        c = encode(enc, x)
        side = {j: x[j * b : (j + 1) * b] for j in range(K)}
        for k in receivers if receivers is not None else range(K):
            got = decode(enc, k, c, side)
            assert np.array_equal(got, x[k * b : (k + 1) * b] % p), k

    def test_zero_message(self):
        enc = _encoder(5, 1, 1, a=1, b=2, p=2)
        self._roundtrip(enc, np.zeros(10, dtype=int))

    def test_random_roundtrip_small(self):
        enc = _encoder(5, 1, 1, a=1, b=2, p=2)
        rng = np.random.default_rng(11)
        for _ in range(25):
            self._roundtrip(enc, rng.integers(0, 2, size=10))

    def test_roundtrip_gf3_wide_window(self):
        enc = _encoder(37, 8, 8, a=1, b=4, p=3)
        rng = np.random.default_rng(5)
        self._roundtrip(enc, rng.integers(0, 3, size=37 * 4), receivers=[0, 9, 36])

    def test_matches_generic_left_solve(self):
        # the cached-plan decoder must agree with the dense reference's
        # from-scratch solve of the unknown-row system
        enc = _encoder(5, 1, 1, a=1, b=2, p=3)
        b, p = enc.b, enc.p
        L = enc.matrix.entries
        rng = np.random.default_rng(3)
        x = rng.integers(0, p, size=10)
        c = encode(enc, x)
        side = {j: x[j * b : (j + 1) * b] for j in range(5)}
        for k in range(5):
            window = [(k - 1 + i) % 5 for i in range(3)]
            unknown_rows = np.concatenate(
                [np.arange(j * b, (j + 1) * b) for j in window]
            )
            known_rows = np.array(
                [r for r in range(10) if r not in set(unknown_rows)]
            )
            c_eff = (c - x[known_rows] @ L[known_rows]) % p
            u = solve_left(L[unknown_rows], c_eff, p)
            assert u is not None
            wanted_pos = window.index(k)
            ref = u[wanted_pos * b : (wanted_pos + 1) * b]
            assert np.array_equal(ref, decode(enc, k, c, side))

    def test_missing_side_info(self):
        enc = _encoder(5, 1, 1, a=1, b=2, p=2)
        c = encode(enc, np.zeros(10, dtype=int))
        with pytest.raises(ValueError, match="side information"):
            decode(enc, 0, c, {})

    def test_wrong_codeword_length(self):
        enc = _encoder(5, 1, 1, a=1, b=2, p=2)
        with pytest.raises(ValueError, match="codeword"):
            decode(enc, 0, [0, 0], {})

    def test_undecodable_receiver_refuses(self):
        enc = _encoder(17, 11, 1, a=1, b=6, p=2, build=Encoder)
        bad = [k for k in range(17) if not decodable(enc, k)]
        c = np.zeros(enc.cols, dtype=int)
        side = {j: np.zeros(6, dtype=int) for j in range(17)}
        with pytest.raises(ValueError, match="cannot decode"):
            decode(enc, bad[0], c, side)


    def test_inconsistent_codeword_raises(self):
        # (5,2,1) at (a, b) = (2, 1) is the 5x5 identity: receiver 0 knows
        # only message 3, and its unknown rows 4, 0, 1, 2 have rank 4, so a
        # codeword on column 3 that side information does not cancel lies
        # outside their span
        enc = _encoder(5, 2, 1, a=2, b=1, p=2)
        assert enc.matrix.entries.shape == (5, 5)
        assert receiver_ranks(enc, 0) == (3, 4)
        side = {3: np.zeros(1, dtype=int)}
        for col in (0, 1, 2, 4):
            got = decode(enc, 0, np.eye(5, dtype=int)[col], side)
            assert got.tolist() == [int(col == 0)], col
        with pytest.raises(ArithmeticError, match="not produced by this encoder"):
            decode(enc, 0, np.eye(5, dtype=int)[3], side)


class TestSideInformation:
    # decode reads the known messages with one lookup each and one
    # conversion of the stacked values; only values that do not stack into
    # an integer array are read one message at a time, so every error names
    # its message, the first in the run that fails, with the same text as
    # a message-by-message read. Receiver 5 of (17,5,1) at (3, 8) knows
    # messages 11..16 and 0..3, a run that wraps past message 16
    K, b, k = 17, 8, 5

    def _case(self):
        enc = _encoder(self.K, 5, 1, 3, self.b, 3)
        x = np.random.default_rng(17).integers(0, 3, size=enc.rows)
        return enc, x.reshape(self.K, self.b), encode(enc, x)

    def _raises(self, enc, c, side, text):
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            decode(enc, self.k, c, side)

    def test_stacked_read(self, monkeypatch):
        enc, rows, c = self._case()
        want = rows[self.k]
        looked, converted = [], []

        class Side(dict):
            def __getitem__(self, j):
                looked.append(j)
                return dict.__getitem__(self, j)

        def spy(values):
            converted.append(np.shape(values))
            return as_int_array(values)

        monkeypatch.setattr("airindex.codec.as_int_array", spy)
        for side in (Side(enumerate(rows)), list(rows), rows):
            assert np.array_equal(decode(enc, self.k, c, side), want)
        assert looked == [11, 12, 13, 14, 15, 16, 0, 1, 2, 3]
        # the codeword, then the stacked known messages, per decode
        assert converted == [(enc.cols,), (10, self.b)] * 3

    def test_missing_message(self):
        enc, rows, c = self._case()
        missing = "side information for message {} is missing"
        side = dict(enumerate(rows))
        # the run starts at message 11, so 13 fails before 0
        for gone, j in (((0, 13), 13), ((3,), 3)):
            kept = {i: v for i, v in side.items() if i not in gone}
            self._raises(enc, c, kept, missing.format(j))
        # a list or array of 14 messages misses 14, 15 and 16
        self._raises(enc, c, list(rows[:14]), missing.format(14))
        self._raises(enc, c, rows[:14], missing.format(14))
        self._raises(enc, c, None, missing.format(11))

    def test_wrong_length(self):
        enc, rows, c = self._case()
        length = f"side information for message {{}} must have length {self.b}"
        side = dict(enumerate(rows))
        self._raises(enc, c, {**side, 2: rows[2][:7]}, length.format(2))
        long = np.append(rows[16], 0)
        self._raises(enc, c, {**side, 16: long, 2: rows[2][:7]}, length.format(16))
        self._raises(enc, c, {**side, 0: int(rows[0][0])}, length.format(0))
        # every message one short stacks, but into the wrong shape
        self._raises(enc, c, rows[:, :7], length.format(11))
        self._raises(enc, c, [list(r[:7]) for r in rows], length.format(11))

    def test_non_integer_value(self):
        enc, rows, c = self._case()
        side = dict(enumerate(rows))
        floats = "expected integer entries that fit in int64, got other float64 values"
        self._raises(enc, c, {**side, 1: rows[1] + 0.5}, floats)
        self._raises(enc, c, rows + 0.5, floats)
        # the first failing message in the run decides the error
        self._raises(
            enc, c, {**side, 12: rows[12][:7], 14: rows[14] + 0.5},
            f"side information for message 12 must have length {self.b}",
        )
        self._raises(
            enc, c, {**side, 13: list("abcdefgh")},
            "expected integer entries that fit in int64, got other <U1 values",
        )

    def test_integral_floats_accepted(self):
        enc, rows, c = self._case()
        want = rows[self.k]
        side = dict(enumerate(rows))
        floats = [*rows[:16], [*map(float, rows[16])]]
        for mixed in ({**side, 13: rows[13].astype(float)}, rows.astype(float), floats):
            assert np.array_equal(decode(enc, self.k, c, mixed), want)
        # an int64 past 2**53 beside a float array keeps every digit, where
        # a stacked float array would round 3*2**58 + 1 or + 2 to 3*2**58
        big = {**side, 15: rows[15] + 3 * 2**58, 16: rows[16].astype(float)}
        assert np.array_equal(decode(enc, self.k, c, big), want)

    def test_empty_known_set(self):
        # (3,1,1) at (1, 1): every receiver's window holds all three
        # messages, so the stack has no rows and any side information,
        # even none, decodes
        enc = _encoder(3, 1, 1, 1, 1, 5)
        x = np.array([4, 0, 3])
        c = encode(enc, x)
        for side in ({}, [], np.zeros((0, 1), dtype=np.int64), None, {0: [9.5]}):
            assert [decode(enc, k, c, side).tolist() for k in range(3)] == [[4], [0], [3]]


class TestDecodeMaps:
    # (37,8,8) is the wide window; (5,3,1) has K = D+U+1, so every message
    # is unknown and each entry's window rows are its whole column; each
    # column of (12,1,1) holds 6 rows, more than a window's 3, and
    # receiver 11's window 10, 11, 0 wraps, with rows 10 and 0 in one column
    @pytest.mark.parametrize("p", [2, 3, 65521])
    @pytest.mark.parametrize(
        "K,D,U,a,b",
        [(5, 1, 1, 1, 2), (17, 5, 1, 3, 8), (37, 8, 8, 1, 4), (5, 3, 1, 1, 1), (12, 1, 1, 0, 1)],
    )
    def test_maps_solve_unknown_rows(self, K, D, U, a, b, p):
        enc = _encoder(K, D, U, a, b, p)
        L = enc.matrix.entries
        X = np.random.default_rng(K * p).integers(0, p, size=(5, enc.rows), dtype=np.int64)
        for k in range(K):
            cols, terms, coef, outs, targets = _receiver_slice(enc, k)
            dense_M = _dense_decoder(enc, k)
            T, P = dense_M[:, :b], dense_M[:, b:]
            window, unknown = _unknown_rows(enc, k)
            known_rows = np.setdiff1d(np.arange(enc.rows), unknown)
            E = np.zeros((unknown.size, b), dtype=np.int64)
            E[window.index(k) * b : (window.index(k) + 1) * b] = np.eye(b, dtype=np.int64)
            assert np.array_equal(L[unknown] @ T % p, E), k
            # one parity column per free column, with its 1 there and 0 at
            # the other free columns, vanishing on every unknown row
            free = sorted(set(range(enc.cols)) - set(rref_mod_p(L[unknown], p)[1]))
            assert np.array_equal(P[free], np.eye(len(free), dtype=np.int64)), k
            assert not (L[unknown] @ P % p).any(), k
            # wanted outputs target the receiver's own message rows, parity
            # outputs the padding index, whose message symbol is zero
            assert targets.tolist() == list(range(k * b, (k + 1) * b)) + [enc.rows] * len(free), k
            # only nonzero cells are kept, one entry each; the coefficients
            # are integers that every prime shares, here each +1 or -1, so
            # no cell vanishes at any prime
            assert np.isin(coef, (1, -1)).all(), k
            assert np.count_nonzero(dense_M) == cols.size, k
            # each entry's terms name exactly its column's unknown rows, or
            # the one padding row enc.rows when it has none, no more of
            # them than the window holds
            assert max(map(len, terms)) <= (D + U + 1) * b, k
            for col, slots in zip(cols, terms):
                want = unknown[L[unknown, col] != 0]
                assert sorted(slots.tolist()) == (sorted(want.tolist()) or [enc.rows]), k
            # column total minus window share is the known rows' share;
            # the window share is entry-major, one row per entry
            total = enc._column_sums(X)[:, cols]
            lo, hi = enc._decoder.entry_bounds[k : k + 2]
            share = (total - _window_shares(_pad(X), enc._decoder, lo, hi).T) % p
            dense = X[:, known_rows] @ L[known_rows] % p
            assert np.array_equal(share, dense[:, cols]), k
            if K == D + U + 1:
                assert known_rows.size == 0 and not share.any(), k

    @pytest.mark.parametrize("p", [2, 3, 65521])
    @pytest.mark.parametrize(
        "K,D,U,a,b,allow",
        [
            (5, 2, 1, 2, 1, False),
            (5, 2, 0, 3, 3, False),
            (17, 5, 1, 3, 8, False),
            (17, 11, 1, 1, 6, True),
        ],
    )
    def test_segments_nonempty_and_contiguous(self, K, D, U, a, b, allow, p):
        # every output owns a nonempty run of entries, every receiver one
        # run of entries and outputs, in receiver order; an undecodable
        # receiver owns none
        enc = _encoder(K, D, U, a, b, p, build=Encoder if allow else build_encoder)
        dec = enc._decoder
        ends = np.append(dec.starts[1:], dec.cols.size)
        assert dec.starts.size == dec.targets.size
        assert dec.starts.size == 0 or dec.starts[0] == 0
        assert (ends > dec.starts).all()
        assert dec.entry_bounds[0] == dec.output_bounds[0] == 0
        assert dec.entry_bounds[-1] == dec.cols.size and dec.output_bounds[-1] == dec.targets.size
        for k in range(K):
            owned = dec.output_bounds[k + 1] - dec.output_bounds[k]
            assert owned >= b if decodable(enc, k) else owned == 0, k
            first = dec.output_bounds[k]
            want = dec.starts[first] if first < dec.starts.size else dec.cols.size
            assert dec.entry_bounds[k] == want, k
        assert allow == (not all(decodable(enc, k) for k in range(K)))
        # every entry owns a nonempty run of terms, each with its entry's
        # coefficient, so every output owns one too
        held = np.diff(dec.entry_terms)
        assert dec.entry_terms[0] == 0 and dec.entry_terms[-1] == dec.term_rows.size
        assert (held >= 1).all() and np.array_equal(dec.term_coef, dec.coef.repeat(held))

    def test_empty_segment_refused(self):
        # np.add.reduceat over an empty segment returns the next element
        # instead of zero, so the decoder refuses to build one
        assert _segment_starts(np.array([0, 1, 1, 2]), 3).tolist() == [0, 1, 3]
        with pytest.raises(AssertionError, match=r"outputs \[1\] have no entry"):
            _segment_starts(np.array([0, 0, 2]), 3)
        with pytest.raises(AssertionError, match=r"outputs \[2\] have no entry"):
            _segment_starts(np.array([0, 1]), 3)


def _unknown_rows(enc, k):
    """Receiver k's message window and the encoder rows of those messages."""
    K, D, U, b = enc.problem.K, enc.problem.D, enc.problem.U, enc.b
    window = [(k - U + i) % K for i in range(D + U + 1)]
    return window, np.concatenate([np.arange(j * b, (j + 1) * b) for j in window])


def _reference_receiver(enc, k):
    """Receiver k's dense reference, from ``_reference``'s elimination.

    Returns its rank verdict and a solver: for a codeword c and message
    vector x, of which only the known rows are read, the wanted part of
    the left solve of the unknown-row system, or ``None`` when the
    share-corrected codeword is outside the unknown rows' span.
    """
    p, b, L = enc.p, enc.b, enc.matrix.entries
    window, unknown = _unknown_rows(enc, k)
    known = np.setdiff1d(np.arange(enc.rows), unknown)
    pos = window.index(k)
    interference = np.delete(unknown, np.s_[pos * b : (pos + 1) * b])
    ok = reference_rank(L[unknown], p) == reference_rank(L[interference], p) + b

    def solve(c, x):
        u = solve_left(L[unknown], (c - x[known] @ L[known]) % p, p)
        return None if u is None else u[pos * b : (pos + 1) * b]

    return ok, solve


def _check_decode_paths(enc, trials=3, seed=0) -> list[int]:
    """Check decode against the dense reference, simulate and the span test.

    For every receiver and each of ``trials`` message vectors, which are
    drawn as ``simulate`` draws its batch for ``seed``: decode returns the
    reference's left solve of the unknown-row system, which is the sent
    row, and simulate reports no failure, so its batch row is that row too.
    A unit vector added at any free column of the unknown rows (from the
    reference's echelon form) makes decode raise; a receiver with no free
    column decodes arbitrary vectors. Returns, per receiver, the number of
    free columns and whether the unknown rows are nonzero at any of them
    (only then does a genuine codeword's parity check compare nonzero
    values).
    """
    p, K, b, L = enc.p, enc.problem.K, enc.b, enc.matrix.entries
    report = simulate(enc.problem, enc.solution, p, trials=trials, seed=seed, encoder=enc)
    assert report.failures == ()
    X = np.random.default_rng(seed).integers(0, p, size=(trials, enc.rows), dtype=np.int64)
    C = X @ L % p
    sides = [{j: x[j * b : (j + 1) * b] for j in range(K)} for x in X]
    rng = np.random.default_rng([seed, p])
    free_counts = []
    for k in range(K):
        window, unknown = _unknown_rows(enc, k)
        pos = window.index(k)
        known = np.setdiff1d(np.arange(enc.rows), unknown)
        for t in range(trials):
            got = decode(enc, k, C[t], sides[t])
            u = solve_left(L[unknown], (C[t] - X[t, known] @ L[known]) % p, p)
            assert np.array_equal(got, u[pos * b : (pos + 1) * b]), (k, t)
            assert np.array_equal(got, X[t, k * b : (k + 1) * b]), (k, t)
        free = sorted(set(range(enc.cols)) - set(rref_mod_p(L[unknown], p)[1]))
        free_counts.append((len(free), bool(L[np.ix_(unknown, free)].any())))
        for f in free:
            bad = C[0].copy()
            bad[f] = (bad[f] + 1) % p
            with pytest.raises(ArithmeticError, match="not produced by this encoder"):
                decode(enc, k, bad, sides[0])
        if not free:
            for _ in range(3):
                decode(enc, k, rng.integers(0, p, size=enc.cols), sides[0])
    return free_counts


def _peeled(enc, k):
    """Receiver k's range of the batch decoder, or None when its peel stalls."""
    dec = enc._decoder
    return _receiver_slice(enc, k) if dec.output_bounds[k] < dec.output_bounds[k + 1] else None


def _no_elimination(top, bottom, p):
    raise AssertionError("a stalled receiver's elimination ran")


def _drawn_encoder(K, data, p, kinds=("minimal", "feasible", "infeasible")):
    """An encoder for a drawn (K, D, U): the minimal pair, or a feasible or
    infeasible pair with a, b <= 3."""
    D = data.draw(st.integers(1, K - 1))
    U = data.draw(st.integers(0, min(D, K - 1 - D)))
    problem = ProblemInstance(K, D, U)
    kind = data.draw(st.sampled_from(kinds))
    if kind == "minimal":
        sol = find_min_rate(problem)
    else:
        a, b = data.draw(st.integers(0, 3)), data.draw(st.integers(1, 3))
        assume(is_feasible(problem, a, b) == (kind == "feasible") and b * (D + 1) + a <= K * b)
        sol = solution_for_pair(problem, a, b)
    return Encoder(problem, sol, p)


class TestDecodeThroughMaps:
    # (5,2,1) at (2, 1), (11,5,3) at (5, 1) and (17,8,5) at (8, 1) are
    # minimal-rate encoders (identity matrices) whose receivers have 1, 2
    # and 3 free columns, all zero in the unknown rows, as every free
    # column of every minimal-rate encoder with K <= 40 is; the feasible,
    # non-minimal pairs (5,1,0) at (1, 1), (6,2,0) at (2, 1) and (5,2,0)
    # at (3, 3) also have receivers whose unknown rows reach their free
    # columns
    @pytest.mark.parametrize("p", [2, 3, 5, 65521])
    @pytest.mark.parametrize(
        "K,D,U,a,b,free",
        [
            (5, 2, 1, 2, 1, [(1, False)] * 5),
            (11, 5, 3, 5, 1, [(2, False)] * 11),
            (17, 8, 5, 8, 1, [(3, False)] * 17),
            (5, 1, 0, 1, 1, [(1, False)] * 3 + [(1, True)] * 2),
            (6, 2, 0, 2, 1, [(2, False)] * 3 + [(2, True)] * 3),
            (5, 2, 0, 3, 3, [(3, False)] * 2 + [(3, True)] * 3),
        ],
    )
    def test_free_columns(self, K, D, U, a, b, free, p):
        enc = _encoder(K, D, U, a, b, p)
        assert _check_decode_paths(enc, seed=K + p) == free

    @settings(max_examples=40, deadline=None)
    @given(
        K=st.integers(3, 12),
        data=st.data(),
        p=st.sampled_from([2, 3, 5, 65521]),
        seed=st.integers(0, 2**16),
    )
    def test_drawn_instances(self, K, data, p, seed):
        # the minimal pair, or any feasible pair with a, b <= 3
        D = data.draw(st.integers(1, K - 1))
        U = data.draw(st.integers(0, min(D, K - 1 - D)))
        problem = ProblemInstance(K, D, U)
        if data.draw(st.booleans()):
            sol = find_min_rate(problem)
        else:
            a, b = data.draw(st.integers(0, 3)), data.draw(st.integers(1, 3))
            assume(is_feasible(problem, a, b) and b * (D + 1) + a <= K * b)
            sol = solution_for_pair(problem, a, b)
        _check_decode_paths(build_encoder(problem, sol, p), trials=2, seed=seed)

    @settings(max_examples=40, deadline=None)
    @given(
        K=st.integers(3, 12),
        data=st.data(),
        p=st.sampled_from([2, 3, 5, 65521]),
        seed=st.integers(0, 2**16),
    )
    def test_batch_matches_dense_reference(self, K, data, p, seed):
        # the minimal pair, a feasible pair or an infeasible one (a, b <= 3),
        # whose undecodable receivers fail every trial and refuse to decode;
        # genuine codewords and arbitrary vectors, which may fail the parity
        # check, decode as the reference solves them
        enc = _drawn_encoder(K, data, p)
        problem, sol, b, trials = enc.problem, enc.solution, enc.b, 3
        report = simulate(problem, sol, p, trials=trials, seed=seed, encoder=enc)
        X = np.random.default_rng(seed).integers(0, p, size=(trials, enc.rows), dtype=np.int64)
        C = X @ enc.matrix.entries % p
        noise = np.random.default_rng([seed, p]).integers(0, p, size=(2, enc.cols))
        vectors = [(C[t], X[t]) for t in range(trials)] + [(c, X[0]) for c in noise]
        want = []
        for k in range(K):
            ok, solve = _reference_receiver(enc, k)
            assert decodable(enc, k) == ok, k
            for t in range(trials):
                got = solve(C[t], X[t]) if ok else None
                if got is None or not np.array_equal(got, X[t, k * b : (k + 1) * b]):
                    want.append((t, k))
            for c, x in vectors:
                side = {j: x[j * b : (j + 1) * b] for j in range(K)}
                ref = solve(c, x) if ok else None
                if not ok:
                    with pytest.raises(ValueError, match="cannot decode"):
                        decode(enc, k, c, side)
                elif ref is None:
                    with pytest.raises(ArithmeticError, match="not produced by this encoder"):
                        decode(enc, k, c, side)
                else:
                    assert np.array_equal(decode(enc, k, c, side), ref), k
        assert report.failures == tuple(sorted(want))
        assert not is_feasible(problem, enc.a, b) or not want

    @pytest.mark.parametrize("p", [2, 3, 65521])
    def test_single_decode_on_fresh_encoder(self, p, monkeypatch):
        # one decode peels every receiver and builds the batch decoder,
        # which holds every receiver's ranks; every receiver peels, so no
        # elimination runs
        monkeypatch.setattr("airindex.codec._stacked_ranks_mod_p", _no_elimination)
        enc = _encoder(17, 5, 1, 3, 8, p)
        x = np.random.default_rng(p).integers(0, p, size=enc.rows)
        c = encode(enc, x)
        side = {j: x[j * 8 : (j + 1) * 8] for j in range(17)}
        ok, solve = _reference_receiver(enc, 6)
        assert ok
        assert np.array_equal(decode(enc, 6, c, side), solve(c, x))
        assert "_decoder" in vars(enc) and len(enc._decoder.ranks) == 17

    def test_single_decode_on_fresh_encoder_refuses_undecodable(self):
        enc = _encoder(17, 11, 1, 1, 6, 2, build=Encoder)
        bad = [k for k in range(17) if not _reference_receiver(enc, k)[0]]
        assert bad and "_decoder" not in vars(enc)
        side = {j: np.zeros(6, dtype=int) for j in range(17)}
        with pytest.raises(ValueError, match="cannot decode"):
            decode(enc, bad[0], np.zeros(enc.cols, dtype=int), side)

    @pytest.mark.parametrize("p", [2, 3])
    def test_largest_encoder(self, p):
        # every (71,25,1) receiver's unknown rows have full rank 781, so no
        # free column: any vector decodes, and genuine codewords decode right
        enc = _encoder(71, 25, 1, 1, 30, p)
        trials, seed, b = 2, 7, enc.b
        assert simulate(enc.problem, enc.solution, p, trials=trials, seed=seed, encoder=enc).passed
        X = np.random.default_rng(seed).integers(0, p, size=(trials, enc.rows), dtype=np.int64)
        C = enc._broadcast(X)
        noise = np.random.default_rng(p).integers(0, p, size=(71, enc.cols))
        for k in range(71):
            assert receiver_ranks(enc, k)[1] == enc.cols, k
            for t in range(trials):
                side = {j: X[t, j * b : (j + 1) * b] for j in range(71)}
                assert np.array_equal(decode(enc, k, C[t], side), X[t, k * b : (k + 1) * b])
            decode(enc, k, noise[k], side)


class TestPeel:
    @settings(max_examples=40, deadline=None)
    @given(
        K=st.integers(3, 12),
        data=st.data(),
        p=st.sampled_from([2, 3, 5, 65521]),
        seed=st.integers(0, 2**16),
    )
    def test_certified_peel_decodes(self, K, data, p, seed):
        # a receiver the peel certifies is decodable, has the reference's
        # ranks, and decodes genuine codewords as the reference solves them
        enc = _drawn_encoder(K, data, p)
        b, L = enc.b, enc.matrix.entries
        X = np.random.default_rng(seed).integers(0, p, size=(2, enc.rows), dtype=np.int64)
        C = X @ L % p
        for k in range(K):
            if _peeled(enc, k) is None:
                continue
            ok, solve = _reference_receiver(enc, k)
            assert ok and decodable(enc, k), k
            window, unknown = _unknown_rows(enc, k)
            pos = window.index(k)
            interference = np.delete(unknown, np.s_[pos * b : (pos + 1) * b])
            want = (reference_rank(L[interference], p), reference_rank(L[unknown], p))
            assert receiver_ranks(enc, k) == want, k
            for c, x in zip(C, X):
                side = {j: x[j * b : (j + 1) * b] for j in range(K)}
                got = decode(enc, k, c, side)
                assert np.array_equal(got, solve(c, x)), k
                assert np.array_equal(got, x[k * b : (k + 1) * b]), k

    @settings(max_examples=60, deadline=None)
    @given(K=st.integers(3, 12), data=st.data(), p=st.sampled_from([2, 3, 5]))
    def test_peel_verdict_is_rank_verdict(self, K, data, p):
        # feasible or infeasible pairs with a, b <= 3: the peel stalls
        # exactly on the receivers the rank criterion calls undecodable
        enc = _drawn_encoder(K, data, p, kinds=("feasible", "infeasible"))
        for k in range(K):
            assert (_peeled(enc, k) is not None) == _reference_receiver(enc, k)[0], k

    @settings(max_examples=60, deadline=None)
    @given(K=st.integers(3, 12), data=st.data(), p=st.sampled_from([2, 3, 5, 65521]))
    def test_batched_peel_matches_reference(self, K, data, p):
        # the minimal pair, or a feasible or infeasible one with a, b <= 3:
        # every receiver's verdict, ranks and decoder entries, compared over
        # the integers as a set per output, are the per-receiver peel's,
        # and each entry's window rows are its column's unknown rows
        enc = _drawn_encoder(K, data, p)
        b, m = enc.b, enc.rows
        for k in range(K):
            ref = reference_peel(enc, k)
            assert (_peeled(enc, k) is None) == (ref is None), k
            if ref is None:
                continue
            rank, outputs, cut = ref
            assert receiver_ranks(enc, k) == (rank - b, rank), k
            cols, terms, coef, outs, targets = _receiver_slice(enc, k)
            assert targets.tolist() == list(range(k * b, (k + 1) * b)) + [m] * (len(outputs) - b)
            for o, expr in enumerate(outputs):
                got = set(zip(cols[outs == o].tolist(), coef[outs == o].tolist()))
                assert got == {(c, v) for c, v in expr.items() if v}, (k, o)
            for c, rows in zip(cols.tolist(), terms):
                assert sorted(rows[rows < m].tolist()) == cut[c], (k, c)

    @pytest.mark.parametrize("p", [2, 3, 65521])
    def test_stalled_receiver_gets_ranks_only(self, p, monkeypatch):
        # receiver 14 of (17,11,1) at (1, 6) is undecodable at every prime;
        # its peel stalls, and only it runs an elimination: one of its
        # window's interference rows with its wanted rows stacked under them
        calls = []

        def spy(top, bottom, q):
            calls.append((top.copy(), bottom.copy(), q))
            return _stacked_ranks_mod_p(top, bottom, q)

        monkeypatch.setattr("airindex.codec._stacked_ranks_mod_p", spy)
        enc = _encoder(17, 11, 1, 1, 6, p, build=Encoder)
        assert [k for k in range(17) if not decodable(enc, k)] == [14]
        dec = enc._decoder
        assert _peeled(enc, 14) is None and dec.entry_bounds[14] == dec.entry_bounds[15]
        L, b = enc.matrix.entries, enc.b
        window, unknown = _unknown_rows(enc, 14)
        pos = window.index(14)
        interference = np.delete(unknown, np.s_[pos * b : (pos + 1) * b])
        wanted = np.arange(14 * b, 15 * b)
        assert len(calls) == 1 and calls[0][2] == p
        assert np.array_equal(calls[0][0], L[interference])
        assert np.array_equal(calls[0][1], L[wanted])
        want = (reference_rank(L[interference], p), reference_rank(L[unknown], p))
        assert receiver_ranks(enc, 14) == want and want[1] < want[0] + b

    def test_stall_called_decodable_raises(self, monkeypatch):
        # ranks that find a stalled receiver decodable would need a decoder
        # the peel did not give, so the ranks refuse to finish: the first
        # call on the encoder raises, whichever receiver it asks about, and
        # so does simulate, which would otherwise report that receiver failed
        monkeypatch.setattr(
            "airindex.codec._stacked_ranks_mod_p",
            lambda top, bottom, p: (len(top), len(top) + len(bottom)),
        )
        enc = _encoder(17, 11, 1, 1, 6, 2, build=Encoder)
        calls = [
            lambda: decodable(enc, 13),
            lambda: decodable(enc, 13),
            lambda: simulate(enc.problem, enc.solution, 2, trials=1, encoder=enc),
        ]
        for call in calls:
            with pytest.raises(
                AssertionError,
                match=r"receiver 14 of ProblemInstance\(K=17, D=11, U=1\) at \(a=1, b=6\) over GF\(2\)",
            ):
                call()
        assert "_ranks" not in vars(enc)

    @pytest.mark.parametrize("over", [False, True])
    def test_stalled_window_over_the_cap_is_refused(self, over, monkeypatch):
        # receiver 14 of (17,11,1) at (1, 6) stalls; its ranks need its
        # 78x73 window rows dense, which are refused before any elimination
        # once they pass the cap, and built at the cap itself
        monkeypatch.setattr("airindex.codec._stacked_ranks_mod_p", _no_elimination)
        monkeypatch.setattr("airindex.codec.MAX_CELLS", 78 * 73 - over)
        enc = _encoder(17, 11, 1, 1, 6, 2, build=Encoder)
        if over:
            with pytest.raises(
                ValueError,
                match=r"receiver 14 of .*: its peel stalled, and its 78x73 = 5694 window rows "
                r"are over the limit of 5693",
            ):
                decodable(enc, 0)
            assert "_ranks" not in vars(enc)
        else:
            with pytest.raises(AssertionError, match="a stalled receiver's elimination ran"):
                decodable(enc, 0)

    def test_residual_that_does_not_clear_is_a_stall(self, monkeypatch):
        # a 4x3 encoder for (4,2,0) at (0, 1) whose cells are not AIR's:
        # receiver 0's wanted row 0 peels from column 0, but its rows 1 and 2
        # both meet columns 1 and 2, so the second peel cannot clear them and
        # its unknown rows have rank 2, not n minus its 0 parity columns; it
        # is not certified, and as its elimination finds it decodable, the
        # build raises
        entries = np.array([[1, 0, 0], [0, 1, 1], [0, 1, 1], [1, 1, 0]])
        monkeypatch.setattr("airindex.codec._block_cells", lambda m, n: [np.nonzero(entries)])
        problem = ProblemInstance(4, 2, 0)
        enc = Encoder(problem, solution_for_pair(problem, 0, 1), 3)
        with pytest.raises(AssertionError, match=r"receiver 0 of .*: the peel stalled"):
            decodable(enc, 1)

    def test_rows_that_meet_the_same_last_column_clear_it_once(self, monkeypatch):
        # a 4x3 encoder for (4,2,0) at (0, 1) whose cells are not AIR's:
        # receiver 0's wanted row 0 peels from column 0, and its rows 1 and
        # 2 each have column 1 as their only live column, so both pick it in
        # the same round of the second peel and one wins; the column is
        # cleared once, so receiver 0 is decodable with ranks (1, 2), while
        # receiver 1's wanted row 1 shares column 1 with row 2 and stalls
        entries = np.array([[1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]])
        monkeypatch.setattr("airindex.codec._block_cells", lambda m, n: [np.nonzero(entries)])
        problem = ProblemInstance(4, 2, 0)
        enc = Encoder(problem, solution_for_pair(problem, 0, 1), 3)
        assert enc._decoder.ranks[:2] == [(1, 2), None]
        assert [receiver_ranks(enc, k) for k in (0, 1)] == [(1, 2), (2, 2)]
        assert [decodable(enc, k) for k in range(4)] == [True, False, True, True]
        for x in np.random.default_rng(4).integers(0, 3, size=(5, 4)):
            c = encode(enc, x)
            side = {j: x[j : j + 1] for j in range(4)}
            for k in (0, 2, 3):
                assert np.array_equal(decode(enc, k, c, side), x[k : k + 1]), (x, k)

    def test_second_peel_rejects_no_receiver_the_first_peel_solved(self, monkeypatch):
        # on AIR encoders a receiver whose first peel solves its b wanted
        # rows always passes the second peel too, so the stall that
        # elimination finds decodable, which ``Encoder._ranks`` refuses, is
        # reached only from non-AIR cells, as in the test above; swept over
        # every K <= 10, every (D, U), b <= 3 and every a with cols <= rows,
        # feasible or not
        firsts = []

        def spy(cells, lo, w):
            out = _first_peel(cells, lo, w)
            firsts.append(out[0])
            return out

        monkeypatch.setattr("airindex._peel._first_peel", spy)
        receivers = stalls = 0
        for K in range(2, 11):
            for D in range(1, K):
                for U in range(min(D, K - 1 - D) + 1):
                    problem = ProblemInstance(K, D, U)
                    for b in (1, 2, 3):
                        w, at = (D + U + 1) * b, U * b
                        lo = (np.arange(K) * b - at) % (K * b)
                        for a in range(b * (K - D - 1) + 1):
                            cells = Encoder(problem, solution_for_pair(problem, a, b), 2)._cells
                            ok = _peel(cells, lo, w, b, at, problem)[0]
                            solved = (firsts.pop().reshape(K, w)[:, at : at + b] >= 0).all(axis=1)
                            assert np.array_equal(ok, solved), (K, D, U, a, b)
                            receivers += K
                            stalls += K - ok.sum()
        assert (receivers, stalls) == (21516, 4007)

    @staticmethod
    def _growing(n, p, monkeypatch):
        """A hand-built n x n encoder for (n, n-1, 0) at (0, 1) whose column c
        holds rows c, c+1 and c+3, and row 0's coefficients over Z.

        Each receiver's window holds every row. The peel solves row c from
        column c, last row first, so x_c = c'_c - x_{c+1} - x_{c+3}: row 0's
        coefficient at column j is f(j), with f(0) = 1 and
        f(j) = -f(j-1) - f(j-3), which grows about 1.47-fold per column.
        """
        r, c = np.indices((n, n))
        entries = np.isin(r - c, (0, 1, 3)).astype(np.int64)
        monkeypatch.setattr("airindex.codec._block_cells", lambda m, n: [np.nonzero(entries)])
        problem = ProblemInstance(n, n - 1, 0)
        f = [1]
        for j in range(1, n):
            f.append(-f[j - 1] - (f[j - 3] if j >= 3 else 0))
        enc = Encoder(problem, solution_for_pair(problem, 0, 1), p)
        return enc, f

    @pytest.mark.parametrize("p", [2, 3, 65521])
    def test_integer_coefficients_reduce_at_each_prime(self, p, monkeypatch):
        # coefficients past +-1, some 0 mod p and some past p itself, are
        # kept over Z and reduced only when decoding; every receiver still
        # decodes, the decoder equals the reference peel's, and other
        # primes share it
        enc, f = self._growing(40, p, monkeypatch)
        assert abs(f[39]) > 65521 and any(v % 2 == 0 for v in f)
        cols, _, coef, outs, _ = _receiver_slice(enc, 0)
        assert dict(zip(cols.tolist(), coef.tolist())) == dict(enumerate(f))
        assert outs.tolist() == [0] * 40
        for k in (0, 17, 39):
            _, outputs, _ = reference_peel(enc, k)
            got = _receiver_slice(enc, k)
            assert dict(zip(got[0].tolist(), got[2].tolist())) == outputs[0], k
        for q in {p, 5}:
            shared = enc.over(q)
            assert shared._decoder is enc._decoder
            _check_decode_paths(shared, trials=2, seed=q)

    def test_coefficient_past_int64_headroom_raises(self, monkeypatch):
        # at n = 64 the coefficients pass 2**31, where a later merge could
        # wrap int64, so the build refuses instead of decoding wrongly
        enc, f = self._growing(64, 2, monkeypatch)
        assert abs(f[63]) > 2**31
        with pytest.raises(OverflowError, match=r"coefficient of .*K=64.* exceeds 2\*\*31"):
            decodable(enc, 0)

    @pytest.mark.parametrize(
        "K,D,U,a,b,allow", [(17, 5, 1, 3, 8, False), (17, 11, 1, 1, 6, True)]
    )
    def test_one_peel_per_receiver(self, K, D, U, a, b, allow, monkeypatch):
        # the first call peels every receiver once, in one batched build of
        # the batch decoder; the calls after it, whichever receiver they
        # ask about, reuse it
        calls = []

        def spy(cells, *shape):
            calls.append(cells)
            return _build_decoder(cells, *shape)

        monkeypatch.setattr("airindex.codec._build_decoder", spy)
        enc = _encoder(K, D, U, a, b, 3, build=Encoder if allow else build_encoder)
        x = np.random.default_rng(K).integers(0, 3, size=enc.rows)
        c = encode(enc, x)
        side = {j: x[j * b : (j + 1) * b] for j in range(K)}
        assert decodable(enc, 4) and len(calls) == 1 and calls[0] is enc._cells
        assert "_decoder" in vars(enc)
        receiver_ranks(enc, 7)
        assert np.array_equal(decode(enc, 5, c, side), x[5 * b : 6 * b])
        report = simulate(enc.problem, enc.solution, 3, trials=2, seed=1, encoder=enc)
        assert report.passed != allow
        assert len(calls) == 1

    def test_peel_reads_only_its_window_rows(self, monkeypatch):
        # each column of (200,1,0) at (0, 1) holds 100 encoder rows, but at
        # most two of them, rows k and k+1, are receiver k's unknowns: every
        # cut of a column to a window, the last of which gives each of the
        # 200 outputs' entries its window rows, holds at most two rows
        seen = []

        def spy(cells, cols, lo, w):
            q, off = _cut(cells, cols, lo, w)
            seen.append(np.bincount(q, minlength=cols.size))
            return q, off

        monkeypatch.setattr("airindex._peel._cut", spy)
        enc = _encoder(200, 1, 0, 0, 1, 2)
        assert (enc.matrix.entries.sum(axis=0) == 100).all()
        assert all(decodable(enc, k) for k in range(200))
        assert seen[-1].size >= 200 and max(cut.max(initial=0) for cut in seen) <= 2

    def test_minimal_rate_catalogue_peels(self, monkeypatch):
        # every receiver of every minimal-rate encoder with K <= 20,
        # D <= 10 and D <= K-2: the peel is field-free, so one prime serves
        # each output's sum stays within 28*(p-1) in magnitude: every
        # decoder builds with the load bound at 28
        monkeypatch.setattr("airindex._peel._MAX_TERM", 28)
        receivers = 0
        for K in range(3, 21):
            for D in range(1, min(10, K - 2) + 1):
                for U in range(0, min(D, K - 1 - D) + 1):
                    problem = ProblemInstance(K, D, U)
                    enc = build_encoder(problem, find_min_rate(problem), 2)
                    for k in range(K):
                        assert _peeled(enc, k) is not None, (K, D, U, k)
                    receivers += K
        assert receivers == 9240


def _assert_same_encoder(shared, fresh, seed):
    """``shared`` (from ``Encoder.over``) behaves as the fresh build ``fresh``
    over the same prime: same decoder, ranks, decodes and simulate report."""
    K, b, q = fresh.problem.K, fresh.b, fresh.p
    assert shared.p == q
    dec, want = shared._decoder, fresh._decoder
    assert dec.ranks == want.ranks
    fields = ("cols", "coef", "starts", "targets", "entry_bounds", "output_bounds")
    fields += ("term_rows", "term_coef", "entry_terms")
    for name in fields:
        assert np.array_equal(getattr(dec, name), getattr(want, name)), name
    assert [receiver_ranks(shared, k) for k in range(K)] == [
        receiver_ranks(fresh, k) for k in range(K)
    ]
    x = np.random.default_rng([seed, q]).integers(0, q, size=fresh.rows)
    c = encode(fresh, x)
    assert np.array_equal(encode(shared, x), c)
    side = {j: x[j * b : (j + 1) * b] for j in range(K)}
    for k in range(K):
        if decodable(fresh, k):
            assert np.array_equal(decode(shared, k, c, side), decode(fresh, k, c, side)), k
        else:
            assert not decodable(shared, k), k
            with pytest.raises(ValueError, match="cannot decode"):
                decode(shared, k, c, side)
    reports = [
        simulate(e.problem, e.solution, q, trials=3, seed=seed, encoder=e).to_json()
        for e in (shared, fresh)
    ]
    for report in reports:
        report.pop("elapsed_ms")
    assert reports[0] == reports[1]


class TestOver:
    # the peel reads no p, so one encoder's cells and peel serve every
    # prime: an encoder built over GF(2) and moved to GF(q) by ``over``
    # must be indistinguishable from one built over GF(q)
    @settings(max_examples=30, deadline=None)
    @given(K=st.integers(3, 12), data=st.data(), seed=st.integers(0, 2**16))
    def test_over_equals_fresh_build(self, K, data, seed):
        base = _drawn_encoder(K, data, 2)
        for q in (2, 3, 5, 65521):
            shared = base.over(q)
            assert shared._cells is base._cells and shared._decoder is base._decoder
            fresh = Encoder(base.problem, base.solution, q)
            _assert_same_encoder(shared, fresh, seed)

    @pytest.mark.parametrize("q", [2, 3, 5, 65521])
    def test_stalled_receivers_over_each_prime(self, q, monkeypatch):
        # (17,11,1) at (1, 6): receiver 14's peel stalls, so only its ranks
        # are computed again, by one elimination at q
        base = _encoder(17, 11, 1, 1, 6, 2, build=Encoder)
        assert not decodable(base, 14)
        calls = []

        def spy(top, bottom, p):
            calls.append(p)
            return _stacked_ranks_mod_p(top, bottom, p)

        monkeypatch.setattr("airindex.codec._stacked_ranks_mod_p", spy)
        shared = base.over(q)
        fresh = _encoder(17, 11, 1, 1, 6, q, build=Encoder)
        _assert_same_encoder(shared, fresh, q)
        assert calls == [q, q]  # receiver 14, once per encoder over GF(q)

    def test_one_build_for_every_prime(self, monkeypatch):
        # ``over`` on a fresh encoder peels it first, once, and no later
        # call on any of the encoders peels again
        calls = []

        def spy(cells, *shape):
            calls.append(cells)
            return _build_decoder(cells, *shape)

        monkeypatch.setattr("airindex.codec._build_decoder", spy)
        base = _encoder(17, 5, 1, 3, 8, 2)
        encoders = [base.over(q) for q in (2, 3, 5, 65521)]
        assert len(calls) == 1 and calls[0] is base._cells
        for enc in encoders:
            assert all(decodable(enc, k) for k in range(17))
            assert simulate(enc.problem, enc.solution, enc.p, trials=2, encoder=enc).passed
        assert len(calls) == 1

    def test_refuses_primes_build_encoder_refuses(self):
        # the same one range as build_encoder's, whatever K*b: the largest
        # prime in it moves the shared decoder there, and the next is refused
        base = _encoder(17, 5, 1, 3, 8, 2)
        top = base.over(LARGEST_PRIME)
        assert top.p == LARGEST_PRIME and top._decoder is base._decoder
        assert simulate(top.problem, top.solution, LARGEST_PRIME, trials=3, encoder=top).passed
        with pytest.raises(ValueError, match=TOO_LARGE):
            base.over(FIRST_REFUSED_PRIME)
        with pytest.raises(ValueError, match="prime"):
            base.over(4)


class TestBatchDecoder:
    # receivers of (5,1,0) at (1, 1) and (5,2,0) at (3, 3) whose unknown
    # rows reach their free columns: each parity check carries, besides
    # the 1 at its own column, minus the peel expressions of that column's
    # unknown rows
    @pytest.mark.parametrize("p", [2, 3, 5, 65521])
    @pytest.mark.parametrize("K,D,U,a,b", [(5, 1, 0, 1, 1), (5, 2, 0, 3, 3)])
    def test_parity_columns_flag_perturbed_rows(self, K, D, U, a, b, p):
        enc = _encoder(K, D, U, a, b, p)
        L = enc.matrix.entries
        X = np.random.default_rng(K * b * p).integers(0, p, size=(6, enc.rows), dtype=np.int64)
        C = X @ L % p
        padded = _pad(X)
        dec = enc._decoder
        reaches = 0
        for k in range(K):
            _, unknown = _unknown_rows(enc, k)
            known = X.copy()
            known[:, unknown] = 0
            lo, hi = dec.entry_bounds[k : k + 2]
            cols = dec.cols[lo:hi]
            # the corrected codeword from the window rows alone, each entry's
            # terms summed, which simulate's terms add up to, and as decode
            # forms it, the codeword less the known rows' encoding; the two
            # agree mod p. Both are entry-major: one row per entry, one
            # column per trial
            fixes = [
                _window_shares(padded, dec, lo, hi),
                (C[:, cols] - enc._column_sums(known)[:, cols]).T,
            ]
            assert not ((fixes[0] - fixes[1]) % p).any(), k
            for fixed in fixes:
                # the magnitude that the build's bound on the load assumes
                assert (np.abs(fixed) <= (p - 1) * L.sum(axis=0)[cols, None]).all(), k
                out = _outputs(dec, fixed, p, k)
                got, inconsistent = out[:b].T, out[b:].any(axis=0)
                assert not inconsistent.any(), k
                assert np.array_equal(got, X[:, k * b : (k + 1) * b]), k
            free = sorted(set(range(enc.cols)) - set(rref_mod_p(L[unknown], p)[1]))
            assert free, k
            pivots = np.setdiff1d(np.arange(enc.cols), free)
            reaches += bool(_dense_decoder(enc, k)[pivots, b:].any())
            side = {j: X[0, j * b : (j + 1) * b] for j in range(K)}
            for f in free:
                for step in {1, p - 1}:
                    for fixed in fixes:
                        bad = fixed + step * (cols == f)[:, None]
                        assert _outputs(dec, bad, p, k)[b:].any(axis=0).all(), (k, f, step)
                    bad = C[0].copy()
                    bad[f] = (bad[f] + step) % p
                    with pytest.raises(ArithmeticError, match="not produced by this encoder"):
                        decode(enc, k, bad, side)
        assert reaches

    def test_simulate_counts_parity_failures(self, monkeypatch):
        # a trial whose symbols decode right but whose corrected codeword
        # fails the parity check is a failure; every receiver of (5,2,1)
        # at (2, 1) has one parity output, (5,1,1) at (1, 2) none
        problem = ProblemInstance(5, 2, 1)
        sol = find_min_rate(problem)
        assert (sol.a_min, sol.b_min) == (2, 1)
        enc = build_encoder(problem, sol, 3)
        parity = enc._decoder.targets == 5  # the padding index of a 5-row encoder

        def first_row_inconsistent(vals, coef, starts):
            # entry-major: trial 0 is column 0 of the first chunk
            out = _segment_sums(vals, coef, starts)
            if vals.shape[1]:
                out[parity, 0] = 1
            return out

        monkeypatch.setattr("airindex.codec._segment_sums", first_row_inconsistent)
        report = simulate(problem, sol, 3, trials=3, seed=2, encoder=enc)
        assert report.failures == tuple((0, k) for k in range(5))

    def test_parity_output_without_window_rows_sums_to_zero(self, monkeypatch):
        # (5,2,1) at (2, 1): each receiver's parity output holds one entry,
        # whose column meets no row of the receiver's window, so its one
        # term reads the padding row, whose symbol is zero, and simulate
        # sums it to exactly 0 at every trial
        problem = ProblemInstance(5, 2, 1)
        enc = build_encoder(problem, solution_for_pair(problem, 2, 1), 3)
        dec = enc._decoder
        # outputs of one entry whose one term is the padding row 5
        ends = np.append(dec.starts[1:], dec.cols.size)
        padding = (np.diff(dec.entry_terms) == 1) & (dec.term_rows[dec.entry_terms[:-1]] == 5)
        lone = np.flatnonzero((ends - dec.starts == 1) & padding[dec.starts])
        assert lone.size and (dec.targets[lone] == 5).all()
        seen = []

        def spy(vals, coef, starts):
            seen.append(_segment_sums(vals, coef, starts))
            return seen[-1]

        monkeypatch.setattr("airindex.codec._segment_sums", spy)
        report = simulate(problem, enc.solution, 3, trials=20, seed=4, encoder=enc)
        sums = np.concatenate(seen, axis=1)
        assert report.passed and sums.shape == (dec.targets.size, 20)
        assert not sums[lone].any()

    @settings(max_examples=40, deadline=None)
    @given(
        K=st.integers(3, 10),
        data=st.data(),
        p=st.sampled_from([2, 3, 5, 65521, LARGEST_PRIME]),
        trials=st.integers(1, 40),
        seed=st.integers(0, 2**16),
    )
    def test_mismatch_only_verdict_is_reduced_verdict(self, K, data, p, trials, seed):
        # simulate reduces mod p only the sums that differ from their
        # targets; with every sum shifted by a multiple of p, none fails,
        # and with some also shifted by a non-multiple, exactly those fail,
        # each verdict equal to the reduced one, sums % p != targets, and
        # the report names their (trial, receiver) pairs
        enc = _drawn_encoder(K, data, p)
        dec = enc._decoder
        recv = np.repeat(np.arange(K), np.diff(dec.output_bounds))
        rng = np.random.default_rng(seed)
        done, expected = 0, set()

        def shifted(sums, targets, q):
            nonlocal done
            # the decoder is exact over the integers
            assert np.array_equal(sums, targets)
            off = rng.integers(1, q, size=sums.shape) * (rng.random(sums.shape) < 0.1)
            sums = sums + q * rng.integers(-(2**20), 2**20, size=sums.shape) + off
            wrong = _misses(sums, targets, q)
            assert np.array_equal(wrong, sums % q != targets)
            assert np.array_equal(wrong, off != 0)
            for o, t in zip(*np.nonzero(wrong)):
                expected.add((done + int(t), int(recv[o])))
            done += sums.shape[1]
            return wrong

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("airindex.codec._misses", shifted)
            report = simulate(enc.problem, enc.solution, p, trials=trials, seed=seed, encoder=enc)
        assert done == trials
        stalled = [k for k in range(K) if not decodable(enc, k)]
        expected |= {(t, k) for t in range(trials) for k in stalled}
        assert report.failures == tuple(sorted(expected))


def _dense_load(enc):
    """The largest, over the decoder's outputs, of the sum over the output's
    entries of |coef| times its column's weight, read from the dense matrix."""
    weight = enc.matrix.entries.sum(axis=0)
    load = 0
    for k in range(enc.problem.K):
        cols, _, coef, outs, _ = _receiver_slice(enc, k)
        load = max(load, int(np.bincount(outs, np.abs(coef) * weight[cols]).max(initial=0)))
    return load


def _rebuild_decoder(enc):
    """A fresh build of the decoder of ``enc`` from its cells, past its cache."""
    return Encoder._decoder.func(enc)


def _assert_load_bound(enc, load, monkeypatch):
    """The decoder of ``enc`` builds with its bound set to ``load`` and is
    refused with the bound one below it."""
    monkeypatch.setattr("airindex._peel._MAX_TERM", load - 1)
    with pytest.raises(OverflowError, match=rf"has load {load}, over {load - 1}:"):
        _rebuild_decoder(enc)
    monkeypatch.setattr("airindex._peel._MAX_TERM", load)
    assert _rebuild_decoder(enc).ranks == enc._decoder.ranks


class TestLoadGuard:
    # each output is one sum of integer products, reduced once mod p; the
    # decoder's load bounds that sum by (p-1)*load, and the build refuses a
    # load past 2**31, so that no sum reaches 2**63 at any accepted prime,
    # before decodable, receiver_ranks, decode or simulate sums anything
    @staticmethod
    def _refused_before_any_sum(enc, match):
        """Each call that builds the decoder of ``enc`` raises ``OverflowError``
        matching ``match``, and none sums a column, a window or an output."""
        K, b = enc.problem.K, enc.b
        x = np.random.default_rng(K).integers(0, enc.p, size=enc.rows)
        c = encode(enc, x)
        side = {j: x[j * b : (j + 1) * b] for j in range(K)}
        sums = []

        def spy(name, real):
            def wrapped(*args, **kwargs):
                sums.append(name)
                return real(*args, **kwargs)

            return wrapped

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Encoder, "_column_sums", spy("column", Encoder._column_sums))
            mp.setattr("airindex.codec._segment_sums", spy("outputs", _segment_sums))
            for call in (
                lambda: decodable(enc, 0),
                lambda: receiver_ranks(enc, K - 1),
                lambda: decode(enc, 1, c, side),
                lambda: simulate(enc.problem, enc.solution, enc.p, trials=3, encoder=enc),
            ):
                with pytest.raises(OverflowError, match=match):
                    call()
        assert sums == []

    @pytest.mark.parametrize("p", [3, 65521])
    def test_refused_at_the_edge_before_any_sum(self, p, monkeypatch):
        # an AIR encoder with the bound set to its dense-computed load
        # builds its decoder there and decodes; one below, it is refused
        base = _encoder(17, 5, 1, 3, 8, p)
        load = _dense_load(base)
        monkeypatch.setattr("airindex._peel._MAX_TERM", load)
        enc = Encoder(base.problem, base.solution, p)
        assert simulate(enc.problem, enc.solution, p, trials=3, seed=1, encoder=enc).passed
        monkeypatch.setattr("airindex._peel._MAX_TERM", load - 1)
        enc = Encoder(base.problem, base.solution, p)
        self._refused_before_any_sum(enc, rf"has load {load}, over {load - 1}:")
        monkeypatch.undo()
        # the hand-built encoders of TestPeel: at n = 50 the load is below
        # 2**31 and every receiver decodes; at n = 55 it passes 2**31 while
        # every coefficient stays below it, and at n = 60 the last
        # coefficient passes 2**31 though no merged term in the peel does;
        # the build refuses both
        enc, f = TestPeel._growing(50, p, monkeypatch)
        assert max(map(abs, f)) < _dense_load(enc) <= 2**31
        _check_decode_paths(enc, trials=2, seed=p)
        for n in (55, 60):
            enc, f = TestPeel._growing(n, p, monkeypatch)
            with pytest.MonkeyPatch.context() as mp:
                # the load, from a twin built past the bound
                mp.setattr("airindex._peel._MAX_TERM", 2**40)
                load = _dense_load(Encoder(enc.problem, enc.solution, p))
            # |f| grows, so f[-1] is the largest coefficient
            assert load > 2**31 and (abs(f[-1]) > 2**31) == (n == 60)
            self._refused_before_any_sum(enc, rf"has load {load}, over 2147483648:")

    def test_load_is_the_largest_weighted_output(self, monkeypatch):
        # the sum over an output's entries of |coef| times its column's
        # weight, read from the dense matrix, at its largest over outputs:
        # the decoder builds with the bound there and not one below
        cases = [(5, 1, 1, 1, 2), (17, 5, 1, 3, 8), (37, 8, 8, 1, 4), (12, 1, 1, 0, 1)]
        for K, D, U, a, b in cases:
            enc = _encoder(K, D, U, a, b, 2)
            _assert_load_bound(enc, _dense_load(enc), monkeypatch)
            monkeypatch.undo()

    def test_north_star_load(self, monkeypatch):
        # 18 on (71,25,1), far inside the bound
        _assert_load_bound(_encoder(71, 25, 1, 1, 30, 2), 18, monkeypatch)


class TestDecodeGuards:
    def test_decodes_hold_only_the_batch_decoder(self):
        # after one decode per receiver the encoder holds the batch
        # decoder and nothing else of the peels: about 0.3 MB for all 71
        # receivers of (71,25,1) over GF(3)
        enc = _encoder(71, 25, 1, 1, 30, p=3)
        x = np.random.default_rng(71).integers(0, 3, size=enc.rows)
        c = encode(enc, x)
        side = {j: x[j * 30 : (j + 1) * 30] for j in range(71)}
        # encoder-wide tables, built outside the measurement
        enc._cells
        tracemalloc.start()
        try:
            decoded = [decode(enc, k, c, side) for k in range(71)]
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert all(np.array_equal(decoded[k], x[k * 30 : (k + 1) * 30]) for k in range(71))
        assert "_decoder" in vars(enc)
        assert held < 5 * 2**20

    def test_large_encoder_holds_no_dense_matrix(self):
        # (71,25,1): its build, its decodability sweep and a 100-trial
        # simulate, measured together; the encoder holds only its cells,
        # where a dense 2130x781 int64 matrix alone would take 12.7 MB
        problem = ProblemInstance(71, 25, 1)
        sol = find_min_rate(problem)
        tracemalloc.start()
        try:
            enc = build_encoder(problem, sol, 2)
            assert all(decodable(enc, k) for k in range(71))
            report = simulate(problem, sol, 2, trials=100, seed=0, encoder=enc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 6 * 2**20

    def test_rank_sweep_memory_linear_in_K(self):
        # (2000,1,0) at (0, 1): a decodability sweep keeps two ranks and
        # one small decoder output per receiver, 0.61 MB in all on Python
        # 3.11; a list of each receiver's K-D-U-1 known messages took 145 MB
        enc = _encoder(2000, 1, 0, 0, 1, 2)
        enc._cells  # built outside the measurement
        tracemalloc.start()
        try:
            assert all(decodable(enc, k) for k in range(2000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_rank_sweep_memory_bounded_on_wide_windows(self):
        # (1000,499,0) at (0, 1): each receiver's window holds 500 of the
        # 1000 rows and meets all 500 columns; the peel takes the receivers
        # a run at a time, so that no receivers x columns array exceeds a
        # fixed cap, where one (K, n) int64 array would take 4 MB
        enc = _encoder(1000, 499, 0, 0, 1, 2)
        enc._cells  # built outside the measurement
        tracemalloc.start()
        try:
            assert all(decodable(enc, k) for k in range(1000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_decoder_memory_linear_in_K(self):
        # (2000,1,0) at (0, 1): each receiver's one output reads one of
        # the 2 columns, which hold 1000 rows each, but only the column's
        # rows in the receiver's 2-row window; a table of each entry's
        # whole column support peaked at 16.4 MB
        problem = ProblemInstance(2000, 1, 0)
        sol = solution_for_pair(problem, 0, 1)
        enc = build_encoder(problem, sol, 2)
        enc._cells  # built outside the measurement
        tracemalloc.start()
        try:
            report = simulate(problem, sol, 2, trials=1, encoder=enc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed and "_decoder" in vars(enc)
        assert np.diff(enc._decoder.entry_terms).max(initial=0) <= 2
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("p", [2, 3, 65521])
    def test_decodable_receivers_own_their_wanted_outputs(self, p):
        enc = _encoder(17, 5, 1, a=3, b=8, p=p)
        assert all(decodable(enc, k) for k in range(17))
        assert all(receiver_ranks(enc, k)[1] == receiver_ranks(enc, k)[0] + 8 for k in range(17))
        # every receiver owns its b wanted outputs in the batch decoder
        assert (np.diff(enc._decoder.output_bounds) >= 8).all()

    def test_undecodable_receiver_owns_no_entries(self):
        # an undecodable receiver's peel stalls; the build keeps the ranks
        # that its elimination gave it instead, and no entries
        enc = _encoder(17, 11, 1, a=1, b=6, p=2, build=Encoder)
        dec = enc._decoder
        for k in range(17):
            owns = dec.output_bounds[k] < dec.output_bounds[k + 1]
            assert owns == decodable(enc, k), k
        # undecodable receivers own nothing in the batch and still refuse
        c, side = np.zeros(enc.cols, dtype=int), {j: np.zeros(6, dtype=int) for j in range(17)}
        for k in range(17):
            if not decodable(enc, k):
                assert dec.entry_bounds[k] == dec.entry_bounds[k + 1], k
                assert dec.output_bounds[k] == dec.output_bounds[k + 1], k
                with pytest.raises(ValueError, match="cannot decode"):
                    decode(enc, k, c, side)


class TestIntegerInputs:
    # every entry point refuses fractional values instead of truncating
    # them, and takes integer-valued floats and numpy integers as integers
    def enc(self):
        return _encoder(5, 1, 1, a=1, b=2, p=3)

    def test_encode(self):
        enc = self.enc()
        with pytest.raises(ValueError, match="integer"):
            encode(enc, [0.6] * 10)
        x = np.arange(10) % 3
        assert np.array_equal(encode(enc, x.astype(float)), encode(enc, x))

    def test_decode_side_information(self):
        enc = self.enc()
        x = np.arange(10) % 3
        c = encode(enc, x)
        side = {j: x[2 * j : 2 * j + 2] for j in range(5)}
        with pytest.raises(ValueError, match="integer"):
            decode(enc, 0, c, {**side, 2: [1.9, 0]})
        want = decode(enc, 0, c, side)
        assert np.array_equal(decode(enc, 0, c, {**side, 2: side[2].astype(float)}), want)

    def test_decode_codeword(self):
        enc = self.enc()
        x = np.arange(10) % 3
        c = encode(enc, x)
        side = {j: x[2 * j : 2 * j + 2] for j in range(5)}
        with pytest.raises(ValueError, match="integer"):
            decode(enc, 0, c + 0.5, side)
        assert np.array_equal(decode(enc, 0, c.astype(float), side), x[:2])

    def test_receiver_index(self):
        enc = self.enc()
        x = np.arange(10) % 3
        c = encode(enc, x)
        side = {j: x[2 * j : 2 * j + 2] for j in range(5)}
        for call in (
            lambda k: decodable(enc, k),
            lambda k: receiver_ranks(enc, k),
            lambda k: decode(enc, k, c, side),
        ):
            with pytest.raises(TypeError):
                call(1.0)
            assert np.array_equal(call(np.int64(1)), call(1))

    def test_numpy_integer_pair(self):
        # the pair becomes plain ints, so the solution serializes and the
        # encoder's peels, decoder and rank fallback run on ints
        problem = ProblemInstance(5, 1, 1)
        sol = solution_for_pair(problem, np.int64(1), np.int64(2))
        assert json.loads(json.dumps(sol.to_json()))["b_min"] == 2
        report = simulate(problem, sol, 3, trials=4, seed=1)
        assert report.passed and json.loads(report.to_json_str())["b"] == 2
        # (17,11,1) at (1, 6) has receivers whose peel stalls
        problem = ProblemInstance(17, 11, 1)
        sol = solution_for_pair(problem, np.int64(1), np.int64(6))
        enc = Encoder(problem, sol, 2)
        report = simulate(problem, sol, 2, trials=2, seed=0, encoder=enc)
        assert report.failures and not decodable(enc, 14)
        assert all(type(r) is int for ranks in enc._ranks for r in ranks)
        assert json.loads(report.to_json_str())["a"] == 1

    def test_interference_set(self):
        problem = ProblemInstance(5, 1, 1)
        with pytest.raises(TypeError):
            interference_set(problem, 1.0)
        got = interference_set(problem, np.int64(1))
        assert got == {0, 2} and all(type(j) is int for j in got)


class TestSimulate:
    @pytest.mark.parametrize("p", [2, 3, 65521])
    @pytest.mark.parametrize(
        "K,D,U,a,b", [(5, 1, 1, 1, 2), (17, 5, 1, 3, 8), (37, 8, 8, 1, 4), (5, 3, 1, 1, 1)]
    )
    def test_batch_codewords_match_dense_product(self, K, D, U, a, b, p):
        enc = _encoder(K, D, U, a, b, p)
        X = np.random.default_rng(K * p).integers(0, p, size=(7, enc.rows))
        C = enc._broadcast(X)
        assert np.array_equal(C, X @ enc.matrix.entries % p)
        assert enc._broadcast(X[:0]).shape == (0, enc.cols)

    def test_batch_codewords_bounded_working_set(self):
        # (21,10,0) at (a, b) = (0, 1): columns of weight up to 11 on a
        # 21x11 encoder; one gather of the nonzero rows in column order
        enc = _encoder(21, 10, 0, a=0, b=1, p=3)
        X = np.random.default_rng(21).integers(0, 3, size=(4000, enc.rows), dtype=np.int64)
        enc._cells  # build the cached table outside the measurement
        tracemalloc.start()
        try:
            got = enc._broadcast(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, X @ enc.matrix.entries % 3)
        assert peak < 3 * X.nbytes

    def test_encoder_freed_without_gc(self):
        # the batch decoder is cached on the encoder; it may not refer back
        # to it, or dropping the encoder would leave a cycle for the
        # collector
        gc.disable()
        try:
            enc = _encoder(17, 5, 1, a=3, b=8, p=3)
            assert simulate(enc.problem, enc.solution, 3, trials=2, encoder=enc).passed
            assert "_decoder" in vars(enc)
            ref = weakref.ref(enc)
            del enc
            assert ref() is None
        finally:
            gc.enable()

    def test_clean_gf2(self):
        problem = ProblemInstance(5, 1, 1)
        report = simulate(problem, find_min_rate(problem), 2, trials=100, seed=0)
        assert report.passed and report.failures == ()
        assert (report.a, report.b) == (1, 2)

    def test_clean_gf3(self):
        problem = ProblemInstance(17, 5, 1)
        report = simulate(problem, find_min_rate(problem), 3, trials=50, seed=9)
        assert report.passed

    def test_zero_trials(self):
        problem = ProblemInstance(5, 1, 1)
        report = simulate(problem, find_min_rate(problem), 2, trials=0, seed=0)
        assert report.trials == 0 and report.passed

    def test_deterministic_given_seed(self):
        problem = ProblemInstance(17, 5, 1)
        sol = find_min_rate(problem)
        r1 = simulate(problem, sol, 3, trials=20, seed=42)
        r2 = simulate(problem, sol, 3, trials=20, seed=42)
        j1, j2 = r1.to_json(), r2.to_json()
        j1.pop("elapsed_ms"), j2.pop("elapsed_ms")
        assert j1 == j2

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_negative_control_matches_dense_reference(self, p):
        problem = ProblemInstance(17, 11, 1)
        sol = solution_for_pair(problem, 1, 6)
        enc = Encoder(problem, sol, p)
        trials, seed, b = 6, 4, enc.b
        X = np.random.default_rng(seed).integers(0, p, size=(trials, enc.rows), dtype=np.int64)
        C = X @ enc.matrix.entries % p
        want = []
        for k in range(problem.K):
            if not decodable(enc, k):
                want += [(t, k) for t in range(trials)]
                continue
            known_rows = np.setdiff1d(np.arange(enc.rows), _unknown_rows(enc, k)[1])
            share = X[:, known_rows] @ enc.matrix.entries[known_rows]
            got = (C - share) @ _dense_decoder(enc, k)[:, :b] % p
            want += [(int(t), k) for t in np.flatnonzero((got != X[:, k * b : (k + 1) * b]).any(1))]
        report = simulate(problem, sol, p, trials=trials, seed=seed, encoder=enc)
        assert want and report.failures == tuple(sorted(want))

    def test_refuses_oversized_message_batch(self):
        problem = ProblemInstance(5, 1, 1)
        with pytest.raises(ValueError, match="over the limit"):
            simulate(problem, find_min_rate(problem), 2, trials=MAX_CELLS // 10 + 1, seed=0)

    def test_negative_control_records_failures(self):
        problem = ProblemInstance(17, 11, 1)
        sol = solution_for_pair(problem, 1, 6)
        enc = Encoder(problem, sol, 2)
        report = simulate(problem, sol, 2, trials=3, seed=1, encoder=enc)
        assert report.failures
        assert report.failures == tuple(sorted(report.failures))

    def test_report_json_schema(self):
        problem = ProblemInstance(5, 1, 1)
        payload = simulate(problem, find_min_rate(problem), 2, trials=2, seed=3).to_json()
        assert sorted(payload) == sorted(
            ["K", "D", "U", "a", "b", "p", "trials", "seed", "failures", "elapsed_ms"]
        )
        assert payload["failures"] == []

    def test_encoder_reuse_must_match(self):
        p1 = ProblemInstance(5, 1, 1)
        p2 = ProblemInstance(7, 1, 1)
        enc = build_encoder(p1, find_min_rate(p1), 2)
        with pytest.raises(ValueError, match="does not match"):
            simulate(p2, find_min_rate(p2), 2, trials=1, seed=0, encoder=enc)

    @pytest.mark.parametrize(
        "source",
        [oracle_min_rate, lambda problem: solution_for_pair(problem, 3, 8)],
        ids=["oracle", "manual"],
    )
    def test_encoder_reuse_ignores_solution_source(self, source):
        # the same pair (3, 8) as find_min_rate, labelled "oracle" or "manual"
        problem = ProblemInstance(17, 5, 1)
        sol = find_min_rate(problem)
        enc = build_encoder(problem, source(problem), 3)
        reused = simulate(problem, sol, 3, trials=4, seed=2, encoder=enc)
        fresh = simulate(problem, sol, 3, trials=4, seed=2)
        assert (reused.a, reused.b, reused.failures) == (fresh.a, fresh.b, ())

    def test_trials_and_seed_are_integers(self, monkeypatch):
        # both are coerced before the size check, so a numpy trials count
        # whose product with K*b would wrap int64 is refused as too large,
        # and fractional values are refused before any encoder is built
        problem = ProblemInstance(5, 1, 1)
        sol = find_min_rate(problem)

        def no_encoder(*args, **kwargs):
            raise AssertionError("build_encoder was called")

        with monkeypatch.context() as patch:
            patch.setattr("airindex.codec.build_encoder", no_encoder)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="over the limit"):
                    simulate(problem, sol, 2, trials=np.int64(2**62))
            for kwargs in ({"trials": 2.0}, {"trials": 2.5}, {"seed": 1.0}, {"seed": 1.5}):
                with pytest.raises(TypeError):
                    simulate(problem, sol, 2, **kwargs)
        report = simulate(problem, sol, 2, trials=np.int64(3), seed=np.int64(4))
        assert type(report.trials) is int and type(report.seed) is int
        got, want = report.to_json(), simulate(problem, sol, 2, trials=3, seed=4).to_json()
        got.pop("elapsed_ms"), want.pop("elapsed_ms")
        assert got == want

    def test_rejects_negative_trials(self):
        problem = ProblemInstance(5, 1, 1)
        with pytest.raises(ValueError, match="trials"):
            simulate(problem, find_min_rate(problem), 2, trials=-1, seed=0)

    def test_rejects_negative_seed_before_any_build(self, monkeypatch):
        # refused next to the trials check, before the encoder is built or
        # peeled, not by numpy's generator after the whole build
        calls = []

        def spy(*args):
            calls.append(args)
            return _build_decoder(*args)

        monkeypatch.setattr("airindex.codec._build_decoder", spy)
        problem = ProblemInstance(5, 1, 1)
        with pytest.raises(ValueError, match=r"^seed must be nonnegative, got -1$"):
            simulate(problem, find_min_rate(problem), 2, trials=1, seed=-1)
        assert calls == []


class TestRateAccounting:
    @pytest.mark.parametrize("K,D,U", [(17, 11, 1), (17, 5, 1), (37, 6, 6)])
    def test_symbols_per_message_equals_rate(self, K, D, U):
        problem = ProblemInstance(K, D, U)
        sol = find_min_rate(problem)
        assert sol.rate * sol.b_min == sol.encoder_cols
