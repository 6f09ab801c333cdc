"""CLI contract tests: output shapes, exit codes, determinism."""

from __future__ import annotations

import json

import numpy as np
import pytest
from click.testing import CliRunner

from airindex import codec
from airindex.air import MAX_CELLS
from airindex.cli import main
from airindex.rates import is_feasible


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def no_huge_arrays(monkeypatch):
    """Make ``np.zeros`` fail past ``MAX_CELLS`` instead of allocating."""
    zeros = np.zeros

    def guarded(shape, *args, **kwargs):
        if np.prod(shape, dtype=object) > MAX_CELLS:
            raise MemoryError(f"np.zeros({shape}) called")
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", guarded)


def invoke(runner, *args):
    return runner.invoke(main, args, catch_exceptions=False)


class TestRate:
    def test_worked_example(self, runner):
        result = invoke(runner, "rate", "17", "11", "1")
        assert result.exit_code == 0
        assert result.output.strip() == "a=1 b=7 rate=85/7 (12.142) encoder=119x85"

    def test_table_row(self, runner):
        result = invoke(runner, "rate", "37", "3", "2")
        assert result.exit_code == 0
        assert result.output.strip() == "a=1 b=9 rate=37/9 (4.111) encoder=333x37"

    def test_scalar_case(self, runner):
        result = invoke(runner, "rate", "8", "3", "0")
        assert result.exit_code == 0
        assert result.output.strip() == "a=0 b=1 rate=4/1 (4.000) encoder=8x4"

    def test_json(self, runner):
        result = invoke(runner, "rate", "17", "11", "1", "--json")
        payload = json.loads(result.output)
        assert payload["a_min"] == 1 and payload["b_min"] == 7
        assert payload["rate_decimal"] == "12.142"
        assert payload["source"] == "algorithm"

    def test_invalid_instance_exits_2(self, runner):
        result = invoke(runner, "rate", "4", "2", "2")
        assert result.exit_code == 2
        assert "D + U must be smaller than K" in result.output


class TestMatrix:
    def test_text(self, runner):
        result = invoke(runner, "matrix", "5", "3")
        assert result.exit_code == 0
        assert result.output == "100\n010\n001\n101\n011\n"

    def test_identity(self, runner):
        result = invoke(runner, "matrix", "3", "3")
        assert result.output == "100\n010\n001\n"

    def test_stacked(self, runner):
        result = invoke(runner, "matrix", "6", "3")
        assert result.output == "100\n010\n001\n100\n010\n001\n"

    def test_csv(self, runner):
        result = invoke(runner, "matrix", "3", "2", "--format", "csv")
        assert result.output == "1,0\n0,1\n1,1\n"

    def test_json(self, runner):
        result = invoke(runner, "matrix", "5", "3", "--json")
        payload = json.loads(result.output)
        assert payload == {"m": 5, "n": 3, "rows": ["100", "010", "001", "101", "011"]}

    def test_invalid_shape_exits_2(self, runner):
        assert invoke(runner, "matrix", "3", "5").exit_code == 2

    def test_oversized_exits_2(self, runner, no_huge_arrays):
        result = invoke(runner, "matrix", "100000", "50000")
        assert result.exit_code == 2
        assert f"over the limit of {MAX_CELLS}" in result.output


class TestVerifyAir:
    def test_pass(self, runner):
        result = invoke(runner, "verify-air", "40", "17")
        assert result.exit_code == 0
        assert "PASS" in result.output

    def test_wrap(self, runner):
        result = invoke(runner, "verify-air", "5", "3", "--wrap")
        assert result.exit_code == 0

    def test_square(self, runner):
        assert invoke(runner, "verify-air", "3", "3").exit_code == 0

    def test_oversized_exits_2(self, runner, no_huge_arrays):
        result = invoke(runner, "verify-air", "100000", "50000")
        assert result.exit_code == 2
        assert f"over the limit of {MAX_CELLS}" in result.output

    def test_json_schema(self, runner):
        result = invoke(runner, "verify-air", "5", "3", "--json")
        payload = json.loads(result.output)
        assert payload == {
            "m": 5,
            "n": 3,
            "wrap": False,
            "windows_checked": 3,
            "failures": [],
            "primes": [2, 3, 5],
        }

    def test_bad_primes_exit_2(self, runner):
        assert invoke(runner, "verify-air", "5", "3", "--primes", "2,4").exit_code == 2

    @pytest.mark.parametrize("primes", ["", "3,3"])
    def test_empty_or_repeated_primes_exit_2(self, runner, primes):
        # an empty list does not fall back to the default primes
        result = invoke(runner, "verify-air", "5", "3", "--primes", primes)
        assert result.exit_code == 2
        assert f"bad primes list {primes!r}" in result.output

    def test_prime_at_int64_rank_limit(self, runner):
        # 3037000493 is the largest prime with (p-1)**2 < 2**63; the next
        # prime, and 2**32 + 15, would overflow the elimination's int64 products
        result = invoke(runner, "verify-air", "40", "17", "--primes", "3037000493")
        assert result.exit_code == 0
        assert result.output.endswith("PASS\n")
        for p in ("3037000507", "4294967311"):
            result = invoke(runner, "verify-air", "40", "17", "--primes", p)
            assert result.exit_code == 2
            assert "2**63" in result.output


class TestVerifyCode:
    def test_small_instance(self, runner):
        result = invoke(runner, "verify-code", "5", "1", "1")
        assert result.exit_code == 0
        assert "p=2: 5/5 receivers decodable" in result.output
        assert "p=3: 5/5 receivers decodable" in result.output

    def test_17_5_1(self, runner):
        result = invoke(runner, "verify-code", "17", "5", "1", "--p", "2")
        assert result.exit_code == 0
        assert "17/17 receivers decodable" in result.output

    def test_json(self, runner):
        result = invoke(runner, "verify-code", "5", "1", "1", "--json")
        payload = json.loads(result.output)
        assert payload["all_decodable"] is True
        assert payload["failures"] == {"2": [], "3": []}

    def test_empty_primes_exit_2(self, runner):
        # not the default 2,3
        result = invoke(runner, "verify-code", "17", "5", "1", "--p", "")
        assert result.exit_code == 2
        assert "bad primes list ''" in result.output

    def test_repeated_prime_exits_2(self, runner):
        # one report key per prime, so a repeated prime cannot be reported
        result = invoke(runner, "verify-code", "17", "5", "1", "--p", "2,2", "--json")
        assert result.exit_code == 2
        assert "bad primes list '2,2': it repeats a prime" in result.output
        assert not result.stdout

    def test_boundary_instance_accepted(self, runner):
        # D + U = K - 1 is a valid instance
        assert invoke(runner, "verify-code", "5", "2", "2", "--p", "2").exit_code == 0

    def test_one_peel_for_every_prime(self, runner, monkeypatch):
        # the peel reads no p, so one encoder's peel serves all four primes
        calls = []
        build = codec._build_decoder

        def spy(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(codec, "_build_decoder", spy)
        result = invoke(runner, "verify-code", "60", "20", "10", "--p", "2,3,5,65521")
        assert result.exit_code == 0
        assert [line.split(":")[0] for line in result.output.splitlines()[1:]] == [
            "p=2", "p=3", "p=5", "p=65521"
        ]
        assert "60/60 receivers decodable" in result.output
        assert len(calls) == 1

    def test_prime_over_int64_envelope_exits_2(self, runner):
        # the codec has the one prime range of the ranks, whatever K*b:
        # 3037000493 passes, and the next prime exits 2
        result = invoke(runner, "verify-code", "17", "5", "1", "--p", "2,3037000493")
        assert result.exit_code == 0
        assert "p=3037000493: 17/17 receivers decodable" in result.output
        result = invoke(runner, "verify-code", "17", "5", "1", "--p", "2,3037000507")
        assert result.exit_code == 2
        assert "p=3037000507 is too large: (p-1)**2 must stay below 2**63" in result.output


class TestSimulate:
    def test_clean_run(self, runner):
        result = invoke(
            runner, "simulate", "17", "5", "1", "--p", "3", "--trials", "10", "--seed", "7"
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["failures"] == []
        assert payload["seed"] == 7 and payload["trials"] == 10

    def test_zero_trials(self, runner):
        result = invoke(runner, "simulate", "5", "1", "1", "--trials", "0")
        assert result.exit_code == 0
        assert json.loads(result.output)["trials"] == 0

    def test_composite_prime_exits_2(self, runner):
        assert invoke(runner, "simulate", "17", "11", "1", "--p", "4").exit_code == 2

    def test_negative_trials_exit_2(self, runner):
        result = invoke(runner, "simulate", "5", "1", "1", "--trials", "-1")
        assert result.exit_code == 2
        assert "trials must be nonnegative" in result.output

    def test_negative_seed_exits_2(self, runner):
        result = invoke(runner, "simulate", "5", "1", "1", "--seed", "-1")
        assert result.exit_code == 2
        assert result.stderr == "error: seed must be nonnegative, got -1\n"
        assert result.stdout == ""

    @pytest.mark.parametrize("p", ["3037000507", "4294967311"])
    def test_prime_over_int64_envelope_exits_2(self, runner, p):
        result = invoke(runner, "simulate", "17", "5", "1", "--p", p, "--trials", "20")
        assert result.exit_code == 2
        assert f"p={p} is too large: (p-1)**2 must stay below 2**63" in result.output

    @pytest.mark.parametrize("k,d,u", [("17", "5", "1"), ("71", "25", "1")])
    def test_largest_prime_passes(self, runner, k, d, u):
        # 3037000493, the largest prime with (p-1)**2 < 2**63, for every K*b
        result = invoke(runner, "simulate", k, d, u, "--p", "3037000493", "--trials", "5")
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["p"] == 3037000493 and payload["failures"] == []

    def test_oversized_encoder_exits_2(self, runner):
        # a 436897x216935 encoder; refused before anything is allocated
        result = invoke(runner, "simulate", "1009", "500", "1")
        assert result.exit_code == 2
        assert "436897x216935" in result.output and "over the limit" in result.output

    def test_oversized_message_batch_exits_2(self, runner):
        result = invoke(runner, "simulate", "5", "1", "1", "--trials", "100000000")
        assert result.exit_code == 2
        assert "over the limit" in result.output

    def test_deterministic(self, runner):
        args = ("simulate", "5", "1", "1", "--trials", "20", "--seed", "3")
        out1 = json.loads(invoke(runner, *args).output)
        out2 = json.loads(invoke(runner, *args).output)
        out1.pop("elapsed_ms"), out2.pop("elapsed_ms")
        assert out1 == out2


class TestOracle:
    def test_agreement(self, runner):
        result = invoke(runner, "oracle", "17", "5", "1")
        assert result.exit_code == 0
        assert "oracle:    a=3 b=8" in result.output
        assert "agreement: yes" in result.output

    def test_table_row(self, runner):
        result = invoke(runner, "oracle", "37", "7", "4", "--json")
        payload = json.loads(result.output)
        assert payload["agree"] is True
        assert (payload["oracle"]["a_min"], payload["oracle"]["b_min"]) == (5, 4)

    def test_scalar(self, runner):
        result = invoke(runner, "oracle", "8", "3", "0", "--json")
        payload = json.loads(result.output)
        assert (payload["oracle"]["a_min"], payload["oracle"]["b_min"]) == (0, 1)

    def test_bmax_past_K_scans_only_to_K(self, runner, monkeypatch):
        # a bound of 10**12 would take weeks if scanned; b stops at K = 10,
        # as no answer has a larger b, so both bounds print the same and
        # test the same pairs
        calls = []

        def spy(problem, a, b):
            calls.append((a, b))
            return is_feasible(problem, a, b)

        monkeypatch.setattr("airindex.rates.is_feasible", spy)
        outputs = []
        for bmax in ("10", "1000000000000"):
            result = invoke(runner, "oracle", "10", "1", "0", "--bmax", bmax)
            assert result.exit_code == 0
            outputs.append(result.output)
        assert outputs[0] == outputs[1]
        assert calls[: len(calls) // 2] == calls[len(calls) // 2 :] == [(0, b) for b in range(1, 11)]


class TestTable:
    def test_k12_d3_scalar_row(self, runner):
        result = invoke(runner, "table", "12", "--dmax", "3", "--json")
        rows = json.loads(result.output)
        d3 = [r for r in rows if r["D"] == 3]
        assert len(d3) == 1
        assert d3[0]["U"] == [1, 2, 3]
        assert d3[0]["rate_decimal"] == "4.000"
        assert (d3[0]["a"], d3[0]["b"]) == (0, 1)

    def test_k37_has_nine_rows(self, runner):
        rows = json.loads(invoke(runner, "table", "37", "--json").output)
        assert len(rows) == 9

    def test_clipping_beyond_valid_d(self, runner):
        # a dmax far past K-2 must not walk the D values that have no row
        for dmax in (10, 10**12):
            rows = json.loads(invoke(runner, "table", "5", "--dmax", str(dmax), "--json").output)
            # K=5 admits (D,U) with U>=1 only up to D=3 (D+U<K)
            assert max(r["D"] for r in rows) == 3
            for r in rows:
                assert all(r["D"] + u < 5 for u in r["U"])

    def test_no_collapse(self, runner):
        rows = json.loads(
            invoke(runner, "table", "37", "--dmax", "3", "--json", "--no-collapse").output
        )
        assert [(r["D"], r["U"]) for r in rows] == [
            (1, [1]),
            (2, [1]),
            (2, [2]),
            (3, [1]),
            (3, [2]),
            (3, [3]),
        ]

    def test_markdown_shape(self, runner):
        out = invoke(runner, "table", "37", "--dmax", "2").output.splitlines()
        assert out[0].startswith("| D ")
        assert len(out) == 2 + 2  # header, rule, two rows

    def test_csv_format(self, runner):
        out = invoke(runner, "table", "37", "--dmax", "2", "--format", "csv").output
        lines = out.splitlines()
        assert lines[0] == "D,U,a,b,D+1,R_airm,AIR matrix size"
        assert lines[1] == "1,1,1,18,2,2.055,666x37"
        assert lines[2] == '2,"1,2",1,12,3,3.083,444x37'

    def test_u_range_ellipsis(self, runner):
        out = invoke(runner, "table", "37", "--dmax", "6").output
        assert "1,2,...,6" in out

    def test_determinism(self, runner):
        a = invoke(runner, "table", "37").output
        b = invoke(runner, "table", "37").output
        assert a == b
