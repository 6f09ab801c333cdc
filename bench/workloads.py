"""The benchmark's workloads, driven through airindex's public API.

Every workload is a closed loop in one thread: each call starts after the
previous one returns. A workload has fixed instance sets; the seed only
draws the message vectors and ``simulate`` seeds. One pass runs the whole
instance set once, checks every output exactly, and hashes the outputs as
canonical JSON (sorted keys, ``elapsed_ms`` dropped) into a digest that
must repeat for the same seed.

- ``large-instance``: (K, D, U) = (71, 25, 1) at its pinned (a, b) = (1, 30),
  the 2130x781 encoder, over GF(2) and GF(3): build, decodable sweep, one
  decode per receiver, a cold and a warm 100-trial simulate.
- ``small-catalogue``: every valid instance with K <= 20, D <= min(10, K-2),
  U in [0, D], over GF(2), GF(3) and GF(65521), 10 trials each, plus one
  in-process ``airindex table K --json`` per K.
- ``air-windows``: ``verify_adjacent_independence`` of every m x n AIR
  matrix with 3 <= m <= 40, 2 <= n < m, no wrap: 10,621 windows.

Span names are ``<layer>.<call>``; the per-layer metrics in ``run.py`` are
derived from them. Every timer reads ``speed.clock()`` and every loop over
calls gives ``speed.tick()`` a chance to time the host-speed probe between
two calls (see ``hostspeed.py``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np
from click.testing import CliRunner

from airindex import (
    ProblemInstance,
    build_air,
    build_encoder,
    decodable,
    decode,
    det_exact,
    encode,
    find_min_rate,
    oracle_min_rate,
    rank_mod_p,
    receiver_ranks,
    simulate,
    verify_adjacent_independence,
)
from airindex import cli

LARGE = ProblemInstance(K=71, D=25, U=1)
LARGE_PAIR = (1, 30)
LARGE_PRIMES = (2, 3)
LARGE_TRIALS = 100

SMALL_K_MAX = 20
SMALL_PRIMES = (2, 3, 65521)
SMALL_TRIALS = 10

AIR_M_MAX = 40
AIR_PRIMES = (2, 3, 5)
AIR_WINDOWS = 10_621

# Known answers stated in the package README, checked during warm-up.
KAT_INSTANCE = ProblemInstance(K=17, D=5, U=1)
KAT_PAIR = (3, 8)
KAT_PRIMES = (2, 3, 65521)
KAT_TRIALS = 4
KAT_AIR = (40, 17)
KAT_TABLE_K = 37
KAT_TABLE_ROWS = 9


class Checks:
    """Counts checked operations and the ones with a wrong or missing result."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.fail(what)
        return ok

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(what)


class Digest:
    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, record) -> None:
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        self._h.update(line.encode() + b"\n")

    def hexdigest(self) -> str:
        return self._h.hexdigest()


@dataclass
class PassResult:
    """One pass over a workload's fixed instance set, timed in ``speed.clock()``.

    A timing is a list of ``(start, end)`` intervals, so that ``run.py`` can
    scale each one to the host speed around it. ``work`` per second of the
    pass (``start`` to ``end``) is the workload's throughput; ``units`` holds
    one timing per unit of work; ``steps`` maps a figure's name to a timing
    and the work done in it: the figure is the work per second, or the time
    itself when the work is 0.
    """

    start: float = 0.0
    end: float = 0.0
    units: list[list[tuple[float, float]]] = field(default_factory=list)
    work: float = 0.0
    steps: dict[str, tuple[list[tuple[float, float]], float]] = field(default_factory=dict)
    digest: str = ""


def _report_json(report) -> dict:
    out = report.to_json()
    out.pop("elapsed_ms")
    return out


def _catalogue(k_max: int):
    for K in range(3, k_max + 1):
        for D in range(1, min(10, K - 2) + 1):
            for U in range(0, D + 1):
                if D + U < K:
                    yield K, D, U


def _table(tr, checks: Checks, K: int) -> list[dict]:
    """In-process ``airindex table K --json``."""
    with tr.span("cli.table"):
        result = CliRunner().invoke(cli.main, ["table", str(K), "--json"])
    if not checks.check(result.exit_code == 0, f"table {K} exited {result.exit_code}"):
        return []
    return json.loads(result.output)


def _check_table(checks: Checks, K: int, rows: list[dict], pairs: dict) -> None:
    """Each table row's (a, b) must be the oracle-checked pair of its instances."""
    for row in rows:
        for u in row["U"]:
            want = pairs.get((K, row["D"], u))
            checks.check(
                want == (row["a"], row["b"]),
                f"table {K} D={row['D']} U={u}: ({row['a']}, {row['b']}) != {want}",
            )


def _decode_all(tr, speed, checks, enc, x, c, label) -> list[list[int]]:
    K, b = enc.problem.K, enc.b
    side = {j: x[j * b : (j + 1) * b] for j in range(K)}
    decoded = []
    for k in range(K):
        speed.tick()
        with tr.span("codec.decode"):
            got = decode(enc, k, c, side)
        checks.check(np.array_equal(got, x[k * b : (k + 1) * b]), f"{label}: decode k={k}")
        decoded.append(got.tolist())
    return decoded


def _plans(tr, speed, checks, enc, label) -> list[bool]:
    """The first decodable() sweep on a fresh encoder, which builds every plan."""
    problem, p = enc.problem, enc.p
    ok = []
    with tr.span(f"codec.plans.p{p}"):
        for k in range(problem.K):
            speed.tick()
            ok.append(decodable(enc, k))
    checks.check(all(ok), f"{label}: undecodable receivers {[k for k, v in enumerate(ok) if not v]}")
    if tr.enabled:
        rank_all = sum(receiver_ranks(enc, k)[1] for k in range(problem.K))
        tr.count("codec.plan_rows", problem.K * (problem.D + problem.U + 1) * enc.b)
        tr.count("codec.plan_rank_all", rank_all)
    return ok


def _count_warm_decode(tr, enc, trials: int) -> None:
    problem, b = enc.problem, enc.b
    known_rows = (problem.K - problem.D - problem.U - 1) * b
    tr.count("codec.decoded_symbols", trials * problem.K * b)
    tr.count("codec.decode_macs", trials * problem.K * (enc.cols + known_rows) * b)


def _check_windows(tr, checks, air, label) -> None:
    """Direct linalg calls on every n-row window (traced runs only)."""
    n = air.n
    for s in range(air.m - n + 1):
        window = air.row_window(s)
        with tr.span("linalg.det_exact"):
            det = det_exact(window)
        checks.check(det in (-1, 1), f"{label}: det of window {s} is {det}")
        for q in AIR_PRIMES:
            with tr.span(f"linalg.rank_mod_p.p{q}"):
                r = rank_mod_p(window, q)
            checks.check(r == n, f"{label}: rank of window {s} over GF({q}) is {r}")
        tr.count("linalg.windows", 1)
        tr.count("linalg.window_cells", n * n)


def warm_up(tr, speed, checks: Checks) -> None:
    """Known-answer run through every layer before anything is timed.

    Loads the code paths each workload uses and fails the run early if the
    package no longer gives the answers its README states.
    """
    with tr.span("warmup", unit="warmup"):
        with tr.span("rates.find_min_rate"):
            sol = find_min_rate(KAT_INSTANCE)
        with tr.span("rates.oracle_min_rate"):
            ref = oracle_min_rate(KAT_INSTANCE)
        checks.check((sol.a_min, sol.b_min) == KAT_PAIR, f"warm-up: {KAT_INSTANCE} gave {sol}")
        checks.check(ref.rate == sol.rate, "warm-up: oracle disagrees")
        with tr.span("air.build_air"):
            air = build_air(*KAT_AIR)
        with tr.span("air.verify"):
            report = verify_adjacent_independence(air, primes=AIR_PRIMES)
        checks.check(
            report.passed and report.windows_checked == KAT_AIR[0] - KAT_AIR[1] + 1,
            f"warm-up: verify-air {KAT_AIR} gave {report.to_json()}",
        )
        _check_windows(tr, checks, air, "warm-up")
        rng = np.random.default_rng(0)
        for p in KAT_PRIMES:
            label = f"warm-up p={p}"
            with tr.span("codec.build_encoder"):
                enc = build_encoder(KAT_INSTANCE, sol, p)
            _plans(tr, speed, checks, enc, label)
            x = rng.integers(0, p, size=enc.rows)
            with tr.span("codec.encode"):
                c = encode(enc, x)
            _decode_all(tr, speed, checks, enc, x, c, label)
            with tr.span(f"codec.sim_cold.p{p}"):
                cold = simulate(KAT_INSTANCE, sol, p, trials=KAT_TRIALS, seed=1, encoder=enc)
            with tr.span(f"codec.sim_warm.p{p}"):
                warm = simulate(KAT_INSTANCE, sol, p, trials=KAT_TRIALS, seed=2, encoder=enc)
            _count_warm_decode(tr, enc, KAT_TRIALS)
            checks.check(cold.passed and warm.passed, f"{label}: simulate failures")
        rows = _table(tr, checks, KAT_TABLE_K)
        checks.check(len(rows) == KAT_TABLE_ROWS, f"warm-up: table {KAT_TABLE_K} has {len(rows)} rows")
        pairs = {}
        for row in rows:
            for u in row["U"]:
                s = find_min_rate(ProblemInstance(K=KAT_TABLE_K, D=row["D"], U=u))
                pairs[(KAT_TABLE_K, row["D"], u)] = (s.a_min, s.b_min)
        _check_table(checks, KAT_TABLE_K, rows, pairs)


# --- large-instance ---------------------------------------------------------


def large_inputs(seed: int) -> dict:
    rng = np.random.default_rng([seed, 1])
    rows = LARGE.K * LARGE_PAIR[1]
    out = {}
    for p in LARGE_PRIMES:
        cold_seed, warm_seed = (int(v) for v in rng.choice(2**31, size=2, replace=False))
        out[p] = (rng.integers(0, p, size=rows), cold_seed, warm_seed)
    return out


def large_pass(inputs: dict, tr, speed, checks: Checks, linalg_calls: bool) -> PassResult:
    """One pass; its single unit is the cold verification over both primes."""
    res = PassResult()
    digest = Digest()
    res.start = speed.clock()
    verify = []
    with tr.span("pass", unit="large"):
        with tr.span("rates.find_min_rate"):
            sol = find_min_rate(LARGE)
        with tr.span("rates.oracle_min_rate"):
            ref = oracle_min_rate(LARGE)
        checks.check((sol.a_min, sol.b_min) == LARGE_PAIR, f"{LARGE} gave {sol}")
        checks.check(ref.rate == sol.rate, f"{LARGE}: oracle {ref.rate} != {sol.rate}")
        digest.add(sol.to_json())
        with tr.span("air.build_air"):
            air = build_air(sol.encoder_rows, sol.encoder_cols)
        for p in LARGE_PRIMES:
            x, cold_seed, warm_seed = inputs[p]
            label = f"large p={p}"
            try:
                with tr.span("unit", unit=f"large/p{p}"):
                    speed.tick()
                    t0 = speed.clock()
                    with tr.span("codec.build_encoder"):
                        enc = build_encoder(LARGE, sol, p)
                    checks.check(np.array_equal(enc.matrix.entries, air.entries), f"{label}: matrix")
                    ok = _plans(tr, speed, checks, enc, label)
                    with tr.span("codec.encode"):
                        c = encode(enc, x)
                    decoded = _decode_all(tr, speed, checks, enc, x, c, label)
                    speed.tick()
                    with tr.span(f"codec.sim_cold.p{p}"):
                        cold = simulate(LARGE, sol, p, trials=LARGE_TRIALS, seed=cold_seed, encoder=enc)
                    verified = (t0, speed.clock())
                    speed.tick()
                    t1 = speed.clock()
                    with tr.span(f"codec.sim_warm.p{p}"):
                        warm = simulate(LARGE, sol, p, trials=LARGE_TRIALS, seed=warm_seed, encoder=enc)
                    warmed = (t1, speed.clock())
                    _count_warm_decode(tr, enc, LARGE_TRIALS)
            except Exception as exc:  # a raising call is a missing result
                checks.fail(f"{label}: {exc!r}")
                continue
            for name, report in (("cold", cold), ("warm", warm)):
                checks.check(
                    report.passed and report.trials == LARGE_TRIALS,
                    f"{label}: {name} simulate failures {report.failures[:5]}",
                )
            digest.add(
                {
                    "p": p,
                    "decodable": ok,
                    "codeword": c.tolist(),
                    "decoded": decoded,
                    "cold": _report_json(cold),
                    "warm": _report_json(warm),
                }
            )
            symbols = LARGE_TRIALS * LARGE.K * enc.b
            verify.append(verified)
            res.steps[f"verify_s.p{p}"] = ([verified], 0)
            res.steps[f"warm_decode_sym_per_s.p{p}"] = ([warmed], symbols)
            res.work += LARGE.K * enc.b + 2 * symbols
    # One latency per pass: a p2 and a p3 verification pooled would make the
    # median fall between two clusters and jump with the number of passes.
    res.units.append(verify)
    res.end = speed.clock()
    res.digest = digest.hexdigest()
    return res


# --- small-catalogue --------------------------------------------------------


def _spread(items: list) -> list:
    """A fixed, seed-independent shuffle, so that the costliest units do not
    all fall in the same few seconds of a pass (the host's speed drifts)."""
    return [items[i] for i in np.random.default_rng(0).permutation(len(items))]


def small_inputs(seed: int) -> list[tuple]:
    units = _spread(
        [(K, D, U, p) for K, D, U in _catalogue(SMALL_K_MAX) for p in SMALL_PRIMES]
    )
    rng = np.random.default_rng([seed, 2])
    seeds = rng.integers(0, 2**31, size=(len(units), 2))
    return [(*u, int(m), int(s)) for u, (m, s) in zip(units, seeds)]


def _small_unit(tr, speed, checks, K, D, U, p, msg_seed, sim_seed, pairs, digest) -> None:
    problem = ProblemInstance(K=K, D=D, U=U)
    label = f"({K},{D},{U}) p={p}"
    with tr.span("rates.find_min_rate"):
        sol = find_min_rate(problem)
    with tr.span("rates.oracle_min_rate"):
        ref = oracle_min_rate(problem)
    checks.check(ref.rate == sol.rate, f"{label}: oracle {ref.rate} != {sol.rate}")
    pairs[(K, D, U)] = (sol.a_min, sol.b_min)
    with tr.span("air.build_air"):
        air = build_air(sol.encoder_rows, sol.encoder_cols)
    with tr.span("codec.build_encoder"):
        enc = build_encoder(problem, sol, p)
    checks.check(np.array_equal(enc.matrix.entries, air.entries), f"{label}: matrix")
    ok = _plans(tr, speed, checks, enc, label)
    x = np.random.default_rng(msg_seed).integers(0, p, size=enc.rows)
    with tr.span("codec.encode"):
        c = encode(enc, x)
    decoded = _decode_all(tr, speed, checks, enc, x, c, label)
    with tr.span(f"codec.simulate.p{p}"):
        report = simulate(problem, sol, p, trials=SMALL_TRIALS, seed=sim_seed, encoder=enc)
    checks.check(report.passed, f"{label}: simulate failures {report.failures[:5]}")
    digest.add(
        {
            "solution": sol.to_json(),
            "p": p,
            "decodable": ok,
            "codeword": c.tolist(),
            "decoded": decoded,
            "simulate": _report_json(report),
        }
    )


def small_pass(inputs: list[tuple], tr, speed, checks: Checks, linalg_calls: bool) -> PassResult:
    res = PassResult()
    digest = Digest()
    pairs: dict = {}
    tables: dict = {}
    res.start = speed.clock()
    with tr.span("pass", unit="small"):
        for K, D, U, p, msg_seed, sim_seed in inputs:
            speed.tick()
            if K not in tables:
                tables[K] = _table(tr, checks, K)
                digest.add({"table": K, "rows": tables[K]})
            t0 = speed.clock()
            try:
                with tr.span("unit", unit=f"small/{K},{D},{U}/p{p}"):
                    _small_unit(tr, speed, checks, K, D, U, p, msg_seed, sim_seed, pairs, digest)
            except Exception as exc:  # a raising call is a missing result
                checks.fail(f"({K},{D},{U}) p={p}: {exc!r}")
                continue
            res.units.append([(t0, speed.clock())])
        for K, rows in tables.items():
            _check_table(checks, K, rows, pairs)
    res.end = speed.clock()
    res.work = len(res.units)
    res.digest = digest.hexdigest()
    return res


# --- air-windows ------------------------------------------------------------


def air_inputs(seed: int) -> list[tuple[int, int]]:
    return _spread([(m, n) for m in range(3, AIR_M_MAX + 1) for n in range(2, m)])


def air_pass(inputs: list[tuple[int, int]], tr, speed, checks: Checks, linalg_calls: bool) -> PassResult:
    res = PassResult()
    digest = Digest()
    windows = 0
    direct = []
    res.start = speed.clock()
    with tr.span("pass", unit="air"):
        for m, n in inputs:
            label = f"air {m}x{n}"
            speed.tick()
            try:
                with tr.span("unit", unit=f"air/{m}x{n}"):
                    t0 = speed.clock()
                    with tr.span("air.build_air"):
                        air = build_air(m, n)
                    with tr.span("air.verify"):
                        report = verify_adjacent_independence(air, primes=AIR_PRIMES)
                    res.units.append([(t0, speed.clock())])
                    if linalg_calls:
                        t1 = speed.clock()
                        _check_windows(tr, checks, air, label)
                        direct.append((t1, speed.clock()))
            except Exception as exc:  # a raising call is a missing result
                checks.fail(f"{label}: {exc!r}")
                continue
            checks.check(report.passed, f"{label}: failing windows {report.failures}")
            windows += report.windows_checked
            digest.add(report.to_json())
        checks.check(windows == AIR_WINDOWS, f"air-windows checked {windows} windows")
    res.end = speed.clock()
    if linalg_calls:
        res.steps["direct_linalg_s"] = (direct, 0)
    res.work = windows
    res.digest = digest.hexdigest()
    return res


WORKLOADS = {
    "large-instance": (large_inputs, large_pass),
    "small-catalogue": (small_inputs, small_pass),
    "air-windows": (air_inputs, air_pass),
}
