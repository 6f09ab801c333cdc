#!/usr/bin/env python3
"""Run one airindex benchmark workload and report its metrics.

    python3 bench/run.py --workload small-catalogue --seed 1 --seconds 40 --trace 0

Run from the repository root; the package is imported from ``src/``.
With ``--trace 0`` the run sets up several times (a fresh-interpreter
import, input generation and a known-answer warm-up), then runs whole
passes over the workload while the next one is expected to end within
``--seconds``, and reports the end-to-end metrics of BENCHMARK.json.
Their times are scaled to a reference host speed by the host-speed probe
of ``hostspeed.py``: each interval by the probes around it, set-up by the
median of all the run's probes. The unscaled figures are printed above the
result.
With ``--trace 1`` it runs one untraced pass and one traced pass and
reports the per-layer metrics, derived from spans recorded around each
call into the package, plus the tracing overhead; the spans are written
to ``.bench_out/``.

Every output is checked. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
1 if any check failed and 2 if the package source is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 5
FIELDS = (2, 3, 65521)

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import airindex, airindex.cli; print(time.perf_counter() - t)"
)


def _import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(out.stdout.split()[-1])


def _raw(start: float, end: float) -> float:
    return end - start


def _p99(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[98]


def _timed(intervals, seconds) -> float:
    return sum(seconds(start, end) for start, end in intervals)


def _end_to_end(passes, seconds) -> dict:
    """End-to-end figures of the passes, each interval measured by ``seconds``."""
    units = [_timed(u, seconds) * 1000.0 for p in passes for u in p.units]
    out = {
        "work_per_s": statistics.median(p.work / seconds(p.start, p.end) for p in passes),
        "unit_p50_ms": statistics.median(units),
        "unit_p99_ms": _p99(units),
    }
    for name, (_, work) in passes[0].steps.items():
        values = []
        for p in passes:
            t = _timed(p.steps[name][0], seconds)
            values.append(work / t if work else t)
        out[name] = statistics.median(values)
    return out


def _maps_seconds(tr, p: int) -> float:
    """Cold minus mean warm simulate time, paired within each unit at GF(p)."""
    cold: dict[str, float] = {}
    warm: dict[str, list[float]] = {}
    for _, name, start, end, _, unit in tr.spans:
        if name == f"codec.sim_cold.p{p}":
            cold[unit] = cold.get(unit, 0.0) + end - start
        elif name == f"codec.sim_warm.p{p}":
            warm.setdefault(unit, []).append(end - start)
    return sum(c - statistics.mean(warm[u]) for u, c in cold.items() if u in warm)


def _per_layer(tr, traced, untraced) -> dict:
    """Per-layer metrics over the traced warm-up and the traced pass."""
    st = tr.self_times()
    counts = tr.counts

    def s(name: str) -> float:
        return st.get(name, 0.0)

    m: dict[str, float] = {}
    for p in FIELDS:
        m[f"codec.plans_s.p{p}"] = s(f"codec.plans.p{p}")
        m[f"codec.maps_s.p{p}"] = _maps_seconds(tr, p)
        m[f"codec.sim_warm_s.p{p}"] = s(f"codec.sim_warm.p{p}")
    plans_s = sum(m[f"codec.plans_s.p{p}"] for p in FIELDS)
    warm_s = sum(m[f"codec.sim_warm_s.p{p}"] for p in FIELDS)
    m["codec.plan_rows"] = counts["codec.plan_rows"]
    m["codec.plan_rows_per_s"] = counts["codec.plan_rows"] / plans_s
    m["codec.plan_useful_share"] = counts["codec.plan_rank_all"] / counts["codec.plan_rows"]
    m["codec.simulate_s"] = sum(v for k, v in st.items() if k.startswith("codec.sim"))
    m["codec.decoded_symbols"] = counts["codec.decoded_symbols"]
    m["codec.decode_macs"] = counts["codec.decode_macs"]
    m["codec.decode_macs_per_s"] = counts["codec.decode_macs"] / warm_s
    m["codec.decode_call_ms"] = statistics.median(tr.durations("codec.decode")) * 1000.0
    m["codec.encode_s"] = s("codec.encode")
    m["codec.build_encoder_s"] = s("codec.build_encoder")
    m["linalg.det_exact_s"] = s("linalg.det_exact")
    for q in (2, 3, 5):
        m[f"linalg.rank_mod_p_s.p{q}"] = s(f"linalg.rank_mod_p.p{q}")
    m["linalg.windows"] = counts["linalg.windows"]
    m["linalg.window_cells"] = counts["linalg.window_cells"]
    m["air.verify_s"] = s("air.verify")
    m["air.build_air_s"] = s("air.build_air")
    m["rates.find_min_rate_s"] = s("rates.find_min_rate")
    m["rates.oracle_min_rate_s"] = s("rates.oracle_min_rate")
    m["cli.table_s"] = s("cli.table")
    m["bench.self_s"] = s("warmup") + s("pass") + s("unit")
    untraced_s = untraced.end - untraced.start
    direct_s = _timed(traced.steps.get("direct_linalg_s", ([], 0))[0], _raw)
    overhead = traced.end - traced.start - direct_s - untraced_s
    m["trace.overhead_s"] = overhead
    m["trace.overhead_share"] = overhead / untraced_s
    m["trace.spans"] = len(tr.spans)
    return m


def _print_metrics(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>16.6f} {units.get(name, '')}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "airindex" / "__init__.py").is_file():
        print(f"error: package source {SRC / 'airindex'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import airindex
    from hostspeed import HostSpeed, NullSpeed
    from spans import NullTracer, Tracer
    from workloads import WORKLOADS, Checks, warm_up

    import_s = time.perf_counter() - t0
    if not Path(airindex.__file__).resolve().is_relative_to(SRC):
        print(f"error: airindex imported from {airindex.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    make_inputs, run_pass = WORKLOADS[args.workload]
    checks = Checks()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")

    if args.trace:
        listed = spec["per_layer"]
        tracer = Tracer()
        inputs = make_inputs(args.seed)
        warm_up(tracer, NullSpeed(), checks)
        untraced = run_pass(inputs, NullTracer(), NullSpeed(), checks, linalg_calls=False)
        gc.collect()
        traced = run_pass(inputs, tracer, NullSpeed(), checks, linalg_calls=True)
        digests = [untraced.digest, traced.digest]
        metrics = _per_layer(tracer, traced, untraced)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
        extra = {
            "untraced_pass_s": untraced.end - untraced.start,
            "traced_pass_s": traced.end - traced.start,
        }
    else:
        listed = spec["end_to_end"]
        speed = HostSpeed()
        setups = []
        for _ in range(SETUP_REPS):
            fresh_import_s = _import_seconds()
            speed.tick()
            t1 = speed.clock()
            inputs = make_inputs(args.seed)
            warm_up(NullTracer(), speed, checks)
            setups.append((fresh_import_s, t1, speed.clock()))
        # Start another whole pass only while it is expected to end in time.
        passes = []
        body_start = time.perf_counter()
        while True:
            # Encoders hold reference cycles; free the last pass's before the next.
            gc.collect()
            passes.append(run_pass(inputs, NullTracer(), speed, checks, linalg_calls=False))
            elapsed = time.perf_counter() - body_start
            if elapsed + elapsed / len(passes) > args.seconds:
                break
        speed.tick()
        digests = [p.digest for p in passes]
        metrics = _end_to_end(passes, speed.seconds)
        # Set-up is too short for the probes near it to give a steady
        # factor, and the fresh-interpreter import runs no probe at all.
        setup_s = statistics.median(imp + t2 - t1 for imp, t1, t2 in setups)
        metrics["setup_s"] = setup_s * speed.factor()
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        unscaled = _end_to_end(passes, _raw)
        unscaled["setup_s"] = setup_s
        extra = {f"unscaled.{name}": value for name, value in unscaled.items()}
        extra["pass_s"] = statistics.median(p.end - p.start for p in passes)
        extra["passes"] = len(passes)
        extra["unit_samples"] = sum(len(p.units) for p in passes)
        extra["probe_samples"] = len(speed.samples)
        extra["probe_median_ms"] = statistics.median(speed.samples) * 1000.0
        extra["in_process_import_s"] = import_s

    checks.check(len(set(digests)) == 1, f"same-seed passes gave digests {sorted(set(digests))}")
    units = {m["name"]: m["unit"] for m in listed}
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"error: metrics {missing} were not computed", file=sys.stderr)
        return 2
    extra = {**{k: v for k, v in metrics.items() if k not in units}, **extra}
    metrics = {name: metrics[name] for name in units}

    print("metrics:")
    _print_metrics(metrics, units)
    print("figures:")
    _print_metrics(extra, {})
    share = checks.failed / checks.attempted
    print(f"  failed_ops_share {share:.6f} ({checks.failed} of {checks.attempted} checked operations)")
    for msg in checks.messages:
        print(f"  FAILED: {msg}")
    print(f"digest {args.workload} seed {args.seed} {digests[0]}")
    print(
        json.dumps(
            {
                "correct": checks.failed == 0,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
