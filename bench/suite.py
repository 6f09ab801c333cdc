#!/usr/bin/env python3
"""Run every benchmark workload and print each metric by name and unit.

    python3 bench/suite.py                # end-to-end metrics, tracing off
    python3 bench/suite.py --trace        # also the traced run of each workload

Each workload runs in its own process through ``run.py``. With
``--trace`` every workload is run twice with the same seed, untraced and
traced, which prints the per-layer metrics and the tracing overhead and
checks from outside that both processes produced the same output digest.
Exits non-zero if any run fails a check or the digests differ.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[int, dict | None, str | None]:
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(int(trace)),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    lines = proc.stdout.splitlines()
    digest = next((ln.split()[-1] for ln in lines if ln.startswith("digest ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode or result is None:
        sys.stderr.write(proc.stdout + proc.stderr)
    return proc.returncode, result, digest


def _show(workload: str, trace: bool, result: dict | None, digest: str | None) -> None:
    print(f"== {workload} ({'traced' if trace else 'tracing off'}) ==")
    if result is None:
        print("  no result")
        return
    for name, m in result["metrics"].items():
        print(f"  {name:<28} {m['value']:>18.6f} {m['unit']}")
    share = result["failed"] / result["attempted"]
    print(f"  {'failed_ops_share':<28} {share:>18.6f} ({result['failed']} of {result['attempted']})")
    print(f"  digest {digest}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="also run each workload traced")
    args = parser.parse_args()

    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        digests = []
        for trace in (False, True) if args.trace else (False,):
            code, result, digest = _run(workload, args.seed, args.seconds, trace)
            _show(workload, trace, result, digest)
            ok = ok and code == 0
            digests.append(digest)
        if args.trace:
            stable = len(set(digests)) == 1 and digests[0] is not None
            print(f"  same-seed digest across processes: {'identical' if stable else 'DIFFERENT'}")
            ok = ok and stable
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
