#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Runs every workload once at tiny size (pentagon sweep, tail fixtures
at m = 0 only, one CLI call), untraced and traced, and
checks that each run exits 0, that every answer passed its check (so
every tail fixture validated), and that it prints exactly the metrics
BENCHMARK.json names, each with its unit.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = 0
    for workload in spec["workloads"]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"),
                 "--workload", workload["name"], "--seed", "1",
                 "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
                capture_output=True, text=True, cwd=ROOT, timeout=600)
            problems = []
            if proc.returncode != 0:
                problems.append(f"exit code {proc.returncode}")
            else:
                result = json.loads(proc.stdout.splitlines()[-1])
                if not result["correct"] or result["failed"]:
                    problems.append(f"{result['failed']} of "
                                    f"{result['attempted']} queries failed")
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                if got != want[trace]:
                    problems.append(f"metrics differ from BENCHMARK.json: "
                                    f"{sorted(set(got.items()) ^ set(want[trace].items()))}")
            print(f"{workload['name']} trace={trace}: "
                  + ("; ".join(problems) or "ok"))
            if problems:
                failures += 1
                sys.stderr.write(proc.stderr[-4000:])
    print("smoke: " + ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
