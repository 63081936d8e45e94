"""The benchmark's self-test (``python3 perfbench/run.py --smoke``).

Runs every workload for one second in both modes and checks that the last
output line carries every metric ``BENCHMARK.json`` names, with its unit
and a finite value, and that the run is correct.  Then injects one
corrupted output into the pool, a session and the cold workload and checks that each
run reports the failure and exits non-zero.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 300


def _run(script: Path, workload: str, trace: int, *extra: str) -> tuple[int, dict | None]:
    command = [
        sys.executable,
        str(script),
        "--workload",
        workload,
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        str(trace),
        *extra,
    ]
    completed = subprocess.run(
        command, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False
    )
    lines = completed.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        sys.stderr.write(completed.stderr)
    return completed.returncode, result


def _metric_problems(result: dict | None, expected: dict[str, str]) -> list[str]:
    if result is None:
        return ["no JSON result on the last output line"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    metrics = result.get("metrics", {})
    for name, unit in expected.items():
        metric = metrics.get(name)
        if metric is None:
            problems.append(f"{name} missing")
        elif metric.get("unit") != unit:
            problems.append(f"{name} has unit {metric.get('unit')!r}, expected {unit!r}")
        elif not isinstance(metric.get("value"), (int, float)) or not math.isfinite(
            metric["value"]
        ):
            problems.append(f"{name} has no finite value")
    extra = set(metrics) - set(expected)
    if extra:
        problems.append(f"unexpected metrics {sorted(extra)}")
    return problems


def main(script: Path) -> int:
    spec = json.loads((script.parent.parent / "BENCHMARK.json").read_text())
    modes = {
        0: {metric["name"]: metric["unit"] for metric in spec["end_to_end"]},
        1: {metric["name"]: metric["unit"] for metric in spec["per_layer"]},
    }
    failures = []
    for workload in (entry["name"] for entry in spec["workloads"]):
        for trace, expected in modes.items():
            code, result = _run(script, workload, trace)
            problems = _metric_problems(result, expected)
            if code != 0 or not (result and result["correct"] and result["failed"] == 0):
                problems.append(f"exit {code}, result {result and result['failed']} failed")
            status = "ok" if not problems else "; ".join(problems)
            print(f"smoke {workload} trace={trace}: {status}", flush=True)
            if problems:
                failures.append((workload, trace))
    for workload in ("pool_hot_small", "session_bulk", "service_cold_structures"):
        code, result = _run(script, workload, 0, "--corrupt")
        caught = (
            code != 0
            and result is not None
            and not result["correct"]
            and result["failed"] >= 1
            and result["attempted"] >= result["failed"]
        )
        print(f"smoke {workload} corrupted output: {'caught' if caught else 'NOT caught'}")
        if not caught:
            failures.append((workload, "corrupt"))
    print(f"smoke: {'passed' if not failures else f'{len(failures)} failed'}")
    return 0 if not failures else 1
