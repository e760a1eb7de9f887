"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json at the tiny size, untraced and traced,
and fails unless each run prints every metric BENCHMARK.json names, with its
unit, and passes its output checks.  Then runs the benchmark in a directory
that holds only BENCHMARK.json and perfbench/, where it must exit non-zero
without printing a result.  Takes about a minute.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 180


def _run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=TIMEOUT_S)


def _problems(proc: subprocess.CompletedProcess, wanted: dict[str, str], end_to_end: bool) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"checks failed: {proc.stderr.strip()[-300:]}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(wanted):
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(wanted))}")
    for name, unit in wanted.items():
        entry = metrics.get(name, {})
        value = entry.get("value")
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r}, BENCHMARK.json says {unit!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
        elif end_to_end and value <= 0:
            problems.append(f"{name}: end-to-end value {value!r} is not positive")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = [{m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")]
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = _problems(_run(ROOT, workload, trace), units[trace], trace == 0)
            failures += bool(problems)
            print(f"{workload:14s} trace {trace}: {'ok' if not problems else '; '.join(problems)}")
    bare = ROOT / ".perfbench-work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _run(bare, spec["workloads"][0]["name"], 0)
    refused = proc.returncode != 0 and not proc.stdout.strip()
    failures += not refused
    print(f"bare directory: {'refused' if refused else 'NOT refused'} (exit {proc.returncode})")
    shutil.rmtree(bare)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
