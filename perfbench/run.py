"""deltrace benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from src/.  Four
workloads (see workloads.py and NOTES.md) run one at a time, each invocation
a child process calling deltrace.cli.main, so the load is a closed loop of
one client.

--trace 0 times the untraced CLI.  Invocations repeat until S seconds have
passed (at least MIN_INVOCATIONS) and the end-to-end metrics are medians over
them: wall_s, cpu_s, setup_s (spawn until `import deltrace.cli` returns),
items_per_s and peak_rss_mb.  Time and memory of a child come from os.wait4
on that child only.  Times are scaled to a reference machine speed measured
around each invocation (calibrate); the unscaled medians are printed on the
`raw` line.

--trace 1 replays the same configs in fresh processes through the modules'
public functions with a span around every call (replay.py), next to an
untraced in-process run_mode of the same config, and reports per-layer
metrics as medians over those pairs.  The replay's counts and ln_values must
match the CSV of the same config.

Every run checks the outputs (checks.py).  The last stdout line is the JSON
result; the line before it is the environment stamp.  Exit code 2 without a
result when the package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
CHILD = str(HERE / "child.py")

MIN_INVOCATIONS = 3
CALIBRATION_ROUNDS = 10_000
# calibrate(CALIBRATION_ROUNDS) took about this long, in two halves, on the
# machine the benchmark was defined on (2-vCPU Xeon VM, Python 3.11, numpy 2.4)
CALIBRATION_REFERENCE_S = 0.15
DEADLINE_S = 170.0  # a run must end within 180 s
IMPORT_PROBES = 3

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                    "items_per_s": "1/s", "peak_rss_mb": "MB"}
SPEED_POWER = {"wall_s": 1, "cpu_s": 1, "setup_s": 1, "items_per_s": -1, "peak_rss_mb": 0}
LAYER_CALLS = ("channel.trial_rng", "channel.sample_traces", "events.detect_events",
               "events.detect_ambiguities", "reconstruct.maximal_runs", "reconstruct.oracle",
               "bits.is_subsequence", "analytics.prob_uncovered_run_mgf",
               "analytics.prob_uncovered_run_asymptotic")


def layer_unit(name: str) -> str:
    if name.endswith((".calls", ".windows", ".ie_terms")):
        return "count-computed" if name.endswith(("windows", "ie_terms")) else "count"
    if name.endswith("ratio"):
        return "ratio"
    return "MB-computed" if name == "channel.mask_mb" else "s"


def _spawn(args: list[str], stdout_path: Path, deadline: float):
    """Run `python child.py ARGS` with stdout to a file; returns
    (exit code, spawn time, exit time, rusage of that child)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(stdout_path, "wb") as out:
        start = time.monotonic()
        pid = os.posix_spawn(sys.executable, [sys.executable, CHILD, *args], env,
                             file_actions=[(os.POSIX_SPAWN_DUP2, out.fileno(), 1)])
        killer = threading.Timer(max(deadline - start, 1.0), os.kill, (pid, 9))
        killer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            killer.cancel()
        end = time.monotonic()
    return os.waitstatus_to_exitcode(status), start, end, usage


def calibrate(rounds: int) -> float:
    """Seconds this process takes for a fixed mix of interpreter and
    small-array work; CALIBRATION_ROUNDS of it take about 0.15 s.  Half runs
    just before each timed child and half just after, so each invocation can
    be scaled to the reference speed (see NOTES.md)."""
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    total = 0
    for i in range(rounds):
        flags = rng.random((4, 64)) < 0.1
        total += int(flags.all(axis=1).sum())
        for j in range(60):
            total += (i ^ j) & 7
    return time.perf_counter() - start


def _write_config(cfg: dict, name: str) -> Path:
    path = WORK / f"{name}.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def _reference(workload, size: str) -> str:
    return (HERE / "reference" / f"{workload.name}.{size}.csv").read_text(encoding="utf-8")


def _keep_going(done: int, minimum: int, started: float, seconds: float, last: float,
                deadline: float) -> bool:
    """Start another invocation while the measuring time lasts, and at least
    `minimum` in all, unless the run's deadline is near."""
    now = time.monotonic()
    if now + 2 * last > deadline:
        return False
    return done < minimum or now - started + last <= seconds


def run_untraced(workload, seed: int, seconds: float, size: str, deadline: float):
    import checks

    reference = _reference(workload, size)
    code = _spawn(["import", "deltrace.cli", str(WORK / "warmup.json")],
                  WORK / "warmup.out", deadline)[0]
    if code != 0:
        raise RuntimeError("the warm-up import of deltrace.cli failed")
    samples = {name: [] for name in END_TO_END_UNITS}
    raw = {name: [] for name in END_TO_END_UNITS}
    attempted = failed = trials = 0
    pooled: dict[str, int] = {}
    problems: list[str] = []
    configs = workload.configs(seed, size)
    started, last = time.monotonic(), 0.0
    while _keep_going(attempted, MIN_INVOCATIONS, started, seconds, last, deadline):
        cfg = next(configs)
        path = _write_config(cfg, workload.name)
        stamp, out = WORK / "stamp.txt", WORK / f"{workload.name}.out"
        stamp.unlink(missing_ok=True)
        before = calibrate(CALIBRATION_ROUNDS // 2)
        code, t0, t1, usage = _spawn(["cli", str(stamp), workload.mode, "--config", str(path)],
                                     out, deadline)
        attempted += 1
        last = wall = t1 - t0
        found, counts = checks.check_output(cfg, code, out.read_text(encoding="utf-8"), reference)
        if found:
            failed += 1
            problems += found
        if not stamp.exists():  # died before the import finished: nothing to time
            continue
        setup = float(stamp.read_text(encoding="utf-8")) - t0
        measured = {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime, "setup_s": setup,
                    "items_per_s": workload.items(cfg) / (wall - setup),
                    "peak_rss_mb": usage.ru_maxrss / 1024.0}
        speed = CALIBRATION_REFERENCE_S / (before + calibrate(CALIBRATION_ROUNDS // 2))
        for name, value in measured.items():
            raw[name].append(value)
            samples[name].append(value * speed ** SPEED_POWER[name])
        if workload.seeded:
            trials += cfg["trials"]
            for name, k in counts.items():
                pooled[name] = pooled.get(name, 0) + k
    if not samples["wall_s"]:
        raise RuntimeError("; ".join(problems) or "no invocation completed")
    # the configs of one run differ only in their seed, so any of them will do
    off = checks.check_frequencies(cfg, pooled, trials) if trials else []
    metrics = {name: {"value": statistics.median(values), "unit": END_TO_END_UNITS[name]}
               for name, values in samples.items()}
    raw_medians = {name: statistics.median(values) for name, values in raw.items()}
    return {"correct": failed == 0 and not off, "attempted": attempted, "failed": failed,
            "metrics": metrics}, problems + off, raw_medians


def _read_spans(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per span name: duration minus the part covered by its children.
    Children of one span run one after another, so their durations add."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    totals: dict[str, float] = {}
    for s, t in zip(spans, own):
        totals[s["name"]] = totals.get(s["name"], 0.0) + t
    return totals


def _layer_metrics(spans: list[dict], result: dict) -> dict[str, float]:
    """Per-layer metrics of one replay from its spans and its counts."""
    calls = {name: 0 for name in LAYER_CALLS + ("bits.instance",)}
    secs = dict.fromkeys(calls, 0.0)
    first_oracle = 0.0
    for s in spans:
        name = s["name"]
        if name in calls:
            if name == "reconstruct.oracle" and not calls[name]:
                first_oracle = s["end"] - s["start"]
            calls[name] += 1
            secs[name] += s["end"] - s["start"]
    m = {f"{name}.calls": calls[name] for name in LAYER_CALLS}
    m.update({f"{name}.s": secs[name] for name in secs})
    counts = result.get("counts", {})
    ratio = lambda good, total: good / total if total else 0.0  # noqa: E731
    mr, oracle = calls["reconstruct.maximal_runs"], calls["reconstruct.oracle"]
    m["reconstruct.maximal_runs.ok_ratio"] = ratio(mr - counts.get("reconstruction-error", 0), mr)
    m["reconstruct.oracle.sufficient_ratio"] = ratio(oracle - counts.get("difficulty", 0), oracle)
    m["reconstruct.oracle.first_call_s"] = first_oracle
    t_count, n = result.get("traces", 0), result.get("n", 0)
    m["channel.mask_mb"] = calls["channel.sample_traces"] * t_count * n * 8 / 1e6
    m["events.windows"] = calls["events.detect_events"] * t_count * result.get("copies", 0)
    m["analytics.ie_terms"] = (calls["analytics.prob_uncovered_run_mgf"]
                               * ((1 << result.get("runs", 0)) - 1))
    rows = result.get("rows", [])
    m["analytics.flagged_ratio"] = ratio(sum(1 for r in rows if r["flags"]), len(rows))
    return m


def _replay_problems(cfg: dict, result: dict, stdout: str) -> list[str]:
    """The replay must reproduce the CSV of the same config."""
    import checks

    csv_text, _ = checks.split_output(stdout)
    rows = checks.rows_of(csv_text)
    if cfg["mode"] != "sweep":
        csv_counts = checks.counts_of(rows)
        problems = [] if csv_counts == result["counts"] else [
            f"replay counts {result['counts']} differ from CSV counts {csv_counts}"]
        if any(result["breaches"].values()):
            problems.append(f"replay found audit breaches {result['breaches']}")
        return problems
    got = [(r["method"], r["ln_value"]) for r in result["rows"]]
    want = [(r["method"], float(r["ln_value"])) for r in rows]
    if len(got) != len(want) or any(
            gm != wm or not checks.ln_close(gl, wl) for (gm, gl), (wm, wl) in zip(got, want)):
        return ["replay sweep rows differ from the CSV"]
    return []


def run_traced(workload, seed: int, seconds: float, size: str, deadline: float):
    import checks

    reference = _reference(workload, size)
    imports = {}
    for module, key in (("deltrace", "import.deltrace.s"), ("scipy.special", "import.scipy_special.s")):
        values = []
        for _ in range(IMPORT_PROBES):
            out = WORK / "import.json"
            if _spawn(["import", module, str(out)], WORK / "import.out", deadline)[0] != 0:
                raise RuntimeError(f"importing {module} failed")
            values.append(json.loads(out.read_text(encoding="utf-8"))["seconds"])
        imports[key] = statistics.median(values)
    samples: dict[str, list[float]] = {}
    shares: dict[str, list[float]] = {}
    attempted = failed = 0
    problems: list[str] = []
    configs = workload.configs(seed, size)
    started, last = time.monotonic(), 0.0
    while _keep_going(attempted, 1, started, seconds, last, deadline):
        begun = time.monotonic()
        cfg = next(configs)
        path = _write_config(cfg, workload.name)
        attempted += 1
        inproc_out, replay_out, spans_path = (WORK / "inproc.json", WORK / "replay.json",
                                              WORK / f"spans-{workload.name}-{attempted}.jsonl")
        code = _spawn(["inproc", str(path), workload.mode, str(inproc_out)],
                      WORK / "inproc.out", deadline)[0]
        code2 = _spawn(["replay", str(path), str(replay_out), str(spans_path)],
                       WORK / "replay.out", deadline)[0]
        last = time.monotonic() - begun
        if code or code2:
            failed += 1
            problems.append(f"traced children exited {code} and {code2}")
            continue
        inproc = json.loads(inproc_out.read_text(encoding="utf-8"))
        result = json.loads(replay_out.read_text(encoding="utf-8"))
        found, _ = checks.check_output(cfg, inproc["exit"], inproc["stdout"], reference)
        found += _replay_problems(cfg, result, inproc["stdout"])
        if found:
            failed += 1
            problems += found
        spans = _read_spans(spans_path)
        total = spans[0]["end"] - spans[0]["start"]
        layer = _layer_metrics(spans, result)
        layer["harness.from_file.s"] = inproc["from_file_s"]
        layer["harness.run_mode.s"] = inproc["run_mode_s"]
        layer["bench.trace_overhead_s"] = total - inproc["run_mode_s"]
        for name, value in layer.items():
            samples.setdefault(name, []).append(value)
        for name, value in self_times(spans).items():
            shares.setdefault(name, []).append(value / total)
    if not samples:
        raise RuntimeError("; ".join(problems) or "no traced pair completed")
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics.update(imports)
    metrics["error_rate"] = failed / attempted
    table = {name: statistics.median(values) for name, values in shares.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}, problems, table


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((SRC / "deltrace").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment(workload: str, seed: int, attempted: int, trace: int) -> dict:
    import platform

    import numpy
    import scipy

    return {"commit": _commit(), "src_sha256": _source_digest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "workload": workload, "seed": seed, "trace": trace, "runs": attempted}


def main(argv=None) -> int:
    from workloads import SIZES, WORKLOADS

    parser = argparse.ArgumentParser(description="deltrace benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="tiny is the smoke-check size")
    args = parser.parse_args(argv)
    if not (SRC / "deltrace" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'deltrace'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            result, problems, table = run_traced(workload, args.seed, args.seconds, args.size, deadline)
            result["metrics"] = {name: {"value": value, "unit": layer_unit(name)}
                                 for name, value in result["metrics"].items()}
            for name, share in sorted(table.items(), key=lambda kv: -kv[1]):
                print(f"self-time share {name:45s} {100 * share:6.2f}%")
        else:
            result, problems, raw = run_untraced(workload, args.seed, args.seconds, args.size,
                                                 deadline)
            print("raw " + json.dumps(raw))
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("env " + json.dumps(environment(args.workload, args.seed, result["attempted"], args.trace)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
