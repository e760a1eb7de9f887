"""Time the Monte Carlo kernel's mask stages in process: the mask draw
(_mask_block), the span witness (_span_wiped) and run coverage, on the
shapes of the benchmark's mc-short and mc-long workloads (one block each),
on mc-long's shape at p = 0.0005, where no trace wipes a run, and on span
witnesses of periods 1 to 1500 over a 32 x 3000 mask.  Time also the
command's start-up, `import deltrace.cli` in a fresh interpreter.

    python tools/stages.py [--against PATH] [--rounds N] [--reps N] [--out FILE]

Each round starts one child process per tree: this checkout's src/ and,
with --against, the src/ of another checkout (say the parent commit's), in
alternating order.  A child builds every input once, times each case --reps
times and reports the median and a sha256 of the case's output.  Each round
also times one `import deltrace.cli` per tree, in a bare interpreter under
the caller's environment, whose output is the list of deltrace modules it
loaded.  With PYTHONDONTWRITEBYTECODE=1 and no __pycache__ under src/,
every such import compiles src/, as on the benchmark's machine; an existing
__pycache__ is still read.  The report gives each case's median and
interquartile range over the rounds and, with --against, the median of the
paired ratios (this tree over the other) and whether the outputs are equal.  It writes BENCH_stages.json into the working
directory (or --out), with metrics shaped like perfbench/run.py's.
Stdlib and numpy only; it sets no bound, and CI does not run it.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# (workload, source, p, traces): mc-short and mc-long as perfbench/workloads.py pins them
SHAPES = [
    ("mc-short", {"kind": "runs", "first_bit": 0, "fractions": [0.2, 0.3, 0.1, 0.25, 0.15], "n": 40}, 0.1, 8),
    ("mc-long", {"kind": "repeat", "pattern": "001", "ell": 0.25, "n": 3000}, 0.17, 32),
    ("mc-long-p0.0005", {"kind": "repeat", "pattern": "001", "ell": 0.25, "n": 3000}, 0.0005, 32),
]
PERIODS = (1, 3, 16, 17, 64, 70, 1500)
SEED = 2024
# run with -c, so the interpreter has loaded nothing of its own before the import
STARTUP = """import time
start = time.perf_counter()
import deltrace.cli
seconds = time.perf_counter() - start
import json, sys
print(json.dumps([seconds, sorted(name for name in sys.modules if name.startswith("deltrace"))]))"""


def _cases():
    """(name, prepare, stage): each repetition times stage(*prepare()), the
    arguments built outside the timing."""
    import numpy as np

    from deltrace import kernel
    from deltrace.bits import PatternSpan
    from deltrace.harness import SourceSpec

    if list(inspect.signature(kernel._covered_runs).parameters)[0] == "clean":
        def coverage(flags, runs):  # before the coverage shortcut: the full table, then its fold
            return kernel._covered_runs(*kernel._clean_runs(flags, runs))
    else:
        def coverage(flags, runs):
            return kernel._covered_runs(flags, runs)[0]
    spec = kernel.RngSpec(SEED)
    cases = []
    for name, source, p, t_count in SHAPES:
        instance = SourceSpec.from_dict(source, allow_missing_n=False).instance()
        n = len(instance.s)
        block = max(1, kernel.BLOCK_ELEMENTS // (t_count * n))
        masks = np.empty((block, t_count, n), dtype=bool)
        cases.append((f"mask.{name}", lambda b=block, p=p, m=masks: ([spec.trial_rng(i) for i in range(b)], p, m),
                      kernel._mask_block))
        flags = kernel._mask_block(map(spec.trial_rng, range(block)), p, masks.copy())
        runs = kernel._RunTables(instance.lengths)
        cases.append((f"span.{name}", lambda f=flags, s=instance.span: (f, s), kernel._span_wiped))
        cases.append((f"coverage.{name}", lambda f=flags, r=runs: (f, r), coverage))
    flags = np.random.default_rng(SEED).random((1, 32, 3000)) < 0.9
    for period in PERIODS:
        span = PatternSpan(0, period, 3000 // period)
        cases.append((f"span.period-{period}", lambda s=span: (flags, s), kernel._span_wiped))
    return cases


def child(src: str, reps: int) -> dict:
    """{case: [median seconds over reps, sha256 of the output]} for one tree."""
    sys.path.insert(0, src)
    import numpy as np

    out = {}
    for name, prepare, stage in _cases():
        times = []
        for _ in range(reps):
            args = prepare()
            start = time.perf_counter()
            result = stage(*args)
            times.append(time.perf_counter() - start)
        result = np.ascontiguousarray(result)
        digest = hashlib.sha256(repr(result.shape).encode() + result.tobytes()).hexdigest()
        out[name] = [statistics.median(times), digest]
    return out


def _run_child(src: Path, reps: int) -> dict:
    proc = subprocess.run([sys.executable, __file__, "--child", str(src), "--reps", str(reps)],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def _startup(src: Path) -> list:
    """[seconds, sha256 of the modules loaded] of one `import deltrace.cli`
    from src/, in a fresh interpreter under the caller's environment."""
    proc = subprocess.run([sys.executable, "-c", STARTUP], env={**os.environ, "PYTHONPATH": str(src)}, cwd=src,
                          capture_output=True, text=True, check=True)
    seconds, modules = json.loads(proc.stdout)
    return [seconds, hashlib.sha256(" ".join(modules).encode()).hexdigest()]


def _summary(rounds: list[dict]) -> dict:
    """Per case: the median and quartiles over rounds of the children's medians."""
    metrics = {}
    for name in rounds[0]:
        values = [r[name][0] for r in rounds]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        metrics[name] = {"value": statistics.median(values), "unit": "s", "iqr": [q1, q3], "sha256": rounds[0][name][1]}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, help="another checkout whose src/ to time alongside")
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--reps", type=int, default=25)
    parser.add_argument("--out", type=Path, default=Path("BENCH_stages.json"))
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.child, args.reps)))
        return 0
    trees = [ROOT / "src"] + ([args.against.resolve() / "src"] if args.against else [])
    rounds = [[] for _ in trees]
    for r in range(args.rounds):
        for k in (range(len(trees)) if r % 2 == 0 else reversed(range(len(trees)))):
            rounds[k].append({**_run_child(trees[k], args.reps), "startup.import-cli": _startup(trees[k])})
    metrics = _summary(rounds[0])
    report = {"rounds": args.rounds, "reps": args.reps, "metrics": metrics}
    header = f"{'case':26} {'median ms':>10} {'iqr ms':>17}"
    if args.against:
        other = _summary(rounds[1])
        report["against"] = {"path": str(args.against), "metrics": other}
        header += f" {'against ms':>10} {'ratio':>6} same output"
    print(header)
    for name, metric in metrics.items():
        line = f"{name:26} {metric['value'] * 1e3:10.4f} {metric['iqr'][0] * 1e3:8.4f}-{metric['iqr'][1] * 1e3:<8.4f}"
        if args.against:
            # per round, this tree's median over the other's
            metric["ratio"] = statistics.median(a[name][0] / b[name][0] for a, b in zip(*rounds))
            metric["same_output"] = metric["sha256"] == other[name]["sha256"]
            line += f" {other[name]['value'] * 1e3:10.4f} {metric['ratio']:6.3f} {metric['same_output']}"
        print(line)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
