"""Command-line entry point.

Subcommands pick the run mode; the JSON config supplies everything else,
with --seed/--trials/--out as overrides.  Every failure is one line on
stderr, never a traceback.  Exit codes:

    0  success
    2  config error, including an output path that cannot be written and a
       closed stdout
    3  infeasible request: the inclusion-exclusion cap in exact and sweep, one
       trial's traces x n masks or an exact or generate source over the
       allocation cap, or one trial's oracle over its state budget
    4  audit found an implication breach (its summary names the trials)

OpenBLAS runs on one thread unless OPENBLAS_NUM_THREADS is already set: no
deltrace routine calls BLAS, and the worker pool numpy would otherwise start
is only start-up and exit cost.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

# Before harness imports numpy.  On 2 vCPUs `import numpy` took 164 ms with
# OpenBLAS's worker threads and 96 ms without them (medians of 15 processes).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .harness import ConfigError, ExperimentConfig, InfeasibleError, run_mode

__all__ = ["main"]

_COMMANDS = {
    "exact": ("exact", "evaluate the closed-form probabilities for one instance"),
    "asympt": ("asymptotic", "evaluate the large-n approximations for one instance"),
    "montecarlo": ("montecarlo", "estimate event and difficulty frequencies by simulation"),
    "audit": ("audit", "simulate with paired seeds and count implication breaches"),
    "sweep": ("sweep", "tabulate probabilities over a (c, n) grid with regime labels"),
    "generate": ("generate", "emit a structured source string and its declared spans"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltrace",
        description="Deletion-channel trace experiments: formulas, simulation, audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the JSON experiment config")
        cmd.add_argument("--seed", type=int, help="override the config seed")
        cmd.add_argument("--trials", type=int, help="override the config trial count")
        cmd.add_argument("--out", help="override the output path")
    return parser


def main(argv=None) -> int:
    gc.freeze()  # interpreter exit then skips the collector's walk over every module's objects
    args = _build_parser().parse_args(argv)
    mode = _COMMANDS[args.command][0]
    overrides = {"seed": args.seed, "trials": args.trials, "out": args.out}
    try:
        config = ExperimentConfig.from_file(args.config, mode=mode, overrides=overrides)
        return run_mode(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
