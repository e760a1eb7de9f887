"""Command-line entry point.

Subcommands pick the run mode; the JSON config supplies everything else,
with --seed/--trials/--out as overrides:

    deltrace COMMAND --config PATH [--seed N] [--trials N] [--out PATH]

Every failure is one line on stderr, never a traceback.  Exit codes:

    0  success, and -h or --help anywhere
    2  usage error, or config error, including an output path that cannot be
       written and a closed stdout
    3  infeasible request: the inclusion-exclusion cap in exact and sweep, one
       trial's traces x n masks or an exact or generate source over the
       allocation cap, or one trial's oracle over its state budget
    4  audit found an implication breach (its summary names the trials)

OpenBLAS runs on one thread unless OPENBLAS_NUM_THREADS is already set: no
deltrace routine calls BLAS, and the worker pool numpy would otherwise start
is only start-up and exit cost.  The imports run with the garbage collector
off and end by freezing what they built; the collector's previous state is
then restored, so a host that had switched it off finds it still off.  This
happens on import, not in main: a host process that imports this module
(pytest, a notebook) is left with its whole heap of that moment frozen for
good, unreachable cycles included, and its other threads run without the
collector while the imports last.  main freezes again, for what the caller
built after the import.
"""

from __future__ import annotations

import gc
import os
import sys

# Before harness imports numpy.  On 2 vCPUs `import numpy` took 164 ms with
# OpenBLAS's worker threads and 96 ms without them (medians of 15 processes).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# No collector pass walks the heap while the imports build it (about 30
# passes, 4-7 ms).  Freezing their objects afterwards also resets the
# allocation count, so no pass is owed to the first allocation after them.
_collecting = gc.isenabled()
gc.disable()
try:
    from .harness import ExperimentConfig, InfeasibleError, run_mode
finally:
    gc.freeze()
    if _collecting:
        gc.enable()

_COMMANDS = {
    "exact": ("exact", "evaluate the closed-form probabilities for one instance"),
    "asympt": ("asymptotic", "evaluate the large-n approximations for one instance"),
    "montecarlo": ("montecarlo", "estimate event and difficulty frequencies by simulation"),
    "audit": ("audit", "simulate with paired seeds and count implication breaches"),
    "sweep": ("sweep", "tabulate probabilities over a (c, n) grid with regime labels"),
    "generate": ("generate", "emit a structured source string and its declared spans"),
}

_HELP = """usage: deltrace COMMAND --config PATH [--seed N] [--trials N] [--out PATH]

Deletion-channel trace experiments: formulas, simulation, audits.  --config names
the JSON experiment config; --seed, --trials and --out override its seed, trial
count and output path.  Commands:
"""


class UsageError(ValueError):
    """A command line outside the grammar in _HELP (exit code 2)."""


def _parse(argv: list[str]) -> tuple[str, str, dict]:
    """(path, mode, overrides) for ExperimentConfig.from_file, from one command line.
    A flag's value is the next argument or follows "=", and a repeated flag's last
    value wins."""
    if not argv or argv[0] not in _COMMANDS:
        raise UsageError(f"expected a subcommand, one of {', '.join(_COMMANDS)}; got {argv[0] if argv else 'nothing'}")
    values, rest = dict.fromkeys(("config", "seed", "trials", "out")), iter(argv[1:])
    for arg in rest:
        flag, eq, value = arg.partition("=")
        if not flag.startswith("--") or flag[2:] not in values:
            raise UsageError(f"unknown argument {arg!r}")
        values[flag[2:]] = value if eq else next(rest, None)
        if values[flag[2:]] is None:
            raise UsageError(f"{flag} needs a value")
    for key in ("seed", "trials"):
        try:
            values[key] = None if values[key] is None else int(values[key])
        except ValueError:
            raise UsageError(f"--{key} needs an integer, got {values[key]!r}") from None
    if values["config"] is None:
        raise UsageError("--config PATH is required")
    return values.pop("config"), _COMMANDS[argv[0]][0], values


def main(argv=None) -> int:
    gc.freeze()  # what was built since the import; interpreter exit then skips the collector's walk over them
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(_HELP + "\n".join(f"  {name:<12}{text}" for name, (_, text) in _COMMANDS.items()))
        return 0
    try:
        return run_mode(ExperimentConfig.from_file(*_parse(argv)))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # harness's ConfigError among them
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
