"""One measured process of the benchmark; run.py spawns it and reads its files.

    child.py cli STAMP ARGS...         import deltrace.cli, write the clock
                                       reading after the import to STAMP,
                                       then run deltrace.cli.main(ARGS)
    child.py import MODULE OUT         time one import in a fresh interpreter
    child.py inproc CONFIG MODE OUT    time ExperimentConfig.from_file and
                                       run_mode in this process
    child.py replay CONFIG OUT SPANS   replay the config through the modules'
                                       public functions with spans

time.monotonic is CLOCK_MONOTONIC, one clock for every process on the
machine, so run.py can subtract its spawn time from the child's reading.
"""

import time
import sys


def _write_json(path, obj):
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _cli(stamp, args):
    import deltrace.cli

    imported = time.monotonic()
    with open(stamp, "w", encoding="utf-8") as fh:
        fh.write(repr(imported))
    return deltrace.cli.main(args)


def _import(module, out):
    import importlib

    start = time.perf_counter()
    importlib.import_module(module)
    _write_json(out, {"seconds": time.perf_counter() - start})
    return 0


def _inproc(config, mode, out):
    import contextlib
    import io
    import statistics

    from deltrace.harness import ExperimentConfig, run_mode

    from_file = []
    for _ in range(21):
        start = time.perf_counter()
        cfg = ExperimentConfig.from_file(config, mode=mode, overrides={})
        from_file.append(time.perf_counter() - start)
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = run_mode(cfg)
    seconds = time.perf_counter() - start
    _write_json(out, {"from_file_s": statistics.median(from_file), "run_mode_s": seconds,
                      "exit": code, "stdout": buf.getvalue()})
    return 0


def _replay(config, out, spans_path):
    import json

    from replay import Tracer, replay

    with open(config, encoding="utf-8") as fh:
        cfg = json.load(fh)
    tracer = Tracer()
    result = replay(cfg, tracer)
    tracer.dump(spans_path)
    _write_json(out, result)
    return 0


if __name__ == "__main__":
    command, rest = sys.argv[1], sys.argv[2:]
    if command == "cli":
        sys.exit(_cli(rest[0], rest[1:]))
    sys.exit({"import": _import, "inproc": _inproc, "replay": _replay}[command](*rest))
