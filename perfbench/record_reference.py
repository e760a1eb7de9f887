"""Record the reference CSVs the output checks compare against.

    python3 perfbench/record_reference.py

Runs every workload once per size at REFERENCE_SEED through deltrace.cli.main
and writes the CSV part of its stdout to reference/<workload>.<size>.csv.
The references pin the behaviour of the commit they were recorded at; re-record
only on purpose, because a refactor that must not change the numbers is
judged against them.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from checks import split_output  # noqa: E402
from workloads import REFERENCE_SEED, SIZES, WORKLOADS  # noqa: E402


def main() -> int:
    import tempfile

    import deltrace.cli

    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for workload in WORKLOADS.values():
            for size in SIZES:
                path = Path(tmp) / "config.json"
                path.write_text(json.dumps(workload.config(size, REFERENCE_SEED)), encoding="utf-8")
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = deltrace.cli.main([workload.mode, "--config", str(path)])
                if code != 0:
                    print(f"{workload.name} {size}: exit code {code}", file=sys.stderr)
                    return 1
                csv_text, _ = split_output(buf.getvalue())
                target = HERE / "reference" / f"{workload.name}.{size}.csv"
                target.write_text(csv_text, encoding="utf-8")
                print(f"wrote {target.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
