"""Run one simplexopt CLI command with the span recorder installed.

    python3 perfbench/trace_child.py <span-file> <cli arguments...>

The command runs as `python -m simplexopt.cli` would, so standard output and
the exit code are the CLI's own; the recorded spans and their aggregate are
written to <span-file> as JSON when the command ends.
"""

from __future__ import annotations

import json
import runpy
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def main() -> None:
    span_file = Path(sys.argv[1])
    recorder = tracing.Recorder()
    absent = recorder.install()
    recorder.job = sys.argv[2]
    recorder.begin_pass()
    sys.argv = ["simplexopt.cli", *sys.argv[2:]]
    try:
        runpy.run_module("simplexopt.cli", run_name="__main__", alter_sys=True)
    finally:
        sys.stdout.flush()
        span_file.parent.mkdir(parents=True, exist_ok=True)
        span_file.write_text(json.dumps({"aggregate": recorder.end_pass(), "absent": absent,
                                         "spans": recorder.spans}), encoding="utf-8")


if __name__ == "__main__":
    main()
