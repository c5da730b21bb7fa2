#!/usr/bin/env python3
"""Record the golden outputs of every pool variant.

    python3 perfbench/record_goldens.py [scan|bernstein|cli-cold ...]

Writes perfbench/goldens/<workload>.json. Goldens hold the library's exact
answers, so record them only from a commit whose answers are trusted; a
variant that fails its independent oracle is refused.
"""

from __future__ import annotations

import json
import sys
from random import Random

import run
import jobs


def record_in_process(sx, workload: str) -> dict:
    goldens = {}
    rng = Random(0)
    for slot in jobs.SLOTS[workload]:
        if slot[1] == "moments":
            continue  # fresh points each pass; the two moment routes are the oracle
        for variant in range(jobs.VARIANTS):
            spec = jobs.variant_spec(workload, slot, variant)
            jobs.set_epsilon(spec, rng)  # goldens hold for any target in the band
            job = jobs.prepare(sx, spec)
            raw = jobs.execute(sx, job)
            problems, _, _ = jobs.oracle_problems(sx, job, raw)
            if problems:
                raise SystemExit(f"{spec['key']}: {problems}")
            goldens[spec["key"]] = jobs.canonical(spec, raw)
    return goldens


def record_cli() -> dict:
    goldens = {}
    for slot in jobs.CLI_SLOTS:
        for variant in range(jobs.VARIANTS):
            spec = jobs.variant_spec("cli-cold", slot, variant)
            argv = jobs.cli_argv(spec, jobs.OUT_DIR / "graphs")
            code, out, err, _ = run.run_child(run.cli_command(argv))
            if code != 0:
                raise SystemExit(f"{spec['key']}: exit {code}: {err.decode(errors='replace')}")
            goldens[spec["key"]] = {"argv": argv, "stdout": out.decode()}
    return goldens


def main(names: list[str]) -> int:
    sx = run.import_library()
    jobs.GOLDEN_DIR.mkdir(exist_ok=True)
    for workload in names or jobs.WORKLOADS:
        goldens = record_cli() if workload == "cli-cold" else record_in_process(sx, workload)
        path = jobs.GOLDEN_DIR / f"{workload}.json"
        path.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{path.relative_to(run.ROOT)}: {len(goldens)} goldens")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
