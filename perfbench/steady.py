#!/usr/bin/env python3
"""Steadiness report: run each workload on several seeds and show, for every
end-to-end metric, its median, quartiles and spread against its bound.

    python3 perfbench/steady.py [--workloads scan,bernstein] [--runs 10]
        [--first-seed 1] [--seconds S]

The spread is (Q3 - Q1) / median over the runs, with the quartiles from
statistics.quantiles(values, n=4). A metric is steady when its spread is
below a third of the bound in BENCHMARK.json (setup_s is reported but has
no spread limit). The full table is also written as JSON to
perfbench/out/steady-<workloads>.json so later changes can quote rows.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import jobs
import run


def main(argv=None) -> int:
    config = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    report = {}
    steady = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            command = [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", repr(args.seconds), "--trace", "0"]
            proc = subprocess.run(command, capture_output=True, text=True, cwd=run.ROOT)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: run failed\n{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        rows = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            ok = name == "setup_s" or spread < bounds[name] / 3
            steady &= ok
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds[name], "steady": ok, "values": vals}
            print(f"{workload:10} {name:13} median {median:11.6g}  q1 {q1:11.6g}  q3 {q3:11.6g}  "
                  f"spread {spread:6.3f}  bound {bounds[name]:.2f}  {'ok' if ok else 'WIDE'}")
        report[workload] = rows
    jobs.OUT_DIR.mkdir(exist_ok=True)
    path = jobs.OUT_DIR / f"steady-{args.workloads.replace(',', '-')}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
