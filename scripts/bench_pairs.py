"""Run alternating parent/change pairs of the perfbench benchmark.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --out BENCH_<PR>.json
        [--workloads scan,bernstein] [--first-seed N]

DIR is the root of a source checkout (its perfbench/ and src/).  Each of
PAIRS pairs, i = 0, 1, ..., runs `python3 perfbench/run.py --workload W
--seed first_seed + i --seconds S` in both checkouts, S the `run_seconds` of
this repository's BENCHMARK.json, the parent first on even i and the change
first on odd i, one process at a time.  The output holds, per workload,
every pair's metrics, `failed` count, job count and tail percentile for both
sides, and per metric the medians and quartiles of both sides and the number
of pairs the change won; the `job_cpu_tail_s` entry also lists each side's
tail percentiles.  `job_cpu_tail_s` is the p95 job of a run below 10,000
timed jobs and the p99.9 job at 10,000 or more, so a pair whose two runs
take different percentiles compares different jobs: each such pair prints
a warning line to standard error.  After each workload, one verdict line per
end-to-end metric of BENCHMARK.json goes to standard error, and into that
metric's summary entry: both medians, the relative change of the medians,
the pairs the change won, the parent's interquartile range, and whether the
change is worse than the parent by more than the metric's `bound`.  A run
that exits non-zero, or whose last two lines are not its provenance and
result, stops the script with the workload, seed, side, exit code and the
end of the run's standard error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def run(checkout: Path, workload: str, seed: int, seconds: float, side: str) -> dict:
    """One run's result; a run that exits non-zero or ends without its
    provenance and result lines stops the whole comparison."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    problem = f"exit code {done.returncode}"
    if not done.returncode:
        try:
            provenance, last = map(json.loads, done.stdout.splitlines()[-2:])
            info = provenance["provenance"]
            return {"failed": last["failed"], "attempted": last["attempted"],
                    "job_tail_percentile": info["job_tail_percentile"], "jobs": info["job_samples"],
                    "metrics": {name: m["value"] for name, m in last["metrics"].items()}}
        except (ValueError, KeyError, TypeError) as err:
            problem = f"exit code 0, unreadable result ({err!r})"
    stderr = "\n".join(done.stderr.splitlines()[-20:])
    raise SystemExit(f"{workload} seed {seed} {side} run failed: {problem}; last lines of stderr:\n{stderr}")


def summary(pairs: list[dict]) -> dict:
    out = {}
    for name in pairs[0]["parent"]["metrics"]:
        sides = {side: [p[side]["metrics"][name] for p in pairs] for side in ("parent", "change")}
        quartiles = {side: statistics.quantiles(v, n=4, method="inclusive") for side, v in sides.items()}
        out[name] = {
            **{f"{side}_median": q[1] for side, q in quartiles.items()},
            **{f"{side}_quartiles": [q[0], q[2]] for side, q in quartiles.items()},
            "change_lower_in": sum(c < p for p, c in zip(sides["parent"], sides["change"])),
            "pairs": len(pairs),
        }
    out["job_cpu_tail_s"].update({f"{side}_percentiles": [p[side]["job_tail_percentile"] for p in pairs] for side in ("parent", "change")})
    return out


def verdict(workload: str, pairs: list[dict], stats: dict, end_to_end: list[dict]) -> None:
    """Add each end-to-end metric's verdict to its entry in stats and print
    it to standard error, one line a metric."""
    for metric in end_to_end:
        name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
        entry = stats[name]
        parent, change = entry["parent_median"], entry["change_median"]
        relative = (change - parent) / parent if parent else 0.0
        sides = [(q["parent"]["metrics"][name], q["change"]["metrics"][name]) for q in pairs]
        won = sum((c < p) if lower else (c > p) for p, c in sides)
        iqr = entry["parent_quartiles"][1] - entry["parent_quartiles"][0]
        worse = (relative if lower else -relative) > bound
        entry["verdict"] = {"relative_change": relative, "change_won_in": won, "parent_iqr": iqr, "bound": bound, "worse_past_bound": worse}
        print(f"{workload} {name}: parent {parent:.6g}, change {change:.6g} ({relative:+.2%}), change better in "
              f"{won}/{len(pairs)}, parent IQR {iqr:.3g}, {'WORSE than' if worse else 'within'} the {bound:.0%} bound",
              file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workloads", default="scan,bernstein")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    benchmark = json.loads(BENCHMARK.read_text())
    seconds = benchmark["run_seconds"]
    result = {"seconds": seconds, "workloads": {}}
    for w, workload in enumerate(args.workloads.split(",")):
        pairs = []
        for i in range(PAIRS):
            seed = args.first_seed + 100 * w + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run(getattr(args, side), workload, seed, seconds, side)
            pairs.append(pair)
            tails = [pair[side]["job_tail_percentile"] for side in ("parent", "change")]
            if tails[0] != tails[1]:
                print(f"warning: {workload} seed {seed}: job_cpu_tail_s compares the parent's p{tails[0]} job "
                      f"with the change's p{tails[1]} job", file=sys.stderr)
            print(json.dumps({workload: pair}), flush=True)
        stats = summary(pairs)
        verdict(workload, pairs, stats, benchmark["end_to_end"])
        result["workloads"][workload] = {"pairs": pairs, "summary": stats}
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
