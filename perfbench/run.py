#!/usr/bin/env python3
"""simplexopt benchmark: one closed-loop client, three workloads.

    python3 perfbench/run.py --workload scan|bernstein|cli-cold \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from ./src.
The timed phase repeats passes over a seeded job list until S seconds have
gone by. Times are CPU seconds of the process doing the work (the child, for
CLI processes), scaled to a reference core speed (see Scaler): on a shared
host, wall time also counts the time spent waiting for a core, and a core's
speed drifts by a fifth from one second to the next. Every job output passes the exactness gate (independent oracles and
goldens recorded from the library), and any failed job makes the run exit 1.

--trace 0 prints the end-to-end metrics. --trace 1 runs the untraced
workload for S/2 seconds in a child process, then S/2 seconds with the span
recorder installed, and prints the per-layer metrics. The last line of
standard output is the result; the line before it holds the provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import jobs  # noqa: E402
import tracing  # noqa: E402

SETUP_PROBES = 7
CLI_PROBES = 5
# A coarse ladder keeps the percentile fixed while the sample count of a run
# moves with the machine's speed (scan and bernstein time 400-1000 jobs).
TAIL_LADDER = (99.9, 95.0, 75.0, 50.0)
CHILD_TIMEOUT_S = 120
WARMUP_S = 3.0  # the warm-up repeats until this long has passed
# The speed slice: a frozen, library-free grid scan of a cubic with big
# coefficients, so it allocates and multiplies integers as the workloads do.
SLICE_TERMS = (((3, 0, 0, 0), 10**21 + 7), ((1, 1, 1, 0), -3), ((0, 2, 1, 0), 5 * 10**19),
               ((0, 0, 1, 2), 11), ((1, 0, 0, 2), -7 * 10**20), ((0, 1, 0, 2), 2),
               ((2, 0, 1, 0), 13), ((0, 0, 0, 3), -1), ((1, 2, 0, 0), 9), ((0, 1, 1, 1), 4))
SLICE_ORDER = 12
# About the slice's fastest CPU time on the 2.1 GHz Xeon sandbox the benchmark
# was tuned on (1st percentile 2.56 ms, median 4.3 ms in a tight loop).
REFERENCE_SLICE_S = 0.0025


def child_env() -> dict:
    """Environment of every child: the checkout's library, default threads."""
    env = dict(os.environ)
    env.pop("SIMPLEX_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_child(argv: list[str]) -> tuple[int, bytes, bytes, float]:
    """Run one child to its end; returns its exit code, output and CPU time.
    Children run one at a time, so the growth of RUSAGE_CHILDREN is this
    child's."""
    start = children_cpu()
    proc = subprocess.run(argv, capture_output=True, env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr, children_cpu() - start


def cli_command(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "simplexopt.cli", *argv]


def import_library():
    sys.path.insert(0, str(SRC))
    import simplexopt

    return simplexopt


def load_goldens(workload: str) -> dict:
    path = jobs.GOLDEN_DIR / f"{workload}.json"
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def quantile(values: list[float], percent: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * percent // 100))
    return ordered[int(rank) - 1]


def tail_percentile(count: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    for percent in TAIL_LADDER:
        if count * (100 - percent) / 100 >= 10:
            return percent
    return 50.0


def compositions(n: int, r: int):
    if n == 1:
        yield (r,)
        return
    for k in range(r, -1, -1):
        for rest in compositions(n - 1, r - k):
            yield (k, *rest)


def speed_slice() -> float:
    """CPU time of the speed slice: a probe of the core's current speed."""
    start = process_time()
    best = None
    for point in compositions(4, SLICE_ORDER):
        value = 0
        for exponents, coefficient in SLICE_TERMS:
            for x, e in zip(point, exponents):
                if e:
                    coefficient *= x**e
            value += coefficient
        if best is None or value < best:
            best = value
    return process_time() - start


class Scaler:
    """Scales each CPU time to the reference speed. A speed slice runs after
    every measured piece of work; the piece is scaled by REFERENCE_SLICE_S over
    the mean of the slices just before and just after it."""

    def __init__(self):
        self.slices = [speed_slice()]

    def scale(self, cpu: float) -> float:
        self.slices.append(speed_slice())
        return cpu * 2 * REFERENCE_SLICE_S / (self.slices[-2] + self.slices[-1])


# ---------------------------------------------------------------------------
# The exactness gate
# ---------------------------------------------------------------------------


class Gate:
    """Counts attempted and failed jobs and keeps the first problems."""

    def __init__(self, goldens: dict):
        self.goldens = goldens
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.route_checks = 0
        self.route_agreed = 0

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: max(0, 20 - len(self.problems))])

    def check_in_process(self, sx, job: dict, raw, error) -> None:
        spec = job["spec"]
        if error is not None:
            self.record([f"{spec['slot']}: {type(error).__name__}: {error}"])
            return
        problems, checks, agreed = jobs.oracle_problems(sx, job, raw)
        self.route_checks += checks
        self.route_agreed += agreed
        problems += jobs.golden_problems(spec, jobs.canonical(spec, raw), self.goldens)
        self.record(problems)

    def check_cli(self, spec: dict, argv: list[str], code: int, out: bytes, err: bytes) -> None:
        golden = self.goldens.get(spec["key"])
        problems = []
        if code != 0:
            problems.append(f"{spec['key']}: exit {code}: {err.decode(errors='replace')[-300:]}")
        elif golden is None:
            problems.append(f"no golden capture for {spec['key']}")
        elif golden["argv"] != argv or golden["stdout"].encode() != out:
            problems.append(f"{spec['key']}: --json output differs from the golden capture")
        self.record(problems)


# ---------------------------------------------------------------------------
# In-process workloads
# ---------------------------------------------------------------------------


def run_jobs(sx, prepared: list[dict], latencies: list[float], scaler: Scaler | None = None,
             recorder=None) -> list[tuple]:
    """Runs the jobs in order; with a scaler, appends each job's scaled CPU
    time to `latencies`."""
    results = []
    for job in prepared:
        if recorder is not None:
            recorder.job = job["spec"]["key"] or job["spec"]["slot"]
        start = process_time()
        try:
            raw, error = jobs.execute(sx, job), None
        except Exception as exc:  # a failing job is counted, not fatal
            raw, error = None, exc
        if scaler is not None:
            latencies.append(scaler.scale(process_time() - start))
        results.append((job, raw, error))
    return results


def in_process_passes(sx, workload: str, seed: int, seconds: float, gate: Gate,
                      first=None, recorder=None) -> dict:
    """Timed passes until `seconds` are used. Untraced, pass 0 uses the
    inputs built during set-up and later passes are built between passes,
    outside the pass timing. Traced, each pass aggregate includes building
    its inputs, so parsing is measured."""
    latencies: list[float] = []
    walls: list[float] = []
    cpus: list[float] = []
    raw_cpus: list[float] = []
    aggregates: list[dict] = []
    route: list[tuple[int, int]] = []
    scaler = Scaler()
    deadline = perf_counter() + seconds
    index = 0
    while index == 0 or perf_counter() < deadline:
        if recorder is not None:
            recorder.begin_pass()
            recorder.job = "prepare"
        if first is not None and index == 0:
            prepared = first
        else:
            prepared = [jobs.prepare(sx, s) for s in jobs.pass_jobs(workload, seed, index)]
        start, start_cpu, done = perf_counter(), process_time(), len(latencies)
        results = run_jobs(sx, prepared, latencies, scaler, recorder)
        walls.append(perf_counter() - start)
        raw_cpus.append(process_time() - start_cpu)  # includes the speed slices
        cpus.append(sum(latencies[done:]))
        if recorder is not None:
            aggregates.append(recorder.end_pass())
            recorder.job = "gate"
        checks, agreed = gate.route_checks, gate.route_agreed
        for job, raw, error in results:
            gate.check_in_process(sx, job, raw, error)
        route.append((gate.route_checks - checks, gate.route_agreed - agreed))
        index += 1
    return {"latencies": latencies, "walls": walls, "cpus": cpus, "raw_cpus": raw_cpus,
            "slices": scaler.slices, "aggregates": aggregates, "route": route,
            "jobs_per_pass": len(prepared)}


def warm_up_in_process(sx, workload: str, seed: int, gate: Gate) -> None:
    prepared = [jobs.prepare(sx, s) for s in jobs.warmup_jobs(workload, seed)]
    deadline = perf_counter() + WARMUP_S
    while True:
        for job, raw, error in run_jobs(sx, prepared, []):
            gate.check_in_process(sx, job, raw, error)
        if perf_counter() >= deadline:
            break


def warm_up_cli(seed: int, gate: Gate) -> None:
    inputs = cli_pass_inputs(jobs.warmup_jobs("cli-cold", seed))
    deadline = perf_counter() + WARMUP_S
    while True:
        for spec, argv in inputs:
            code, out, err, _ = run_child(cli_command(argv))
            gate.check_cli(spec, argv, code, out, err)
        if perf_counter() >= deadline:
            break


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------


def cli_pass_inputs(specs: list[dict]) -> list[tuple[dict, list[str]]]:
    return [(spec, jobs.cli_argv(spec, jobs.OUT_DIR / "graphs")) for spec in specs]


def cli_passes(seed: int, seconds: float, gate: Gate, traced: bool = False) -> dict:
    latencies: list[float] = []
    walls: list[float] = []
    cpus: list[float] = []
    raw_cpus: list[float] = []
    aggregates: list[dict] = []
    plain: list[float] = []
    json_bytes: list[int] = []
    child_spans: list[dict] = []
    errors = 0
    scaler = Scaler()
    deadline = perf_counter() + seconds
    span_dir = jobs.OUT_DIR / "child-spans"
    index = 0
    while index == 0 or perf_counter() < deadline:
        inputs = cli_pass_inputs(jobs.pass_jobs("cli-cold", seed, index))
        start = perf_counter()
        cpu = raw_cpu = 0.0
        children: list[dict] = []
        size = 0
        for number, (spec, argv) in enumerate(inputs):
            if traced:
                code, out, err, elapsed = run_child(cli_command(argv))
                gate.check_cli(spec, argv, code, out, err)
                errors += code != 0
                plain.append(elapsed)
                size += len(out)
                span_file = span_dir / f"{index}-{number}.json"
                command = [sys.executable, str(BENCH_DIR / "trace_child.py"), str(span_file), *argv]
                code, out, err, elapsed = run_child(command)
                if span_file.exists():
                    child = json.loads(span_file.read_text(encoding="utf-8"))
                    span_file.unlink()
                    children.append(child["aggregate"])
                    child_spans.append({"child": spec["key"], "pass": index, "spans": child["spans"]})
            else:
                code, out, err, elapsed = run_child(cli_command(argv))
            gate.check_cli(spec, argv, code, out, err)
            errors += code != 0
            latencies.append(scaler.scale(elapsed))
            cpu += latencies[-1]
            raw_cpu += elapsed
        walls.append(perf_counter() - start)
        cpus.append(cpu)
        raw_cpus.append(raw_cpu)
        if traced:
            aggregates.append(tracing.merge(children))
            json_bytes.append(size)
        index += 1
    return {"latencies": latencies, "walls": walls, "cpus": cpus, "raw_cpus": raw_cpus,
            "slices": scaler.slices, "aggregates": aggregates, "plain": plain, "json_bytes": json_bytes, "child_spans": child_spans,
            "errors": errors, "jobs_per_pass": len(inputs)}


# ---------------------------------------------------------------------------
# Set-up probes
# ---------------------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> float:
    """Import the library and build pass 0's inputs; returns the CPU time
    taken, scaled by the median of three speed slices before and after."""
    before = statistics.median(speed_slice() for _ in range(3))
    start = process_time()
    sx = import_library()
    if workload == "cli-cold":
        cli_pass_inputs(jobs.pass_jobs("cli-cold", seed, 0))
    else:
        [jobs.prepare(sx, s) for s in jobs.pass_jobs(workload, seed, 0)]
    cpu = process_time() - start
    after = statistics.median(speed_slice() for _ in range(3))
    return cpu * 2 * REFERENCE_SLICE_S / (before + after)


def probe_setup_s(workload: str, seed: int) -> float:
    times = []
    for _ in range(SETUP_PROBES):
        argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                "--workload", workload, "--seed", str(seed)]
        code, out, err, _ = run_child(argv)
        if code != 0:
            raise RuntimeError(f"set-up probe failed: {err.decode(errors='replace')[-300:]}")
        times.append(float(out.decode().split()[-1]))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def latency_metrics(timed: dict) -> tuple[dict, dict]:
    latencies = timed["latencies"]
    percent = tail_percentile(len(latencies))
    metrics = {
        "pass_cpu_s": (statistics.median(timed["cpus"]), "s"),
        "job_cpu_p50_s": (statistics.median(latencies), "s"),
        "job_cpu_tail_s": (quantile(latencies, percent), "s"),
    }
    info = {"passes": len(timed["cpus"]), "job_samples": len(latencies),
            "job_tail_percentile": percent,
            "samples_beyond_tail": sum(v > metrics["job_cpu_tail_s"][0] for v in latencies),
            "pass_wall_s": statistics.median(timed["walls"]),
            "pass_raw_cpu_s": statistics.median(timed["raw_cpus"]),
            "speed_slice_s": {"median": statistics.median(timed["slices"]),
                              "min": min(timed["slices"]), "max": max(timed["slices"])}}
    return metrics, info


def untraced_run(workload: str, seed: int, seconds: float, gate: Gate) -> tuple[dict, dict]:
    if workload == "cli-cold":
        warm_up_cli(seed, gate)
        timed = cli_passes(seed, seconds, gate)
        peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        sx = import_library()
        first = [jobs.prepare(sx, s) for s in jobs.pass_jobs(workload, seed, 0)]
        warm_up_in_process(sx, workload, seed, gate)
        timed = in_process_passes(sx, workload, seed, seconds, gate, first=first)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics, info = latency_metrics(timed)
    metrics["peak_rss_mib"] = (peak_kib / 1024, "MiB")
    metrics["setup_s"] = (probe_setup_s(workload, seed), "s")
    info["jobs_per_pass"] = timed["jobs_per_pass"]
    return metrics, info


def probe_argv() -> list[str]:
    """The fixed small CLI command that the CLI probes time."""
    return jobs.cli_argv(jobs.variant_spec("cli-cold", jobs.CLI_SLOTS[0], 0), jobs.OUT_DIR / "graphs")


def cli_probes(argv: list[str]) -> dict:
    """Interpreter start, library import and one CLI process, each the
    median of CLI_PROBES fresh processes."""
    runs = {"cli.interpreter_s": [sys.executable, "-c", "pass"],
            "cli.import_s": [sys.executable, "-c", "import simplexopt"],
            "cli.process_s": cli_command(argv)}
    out = {}
    errors = 0
    size = 0
    for name, command in runs.items():
        times = []
        for _ in range(CLI_PROBES):
            code, stdout, _, elapsed = run_child(command)
            errors += code != 0
            size = len(stdout)
            times.append(elapsed)
        out[name] = statistics.median(times)
    out["cli.json_bytes"] = size
    out["cli.errors"] = errors
    return out


def drain_seconds(enumerate_grid, scans: list[tuple[int, int]]) -> float:
    """Time to drain enumerate_grid for each scanned grid."""
    start = perf_counter()
    for n, r in scans:
        for _ in enumerate_grid(n, r):
            pass
    return perf_counter() - start


LAYER_UNITS = {"grid.points_per_s": "1/s", "bounds.satisfied_ratio": "ratio",
               "bernstein.route_agree_ratio": "ratio", "cli.json_bytes": "bytes"}


def layer_unit(name: str) -> str:
    return LAYER_UNITS.get(name) or ("s" if name.endswith(("_s", ".s")) else "count")


def untraced_reference(workload: str, seed: int, seconds: float) -> dict:
    """Result line of an untraced run of the same seed, in a fresh process."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    code, out, err, _ = run_child(command)
    lines = out.decode().strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"untraced reference run failed: {err.decode(errors='replace')[-500:]}")
    return json.loads(lines[-1])


def traced_run(workload: str, seed: int, seconds: float, gate: Gate) -> tuple[dict, dict]:
    half = seconds / 2
    reference = untraced_reference(workload, seed, half)
    gate.attempted += reference["attempted"]
    gate.failed += reference["failed"]
    if reference["failed"]:
        gate.problems.append(f"untraced reference run failed {reference['failed']} jobs")
    untraced_cpu = reference["metrics"]["pass_cpu_s"]["value"]

    sx = import_library()
    recorder = tracing.Recorder()
    absent = recorder.install()
    try:
        if workload == "cli-cold":
            warm_up_cli(seed, gate)
            timed = cli_passes(seed, half, gate, traced=True)
            cli = {"cli.process_s": statistics.median(timed["plain"]),
                   "cli.json_bytes": statistics.median(timed["json_bytes"])}
            probe = cli_probes(probe_argv())
            cli.update({k: probe[k] for k in ("cli.interpreter_s", "cli.import_s")})
            cli["cli.errors"] = timed["errors"]
        else:
            warm_up_in_process(sx, workload, seed, gate)
            timed = in_process_passes(sx, workload, seed, half, gate, recorder=recorder)
            cli = cli_probes(probe_argv())
    finally:
        recorder.uninstall()
    recorder.dump(jobs.OUT_DIR / f"trace-{workload}-seed{seed}.jsonl.gz", timed.get("child_spans", ()))
    enumerate_grid = getattr(sx.grid, "enumerate_grid", None)
    if enumerate_grid is None:
        absent.append("enumerate_grid")

    per_pass = []
    for index, agg in enumerate(timed["aggregates"]):
        metrics = tracing.layer_metrics(agg, absent)
        if enumerate_grid is not None and "grid.scan_s" in metrics:
            metrics["grid.enumerate_s"] = drain_seconds(enumerate_grid, agg["scans"])
        checks, agreed = timed["route"][index] if "route" in timed else (0, 0)
        metrics["bernstein.route_checks"] = checks
        metrics["bernstein.route_agree_ratio"] = agreed / checks if checks else 0.0
        per_pass.append(metrics)
    layer = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    layer.update(cli)
    layer["trace.overhead_s"] = statistics.median(timed["cpus"]) - untraced_cpu
    info = {"passes": len(timed["cpus"]), "absent": absent, "jobs_per_pass": timed["jobs_per_pass"],
            "untraced_pass_cpu_s": untraced_cpu}
    metrics = {name: (value, layer_unit(name)) for name, value in layer.items()}
    return metrics, info


def versions() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"python": platform.python_version(), "numpy": numpy_version, "nproc": os.cpu_count()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "simplexopt" / "__init__.py").is_file():
        print(f"error: no simplexopt sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(setup_probe(args.workload, args.seed)))
        return 0
    gate = Gate(load_goldens(args.workload))
    run = traced_run if args.trace else untraced_run
    metrics, info = run(args.workload, args.seed, args.seconds, gate)
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        **jobs.provenance(args.workload, jobs.pass_jobs(args.workload, args.seed, 0)),
        **info, **versions(),
        "failed_ratio": gate.failed / gate.attempted if gate.attempted else 1.0,
        "problems": gate.problems,
    }
    for problem in gate.problems:
        print(f"gate: {problem}", file=sys.stderr)
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
