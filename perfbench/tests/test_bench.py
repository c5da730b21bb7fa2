"""Tests of the benchmark itself, on shrunken job lists.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import jobs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

CONFIG = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMALL = {
    "scan": ["ptas-q6-r8", "power-d2n6-r8", "stable-n14-r4", "range-c5-r12-big", "general-n4-r20",
             "ptas-c3-r31-big"],
    "bernstein": ["routes-q4-r6", "routes-c3-r20", "mc-c3-r8", "excess-c3-r4-v32",
                  "moments-n3-r6-fresh", "moments-n2-r12-shared"],
    "cli-cold": ["cli-gridmin-q3", "cli-moments-n3"],
}


@pytest.fixture
def small(monkeypatch):
    """Shrunken catalogues, one probe of each kind and a one-pass run."""
    slots = {w: [s for s in jobs.SLOTS[w] if s[0] in names] for w, names in SMALL.items()}
    monkeypatch.setattr(jobs, "SLOTS", slots)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "CLI_PROBES", 1)

    def reference(workload, seed, seconds):
        gate = run.Gate(run.load_goldens(workload))
        metrics, _ = run.untraced_run(workload, seed, seconds, gate)
        return {"attempted": gate.attempted, "failed": gate.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}

    monkeypatch.setattr(run, "untraced_reference", reference)


def result_of(capsys, *argv) -> tuple[int, dict]:
    code = run.main(list(argv))
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


def check_result_line(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert isinstance(emitted["value"], (int, float))


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_end_to_end_metrics_emitted_with_units(small, capsys, workload):
    code, result = result_of(capsys, "--workload", workload, "--seed", "3", "--seconds", "0.01")
    assert code == 0
    check_result_line(result, CONFIG["end_to_end"])
    assert all(result["metrics"][m["name"]]["value"] > 0 for m in CONFIG["end_to_end"])


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_per_layer_metrics_emitted_with_units(small, capsys, workload):
    code, result = result_of(capsys, "--workload", workload, "--seed", "3", "--seconds", "0.01",
                             "--trace", "1")
    assert code == 0
    check_result_line(result, CONFIG["per_layer"])


def test_wrappers_leave_in_process_outputs_identical():
    sx = run.import_library()
    specs = [s for w in ("scan", "bernstein") for s in jobs.pass_jobs(w, 7, 0)
             if s["slot"] in SMALL[w] or s["kind"] == "selftest"]

    def outputs():
        out = []
        for spec in specs:
            job = jobs.prepare(sx, spec)
            out.append(json.dumps(jobs.canonical(spec, jobs.execute(sx, job)), sort_keys=True))
        return out

    plain = outputs()
    recorder = tracing.Recorder()
    assert recorder.install() == []
    try:
        traced = outputs()
    finally:
        recorder.uninstall()
    assert traced == plain
    assert len(recorder.spans) > len(specs)
    assert sx.grid_minimize is sx.grid.grid_minimize  # originals restored


def test_wrappers_leave_cli_bytes_identical(tmp_path):
    for slot in jobs.CLI_SLOTS:
        spec = jobs.variant_spec("cli-cold", slot, 1)
        argv = jobs.cli_argv(spec, jobs.OUT_DIR / "graphs")
        span_file = tmp_path / f"{slot[0]}.json"
        code, out, _, _ = run.run_child([sys.executable, str(BENCH_DIR / "trace_child.py"),
                                         str(span_file), *argv])
        assert code == 0
        assert out == run.load_goldens("cli-cold")[spec["key"]]["stdout"].encode()
        assert json.loads(span_file.read_text())["aggregate"]["calls"]


def test_missing_function_is_reported_absent(monkeypatch):
    sx = run.import_library()
    monkeypatch.delattr(sx.polynomial, "evaluate")
    recorder = tracing.Recorder()
    try:
        assert recorder.install() == ["evaluate"]
    finally:
        recorder.uninstall()
    metrics = tracing.layer_metrics(tracing.aggregate([], {}), recorder.absent)
    assert "polynomial.evaluate_s" not in metrics and "polynomial.evaluate_calls" not in metrics
    assert "grid.scan_s" in metrics


def test_unreadable_result_is_reported_absent(monkeypatch):
    sx = run.import_library()

    def changed(counters, args, kwargs, result):
        raise AttributeError("no attribute 'evaluations'")

    monkeypatch.setitem(tracing.HOOKS, "grid_minimize", changed)
    recorder = tracing.Recorder()
    recorder.install()
    try:
        f = sx.parse_polynomial("x1^2 + x2^2", 2)
        assert sx.grid_minimize(f, 4).value == sx.grid.grid_minimize(f, 4).value
    finally:
        recorder.uninstall()
    assert recorder.absent == ["grid_minimize"]
    assert "grid.scan_s" not in tracing.layer_metrics(recorder.end_pass(), recorder.absent)


@pytest.mark.parametrize("workload", ["scan", "bernstein"])
def test_tampered_golden_value_fails_the_run(small, capsys, monkeypatch, workload):
    goldens = run.load_goldens(workload)
    for key in goldens:
        if key.startswith(SMALL[workload][0] + "/"):
            entry = goldens[key]
            field = "value" if "value" in entry else "values"
            entry[field] = "1/1" if field == "value" else ["1/1"] * len(entry[field])
    monkeypatch.setattr(run, "load_goldens", lambda w: goldens)
    code, result = result_of(capsys, "--workload", workload, "--seed", "3", "--seconds", "0.01")
    assert code != 0
    assert not result["correct"] and result["failed"] > 0


def test_tampered_json_byte_fails_the_run(small, capsys, monkeypatch):
    goldens = run.load_goldens("cli-cold")
    for key, entry in goldens.items():
        if key.startswith("cli-moments-n3/"):
            entry["stdout"] = entry["stdout"].replace('"equal": true', '"equal": True')
    monkeypatch.setattr(run, "load_goldens", lambda w: goldens)
    code, result = result_of(capsys, "--workload", "cli-cold", "--seed", "3", "--seconds", "0.01")
    assert code != 0
    assert result["failed"] > 0


def test_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(CONFIG["command"] + ["--workload", "scan", "--seed", "1", "--seconds", "1",
                                               "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_scaler_uses_the_slices_around_each_job(monkeypatch):
    slices = iter([0.004, 0.006, 0.0025])
    monkeypatch.setattr(run, "speed_slice", lambda: next(slices))
    scaler = run.Scaler()
    reference = run.REFERENCE_SLICE_S
    assert scaler.scale(1.0) == pytest.approx(reference / 0.005)
    assert scaler.scale(3.0) == pytest.approx(3.0 * reference / 0.00425)


def test_seed_fixes_the_inputs():
    assert jobs.pass_jobs("scan", 5, 2) == jobs.pass_jobs("scan", 5, 2)
    assert jobs.pass_jobs("scan", 5, 2) != jobs.pass_jobs("scan", 6, 2)
    # every variant of a slot once in each cycle of passes
    keys = {s["key"] for i in range(jobs.VARIANTS) for s in jobs.pass_jobs("scan", 5, i)
            if s["slot"] == "ptas-q6-r8"}
    assert len(keys) == jobs.VARIANTS
