"""Tests of the benchmark itself, run from the repository root:

    python3 -m pytest perfbench

The count test runs every workload traced twice (a few minutes).
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import workloads
from tracing import TRACED, SpanIndex, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((HERE / "layers.json").read_text())
HARNESS_METRICS = {"trace.overhead_s": "s", "trace.coverage": "ratio"}


def test_metric_names_agree_across_benchmark_layer_map_and_tracer():
    emitted = {name: unit for name, (_, unit) in layer_metrics([]).items()}
    emitted.update(HARNESS_METRICS)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == emitted
    assert [m["name"] for m in LAYERS["per_layer"]] == list(declared)
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(workloads.WORKLOADS) == list(LAYERS["workloads"])


def test_traced_functions_exist():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import importlib

        for qualname in TRACED:
            module, name = qualname.split(".")
            assert callable(getattr(importlib.import_module(f"theta_amoeba.{module}"), name))
    finally:
        sys.path.remove(str(ROOT / "src"))


def _span(name, start, end, parent=None, **counts):
    return {"name": name, "start": start, "end": end, "parent": parent, **counts}


def test_inclusive_self_time_and_repeats():
    spans = [
        _span("metrics.omega_k_field", 0.0, 10.0, points=4, key="a"),
        _span("theta.distortion_fk", 1.0, 4.0, parent=0, points=72),
        _span("theta.distortion_fk", 5.0, 9.0, parent=0, points=0),
        _span("metrics.omega_k_field", 10.0, 11.0, points=4, key="a"),
        _span("theta.distortion_fk", 11.0, 12.0, points=5),
    ]
    ix = SpanIndex(spans)
    assert ix.inclusive("theta.distortion_fk") == pytest.approx(8.0)
    assert ix.self_time("metrics.omega_k_field") == pytest.approx(3.0 + 1.0)
    assert ix.repeat_frac("metrics.omega_k_field") == 0.5
    assert ix.top_level_seconds() == pytest.approx(12.0)
    m = layer_metrics(spans)
    assert m["metrics.fk_evals_per_field_point"][0] == 72 / 8
    assert m["theta.fk_points"][0] == 77


def test_nested_calls_of_one_function_count_once():
    spans = [_span("theta.section_gauge_values", 0.0, 5.0), _span("theta.section_gauge_values", 1.0, 2.0, parent=0)]
    assert SpanIndex(spans).inclusive("theta.section_gauge_values") == pytest.approx(5.0)


def test_nan_in_json_fails_the_strict_check(tmp_path):
    path = tmp_path / "summary.json"
    path.write_text('{"results": {"1": {"balanced_rel_dev": NaN}}}')
    checks = workloads.Checks()
    data = workloads._load_json(checks, path)
    assert [c["ok"] for c in checks.results] == [False]
    assert data["results"]["1"]["balanced_rel_dev"] != data["results"]["1"]["balanced_rel_dev"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gram", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="theta-amoeba gram writes balanced_rel_dev = NaN at k = 1 (ROADMAP item 5); "
    "once this passes, put k = 1 back into the gram workload",
)
def test_gram_checks_pass_at_k1(tmp_path):
    w = workloads.GRAM_K1
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    workloads.write_inputs(w, 0, inputs)
    proc = subprocess.run(
        [sys.executable, "-m", "theta_amoeba.cli", *w.argv(inputs, out, 0)],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True, timeout=120,
    )
    checks = workloads.Checks()
    checks.add("cli exit code is 0", proc.returncode == 0, proc.returncode)
    summary = workloads._load_json(checks, out / "summary.json")["results"]
    workloads.check_gram_cli(checks, w, out, summary)
    assert [c["name"] for c in checks.results if not c["ok"]] == []


# counts that must repeat exactly between two traced runs at one seed
COUNTS = [m["name"] for m in BENCHMARK["per_layer"] if m["unit"] != "s" and not m["name"].startswith("trace.")]

# values stated for this program version; a change that alters them must say why
KNOWN = {
    "converge-n1": {"metrics.fk_evals_per_field_point": 18.0, "metrics.omega_k_field.repeat_frac": 0.5},
    "amoeba-n1": {"amoeba.sample_points": 2304 + 292, "amoeba.unique_frac": (2304 + 292) / (256**2 * 2)},
    "gram": {"metrics.fk_evals_per_field_point": 18.0},
    "peak-n1": {"quantization.fiber_coefficients.calls": 54},
}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_counts_repeat_between_traced_runs(name, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    workloads.write_inputs(workloads.WORKLOADS[name], 7, tmp_path / "inputs")
    counts = []
    for i in range(2):
        out = tmp_path / f"traced{i}"
        run.spawn(name, tmp_path / "inputs", out, 7, "trace", time.monotonic() + run.RUN_LIMIT_S)
        metrics = layer_metrics(json.loads((out / "spans.json").read_text()))
        counts.append({c: metrics[c][0] for c in COUNTS})
    assert counts[0] == counts[1]
    for metric, value in KNOWN[name].items():
        assert counts[0][metric] == pytest.approx(value, rel=1e-12)
