"""Benchmark entry point: run one workload, check its outputs, print metrics.

From the root of a source checkout:

    python3 perfbench/run.py --workload converge-n1 --seed 1 --seconds 10 --trace 0

Every repetition runs in a fresh child process whose BLAS thread count is
fixed through its environment before numpy loads. Repetitions continue
until ``--seconds`` have passed (at least one). With ``--trace 0`` the run
reports the end-to-end metrics ``wall_s`` (median time from inputs ready
to the last artifact written), ``setup_s`` (median time from child start
to program imported and inputs built, over several children) and
``peak_rss_mb`` (median child peak RSS). With ``--trace 1`` it runs one
more, traced repetition and reports the per-layer metrics of
``tracing.layer_metrics`` plus the tracing overhead and span coverage.
Outputs are checked after each repetition; ``fail_frac`` is failed checks
over checks attempted. ``--workload all`` runs every workload in turn.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(environment, samples, every check) goes to .perfbench/<workload>/record.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from tracing import SpanIndex, layer_metrics
from workloads import WORKLOADS, check, write_inputs

HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# one BLAS thread: within nproc on any machine and steadiest on a shared one
BLAS_THREADS = 1
# set-up samples per run: the workload child's own plus set-up-only children
SETUP_SAMPLES = 3
# a run must finish well inside the 180 s a caller allows it
RUN_LIMIT_S = 170.0
MIN_COVERAGE = 0.9


class BenchError(Exception):
    pass


def git_sha(root: Path):
    """HEAD commit read from .git without leaving the checkout, or None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def spawn(name: str, inputs: Path, out: Path, seed: int, mode: str, deadline: float) -> dict:
    out.mkdir(parents=True)
    env = dict(os.environ, **{var: str(BLAS_THREADS) for var in THREAD_VARS})
    env.pop("THETA_AMOEBA_THREADS", None)
    argv = [sys.executable, str(HERE / "child.py"), name, str(inputs), str(out), str(seed), mode]
    start = time.monotonic()
    with open(out / "child.log", "w") as log:
        proc = subprocess.run(
            argv, env=env, stdout=log, stderr=subprocess.STDOUT, timeout=max(1.0, deadline - start)
        )
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited with {proc.returncode}; see {out / 'child.log'}")
    result = json.loads((out / "result.json").read_text())
    result["setup_s"] = result.pop("setup_done") - start
    return result


def bench(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[name]
    deadline = time.monotonic() + RUN_LIMIT_S
    work = Path.cwd() / ".perfbench" / name
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    write_inputs(w, seed, inputs)
    setups, walls, rss, checks, threads = [], [], [], [], set()

    if not trace:
        for i in range(SETUP_SAMPLES - 1):
            r = spawn(name, inputs, work / f"setup{i}", seed, "setup", deadline)
            setups.append(r["setup_s"])
    start = time.monotonic()
    while not walls or time.monotonic() - start < seconds:
        out = work / f"rep{len(walls)}"
        r = spawn(name, inputs, out, seed, "run", deadline)
        setups.append(r["setup_s"])
        walls.append(r["wall_s"])
        rss.append(r["peak_rss_mb"])
        threads.add(r["blas_threads"])
        checks += check(w, out, r["cli_code"]).results

    if trace:
        out = work / "traced"
        r = spawn(name, inputs, out, seed, "trace", deadline)
        checks += check(w, out, r["cli_code"]).results
        spans = json.loads((out / "spans.json").read_text())
        coverage = SpanIndex(spans).top_level_seconds() / r["wall_s"]
        checks.append(
            {"name": f"top-level spans cover >= {MIN_COVERAGE} of traced wall_s",
             "ok": coverage >= MIN_COVERAGE, "detail": str(coverage)}
        )
        metrics = layer_metrics(spans)
        metrics["trace.overhead_s"] = (r["wall_s"] - statistics.median(walls), "s")
        metrics["trace.coverage"] = (coverage, "ratio")
        samples = {"traced_wall_s": [r["wall_s"]], "wall_s": walls}
    else:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
        }
        samples = {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss}

    failed = sum(not c["ok"] for c in checks)
    record = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "git_sha": git_sha(Path.cwd()),
        "nproc": os.cpu_count(),
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "blas_threads": {"env": {var: str(BLAS_THREADS) for var in THREAD_VARS},
                         "openblas_reports": sorted(threads, key=str)},
        "samples": samples,
        "sample_counts": {k: len(v) for k, v in samples.items()},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": len(checks),
        "failed": failed,
        "checks": checks,
    }
    (work / "record.json").write_text(json.dumps(record, indent=2))
    return record


def report(record: dict) -> None:
    print(
        f"{record['workload']}: seed={record['seed']} trace={int(record['trace'])}"
        f" git={record['git_sha'] or 'unknown'} nproc={record['nproc']}"
        + "".join(f" {k}={v}" for k, v in record["versions"].items())
        + f" blas_threads={record['blas_threads']['openblas_reports']}"
        f" (env {BLAS_THREADS})"
    )
    counts = record["sample_counts"]
    for name, m in record["metrics"].items():
        source = f"median of {counts[name]}" if name in counts else "one traced run"
        print(f"  {name:42s} {m['value']:>16.6g} {m['unit']:6s} ({source})")
    frac = record["failed"] / record["attempted"]
    print(f"  {'fail_frac':42s} {frac:>16.6g} {'ratio':6s} "
          f"({record['failed']} of {record['attempted']} checks failed)")
    for c in record["checks"]:
        if not c["ok"]:
            print(f"    FAILED {c['name']}: {c['detail']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (Path.cwd() / "src" / "theta_amoeba" / "__init__.py").is_file():
        print("perfbench: run from the root of a theta-amoeba checkout (no src/theta_amoeba here)",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        records = [bench(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for record in records:
        report(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in records for k, m in r["metrics"].items()}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
