#!/usr/bin/env python3
"""Benchmark harness for photonfield: time to a verified result, end to end and per layer.

    python3 benchmarks/run.py --workload NAME --seed N --seconds T --trace 0|1

NAME is one of the workloads in worker.WORKLOADS, or `all` to run each in
turn.  Run it from anywhere inside a checkout; photonfield is imported
from the checkout's src/ and nothing is installed.

With --trace 0 a run measures the end-to-end metrics: it times
SETUP_PROBES fresh-interpreter set-ups, then repeats the workload's pass
in one fresh worker process for T seconds.  With --trace 1 the worker
runs half of the time untraced and half traced, and the per-layer metrics
are derived from the span file the traced half writes.  Every pass is
checked against the reference outputs in reference/ (see gate.py); a pass
fails on a nonzero exit code, a failed record, an output mismatch or a
classical-sweep residual above gate.SWEEP_TOL.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A fuller record (environment,
every sample, byte-identity flags) goes to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import tracing
from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
RESULTS = WORK / "results"
SETUP_PROBES = 5
# Each workload's run must end well inside the 180 s a run is allowed.
RUN_BUDGET_S = 170.0

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("pass_ratio", "ratio"),
)


class HarnessError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _child(args: list[str], deadline: float, **kwargs) -> subprocess.CompletedProcess:
    """Run worker.py in a fresh interpreter with BLAS capped at the CPUs this process may use."""
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise HarnessError("out of time before starting a worker")
    try:
        return subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args, "--root", str(ROOT)],
            env=env, timeout=remaining, check=True, **kwargs,
        )
    except subprocess.CalledProcessError as err:
        raise HarnessError(f"worker {args[0]} exited with code {err.returncode}") from err
    except subprocess.TimeoutExpired as err:
        raise HarnessError(f"worker {args[0]} ran out of time") from err


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def gate_passes(workload: str, passes: list[dict], seed: int) -> dict:
    """Check every pass; return failures, problems and byte-identity flags."""
    checker = gate.Gate(workload)
    failed, problems = 0, []
    identical: dict[str, bool] = {}
    report_digests = set()
    for p in passes:
        out = Path(p["out"])
        issues = []
        if "error" in p:
            issues.append(p["error"].strip().splitlines()[-1])
        else:
            if any(p["codes"]):
                issues.append(f"exit codes {p['codes']}")
            if "sweep_worst" in p and not p["sweep_worst"] <= gate.SWEEP_TOL:
                issues.append(f"classical sweep residual {p['sweep_worst']!r}")
            found, same = checker.check(out, seed)
            issues += found
            for artifact, flag in same.items():
                identical[artifact] = identical.get(artifact, True) and flag
            report = out / "verify" / "report.json"
            if report.is_file():
                report_digests.add(hashlib.sha256(report.read_bytes()).hexdigest())
        if issues:
            failed += 1
            problems.append(f"pass {p['index']}: " + "; ".join(issues))
    if report_digests:
        identical["verify/report.json (across passes)"] = len(report_digests) == 1
    return {"failed": failed, "problems": problems, "identical": identical}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    stem = f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    work = WORK / stem
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    spans = RESULTS / f"{stem}-spans.json"
    try:
        setup = [] if trace else [
            float(_child(["setup", "--workload", workload], deadline,
                         capture_output=True, text=True).stdout)
            for _ in range(SETUP_PROBES)
        ]
        _child(["passes", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                "--work", str(work), *(["--trace-file", str(spans)] if trace else [])],
               deadline, stdout=subprocess.DEVNULL)
        summary = json.loads((work / "worker.json").read_text())
        passes = summary["passes"]
        checked = gate_passes(workload, passes, seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(passes)
    if trace:
        samples = tracing.derive_metrics(spans, passes)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER_METRICS}
    else:
        samples = {
            "wall_s": [p["wall_s"] for p in passes],
            "cpu_s": [p["cpu_s"] for p in passes],
            "setup_s": setup,
            "peak_rss_mib": [summary["peak_rss_kib"] / 1024.0],
            "pass_ratio": [(attempted - checked["failed"]) / attempted],
        }
        units = dict(END_TO_END)
    result = {
        "workload": workload,
        "attempted": attempted,
        "environment": {**summary["environment"], "git_commit": git_commit(), "seed": seed,
                        "seconds": seconds, "trace": int(trace), "setup_probes": len(setup),
                        "passes": attempted, "traced_passes": sum(p["traced"] for p in passes)},
        "metrics": {name: {"value": statistics.median(samples[name]), "unit": units[name],
                           "samples": samples[name]} for name in units},
        **checked,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1))
    return result


def print_report(result: dict) -> None:
    env = result["environment"]
    print(f"== {result['workload']}: seed {env['seed']}, {env['seconds']} s, trace {env['trace']}, "
          f"{result['attempted']} passes ({env['traced_passes']} traced), "
          f"{result['failed']} failed")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"{'metric':52} {'median':>14} {'unit':6} {'n':>3}  p25 .. p75")
    for name, m in result["metrics"].items():
        values = m["samples"]
        spread = ""
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = f"{q1:.6g} .. {q3:.6g}"
        print(f"{name:52} {m['value']:14.6g} {m['unit']:6} {len(values):3}  {spread}")
    print(f"{'fail_ratio':52} {result['failed'] / result['attempted']:14.6g} {'ratio':6} "
          f"{result['attempted']:3}  (failed passes over attempted)")
    for artifact, same in result["identical"].items():
        print(f"byte-identical {artifact}: {'yes' if same else 'no'}")
    for problem in result["problems"]:
        print(f"FAILED {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; the program gets it modulo 2**32")
    parser.add_argument("--seconds", type=float, default=35.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps the
    # running worker and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "photonfield" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'photonfield'} not found; run inside a photonfield checkout",
              file=sys.stderr)
        return 2
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [run_workload(w, args.seed % 2**32, args.seconds, bool(args.trace))
                   for w in workloads]
    except (HarnessError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    for result in results:
        print_report(result)
    prefix = len(results) > 1
    line = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{name}" if prefix else name): {"value": m["value"], "unit": m["unit"]}
            for r in results for name, m in r["metrics"].items()
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
