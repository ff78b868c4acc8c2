#!/usr/bin/env python3
"""Capture the reference outputs that gate.py compares every pass against.

    python3 benchmarks/capture_reference.py

Runs one pass of each workload with the photonfield in this checkout's
src/ and rewrites reference/<workload>/.  Run it only at a commit whose
outputs are known to be right: the references in the repository were
captured at the commit that added the benchmark, and a change that moves
an output on purpose should say so when it recaptures them.
"""

from __future__ import annotations

import contextlib
import io
import json
import lzma
import shutil
from pathlib import Path

import gate
import worker


def capture(cli, workload: str, scratch: Path) -> None:
    shutil.rmtree(scratch, ignore_errors=True)
    with contextlib.redirect_stdout(io.StringIO()):
        result = worker.run_pass(cli, workload, 0, scratch)
    if any(result["codes"]) or not result.get("sweep_worst", 0.0) <= gate.SWEEP_TOL:
        raise SystemExit(f"{workload}: the pass failed ({result}); no reference written")
    target = gate.REFERENCE / workload
    shutil.rmtree(target, ignore_errors=True)
    for path in sorted(p for p in scratch.rglob("*") if p.is_file()):
        dest = target / path.relative_to(scratch)
        dest.parent.mkdir(parents=True, exist_ok=True)
        if path.name == "report.json":
            records = gate.record_set(json.loads(path.read_text()))
            if not all(r["pass"] for r in records):
                raise SystemExit(f"{workload}: a check failed; no reference written")
            dest.with_suffix(gate.RECORDS_SUFFIX).write_text(json.dumps(records, indent=1) + "\n")
        else:
            data = lzma.compress(path.read_bytes(), preset=9 | lzma.PRESET_EXTREME)
            dest.with_name(dest.name + ".xz").write_bytes(data)
    shutil.rmtree(scratch)


def main() -> None:
    root = worker.HERE.parent
    worker.import_photonfield(root)
    from photonfield import cli

    for workload in worker.WORKLOADS:
        capture(cli, workload, root / ".bench_work" / "capture")
        print(f"{workload}: references written to {gate.REFERENCE / workload}")


if __name__ == "__main__":
    main()
