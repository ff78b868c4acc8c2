"""Output-correctness gate: one pass's artifacts against the reference outputs.

reference/<workload>/ mirrors a pass's output directory:

  - `<path>.xz` holds the exact bytes of a text artifact (grid.csv,
    vacuum_scan.csv, operator.txt) as written at the commit that captured
    the references.  The pass's file must have the same header line and the
    same table shape, and every value must lie within REL_TOL of the
    reference, relative to the largest magnitude in its column (a column
    that is all zero must stay exactly zero).  Byte identity is reported
    separately and does not fail a pass.
  - `<path>.records.json` holds, for report.json, the record set
    (check, params, tolerance, pass).  The residuals depend on the seed,
    so they are not stored; each must be finite and within its tolerance.

capture_reference.py writes these files.
"""

from __future__ import annotations

import io
import json
import lzma
import math
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-12
# Worst relative residual the classical sweep may report (the acceptance
# bound for boost invariants).
SWEEP_TOL = 1e-9
RECORDS_SUFFIX = ".records.json"


def reference_artifacts(workload: str) -> dict[str, Path]:
    """Artifact path relative to a pass directory -> its reference file."""
    base = REFERENCE / workload
    out = {}
    for ref in sorted(base.rglob("*")):
        rel = ref.relative_to(base).as_posix()
        if rel.endswith(".xz"):
            out[rel[: -len(".xz")]] = ref
        elif rel.endswith(RECORDS_SUFFIX):
            out[rel[: -len(RECORDS_SUFFIX)] + ".json"] = ref
    if not out:
        raise FileNotFoundError(f"no reference outputs under {base}")
    return out


def record_set(report: dict) -> list[dict]:
    keys = ("check", "params", "tolerance", "pass")
    return [{k: r[k] for k in keys} for r in report["records"]]


def _table(text: str) -> tuple[str, np.ndarray]:
    header, _, body = text.partition("\n")
    delimiter = "," if "," in header else None
    return header, np.loadtxt(io.StringIO(body), delimiter=delimiter, ndmin=2)


def compare_table(got: str, ref: str) -> str | None:
    """None when got matches ref numerically, else what differs."""
    got_header, got_rows = _table(got)
    ref_header, ref_rows = _table(ref)
    if got_header != ref_header:
        return f"header {got_header!r} != {ref_header!r}"
    if got_rows.shape != ref_rows.shape:
        return f"table shape {got_rows.shape} != {ref_rows.shape}"
    scale = np.max(np.abs(ref_rows), axis=0) if ref_rows.size else np.zeros(0)
    err = np.abs(got_rows - ref_rows)
    bad = ~(err <= REL_TOL * scale)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        return (f"{int(bad.sum())} values off; first at row {row} column {col}: "
                f"{float(got_rows[row, col])!r} != {float(ref_rows[row, col])!r}")
    return None


def compare_report(got: dict, ref_records: list[dict], seed: int) -> str | None:
    if got.get("seed") != seed:
        return f"seed {got.get('seed')!r} != {seed}"
    records = record_set(got)
    if len(records) != len(ref_records):
        return f"{len(records)} records != {len(ref_records)}"
    for g, r, full in zip(records, ref_records, got["records"]):
        if (g["check"], g["params"], g["pass"]) != (r["check"], r["params"], r["pass"]):
            return f"record {g} != {r}"
        if abs(g["tolerance"] - r["tolerance"]) > REL_TOL * abs(r["tolerance"]):
            return f"{g['check']}: tolerance {g['tolerance']!r} != {r['tolerance']!r}"
        residual = full["residual"]
        if not (full["pass"] and math.isfinite(residual) and residual <= full["tolerance"]):
            return f"{g['check']}: residual {residual!r} exceeds tolerance {full['tolerance']!r}"
    return None


class Gate:
    """Checks the passes of one workload; reference files are read once."""

    def __init__(self, workload: str):
        self.references = {}
        for artifact, path in reference_artifacts(workload).items():
            if path.name.endswith(RECORDS_SUFFIX):
                self.references[artifact] = json.loads(path.read_text())
            else:
                self.references[artifact] = lzma.decompress(path.read_bytes())

    def check(self, out_dir: Path, seed: int) -> tuple[list[str], dict[str, bool]]:
        """(problems, byte identity per text artifact) of one pass's outputs."""
        problems, identical = [], {}
        for artifact, ref in self.references.items():
            path = out_dir / artifact
            if not path.is_file():
                problems.append(f"{artifact}: missing")
                continue
            data = path.read_bytes()
            if isinstance(ref, list):
                problem = compare_report(json.loads(data), ref, seed)
            else:
                identical[artifact] = data == ref
                problem = None if data == ref else compare_table(data.decode(), ref.decode())
            if problem:
                problems.append(f"{artifact}: {problem}")
        return problems, identical
