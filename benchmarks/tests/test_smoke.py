"""Smoke test of the benchmark harness: every workload once, at minimal length.

    python3 -m pytest benchmarks/tests -q

For --trace 0 and --trace 1 it runs every harness workload with
--seconds 0 (the minimum number of passes) and checks that every metric
BENCHMARK.json names is emitted with its unit for each of them, and that
no pass fails.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "benchmarks"))
from worker import WORKLOADS  # noqa: E402  (all harness workloads, a superset of SPEC's)


def test_listed_workloads_exist_in_the_harness():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_and_no_pass_fails(trace, section):
    out = subprocess.run(
        [sys.executable, str(ROOT / SPEC["command"][1]), "--workload", "all", "--seed", "7",
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, out.stdout
    assert result["correct"]
    assert result["attempted"] >= 2 * len(WORKLOADS)
    expected = {f"{w}.{m['name']}": m["unit"] for w in WORKLOADS for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert out.stdout.count("\nfail_ratio ") == len(WORKLOADS)
    if trace == 0:
        assert all(result["metrics"][f"{w}.pass_ratio"]["value"] == 1.0 for w in WORKLOADS)
