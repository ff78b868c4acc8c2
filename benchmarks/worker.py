"""Child process of the photonfield benchmark: set-up probes and timed passes.

run.py starts this file in a fresh interpreter; it is not meant to be run
by hand.  Two modes:

    worker.py setup  --root ROOT --workload NAME
        Print the seconds spent importing photonfield, parsing the
        workload's scenario, building its basis and building its state.

    worker.py passes --root ROOT --workload NAME --seed N --seconds T
                     --work DIR [--trace-file FILE]
        Repeat the workload's pass until T seconds are spent (at least
        MIN_PASSES passes), each writing its outputs under DIR/pass-<i>/,
        and write a JSON summary to DIR/worker.json.  With --trace-file,
        half of the time runs untraced and half traced, and the spans are
        written to FILE at the end.

Only the standard library is imported at module level, so that the set-up
probe times the import of photonfield and of numpy/scipy it pulls in.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SCENARIOS = HERE / "scenarios"

# Scenario file of each workload; None selects the CLI's built-in scenario.
WORKLOADS = {
    "verify-default": None,
    "verify-12m": SCENARIOS / "verify-12m.json",
    "emit-8m": SCENARIOS / "emit-8m.json",
}
EX_OPERATOR = "Ex@0.3,-0.2,0.15,0.1"
SWEEP_PHOTONS = 1000
MIN_PASSES = 2


def import_photonfield(root: Path):
    """Import photonfield from ROOT/src, refusing any other copy."""
    sys.path.insert(0, str(root / "src"))
    import photonfield

    origin = Path(photonfield.__file__).resolve()
    if (root / "src") not in origin.parents:
        raise SystemExit(f"photonfield was imported from {origin}, not from {root / 'src'}")
    return photonfield


def time_setup(root: Path, workload: str) -> float:
    start = time.perf_counter()
    import_photonfield(root)
    from photonfield import cli, fock

    config = WORKLOADS[workload]
    scenario = cli.load_scenario(None if config is None else str(config))
    basis = fock.build_basis(scenario.lattice)
    cli.build_state(scenario, basis)
    return time.perf_counter() - start


def pass_commands(workload: str, seed: int, out: Path) -> list[list[str]]:
    """The CLI invocations of one pass; each writes under its own directory."""
    config = WORKLOADS[workload]
    common = [] if config is None else ["--config", str(config)]
    if workload != "emit-8m":
        return [["verify", *common, "--out", str(out / "verify"), "--seed", str(seed)]]
    return [
        ["expect", *common, "--out", str(out / "expect")],
        ["vacuum-scan", *common, "--out", str(out / "vacuum-scan")],
        ["dump-operator", *common, "--out", str(out / "Ex"), "--operator", EX_OPERATOR],
        ["dump-operator", *common, "--out", str(out / "H"), "--operator", "H"],
    ]


def classical_sweep(seed: int) -> float:
    """Boost SWEEP_PHOTONS seeded random photons; return the worst relative residual.

    The residuals are the two null invariants before and after the boost,
    the antisymmetry of the boosted tensor, |e| = omega and E = c|P|, each
    relative to omega^2 (or omega, or E).  Calls go through the module
    attributes so that traced wrappers see them.
    """
    import numpy as np

    from photonfield import classical, polarization

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(SWEEP_PHOTONS):
        k = rng.standard_normal(3)
        omega = float(rng.uniform(0.5, 3.0))
        photon = classical.ClassicalPhoton(
            omega=omega,
            k=polarization.Direction(k=k / np.linalg.norm(k)),
            s=int(rng.choice([1, -1])),
            theta=float(rng.uniform(0.0, 2.0 * math.pi)),
        )
        e, b = classical.rotating_vectors(photon, float(rng.uniform(0.0, 6.0)))
        tensor = classical.build_tensor(e, b)
        axis = rng.standard_normal(3)
        boosted = classical.boost(tensor, rng.uniform(0.0, 0.9) * axis / np.linalg.norm(axis))
        energy, momentum, _ = classical.kinematics(photon)
        scale = omega**2
        worst = max(
            worst,
            *(abs(v) / scale for v in classical.null_residuals(tensor)),
            *(abs(v) / scale for v in classical.null_residuals(boosted)),
            float(np.max(np.abs(boosted.f + boosted.f.T))) / scale,
            abs(float(np.linalg.norm(e)) - omega) / omega,
            abs(energy - photon.c * float(np.linalg.norm(momentum))) / energy,
        )
    return worst


def run_pass(cli, workload: str, seed: int, out: Path) -> dict:
    codes = [cli.main(argv) for argv in pass_commands(workload, seed, out)]
    result = {"codes": codes}
    if workload == "emit-8m":
        result["sweep_worst"] = classical_sweep(seed)
    return result


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "processor": platform.processor() or "unknown",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def run_passes(args: argparse.Namespace) -> None:
    import_photonfield(args.root)
    from photonfield import cli

    from tracing import Tracer

    tracer = Tracer() if args.trace_file else None
    passes: list[dict] = []

    def loop(budget: float, traced: bool) -> None:
        start = time.perf_counter()
        count = 0
        while count < MIN_PASSES or time.perf_counter() - start < budget:
            index = len(passes)
            out = args.work / f"pass-{index}"
            if traced:
                tracer.begin_pass(index)
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                result = run_pass(cli, args.workload, args.seed, out)
            except Exception:
                traceback.print_exc()
                result = {"error": traceback.format_exc(limit=3)}
            cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
            if traced:
                tracer.end_pass()
            passes.append({"index": index, "out": str(out), "traced": traced,
                           "wall_s": wall, "cpu_s": cpu, **result})
            count += 1

    if tracer is None:
        loop(args.seconds, traced=False)
    else:
        loop(args.seconds / 2.0, traced=False)
        with tracer.installed():
            loop(args.seconds / 2.0, traced=True)
        tracer.write(args.trace_file)
    summary = {
        "passes": passes,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "environment": environment(),
    }
    (args.work / "worker.json").write_text(json.dumps(summary))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "passes"))
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--work", type=Path)
    parser.add_argument("--trace-file", type=Path)
    args = parser.parse_args()
    if args.mode == "setup":
        print(repr(time_setup(args.root, args.workload)))
    else:
        run_passes(args)


if __name__ == "__main__":
    main()
