"""Fresh interpreters: every command but verify leaves scipy unimported, verify loads
scipy's CSR kernels without the scipy.sparse package, and verify keeps to one CPU."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import DUMP_OPERATORS

ROOT = Path(__file__).resolve().parent.parent

# Each snippet runs in a new process and ends by printing the scipy modules it loaded.
SNIPPETS = {
    "import": "import photonfield.cli",
    "expect": "from photonfield import cli\nassert cli.main(['expect', '--out', 'out']) == 0",
    "vacuum-scan": "from photonfield import cli\nassert cli.main(['vacuum-scan', '--out', 'out']) == 0",
    "parse-error": "from photonfield import cli\nassert cli.main(['verify', '--config', 'bad.json', '--out', 'out']) == 2",
}


def _scipy_modules(tmp_path, snippet) -> list[str]:
    bad = {"schema": 1, "lattice": {}, "state": {}, "checks": [], "seed": 0}
    (tmp_path / "bad.json").write_text(json.dumps(bad))
    code = snippet + "\nimport sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", SNIPPETS)
def test_command_without_an_operator_does_not_import_scipy(tmp_path, name):
    assert _scipy_modules(tmp_path, SNIPPETS[name]) == []


@pytest.mark.parametrize("name", DUMP_OPERATORS)
def test_dump_operator_does_not_import_scipy(tmp_path, name):
    # Each operator is written as CSR rows and exported from its arrays.
    snippet = f"from photonfield import cli\nassert cli.main(['dump-operator', '--out', 'out', '--operator', {name!r}]) == 0"
    assert _scipy_modules(tmp_path, snippet) == []


def test_verify_imports_scipy(tmp_path):
    # The positive control: the probe sees scipy where a command does load it.
    # verify calls scipy's compiled CSR kernels, loaded by fock from their own
    # file, and imports no module of the scipy.sparse package.
    snippet = (
        "from pathlib import Path\n"
        "from photonfield import cli, fock\n"
        "assert cli.main(['verify', '--out', 'out']) == 0\n"
        "assert fock._sparsetools.cache_info().currsize == 1\n"
        "kernels = Path(fock._sparsetools().__file__)\n"
        "assert (kernels.parent.name, kernels.name.split('.')[0]) == ('sparse', '_sparsetools'), kernels"
    )
    modules = _scipy_modules(tmp_path, snippet)
    assert "scipy" in modules
    assert [m for m in modules if m == "scipy.sparse" or m.startswith("scipy.sparse.")] == []


# Run in fresh interpreters: fock loads scipy's kernels by file unless
# scipy.sparse is already imported, and the package must work after that.
KERNELS_FIRST = """
import sys
import numpy as np
from photonfield import cli, fock
assert cli.main(["verify", "--out", "first"]) == 0
assert fock._sparsetools.cache_info().currsize == 1 and "scipy.sparse" not in sys.modules
import scipy.sparse as sp
assert callable(sp._sparsetools.csr_matmat)
config = fock.LatticeConfig(length=5.0, n_max=2, modes=((1, (0, 0, 1)), (-1, (1, 0, 0)), (1, (0, -1, 1))))
basis, rng = fock.build_basis(config), np.random.default_rng(3)
x = fock.ladder_sum(basis, rng.normal(size=6) + 1j * rng.normal(size=6))
y = fock.ladder_products(basis, rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
for a, b in [(x, y), (y, x), (y, y)]:
    ours, theirs = fock._product(a.arrays, b.arrays, basis.dim, basis.dim), a.matrix @ b.matrix
    assert theirs.nnz == len(ours[0]) > 0
    assert all(mine.tobytes() == arr.tobytes() for mine, arr in zip(ours, (theirs.data, theirs.indices, theirs.indptr)))
"""

PACKAGE_FIRST = """
import scipy.sparse as sp
from photonfield import cli, fock
assert cli.main(["verify", "--out", "second"]) == 0
assert fock._sparsetools() is sp._sparsetools
"""


def test_kernels_and_scipy_sparse_in_either_import_order(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for code in (KERNELS_FIRST, PACKAGE_FIRST):
        done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
    assert (tmp_path / "first/report.json").read_bytes() == (tmp_path / "second/report.json").read_bytes()


# Run in a fresh interpreter: one verify pass, a wait until no thread but the
# main one uses CPU, then the CPU time of the whole process and of its main
# thread over three more passes, and that of each thread ("<id> <name>":
# seconds, in the clock ticks of /proc/self/task/*/stat).
ONE_CPU = """
import contextlib, io, json, os, sys, threading, time
from pathlib import Path
from photonfield import cli
def threads():
    ticks, out = os.sysconf("SC_CLK_TCK"), {}
    for stat in Path("/proc/self/task").glob("*/stat"):
        name, _, fields = stat.read_text().partition(" (")[2].rpartition(") ")
        utime, stime = fields.split()[11:13]
        out[f"{stat.parent.name} {name}"] = (int(utime) + int(stime)) / ticks
    return out
def others():
    main = f"{threading.get_native_id()} "
    return sum(seconds for thread, seconds in threads().items() if not thread.startswith(main))
args = ["verify", "--out", "out", *sys.argv[1:]]
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(args) == 0
    for _ in range(20):
        idle = others()
        time.sleep(0.1)
        if others() == idle:
            break
    before, process, main = threads(), time.process_time(), time.thread_time()
    for _ in range(3):
        assert cli.main(args) == 0
    after = threads()
print(time.process_time() - process, time.thread_time() - main)
print(json.dumps({thread: round(after[thread] - before.get(thread, 0.0), 3) for thread in after}))
"""


@pytest.mark.parametrize("config", [None, "benchmarks/scenarios/verify-12m.json"], ids=["built-in", "verify-12m"])
def test_verify_keeps_to_one_cpu(tmp_path, config):
    # BLAS may run one thread per CPU: a call that hands it work, or leaves its
    # threads spinning, shows as CPU time of threads other than the main one,
    # whether or not a second CPU is free to run them.  The passes are timed
    # only once those threads are idle: numpy's import starts OpenBLAS's
    # threads, and each spins for 2**28 clock cycles (0.13 s at 2.1 GHz) after
    # it starts or ends a task, which can outlast the import and the first pass.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), str(os.cpu_count())))
    args = [] if config is None else ["--config", str(ROOT / config)]
    done = subprocess.run([sys.executable, "-c", ONE_CPU, *args], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    times, threads = done.stdout.splitlines()
    process, main = map(float, times.split())
    assert process <= 1.15 * main, f"{process:.3f} s of CPU, {main:.3f} s of it in the main thread; by thread {threads}"
