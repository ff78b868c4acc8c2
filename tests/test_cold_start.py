"""Every command but verify leaves scipy unimported, each in a fresh interpreter."""

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
    modules = _scipy_modules(tmp_path, "from photonfield import cli\nassert cli.main(['verify', '--out', 'out']) == 0")
    assert "scipy.sparse" in modules