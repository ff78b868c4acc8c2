"""Commands that build no operator leave scipy unimported, each in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# Each snippet runs in a new process and ends by printing the scipy modules it loaded.
SNIPPETS = {
    "import": "import photonfield.cli",
    "expect": "from photonfield import cli\nassert cli.main(['expect', '--out', 'out']) == 0",
    "vacuum-scan": "from photonfield import cli\nassert cli.main(['vacuum-scan', '--out', 'out']) == 0",
    "parse-error": "from photonfield import cli\nassert cli.main(['verify', '--config', 'bad.json', '--out', 'out']) == 2",
}


@pytest.mark.parametrize("name", SNIPPETS)
def test_command_without_an_operator_does_not_import_scipy(tmp_path, name):
    bad = {"schema": 1, "lattice": {}, "state": {}, "checks": [], "seed": 0}
    (tmp_path / "bad.json").write_text(json.dumps(bad))
    code = SNIPPETS[name] + "\nimport sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
