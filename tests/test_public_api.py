"""The public names that the benchmark tracer and the README rely on."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_traced_name_exists():
    # benchmarks/tracing.py looks each TRACED name up with getattr when a
    # traced run starts; a missing name would fail only that run.
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "benchmarks" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, names in tracing.TRACED.items():
        module = importlib.import_module(f"photonfield.{layer}")
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert not missing, f"photonfield.{layer} lacks {missing}"


def test_readme_quick_start_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md quick start", "exec"), {})
    assert capsys.readouterr().out.strip()
