"""Import boundaries: the package needs nothing past the standard library,
and `qtsym eval` starts without the combinatorics it does not use."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import qtsym

PACKAGE = Path(qtsym.__file__).parent


def _imported_names(path: Path) -> set[str]:
    """Top-level names of the absolute imports; relative ones are qtsym."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            names.add("qtsym" if node.level else node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
    return names


def test_every_module_imports_only_the_standard_library_and_qtsym():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    for path in modules:
        for name in _imported_names(path):
            assert name == "qtsym" or name in sys.stdlib_module_names, path.name


def test_cli_eval_leaves_ribbons_llt_and_rigged_unimported():
    script = (
        "import sys\n"
        "from qtsym.cli import main\n"
        "code = main(['eval', 'to_m(McdP[2,1])'])\n"
        "print(code, *sorted(sys.modules))\n"
    )
    path = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])
    )
    run = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    code, *loaded = run.stdout.splitlines()[-1].split()
    assert code == "0" and "qtsym.algebra" in loaded
    assert not {"qtsym.ribbons", "qtsym.llt", "qtsym.rigged"} & set(loaded)
