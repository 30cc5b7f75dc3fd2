from __future__ import annotations

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import splineineq

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_imports_are_exported():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"from splineineq import \(([^)]*)\)", text)
    blocks += re.findall(r"from splineineq import ([^(\n]+)\n", text)
    names = {n.strip() for block in blocks for n in block.split(",") if n.strip()}
    assert names, "README imports nothing from splineineq"
    assert names <= set(splineineq.__all__), names - set(splineineq.__all__)


def test_readme_library_block_runs():
    """README's Library block runs, and each expression in it gives the
    value its comment starts with ("0.9985..." standing for that prefix)."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library\n\n```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace: dict = {}
    shown = []
    for node in ast.parse(block).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README", "eval"), namespace)
        comment = lines[node.end_lineno - 1].split("#", 1)[1]
        want = re.match(r"\s*([^\s,:]+)", comment).group(1).rstrip(".")
        assert repr(value).startswith(want), (ast.unparse(node), value)
        shown.append(want)
    assert shown == ["3.14362", "True", "0.9985", "9.999999999999998"]


def test_all_names_resolve():
    for name in splineineq.__all__:
        assert hasattr(splineineq, name), name


LAYERS = sorted(
    info.name
    for info in pkgutil.iter_modules(splineineq.__path__)
    if not info.name.startswith("_")
)


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_all_names_resolve(layer):
    # import_module, not getattr on the package: splineineq.favard is the
    # function of that name
    mod = importlib.import_module(f"splineineq.{layer}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, missing


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # numpy loads numpy.random on first use; only verify needs it
    code = "import sys, splineineq.cli; print('numpy.random' in sys.modules)"
    src = str(Path(splineineq.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert out.stdout == "False\n"
