from __future__ import annotations

import importlib
import pkgutil
import re
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
