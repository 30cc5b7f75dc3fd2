from __future__ import annotations

import re
from pathlib import Path

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
