"""Self-tests of the benchmark: python -m pytest -q bench"""

from __future__ import annotations

import json
import math
import os
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from splineineq.cli import cmd_symbol, cmd_verify, render_record  # noqa: E402

run.checks = checks

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_times_of_a_nested_span_tree():
    # main [0, 10] -> a [1, 4] -> b [2, 3]; main -> a [5, 6]; main -> c [7, 9]
    names = ["main", "a", "b", "c"]
    span_name = [0, 1, 2, 1, 3]
    parent = [-1, 0, 1, 0, 0]
    start = [0.0, 1.0, 2.0, 5.0, 7.0]
    end = [10.0, 4.0, 3.0, 6.0, 9.0]
    calls, self_s = tracing.self_times(span_name, parent, start, end, len(names))
    assert calls.tolist() == [1, 2, 1, 1]
    assert self_s.tolist() == pytest.approx([10 - 3 - 1 - 2, 2 + 1, 1, 2])
    assert self_s.sum() == pytest.approx(10.0)  # self times partition the root


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert per_layer == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for name in [*e2e, *per_layer, *run.WORKLOADS]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    for layer, runs_on in run.LAYER_MAP.items():
        assert set(runs_on) <= set(run.WORKLOADS), layer
        assert all(set(moves) <= set(run.END_TO_END) for moves in runs_on.values()), layer


def _alter(text: str, row: int, column: str, value) -> str:
    lines = text.splitlines()
    obj = json.loads(lines[row + 1])
    obj[column] = value
    lines[row + 1] = json.dumps(obj)
    return "\n".join(lines) + "\n"


def test_audit_check_catches_one_altered_ratio():
    params = {"degree": 6, "order": 3, "spacing": 0.5, "trials": 50, "seed": 3}
    text = render_record(cmd_verify(6, 3, 0.5, 50, 3), "json-lines")
    assert checks.check_audit(checks.parse(text), params, 9) == []
    row = json.loads(text.splitlines()[18])
    bad = _alter(text, 17, "ratio", row["ratio"] * (1 + 1e-8))
    assert any("trial 17" in p for p in checks.check_audit(checks.parse(bad), params, 9))


def test_sweep_checks_catch_one_altered_value():
    wl = run.WORKLOADS["sweep"]
    record = cmd_symbol(12, run.SWEEP_POINTS)
    text = render_record(record, "json-lines")
    reference = checks.load_reference()["sweep"]
    assert checks.check_reference(checks.parse(text), reference) == []
    assert wl.check(checks.parse(text), wl.params(0), 0) == []

    ulp_off = _alter(text, 100, "lattice", math.nextafter(record.rows[100]["lattice"], math.inf))
    assert checks.check_reference(checks.parse(ulp_off), reference) != []
    routes_off = _alter(text, 100, "ef_product", record.rows[100]["ef_product"] * (1 + 1e-6))
    assert wl.check(checks.parse(routes_off), wl.params(0), 0) != []


def test_output_that_does_not_parse_is_caught():
    assert checks.parse("not json\n") is None


def test_traced_child_patches_every_namespace(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    call = run.invoke(["extremal", "--degree", "2", "--n", "5", "--n", "9"],
                      tmp_path, "t", True, env, ROOT / "src")
    assert call["rc"] == 0 and call["setup_s"] > 0
    layers = call["layers"]
    # l2_norm_sq is reached through bernstein's own from-import
    assert layers["norms.l2_norm_sq.calls"] == 4
    assert layers["norms.l2_norm_sq.coeffs"] == 6 + 7 + 10 + 11
    assert layers["bernstein.extremal_ratio.calls"] == 2
    # favard is a submodule shadowed by the function of the same name
    assert layers["favard.favard.calls"] >= 1
    assert layers["cli.render_record.bytes"] == call["out"].stat().st_size
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert layers["trace.attributed_s"] == pytest.approx(self_total)
