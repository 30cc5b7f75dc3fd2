"""Correctness checks on the records the benchmark's CLI runs write.

Each ``check_*`` returns a list of problems; an empty list means the output
is correct.  The package under test must be importable (run.py puts the
checkout's ``src`` on the path first).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from splineineq.bspline import CardinalSpline
from splineineq.cli import parse_record
from splineineq.norms import derivative_coeffs, l2_norm_sq_quadrature

REFERENCE_PATH = Path(__file__).with_name("reference.json")

AUDIT_SAMPLE = 64  # trials per audit output re-derived by quadrature
QUADRATURE_RTOL = 1e-9
ROUTE_RTOL = 1e-10
ROUTES = ("fourier", "lattice", "ef_product")


def row_digest(rows: list[dict], columns: list[str]) -> str:
    """SHA-256 of the given columns of every row, with exact float reprs."""
    h = hashlib.sha256()
    for row in rows:
        h.update(repr([row.get(c) for c in columns]).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def reference_entry(record) -> dict:
    columns = sorted(record.rows[0]) if record.rows else []
    return {
        "parameters": record.parameters,
        "rows": len(record.rows),
        "columns": columns,
        "sha256": row_digest(record.rows, columns),
    }


def check_reference(record, ref: dict) -> list[str]:
    """Row values equal the committed reference; added columns are allowed."""
    if len(record.rows) != ref["rows"]:
        return [f"reference: {len(record.rows)} rows, expected {ref['rows']}"]
    missing = [c for c in ref["columns"] if record.rows and c not in record.rows[0]]
    if missing:
        return [f"reference: columns {missing} missing"]
    if row_digest(record.rows, ref["columns"]) != ref["sha256"]:
        return ["reference: row values differ from the committed reference"]
    return []


def _parameters(record, expected: dict) -> list[str]:
    got = {k: record.parameters.get(k) for k in expected}
    return [] if got == expected else [f"parameters {got}, expected {expected}"]


def check_audit(record, expected: dict, sample_seed: int) -> list[str]:
    problems = _parameters(record, expected)
    trials, seed = expected["trials"], expected["seed"]
    m, k, spacing = expected["degree"], expected["order"], expected["spacing"]
    rows = record.rows
    if len(rows) != trials + 1:
        return problems + [f"{len(rows)} rows, expected {trials + 1}"]
    summary, trial_rows = rows[-1], rows[:-1]
    if summary.get("kind") != "summary" or summary.get("satisfied") is not True:
        problems.append(f"summary row does not report satisfied: {summary}")
    # the documented streams: counts from default_rng(seed), trial i from
    # default_rng(seed + i + 1)
    counts = np.random.default_rng(seed).integers(1, 41, size=trials)
    if [r["coeff_count"] for r in trial_rows] != counts.tolist():
        problems.append("coefficient counts differ from the master stream")
        return problems
    if max(r["ratio"] for r in trial_rows) != summary.get("ratio"):
        problems.append("summary ratio is not the largest trial ratio")
    picks = np.random.default_rng(sample_seed).choice(
        trials, size=min(AUDIT_SAMPLE, trials), replace=False
    )
    for i in sorted(int(p) for p in picks):
        coeffs = np.random.default_rng(seed + i + 1).uniform(-1.0, 1.0, size=int(counts[i]))
        s = CardinalSpline(degree=m, knot_spacing=spacing, coeffs=coeffs)
        ratio = math.sqrt(
            l2_norm_sq_quadrature(derivative_coeffs(s, k)) / l2_norm_sq_quadrature(s)
        )
        if not abs(rows[i]["ratio"] - ratio) <= QUADRATURE_RTOL * ratio:
            problems.append(f"trial {i}: ratio {rows[i]['ratio']!r}, quadrature {ratio!r}")
    return problems


def check_sweep(record, expected: dict) -> list[str]:
    problems = _parameters(record, expected)
    rows = record.rows
    if len(rows) != expected["points"]:
        return problems + [f"{len(rows)} rows, expected {expected['points']}"]
    for i, row in enumerate(rows):
        vals = [row[r] for r in ROUTES]
        if not max(vals) - min(vals) <= ROUTE_RTOL * max(abs(v) for v in vals):
            problems.append(f"row {i}: routes disagree: {vals}")
            break
    argmax = [row["omega"] for row in rows if row.get("is_argmax")]
    if len(argmax) != 1 or not math.isclose(argmax[0], math.pi, rel_tol=1e-12):
        problems.append(f"is_argmax at omega {argmax}, expected pi")
    return problems


def check_long(record, expected: dict) -> list[str]:
    problems = _parameters(record, expected)
    ns = [int(n) for n in expected["n_list"].split(",")]
    rows = record.rows
    if [r.get("n") for r in rows] != ns:
        return problems + ["rows do not follow the requested lengths"]
    for row in rows:
        if row.get("nondecreasing") is not True:
            problems.append(f"n={row['n']}: ratio decreased")
        if not 0.99 < row["ratio_over_constant"] <= 1.0:
            problems.append(f"n={row['n']}: ratio/constant {row['ratio_over_constant']!r}")
    return problems


def parse(text: str):
    """The record, or None when the text does not re-parse."""
    try:
        return parse_record(text, "json-lines")
    except (ValueError, KeyError, IndexError):
        return None
