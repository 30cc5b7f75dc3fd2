"""Command-line front end.

Every subcommand assembles one OutputRecord (schema_version, command,
parameters, rows) and emits it as CSV or JSON lines.  Output is
deterministic byte for byte for a fixed command line, and both formats
re-parse to the identical structure.

Exit codes: 0 success and all bounds hold, 1 a verified bound was
violated, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from .bernstein import extremal_ratio, sharp_constant, verify_inequality
from .bspline import CardinalSpline
from .euler_frobenius import ef_roots, representative_roots, symbol_via_ef
from .favard import ROUNDING_FLOOR, favard
from .symbol import ratio_L, symbol_fourier, symbol_lattice

SCHEMA_VERSION = "1"

__all__ = [
    "OutputRecord",
    "UsageError",
    "render_record",
    "parse_record",
    "cmd_constants",
    "cmd_symbol",
    "cmd_verify",
    "cmd_extremal",
    "cmd_roots",
    "main",
]


class UsageError(Exception):
    """Bad command-line input; mapped to exit code 2."""


@dataclass
class OutputRecord:
    command: str
    parameters: dict
    rows: list
    schema_version: str = field(default=SCHEMA_VERSION)


# -- serialization ---------------------------------------------------------


def _scalar(v, fmt: str) -> str:
    """Canonical text form of one scalar, shared by both formats.

    Only None and strings differ: JSON writes null and quoted strings,
    CSV an empty cell and the bare string.
    """
    if isinstance(v, float):
        # 17 significant digits round-trip any double; the suffix keeps the
        # value recognizably a float when it happens to be integral.
        s = format(v, ".17g")
        return s if "." in s or "e" in s else s + ".0"
    if v is None:
        return "null" if fmt == "json-lines" else ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return json.dumps(str(v)) if fmt == "json-lines" else str(v)


_INT_RE = re.compile(r"^[+-]?\d+$")
_FLOAT_RE = re.compile(r"^[+-]?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?$")


def _parse_cell(s: str):
    if s == "":
        return None
    if s == "true":
        return True
    if s == "false":
        return False
    if _INT_RE.match(s):
        return int(s)
    if _FLOAT_RE.match(s) and ("." in s or "e" in s or "E" in s):
        return float(s)
    return s


def _json_object(d: dict, prefixes: dict) -> str:
    """One JSON object; ``prefixes`` caches the quoted keys per key tuple."""
    keys = tuple(d)
    heads = prefixes.get(keys)
    if heads is None:
        heads = prefixes[keys] = [json.dumps(k) + ": " for k in keys]
    body = ", ".join(
        [h + _scalar(v, "json-lines") for h, v in zip(heads, d.values())]
    )
    return "{" + body + "}"


def render_record(record: OutputRecord, fmt: str) -> str:
    if fmt == "json-lines":
        prefixes: dict = {}
        head = (
            f'{{"schema_version": {_scalar(record.schema_version, fmt)}, '
            f'"command": {_scalar(record.command, fmt)}, '
            f'"parameters": {_json_object(record.parameters, prefixes)}}}'
        )
        lines = [head] + [_json_object(row, prefixes) for row in record.rows]
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        buf.write(f"# schema_version={record.schema_version}\n")
        buf.write(f"# command={record.command}\n")
        for k, v in record.parameters.items():
            buf.write(f"# parameter:{k}={_scalar(v, fmt)}\n")
        writer = csv.writer(buf, lineterminator="\n")
        if record.rows:
            columns = list(record.rows[0].keys())
            writer.writerow(columns)
            for row in record.rows:
                writer.writerow([_scalar(row[c], fmt) for c in columns])
        return buf.getvalue()
    raise UsageError(f"unknown format: {fmt}")


def parse_record(text: str, fmt: str) -> OutputRecord:
    """Inverse of render_record; round-trips every record this tool emits."""
    if fmt == "json-lines":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        head = json.loads(lines[0])
        rows = [json.loads(ln) for ln in lines[1:]]
        return OutputRecord(
            command=head["command"],
            parameters=head["parameters"],
            rows=rows,
            schema_version=head["schema_version"],
        )
    if fmt == "csv":
        schema = ""
        command = ""
        parameters: dict = {}
        body: list[str] = []
        for ln in text.splitlines():
            if ln.startswith("# "):
                key, _, val = ln[2:].partition("=")
                if key == "schema_version":
                    schema = val
                elif key == "command":
                    command = val
                elif key.startswith("parameter:"):
                    parameters[key[len("parameter:") :]] = _parse_cell(val)
            elif ln.strip():
                body.append(ln)
        rows = []
        if body:
            reader = csv.reader(body)
            columns = next(reader)
            for raw in reader:
                rows.append({c: _parse_cell(v) for c, v in zip(columns, raw)})
        return OutputRecord(
            command=command, parameters=parameters, rows=rows, schema_version=schema
        )
    raise UsageError(f"unknown format: {fmt}")


# -- subcommands -----------------------------------------------------------


def _check_rtol(rtol: float) -> None:
    # NaN fails every comparison, so it lands here too
    if not ROUNDING_FLOOR < rtol < math.inf:
        raise UsageError(f"rtol must be a finite number above {ROUNDING_FLOOR:g}")


def cmd_constants(
    m_max: int, k_max: int, spacing: float, rtol: float = 1e-12
) -> OutputRecord:
    """Sharp constants and their Favard ingredients for all k ≤ min(m, k_max)."""
    if m_max < 0 or k_max < 0:
        raise UsageError("degree and order bounds must be non-negative")
    if not (spacing > 0.0):
        raise UsageError("spacing must be positive")
    _check_rtol(rtol)
    rows = []
    for m in range(m_max + 1):
        for k in range(min(m, k_max) + 1):
            num_idx = 2 * (m - k) + 1
            den_idx = 2 * m + 1
            rows.append(
                {
                    "m": m,
                    "k": k,
                    "delta": spacing,
                    "h": 1.0 / spacing,
                    "constant": sharp_constant(m, k, spacing),
                    "K_num_index": num_idx,
                    "K_num": favard(num_idx, rtol).value,
                    "K_den_index": den_idx,
                    "K_den": favard(den_idx, rtol).value,
                }
            )
    params = {"max_degree": m_max, "max_order": k_max, "spacing": spacing, "rtol": rtol}
    return OutputRecord(command="constants", parameters=params, rows=rows)


def cmd_symbol(m: int, points: int, rtol: float = 1e-12) -> OutputRecord:
    """Symbol sweep over [0, 2π] with all three routes and their spreads.

    For m = 0 the ratio columns are undefined (there is no degree below
    zero); the symbol columns are still emitted and the caller reports a
    usage error afterwards.
    """
    if m < 0:
        raise UsageError("degree must be non-negative")
    if points < 2:
        raise UsageError("need at least two sweep points")
    _check_rtol(rtol)
    grid = np.linspace(0.0, 2.0 * math.pi, points)
    four = symbol_fourier(m, grid)
    efp = symbol_via_ef(m, grid)
    lat = symbol_lattice(m, grid, rtol)
    columns = {
        "omega": grid,
        "fourier": four,
        "lattice": lat.value,
        "lattice_tail_bound": lat.tail_bound,
        "ef_product": efp,
        "diff_fourier_lattice": np.abs(four - lat.value),
        "diff_fourier_ef": np.abs(four - efp),
        "diff_lattice_ef": np.abs(lat.value - efp),
    }
    if m >= 1:
        ratios = ratio_L(m, grid)
        columns["ratio_L"] = ratios
        columns["is_argmax"] = np.arange(points) == np.argmax(ratios)
    names = list(columns)
    rows = [
        dict(zip(names, values))
        for values in zip(*(col.tolist() for col in columns.values()))
    ]
    params = {"degree": m, "points": points, "rtol": rtol}
    return OutputRecord(command="symbol", parameters=params, rows=rows)


def cmd_verify(
    m: int, k: int, spacing: float, trials: int, seed: int
) -> OutputRecord:
    """Random-spline audit of the inequality; one row per trial plus a summary."""
    if m < 0:
        raise UsageError("degree must be non-negative")
    if not (0 <= k <= m):
        raise UsageError("order must satisfy 0 <= k <= degree")
    if not (spacing > 0.0):
        raise UsageError("spacing must be positive")
    if trials < 1:
        raise UsageError("need at least one trial")
    master = np.random.default_rng(seed)
    counts = master.integers(1, 41, size=trials)
    rows = []
    worst_ratio = 0.0
    min_margin = math.inf
    all_ok = True
    constant = sharp_constant(m, k, spacing)
    for i in range(trials):
        count = int(counts[i])
        rng = np.random.default_rng(seed + i + 1)
        coeffs = rng.uniform(-1.0, 1.0, size=count)
        s = CardinalSpline(degree=m, knot_spacing=spacing, coeffs=coeffs)
        report = verify_inequality(s, k)
        worst_ratio = max(worst_ratio, report.ratio)
        min_margin = min(min_margin, report.margin)
        all_ok = all_ok and report.satisfied
        rows.append(
            {
                "kind": "trial",
                "trial": i,
                "coeff_count": count,
                "ratio": report.ratio,
                "constant": constant,
                "margin": report.margin,
                "satisfied": report.satisfied,
            }
        )
    rows.append(
        {
            "kind": "summary",
            "trial": None,
            "coeff_count": None,
            "ratio": worst_ratio,
            "constant": constant,
            "margin": min_margin,
            "satisfied": all_ok,
        }
    )
    params = {
        "degree": m,
        "order": k,
        "spacing": spacing,
        "trials": trials,
        "seed": seed,
    }
    return OutputRecord(command="verify", parameters=params, rows=rows)


def cmd_extremal(m: int, n_list: list[int]) -> OutputRecord:
    """Convergence of the alternating-coefficient ratio toward the constant."""
    if m < 1:
        raise UsageError("degree must be at least 1")
    if not n_list:
        raise UsageError("need at least one sequence length")
    if any(n < 0 for n in n_list):
        raise UsageError("sequence lengths must be non-negative")
    constant = sharp_constant(m, 1, 1.0)
    rows = []
    prev = -math.inf
    for n in n_list:
        r = extremal_ratio(m, n)
        rows.append(
            {
                "n": n,
                "ratio": r,
                "constant": constant,
                "ratio_over_constant": r / constant,
                "nondecreasing": r >= prev,
            }
        )
        prev = r
    params = {"degree": m, "n_list": ",".join(str(n) for n in n_list)}
    return OutputRecord(command="extremal", parameters=params, rows=rows)


def cmd_roots(n_max: int) -> OutputRecord:
    """Roots of the integer-sample polynomials for odd orders 3..n_max.

    Reports the reciprocal-pair residual of every root and, per order, a
    verdict on whether the (-1, 0) halves of consecutive odd orders
    interlace; the verdict is blank at the lowest order.
    """
    if n_max < 3 or n_max % 2 == 0:
        raise UsageError("max order must be an odd integer >= 3")
    rows = []
    for n in range(3, n_max + 1, 2):
        roots = ef_roots(n)
        interlaced = None
        if n >= 5:
            inner = representative_roots(n - 2)
            outer = representative_roots(n)
            ok = len(inner) + 1 == len(outer)
            for i, r in enumerate(inner):
                ok = ok and outer[i] < r < outer[i + 1]
            interlaced = bool(ok)
        for i, r in enumerate(roots):
            partner = roots[len(roots) - 1 - i]
            rows.append(
                {
                    "degree": n,
                    "root_index": i,
                    "root": float(r),
                    "pair_residual": abs(float(r) * float(partner) - 1.0),
                    "interlaced": interlaced,
                }
            )
    return OutputRecord(command="roots", parameters={"max_order": n_max}, rows=rows)


# -- driver ----------------------------------------------------------------


def _emit(record: OutputRecord, fmt: str, out: str | None) -> None:
    text = render_record(record, fmt)
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--format", choices=("csv", "json-lines"), default="json-lines"
    )
    shared.add_argument("--out", default=None, help="write output to this file")
    shared.add_argument("--rtol", type=float, default=1e-12)
    shared.add_argument("--seed", type=int, default=0)

    parser = argparse.ArgumentParser(
        prog="splineineq",
        description="Sharp derivative bounds for cardinal splines: "
        "constants, symbol sweeps, audits, extremal curves, roots.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("constants", parents=[shared])
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--max-order", type=int, default=None)
    p.add_argument("--spacing", type=float, default=1.0)

    p = sub.add_parser("symbol", parents=[shared])
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--points", type=int, default=257)

    p = sub.add_parser("verify", parents=[shared])
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--spacing", type=float, default=1.0)
    p.add_argument("--trials", type=int, default=100)

    p = sub.add_parser("extremal", parents=[shared])
    p.add_argument("--degree", type=int, required=True)
    p.add_argument(
        "--n",
        type=int,
        action="append",
        default=None,
        help="sequence length; repeatable (default: 0,1,3,...,511)",
    )

    p = sub.add_parser("roots", parents=[shared])
    p.add_argument("--max-order", type=int, required=True)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        status = 0
        if args.subcommand == "constants":
            k_max = args.max_degree if args.max_order is None else args.max_order
            record = cmd_constants(args.max_degree, k_max, args.spacing, args.rtol)
        elif args.subcommand == "symbol":
            record = cmd_symbol(args.degree, args.points, args.rtol)
            if args.degree == 0:
                # symbol columns alone; the requested ratio data does not
                # exist at degree 0, which is a usage problem
                status = 2
        elif args.subcommand == "verify":
            record = cmd_verify(
                args.degree, args.order, args.spacing, args.trials, args.seed
            )
            if not record.rows[-1]["satisfied"]:
                status = 1
        elif args.subcommand == "extremal":
            ns = args.n if args.n else [0, 1, 3, 7, 15, 31, 63, 127, 255, 511]
            record = cmd_extremal(args.degree, ns)
        elif args.subcommand == "roots":
            record = cmd_roots(args.max_order)
        else:  # pragma: no cover - argparse enforces the choices
            raise UsageError(f"unknown subcommand {args.subcommand}")
        _emit(record, args.format, args.out)
        return status
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
