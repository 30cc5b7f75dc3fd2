"""Command-line front end.

Every subcommand assembles one OutputRecord (schema_version, command,
parameters, rows) and emits it as CSV or JSON lines.  The rows are one
table: each has the first row's keys in that order.  Output is
deterministic byte for byte for a fixed command line, and parse_record
reads either format back to the identical record.

Exit codes: 0 success and all bounds hold, 1 a verified bound was
violated, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import operator
import os
import re
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

from . import bspline
from .bernstein import extremal_ratio, sharp_constant, verify_inequality
from .bspline import CardinalSpline, _check_degree, _check_spacing
from .euler_frobenius import ef_roots, representative_roots, symbol_via_ef
from .favard import favard
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
    CSV an empty cell and the bare string, or the JSON-quoted one where
    the bare text would not read back as that string on one line ("5",
    "true", "" or a line break).  A non-finite float has no form in
    either and raises ValueError.
    """
    if isinstance(v, float):
        # 17 significant digits round-trip any double; the suffix keeps the
        # value recognizably a float when it happens to be integral.
        s = format(v, ".17g")
        if "." in s or "e" in s:
            return s
        if not math.isfinite(v):  # "inf", "-inf" and "nan" land here
            raise ValueError(f"a record cannot hold the non-finite float {s}")
        return s + ".0"
    if v is None:
        return "null" if fmt == "json-lines" else ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    s = str(v)
    if fmt == "json-lines" or s[:1] == '"' or "\n" in s or _parse_cell(s) is not s:
        return json.dumps(s)
    return s


_INT_RE = re.compile(r"^[+-]?\d+$")
_FLOAT_RE = re.compile(r"^[+-]?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?$")


def _parse_cell(s: str):
    """The scalar a CSV cell or parameter holds: the inverse of _scalar(v, "csv")."""
    if s[:1] == '"':
        return json.loads(s)
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


# rows rendered at once; bounds the cell strings alive beside the record
RENDER_CHUNK = 2048

# equal values of one of these types have one text, bar the signed zeros
_PLAIN = (str, int, bool, float, type(None))


def _column(values: list, fmt: str) -> list[str]:
    """``[_scalar(v, fmt) for v in values]``, a column at a time."""
    n = len(values)
    if not n:
        return []
    first = values[0]
    kinds = set(map(type, values))
    kind = kinds.pop() if len(kinds) == 1 else None
    if (
        kind in _PLAIN
        and values.count(first) == n
        and not (kind is float and first == 0.0)
    ):
        return [_scalar(first, fmt)] * n
    if kind is float:
        # "%.17g" is format(v, ".17g"); the cells it leaves without a point
        # or exponent (integral values, the zeros, inf, nan) go to _scalar
        cells = ("\n".join(["%.17g"] * n) % tuple(values)).split("\n")
        return [
            c if "." in c or "e" in c else _scalar(v, fmt)
            for c, v in zip(cells, values)
        ]
    if kind is int:
        return list(map(str, values))
    if kind is bool:
        yes, no = _scalar(True, fmt), _scalar(False, fmt)
        return [yes if v else no for v in values]
    return [_scalar(v, fmt) for v in values]


def _template(keys) -> str:
    """The ``%`` template of one JSON object with these keys in this order."""
    fields = [json.dumps(k).replace("%", "%%") + ": %s" for k in keys]
    return "{" + ", ".join(fields) + "}"


def render_record(record: OutputRecord, fmt: str) -> str:
    """The record as text, rendered by column in chunks of RENDER_CHUNK rows.

    The rows are one table whose columns are the first row's keys in
    that order; a row with other keys (a missing, an extra or a
    reordered one) raises ValueError.  Each chunk builds each column's
    cells once and writes them as JSON lines from one row template or
    as CSV rows.
    """
    if fmt not in ("csv", "json-lines"):
        raise UsageError(f"unknown format: {fmt}")
    rows, params = record.rows, record.parameters
    keys = tuple(rows[0]) if rows else ()
    buf = io.StringIO()
    if fmt == "json-lines":
        values = tuple(_scalar(v, fmt) for v in params.values())
        buf.write(
            f'{{"schema_version": {_scalar(record.schema_version, fmt)}, '
            f'"command": {_scalar(record.command, fmt)}, '
            f'"parameters": {_template(params) % values}}}\n'
        )
        line = _template(keys) + "\n"
    else:
        buf.write(f"# schema_version={record.schema_version}\n")
        buf.write(f"# command={record.command}\n")
        for k, v in params.items():
            buf.write(f"# parameter:{k}={_scalar(v, fmt)}\n")
        writer = csv.writer(buf, lineterminator="\n")
        if rows:
            writer.writerow(keys)
    for lo in range(0, len(rows), RENDER_CHUNK):
        chunk = rows[lo : lo + RENDER_CHUNK]
        if not all(map(keys.__eq__, map(tuple, chunk))):
            i = next(i for i, row in enumerate(rows) if tuple(row) != keys)
            raise ValueError(
                f"row {i} has the keys {list(rows[i])}; row 0 has {list(keys)}"
            )
        columns = [_column(list(map(operator.itemgetter(k), chunk)), fmt) for k in keys]
        if fmt == "csv":
            writer.writerows(zip(*columns))
        else:
            flat = tuple(itertools.chain.from_iterable(zip(*columns)))
            buf.write((line * len(chunk)) % flat)
    return buf.getvalue()


def parse_record(text: str, fmt: str) -> OutputRecord:
    """Inverse of render_record in both formats."""
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
        # the leading "# key=value" lines, then the table
        head = re.match(r"(# [^\n]*\n)*", text).group()
        meta = dict(ln[2:].partition("=")[::2] for ln in head.split("\n")[:-1])
        columns, *body = [
            raw for raw in csv.reader(io.StringIO(text[len(head) :], newline="")) if raw
        ] or [[]]
        return OutputRecord(
            command=meta["command"],
            parameters={
                k[len("parameter:") :]: _parse_cell(v)
                for k, v in meta.items()
                if k.startswith("parameter:")
            },
            rows=[
                dict(zip(columns, map(_parse_cell, raw), strict=True)) for raw in body
            ],
            schema_version=meta["schema_version"],
        )
    raise UsageError(f"unknown format: {fmt}")


# -- subcommands -----------------------------------------------------------


def _usage(fn, *args):
    """``fn(*args)``, with a ValueError of the library as a UsageError."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_constants(
    m_max: int, k_max: int, spacing: float, rtol: float = 1e-12
) -> OutputRecord:
    """Sharp constants and their Favard ingredients for all k ≤ min(m, k_max)."""
    if m_max < 0 or k_max < 0:
        raise UsageError("degree and order bounds must be non-negative")
    _usage(_check_spacing, spacing)
    if 1.0 / spacing == math.inf:
        raise UsageError(f"h = 1/spacing overflows at spacing {spacing!r}")
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
                    "constant": _usage(sharp_constant, m, k, spacing),
                    "K_num_index": num_idx,
                    "K_num": _usage(favard, num_idx, rtol).value,
                    "K_den_index": den_idx,
                    "K_den": _usage(favard, den_idx, rtol).value,
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
    if points < 2:
        raise UsageError("need at least two sweep points")
    grid = np.linspace(0.0, 2.0 * math.pi, points)
    lat = _usage(symbol_lattice, m, grid, rtol)
    four = symbol_fourier(m, grid)
    efp = symbol_via_ef(m, grid)
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


def _first_failure(
    m: int, k: int, spacing: float, buf, starts: list, counts: list
) -> str:
    """The error of the lowest-numbered failing trial, as it fails alone."""
    for i, (start, count) in enumerate(zip(starts, counts)):
        try:
            row = buf[start : start + count]
            s = CardinalSpline(degree=m, knot_spacing=spacing, coeffs=row)
            verify_inequality(s, k)
        except ValueError as exc:
            return f"trial {i}: {exc}"
    raise AssertionError("a stack failed but none of its trials does")


# Trials per process below which verify draws every trial in one process.
# On a 2-vCPU VM forking a worker and reaping it costs about 2 ms, some 100
# draws; two processes lost at 256 trials and won from 512, and at 1024 each
# they drew 2048 trials in 23 ms instead of 37.  1500 trials stay in one
# process.
DRAW_MIN = 1024


def _draw(buf, seed: int, starts: list, counts: list, lo: int, hi: int) -> None:
    """Trials lo..hi-1 draw their unit doubles into their rows of buf."""
    for i, start, count in zip(range(lo, hi), starts[lo:hi], counts[lo:hi]):
        np.random.default_rng(seed + i + 1).random(out=buf[start : start + count])


def _draw_all(size: int, seed: int, starts: list, counts: list):
    """A flat buffer of ``size`` floats holding every trial's unit doubles.

    Trial i's row is ``buf[starts[i] : starts[i] + counts[i]]``.  The
    trials are cut into one contiguous range per usable CPU, each of at
    least DRAW_MIN trials, when this process may fork: a POSIX system with
    an affinity call and no other Python thread alive.  Then the buffer is
    an anonymous shared mapping that forked workers fill in place.
    Otherwise, or when no such mapping can be made, one process draws
    every trial.  Either way each row gets the same bits.
    """
    trials = len(counts)
    k = min(bspline._usable_cpus(), trials // DRAW_MIN)
    if (
        k > 1
        and hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and threading.active_count() == 1
    ):
        import mmap  # here, so that no other subcommand loads it

        try:
            buf = np.frombuffer(mmap.mmap(-1, 8 * size), dtype=np.float64)
        except OSError:  # no shared mapping: draw in this process alone
            pass
        else:
            bounds = [trials * j // k for j in range(k + 1)]
            _draw_forked(buf, seed, starts, counts, bounds)
            return buf
    buf = np.empty(size)
    _draw(buf, seed, starts, counts, 0, trials)
    return buf


def _draw_forked(buf, seed: int, starts: list, counts: list, bounds: list) -> None:
    """_draw over each range ``bounds[j]:bounds[j + 1]`` of trials.

    This process draws range 0 and a forked worker each other range,
    writing the shared buf in place.  A range whose worker cannot be
    forked or does not exit 0 is drawn here, so the bits never depend on
    a worker.  Every worker is reaped, and killed first if this raises
    while it runs, before this returns.
    """
    mine = [(bounds[0], bounds[1])]
    workers = []  # (pid, lo, hi) of each worker not yet reaped
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            try:
                pid = os.fork()
            except OSError:  # no process to spare
                mine.append((lo, hi))
                continue
            if pid == 0:  # the worker: draw, then leave without cleanup
                code = 1
                try:
                    _draw(buf, seed, starts, counts, lo, hi)
                    code = 0
                finally:
                    os._exit(code)
            workers.append((pid, lo, hi))
        for lo, hi in mine:
            _draw(buf, seed, starts, counts, lo, hi)
        while workers:
            pid, lo, hi = workers[0]
            _, status = os.waitpid(pid, 0)
            workers.pop(0)
            if status != 0:
                _draw(buf, seed, starts, counts, lo, hi)
    finally:
        if workers:
            import signal

            for pid, _, _ in workers:
                try:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                except OSError:  # reaped just before the interrupt
                    pass


def cmd_verify(
    m: int, k: int, spacing: float, trials: int, seed: int
) -> OutputRecord:
    """Random-spline audit of the inequality; one row per trial plus a summary.

    Trial i draws its coefficients from ``default_rng(seed + i + 1)``:
    ``random(out=...)`` writes its unit doubles u straight into its row
    ``buf[starts[i] : starts[i] + counts[i]]`` of one flat buffer, which
    then becomes ``2u - 1`` in place, the bits ``uniform(-1.0, 1.0)``
    gives (``2u`` is exact, so ``-1 + 2u`` rounds once either way).  One
    stable argsort of the counts lays the rows end to end by count, each
    count in trial order, and one cumsum of the sorted counts gives the
    starts.  So the rows of one count are one contiguous (batch, count)
    slice of the buffer, checked as one stack: at most 40 stacked checks
    whatever the number of trials, each giving every trial the floats it
    would get alone.  On Linux, with enough trials, forked workers seed
    and draw contiguous ranges of trials into the buffer across the
    usable CPUs (see _draw_all), with the same bits.  An error names the
    lowest-numbered failing trial.
    """
    constant = _usage(sharp_constant, m, k, spacing)
    if trials < 1:
        raise UsageError("need at least one trial")
    if seed < 0:
        raise UsageError("seed must be non-negative")
    master = np.random.default_rng(seed)
    counts = master.integers(1, 41, size=trials)
    # the trials sorted by count, each count in trial order, laid end to end
    order = np.argsort(counts, kind="stable")
    ranked = counts[order]
    ends = np.cumsum(ranked)
    starts = np.empty(trials, dtype=np.int64)
    starts[order] = ends - ranked
    counts, starts = counts.tolist(), starts.tolist()
    buf = _draw_all(int(ends[-1]), seed, starts, counts)
    buf *= 2.0
    buf -= 1.0
    # each count's trials are one run of order, their rows one slice of buf
    bounds = [0, *(np.flatnonzero(np.diff(ranked)) + 1).tolist(), trials]
    ratio = np.empty(trials)
    margin = np.empty(trials)
    satisfied = np.empty(trials, dtype=bool)
    try:
        for lo, hi in zip(bounds, bounds[1:]):
            idx = order[lo:hi]
            stack = buf[ends[lo] - ranked[lo] : ends[hi - 1]].reshape(hi - lo, -1)
            s = CardinalSpline(degree=m, knot_spacing=spacing, coeffs=stack)
            report = verify_inequality(s, k)
            ratio[idx] = report.ratio
            margin[idx] = report.margin
            satisfied[idx] = report.satisfied
    except ValueError:  # the norms overflow or underflow to zero
        raise UsageError(_first_failure(m, k, spacing, buf, starts, counts)) from None
    ratios = ratio.tolist()
    margins = margin.tolist()
    oks = satisfied.tolist()
    rows = [
        {
            "kind": "trial",
            "trial": i,
            "coeff_count": count,
            "ratio": r,
            "constant": constant,
            "margin": g,
            "satisfied": ok,
        }
        for i, (count, r, g, ok) in enumerate(
            zip(counts, ratios, margins, oks)
        )
    ]
    # the same pairwise max/min/and, in trial order, as a running fold
    rows.append(
        {
            "kind": "summary",
            "trial": None,
            "coeff_count": None,
            "ratio": max([0.0] + ratios),
            "constant": constant,
            "margin": min([math.inf] + margins),
            "satisfied": all(oks),
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
    _usage(_check_degree, m, 1)
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
    p.add_argument("--rtol", type=float, default=1e-12)

    p = sub.add_parser("symbol", parents=[shared])
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--points", type=int, default=257)
    p.add_argument("--rtol", type=float, default=1e-12)

    p = sub.add_parser("verify", parents=[shared])
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--spacing", type=float, default=1.0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

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
        try:
            _emit(record, args.format, args.out)
        except OSError as exc:  # a path that cannot be opened or written
            target = args.out or "stdout"
            raise UsageError(f"cannot write {target}: {exc.strerror or exc}") from None
        return status
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a size no allocation can hold is bad input
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
