"""Command-line front end.

Every subcommand assembles one OutputRecord (schema_version, command,
parameters and a table held as columns) and emits it as CSV or JSON
lines.  Output is deterministic byte for byte for a fixed command line,
and parse_record reads either format back to the identical record.

Exit codes: 0 success and all bounds hold, 1 a verified bound was
violated, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from .bernstein import extremal_ratio, sharp_constant, verify_inequality
from .bspline import CardinalSpline, _check_degree, _check_spacing
from .euler_frobenius import _check_ef_order, _check_symbol_degree, ef_roots
from .euler_frobenius import representative_roots, symbol_via_ef
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
    """One command's header and its table, held as columns.

    ``columns`` maps each column name, in order, to the list of its
    cells, one per row; every list has the same length.  ``rows`` is a
    read-only view of the same table as one dict per row, built on its
    first read, for row-wise readers.
    """

    command: str
    parameters: dict
    columns: dict
    schema_version: str = field(default=SCHEMA_VERSION)

    @functools.cached_property
    def rows(self) -> tuple:
        cols = self.columns
        return tuple(dict(zip(cols, row)) for row in zip(*cols.values(), strict=True))


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

    Each chunk slices every column once, renders its cells and writes
    them as JSON lines from one row template or as CSV rows.  A column
    whose length is not the first column's raises ValueError.
    """
    if fmt not in ("csv", "json-lines"):
        raise UsageError(f"unknown format: {fmt}")
    columns, params = record.columns, record.parameters
    lengths = {k: len(cells) for k, cells in columns.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"the columns differ in length: {lengths}")
    keys, n = tuple(columns), max(lengths.values(), default=0)
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
        if n:
            writer.writerow(keys)
    for lo in range(0, n, RENDER_CHUNK):
        cells = [_column(col[lo : lo + RENDER_CHUNK], fmt) for col in columns.values()]
        if fmt == "csv":
            writer.writerows(zip(*cells))
        else:
            flat = tuple(itertools.chain.from_iterable(zip(*cells)))
            buf.write((line * len(cells[0])) % flat)
    return buf.getvalue()


def parse_record(text: str, fmt: str) -> OutputRecord:
    """Inverse of render_record in both formats.

    Text that is not a record raises ValueError: empty text, a header
    without command, parameters or schema_version, a CSV table whose rows
    are not all as wide as its header, or a JSON row whose keys are not
    the first row's in that order.
    """
    if fmt not in ("csv", "json-lines"):
        raise UsageError(f"unknown format: {fmt}")
    try:
        if fmt == "json-lines":
            lines = [ln for ln in text.splitlines() if ln.strip()]
            head = json.loads(lines[0])
            params = head["parameters"]
            rows = [json.loads(ln) for ln in lines[1:]]
            keys = list(rows[0]) if rows else []
            for i, row in enumerate(rows):
                if list(row) != keys:
                    raise ValueError(f"row {i} has the keys {list(row)}, not {keys}")
            table = zip(*(row.values() for row in rows))
        else:
            # the leading "# key=value" lines, then the table
            lead = re.match(r"(# [^\n]*\n)*", text).group()
            head = dict(ln[2:].partition("=")[::2] for ln in lead.split("\n")[:-1])
            params = {
                k[len("parameter:") :]: _parse_cell(v)
                for k, v in head.items()
                if k.startswith("parameter:")
            }
            reader = csv.reader(io.StringIO(text[len(lead) :], newline=""))
            keys, *body = [raw for raw in reader if raw] or [[]]
            table = (map(_parse_cell, cells) for cells in zip(*body, strict=True))
        return OutputRecord(
            command=head["command"],
            parameters=params,
            columns=dict(zip(keys, map(list, table), strict=True)),
            schema_version=head["schema_version"],
        )
    except (AttributeError, LookupError, TypeError, csv.Error) as exc:
        raise ValueError(f"not a {fmt} record: {exc!r}") from None


# -- subcommands -----------------------------------------------------------


def _usage(fn, *args):
    """``fn(*args)``, with a ValueError of the library as a UsageError."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _transposed(keys: tuple, rows: list) -> dict:
    """The columns ``keys`` of a table given as row tuples."""
    return dict(zip(keys, map(list, zip(*rows))))


def cmd_constants(
    m_max: int, k_max: int, spacing: float, rtol: float = 1e-12
) -> OutputRecord:
    """Sharp constants and their Favard ingredients for all k ≤ min(m, k_max)."""
    if m_max < 0 or k_max < 0:
        raise UsageError("degree and order bounds must be non-negative")
    _usage(_check_spacing, spacing)
    h = 1.0 / spacing
    if h == math.inf:
        raise UsageError(f"h = 1/spacing overflows at spacing {spacing!r}")
    rows = []
    for m in range(m_max + 1):
        for k in range(min(m, k_max) + 1):
            num, den = 2 * (m - k) + 1, 2 * m + 1
            constant = _usage(sharp_constant, m, k, spacing)
            k_num = _usage(favard, num, rtol).value
            k_den = _usage(favard, den, rtol).value
            rows.append((m, k, spacing, h, constant, num, k_num, den, k_den))
    keys = ("m", "k", "delta", "h", "constant", "K_num_index", "K_num")
    keys += ("K_den_index", "K_den")
    params = {"max_degree": m_max, "max_order": k_max, "spacing": spacing, "rtol": rtol}
    return OutputRecord(
        command="constants", parameters=params, columns=_transposed(keys, rows)
    )


def cmd_symbol(m: int, points: int, rtol: float = 1e-12) -> OutputRecord:
    """Symbol sweep over [0, 2π] with all three routes and their spreads.

    For m = 0 the ratio columns are undefined (there is no degree below
    zero); the symbol columns are still emitted and the caller reports a
    usage error afterwards.
    """
    if points < 2:
        raise UsageError("need at least two sweep points")
    # the root product's ceilings, before any route runs
    _usage(_check_symbol_degree, m)
    grid = np.linspace(0.0, 2.0 * math.pi, points)
    efp = _usage(symbol_via_ef, m, grid)
    lat = _usage(symbol_lattice, m, grid, rtol)
    four = symbol_fourier(m, grid)
    arrays = {
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
        arrays["ratio_L"] = ratios
        arrays["is_argmax"] = np.arange(points) == np.argmax(ratios)
    columns = {k: a.tolist() for k, a in arrays.items()}
    params = {"degree": m, "points": points, "rtol": rtol}
    return OutputRecord(command="symbol", parameters=params, columns=columns)


def cmd_verify(
    m: int, k: int, spacing: float, trials: int, seed: int
) -> OutputRecord:
    """Random-spline audit of the inequality; one row per trial plus a summary.

    Trial i draws its coefficients from ``default_rng(seed + i + 1)``:
    ``random(out=...)`` writes its unit doubles u straight into its row of
    one ``(batch, count)`` stack per count drawn, rows in trial order, and
    each stack then becomes ``2u - 1`` in place, the bits
    ``uniform(-1.0, 1.0)`` gives (``2u`` is exact, so ``-1 + 2u`` rounds
    once either way).  One process draws every trial: _seeds.seed_states
    hashes all the seeds at once, as ``SeedSequence`` would one at a time,
    and each row comes from numpy's own ``Generator(PCG64(...))`` seeded
    with its trial's state, so the doubles are those of
    ``default_rng(seed + i + 1)``.  Each stack is checked at once: at most
    40 stacked checks whatever the number of trials, each giving every
    trial the floats it would get alone.  An error names the
    lowest-numbered failing trial.
    """
    constant = _usage(sharp_constant, m, k, spacing)
    if trials < 1:
        raise UsageError("need at least one trial")
    if seed < 0:
        raise UsageError("seed must be non-negative")
    master = np.random.default_rng(seed)
    counts = master.integers(1, 41, size=trials)
    # here, so that no other subcommand loads numpy.random
    from ._seeds import HashedSeed, seed_states

    states = seed_states(seed + 1, seed + trials + 1)
    stacks = []
    for count in np.flatnonzero(np.bincount(counts)).tolist():
        idx = np.flatnonzero(counts == count)
        stack = np.empty((idx.size, count))
        for i, row in zip(idx.tolist(), stack):
            np.random.Generator(np.random.PCG64(HashedSeed(states[i]))).random(out=row)
        stack *= 2.0
        stack -= 1.0
        stacks.append((idx, stack))
    ratio = np.empty(trials)
    margin = np.empty(trials)
    satisfied = np.empty(trials, dtype=bool)
    try:
        for idx, stack in stacks:
            s = CardinalSpline(degree=m, knot_spacing=spacing, coeffs=stack)
            report = verify_inequality(s, k)
            ratio[idx] = report.ratio
            margin[idx] = report.margin
            satisfied[idx] = report.satisfied
    except ValueError:  # the norms overflow or underflow to zero
        # the rows back in trial order, each checked alone, to name the
        # lowest-numbered failing trial
        rows = [(i, r) for idx, stack in stacks for i, r in zip(idx.tolist(), stack)]
        for i, row in sorted(rows, key=lambda pair: pair[0]):
            try:
                s = CardinalSpline(degree=m, knot_spacing=spacing, coeffs=row)
                verify_inequality(s, k)
            except ValueError as exc:
                raise UsageError(f"trial {i}: {exc}") from None
        raise AssertionError("a stack failed but none of its trials does")
    ratios = ratio.tolist()
    margins = margin.tolist()
    oks = satisfied.tolist()
    # one row per trial, then the summary: the same pairwise max/min/and,
    # in trial order, as a running fold
    columns = {
        "kind": ["trial"] * trials + ["summary"],
        "trial": [*range(trials), None],
        "coeff_count": [*counts.tolist(), None],
        "ratio": [*ratios, max([0.0] + ratios)],
        "constant": [constant] * (trials + 1),
        "margin": [*margins, min([math.inf] + margins)],
        "satisfied": [*oks, all(oks)],
    }
    params = {
        "degree": m,
        "order": k,
        "spacing": spacing,
        "trials": trials,
        "seed": seed,
    }
    return OutputRecord(command="verify", parameters=params, columns=columns)


def cmd_extremal(m: int, n_list: list[int]) -> OutputRecord:
    """Convergence of the alternating-coefficient ratio toward the constant."""
    _usage(_check_degree, m, 1)
    if not n_list:
        raise UsageError("need at least one sequence length")
    if any(n < 0 for n in n_list):
        raise UsageError("sequence lengths must be non-negative")
    constant = sharp_constant(m, 1, 1.0)
    ratios = [extremal_ratio(m, n) for n in n_list]
    columns = {
        "n": list(n_list),
        "ratio": ratios,
        "constant": [constant] * len(ratios),
        "ratio_over_constant": [r / constant for r in ratios],
        "nondecreasing": [r >= prev for prev, r in zip([-math.inf, *ratios], ratios)],
    }
    params = {"degree": m, "n_list": ",".join(str(n) for n in n_list)}
    return OutputRecord(command="extremal", parameters=params, columns=columns)


def cmd_roots(n_max: int) -> OutputRecord:
    """Roots of the integer-sample polynomials for odd orders 3..n_max.

    Reports the reciprocal-pair residual of every root and, per order, a
    verdict on whether the (-1, 0) halves of consecutive odd orders
    interlace; the verdict is blank at the lowest order.
    """
    if n_max < 3 or n_max % 2 == 0:
        raise UsageError("max order must be an odd integer >= 3")
    _usage(_check_ef_order, n_max)
    rows = []
    for n in range(3, n_max + 1, 2):
        roots = ef_roots(n)
        interlaced = None
        if n >= 5:
            inner = representative_roots(n - 2)
            outer = representative_roots(n)
            interlaced = len(inner) + 1 == len(outer) and bool(
                np.all((outer[:-1] < inner) & (inner < outer[1:]))
            )
        for i, r in enumerate(roots):
            partner = roots[len(roots) - 1 - i]
            rows.append(
                (n, i, float(r), abs(float(r) * float(partner) - 1.0), interlaced)
            )
    keys = ("degree", "root_index", "root", "pair_residual", "interlaced")
    cols = _transposed(keys, rows)
    return OutputRecord(command="roots", parameters={"max_order": n_max}, columns=cols)


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
        status, late = 0, None  # late: a usage error raised once the record is out
        if args.subcommand == "constants":
            k_max = args.max_degree if args.max_order is None else args.max_order
            record = cmd_constants(args.max_degree, k_max, args.spacing, args.rtol)
        elif args.subcommand == "symbol":
            record = cmd_symbol(args.degree, args.points, args.rtol)
            if args.degree == 0:  # the symbol columns are still written
                late = UsageError("degree 0 has no ratio_L or is_argmax columns")
        elif args.subcommand == "verify":
            record = cmd_verify(
                args.degree, args.order, args.spacing, args.trials, args.seed
            )
            if not record.columns["satisfied"][-1]:
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
        if late:
            raise late
        return status
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a size no allocation can hold is bad input
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
