from __future__ import annotations

import csv
import hashlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splineineq
from splineineq import _seeds, cli, euler_frobenius
from splineineq.bernstein import (
    REPORT_SLACK,
    InequalityReport,
    sharp_constant,
    verify_inequality,
)
from splineineq.bspline import CardinalSpline
from splineineq.cli import (
    OutputRecord,
    cmd_constants,
    cmd_extremal,
    cmd_roots,
    cmd_symbol,
    cmd_verify,
    main,
    parse_record,
    render_record,
)


def from_rows(command: str, parameters: dict, rows: list[dict]) -> OutputRecord:
    """The record whose table is these rows, each with the first row's keys."""
    keys = list(rows[0]) if rows else []
    assert all(list(row) == keys for row in rows)
    columns = {k: [row[k] for row in rows] for k in keys}
    return OutputRecord(command=command, parameters=parameters, columns=columns)


ALL_RECORDS = [
    lambda: cmd_constants(2, 2, 1.0),
    lambda: cmd_symbol(1, 5),
    lambda: cmd_symbol(0, 3),
    lambda: cmd_verify(1, 1, 1.0, trials=4, seed=42),
    lambda: cmd_extremal(1, [0, 1, 3]),
    lambda: cmd_roots(5),
]


class TestSerialization:
    @pytest.mark.parametrize("build", ALL_RECORDS)
    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    def test_round_trip_identical(self, build, fmt):
        record = build()
        text = render_record(record, fmt)
        back = parse_record(text, fmt)
        assert back == record

    def test_float_type_survives(self):
        record = from_rows(
            "t", {"a": 1.0, "b": 2, "c": None},
            [{"x": 1.0, "y": 3, "z": "s", "w": True, "v": None}],
        )
        for fmt in ("csv", "json-lines"):
            back = parse_record(render_record(record, fmt), fmt)
            assert back.parameters["a"] == 1.0 and isinstance(back.parameters["a"], float)
            assert back.parameters["b"] == 2 and isinstance(back.parameters["b"], int)
            assert back.parameters["c"] is None
            row = back.rows[0]
            assert isinstance(row["x"], float) and row["x"] == 1.0
            assert isinstance(row["y"], int)
            assert row["z"] == "s"
            assert row["w"] is True
            assert row["v"] is None

    def test_seventeen_digit_fidelity(self):
        vals = [math.pi, 1 / 3, 0.1, 1e-300, 12345.6789, 2.0**-52]
        record = from_rows("t", {}, [{"v": v} for v in vals])
        for fmt in ("csv", "json-lines"):
            back = parse_record(render_record(record, fmt), fmt)
            assert [r["v"] for r in back.rows] == vals

    @pytest.mark.parametrize("v", [math.inf, -math.inf, math.nan, np.float64(math.inf)])
    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    def test_non_finite_float_rejected(self, v, fmt):
        # "inf.0" and "nan.0" are neither JSON nor a float to the CSV parser
        with pytest.raises(ValueError, match="non-finite"):
            cli._scalar(v, fmt)
        record = from_rows("t", {}, [{"v": v}])
        with pytest.raises(ValueError, match="non-finite"):
            render_record(record, fmt)

    def test_unknown_format_rejected(self):
        record = cmd_roots(3)
        with pytest.raises(cli.UsageError):
            render_record(record, "xml")


def render_record_reference(record, fmt):
    """The row-at-a-time renderer that column rendering replaced, as an oracle."""
    if fmt == "json-lines":

        def obj(d):
            body = ", ".join(
                json.dumps(k) + ": " + cli._scalar(v, fmt) for k, v in d.items()
            )
            return "{" + body + "}"

        head = (
            f'{{"schema_version": {cli._scalar(record.schema_version, fmt)}, '
            f'"command": {cli._scalar(record.command, fmt)}, '
            f'"parameters": {obj(record.parameters)}}}'
        )
        return "\n".join([head] + [obj(row) for row in record.rows]) + "\n"
    buf = io.StringIO()
    buf.write(f"# schema_version={record.schema_version}\n")
    buf.write(f"# command={record.command}\n")
    for k, v in record.parameters.items():
        buf.write(f"# parameter:{k}={cli._scalar(v, fmt)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    if record.rows:
        columns = list(record.rows[0].keys())
        writer.writerow(columns)
        for row in record.rows:
            writer.writerow([cli._scalar(row[c], fmt) for c in columns])
    return buf.getvalue()


SPECIAL_FLOATS = [
    0.0, -0.0, 1.0, -3.0, 0.1, 1e16, -1e16, 1e17, 2.0**53, 2.0**53 + 2.0,
    5e-324, -5e-324, 2.2250738585072014e-308 / 3, 2.2250738585072014e-308,
    sys.float_info.max, -sys.float_info.max,
]
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(SPECIAL_FLOATS)
INTS = st.integers(-(10**60), 10**60) | st.sampled_from([0, -1, 2**53 + 1, 2**64, -(2**63)])
TEXTS = st.text(alphabet=st.sampled_from('ab%",\n :é')) | st.sampled_from(
    ["", "%", "%s", "%%", '"', ",", 'x%,"y', "trial", "summary"]
)
SCALARS = st.one_of(
    FLOATS,
    INTS,
    st.booleans(),
    st.none(),
    TEXTS,
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    FLOATS.map(np.float64),
)
COLUMNS = st.one_of(
    st.lists(FLOATS, max_size=60),
    st.lists(INTS, max_size=60),
    st.lists(st.booleans(), max_size=60),
    st.lists(TEXTS, max_size=60),
    st.lists(SCALARS, max_size=60),
    # constant columns: one object repeated, and equal values built apart
    st.tuples(SCALARS, st.integers(1, 60)).map(lambda t: [t[0]] * t[1]),
    st.tuples(FLOATS, st.integers(1, 60)).map(
        lambda t: [float(repr(t[0])) for _ in range(t[1])]
    ),
    # long chunks of few distinct doubles, the signed zeros among them
    st.lists(st.sampled_from(SPECIAL_FLOATS + [0.5, -0.5, 1 / 3]), max_size=600),
)


class TestColumn:
    """``_column`` renders a column to exactly the cells ``_scalar`` gives."""

    @settings(max_examples=400, deadline=None)
    @given(COLUMNS)
    def test_matches_scalar(self, col):
        for fmt in ("json-lines", "csv"):
            assert cli._column(col, fmt) == [cli._scalar(v, fmt) for v in col]

    @pytest.mark.parametrize(
        "col",
        [
            [],
            [0.0] * 5,
            [-0.0] * 5,
            [0.0, -0.0, 0.0],
            [1.0, 1, True],
            [1, 1, 1],
            [True] * 4,
            [False, True, False],
            [None] * 3,
            [1e16, 1e17, 2.0**53, -2.0**53, 5e-324, sys.float_info.max],
            [3.0] * 7,
            [np.float64(2.0)] * 3,
            [np.float64(0.0), np.float64(-0.0)],
            [np.int64(7), np.int64(-7), 7],
            [10**40, -(10**40), 0],
            ["trial"] * 3 + ["summary"],
            ["50%", '"q"', "a,b"],
            [1, None, 2],
            [0.5, None, 0.25],
            # chunks longer than 256 cells: doubles the array path decides
            # around both zeros, integral doubles and doubles above 1e290,
            # inside and outside its exponent range
            [*[0.1 * i + 0.05 for i in range(150)], -0.0, 0.0, 3.0, 1e295,
             1e301, *[-1.0 / (i + 7) for i in range(150)]],
            [-0.0, *[0.0, 0.5, -0.25] * 100, 2.0**60, 1e17, sys.float_info.max],
            [*[1e-300 * (i + 1) for i in range(260)], 1e-5, 1e-4, 1e16, -0.0],
        ],
    )
    def test_edge_columns(self, col):
        for fmt in ("json-lines", "csv"):
            assert cli._column(col, fmt) == [cli._scalar(v, fmt) for v in col]

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("where", [0, 3, 9])
    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    def test_non_finite_float_raises(self, bad, where, fmt):
        col = [0.25 * i for i in range(10)]
        col[where] = bad
        with pytest.raises(ValueError, match="non-finite"):
            cli._column(col, fmt)
        with pytest.raises(ValueError, match="non-finite"):
            cli._column([bad] * 4, fmt)
        with pytest.raises(ValueError, match="non-finite"):
            cli._column([np.float64(v) for v in col], fmt)
        repeated = [0.25 * (i % 3) for i in range(300)]
        repeated[where] = bad
        with pytest.raises(ValueError, match="non-finite"):
            cli._column(repeated, fmt)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    def test_non_finite_after_distinct_doubles(self, bad, fmt):
        col = [1.0 / (i + 3) for i in range(300)] + [bad]
        with pytest.raises(ValueError, match="non-finite"):
            cli._column(col, fmt)


def _audit_like(n):
    """n trial rows like verify's plus its summary row."""
    rows = [
        {"kind": "trial", "trial": i, "coeff_count": 1 + i % 40,
         "ratio": 1.0 / (i + 3), "constant": 27.5, "margin": -float(i) or 0.0,
         "satisfied": i % 7 != 3}
        for i in range(n)
    ]
    rows.append({"kind": "summary", "trial": None, "coeff_count": None,
                 "ratio": 0.5, "constant": 27.5, "margin": -0.0, "satisfied": False})
    params = {"degree": 6, "spacing": 0.5, "rate %": "100%", "none": None}
    return from_rows("verify", params, rows)


class TestColumnRenderer:
    """Rendering by column in chunks gives the row-at-a-time bytes."""

    @pytest.mark.parametrize("n", [0, 1, 2047, 2048, 2049, 4097])
    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    def test_matches_row_renderer(self, n, fmt):
        assert cli.RENDER_CHUNK == 2048  # the sizes above straddle its edges
        record = _audit_like(n)
        assert render_record(record, fmt) == render_record_reference(record, fmt)

    @pytest.mark.parametrize("build", ALL_RECORDS)
    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    def test_every_command(self, build, fmt):
        record = build()
        assert render_record(record, fmt) == render_record_reference(record, fmt)

    def test_keys_with_percent(self):
        record = from_rows(
            "t", {}, [{"%s": i, "100%": 0.5 * i, "%%d": "%d"} for i in range(5)]
        )
        for fmt in ("csv", "json-lines"):
            assert render_record(record, fmt) == render_record_reference(record, fmt)
        rows = parse_record(render_record(record, "json-lines"), "json-lines").rows
        assert rows == record.rows

    def test_symbol_sweep(self):
        record = cmd_symbol(3, 4100)
        for fmt in ("csv", "json-lines"):
            assert render_record(record, fmt) == render_record_reference(record, fmt)


def _other_keys(row: dict, how: str) -> dict:
    """row with a missing, an extra or its keys in another order."""
    if how == "missing":
        return {k: v for k, v in row.items() if k != "margin"}
    if how == "extra":
        return dict(row, **{"note 50%": 'a "b", c%s'})
    odd = {"kind": "odd", "trial": 51, "coeff_count": 2, "ratio": 2.0,
           "constant": 27.5, "margin": 1e17, "satisfied": True}
    return dict(reversed(list(odd.items())))


class TestOneTable:
    """A record is one table: columns of one length, each row's cells."""

    @pytest.mark.parametrize("cells", [4097, 4099])  # one short, one long
    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    def test_column_of_another_length_raises(self, cells, fmt):
        record = _audit_like(4097)  # 4098 rows: the summary is in the third chunk
        record.columns["margin"] = (record.columns["margin"] * 2)[:cells]
        message = f"^the columns differ in length: .*'margin': {cells},"
        with pytest.raises(ValueError, match=message):
            render_record(record, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    def test_columns_with_no_rows_raise(self, fmt):
        # they would read back as a record with no columns at all
        record = OutputRecord(command="t", parameters={}, columns={"a": [], "b": []})
        with pytest.raises(ValueError, match=r"^the columns have no rows: \['a', 'b'\]$"):
            render_record(record, fmt)
        empty = OutputRecord(command="t", parameters={}, columns={})
        assert parse_record(render_record(empty, fmt), fmt) == empty

    @pytest.mark.parametrize("how", ["missing", "extra", "reordered"])
    @pytest.mark.parametrize("where", [1, 50, 51, 2051, 4097])
    def test_json_row_with_other_keys_raises_on_parse(self, how, where):
        record = _audit_like(4097)
        lines = render_record(record, "json-lines").splitlines(keepends=True)
        lines[1 + where] = json.dumps(_other_keys(record.rows[where], how)) + "\n"
        with pytest.raises(ValueError, match=f"^row {where} has the keys "):
            parse_record("".join(lines), "json-lines")

    def test_json_other_first_row_names_row_one(self):
        record = _audit_like(3)
        lines = render_record(record, "json-lines").splitlines(keepends=True)
        lines[1] = json.dumps(_other_keys(record.rows[0], "extra")) + "\n"
        with pytest.raises(ValueError, match="^row 1 has the keys "):
            parse_record("".join(lines), "json-lines")

    @pytest.mark.parametrize("line", ["3,2.5", "3,2.5,3.5,0.5,true,x", '""'])
    def test_csv_row_of_another_width_raises_on_parse(self, line):
        text = render_record(cmd_extremal(1, [0, 1]), "csv") + line + "\n"
        with pytest.raises(ValueError):
            parse_record(text, "csv")

    @pytest.mark.parametrize(
        "text,fmt",
        [
            ("", "json-lines"),
            ("\n\n", "json-lines"),
            ("5\n", "json-lines"),
            ('{"command": "t", "parameters": {}}\n', "json-lines"),
            ("", "csv"),
            ("# command=t\n", "csv"),
        ],
    )
    def test_text_that_is_not_a_record_raises(self, text, fmt):
        with pytest.raises(ValueError, match=f"^not a {fmt} record: "):
            parse_record(text, fmt)

    def test_rows_view_is_built_once_and_read_only(self):
        record = cmd_extremal(1, [0, 1, 3])
        assert record.rows is record.rows
        assert [r["n"] for r in record.rows] == record.columns["n"] == [0, 1, 3]
        with pytest.raises(TypeError):
            record.rows[0] = {}


class TestCommands:
    def test_constants_table(self):
        record = cmd_constants(2, 2, 1.0)
        assert record.schema_version == "1"
        by_mk = {(r["m"], r["k"]): r for r in record.rows}
        assert set(by_mk) == {(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)}
        assert by_mk[(1, 1)]["constant"] == pytest.approx(2 * math.sqrt(3), rel=1e-12)
        assert by_mk[(2, 2)]["constant"] == pytest.approx(math.sqrt(120), rel=1e-12)
        assert by_mk[(0, 0)]["constant"] == 1.0
        assert by_mk[(2, 1)]["K_num_index"] == 3
        assert by_mk[(2, 1)]["K_den_index"] == 5

    def test_constants_order_cap(self):
        record = cmd_constants(3, 1, 2.0)
        assert max(r["k"] for r in record.rows) == 1
        row = next(r for r in record.rows if (r["m"], r["k"]) == (3, 1))
        assert row["delta"] == 2.0
        assert row["h"] == 0.5

    def test_symbol_sweep(self):
        record = cmd_symbol(1, 5)
        assert len(record.rows) == 5
        mid = record.rows[2]
        assert mid["omega"] == pytest.approx(math.pi)
        assert mid["fourier"] == pytest.approx(1 / 3, abs=1e-10)
        assert mid["lattice"] == pytest.approx(1 / 3, abs=1e-10)
        assert mid["ef_product"] == pytest.approx(1 / 3, abs=1e-10)
        assert mid["ratio_L"] == pytest.approx(12.0, abs=1e-8)
        assert mid["is_argmax"] is True
        assert record.rows[0]["ratio_L"] == 0.0
        assert sum(r["is_argmax"] for r in record.rows) == 1

    def test_symbol_degree_zero_drops_ratio_columns(self):
        record = cmd_symbol(0, 3)
        assert "ratio_L" not in record.rows[0]
        assert "is_argmax" not in record.rows[0]
        assert record.rows[0]["fourier"] == 1.0

    def test_verify_summary(self):
        record = cmd_verify(1, 1, 1.0, trials=10, seed=42)
        trials = [r for r in record.rows if r["kind"] == "trial"]
        summary = record.rows[-1]
        assert len(trials) == 10
        assert summary["kind"] == "summary"
        assert summary["margin"] == pytest.approx(min(r["margin"] for r in trials))
        assert summary["ratio"] == pytest.approx(max(r["ratio"] for r in trials))
        assert summary["satisfied"] is True

    def test_extremal_monotone(self):
        record = cmd_extremal(1, [0, 1])
        assert record.rows[0]["ratio"] == pytest.approx(math.sqrt(3), rel=1e-12)
        assert record.rows[1]["ratio"] == pytest.approx(math.sqrt(6), rel=1e-12)
        assert record.rows[0]["ratio_over_constant"] == pytest.approx(0.5, rel=1e-12)
        assert all(r["nondecreasing"] for r in record.rows)

    def test_extremal_large_n_band(self):
        record = cmd_extremal(1, [511])
        assert record.rows[0]["ratio_over_constant"] >= 0.95

    def test_roots_table(self):
        record = cmd_roots(3)
        roots = [r["root"] for r in record.rows]
        assert roots == pytest.approx([-2 - math.sqrt(3), -2 + math.sqrt(3)])
        assert all(r["pair_residual"] < 1e-12 for r in record.rows)
        assert all(r["interlaced"] is None for r in record.rows)

    def test_roots_interlacing_verdicts(self):
        record = cmd_roots(7)
        verdicts = {r["degree"]: r["interlaced"] for r in record.rows}
        assert verdicts == {3: None, 5: True, 7: True}

    @pytest.mark.parametrize(
        "call",
        [
            lambda: cmd_constants(-1, 0, 1.0),
            lambda: cmd_constants(2, 2, 0.0),
            lambda: cmd_constants(2, 2, 1.0, rtol=math.nan),
            lambda: cmd_symbol(2, 1),
            lambda: cmd_symbol(2, 5, rtol=0.0),
            lambda: cmd_symbol(2, 5, rtol=1e-17),
            lambda: cmd_verify(2, 3, 1.0, 5, 0),
            lambda: cmd_verify(2, 1, 1.0, 0, 0),
            lambda: cmd_extremal(0, [1]),
            lambda: cmd_extremal(1, []),
            lambda: cmd_roots(4),
            lambda: cmd_roots(1),
            lambda: cmd_roots(173),
            lambda: cmd_symbol(86, 3),
        ],
    )
    def test_usage_errors(self, call):
        with pytest.raises(cli.UsageError):
            call()


class TestMain:
    def test_constants_stdout(self, capsys):
        code = main(["constants", "--max-degree", "1"])
        out = capsys.readouterr().out
        assert code == 0
        record = parse_record(out, "json-lines")
        assert record.command == "constants"
        assert len(record.rows) == 3

    def test_out_file_and_determinism(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        argv = ["verify", "--degree", "2", "--order", "1", "--trials", "6",
                "--seed", "9", "--format", "csv"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_symbol_degree_zero_exits_two_but_emits(self, capsys):
        code = main(["symbol", "--degree", "0", "--points", "3"])
        captured = capsys.readouterr()
        assert code == 2
        record = parse_record(captured.out, "json-lines")
        assert len(record.rows) == 3
        assert captured.err == (
            "error: degree 0 has no ratio_L or is_argmax columns\n"
        )

    @pytest.mark.parametrize(
        "argv,order",
        [
            # degree 86: order 173, the first odd order past the float range
            (["symbol", "--degree", "86", "--points", "3"], 173),
            (["symbol", "--degree", "100", "--points", "3"], 201),
            (["roots", "--max-order", "173"], 173),
            # far past it: refused in O(1), before symbol_lattice's s**p
            # overflows from degree 511 on
            (["symbol", "--degree", "511", "--points", "3"], 1023),
            (["symbol", "--degree", "100000", "--points", "3"], 200001),
            (["roots", "--max-order", "1000001"], 1000001),
        ],
    )
    def test_order_past_the_float_range_exits_two(
        self, monkeypatch, capsys, argv, order
    ):
        def searched(n):
            raise AssertionError(f"a root search of order {n} started")

        # refused before any root search, roots' lower orders included
        monkeypatch.setattr(euler_frobenius, "_roots_cached", searched)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: order {order} is too high: its largest coefficient exceeds"
            " the float range\n"
        )

    def test_degree_82_underflows_exits_two(self, capsys):
        assert main(["symbol", "--degree", "82", "--points", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: degree 82 is too high: the root product underflows at pi\n"
        )

    @pytest.mark.xfail(
        strict=True, reason="ratio_L's cosine sum cancels near pi (ROADMAP item 12)"
    )
    def test_symbol_argmax_near_pi_or_exits_two(self, tmp_path):
        # at degree 60 the grid argmax of ratio_L lands 7 steps off pi,
        # ratio_L(pi) reads -3.993, and the command exits 0
        out = tmp_path / "symbol.jsonl"
        code = main(["symbol", "--degree", "60", "--points", "257", "--out", str(out)])
        if code != 2:
            assert code == 0
            argmax = parse_record(out.read_text(), "json-lines").columns["is_argmax"]
            assert abs(argmax.index(True) - 128) <= 1  # omega[128] is pi

    @pytest.mark.parametrize("m", [82, 85])
    def test_degree_past_81_refused_before_any_root_search(
        self, monkeypatch, capsys, m
    ):
        def searched(n):
            raise AssertionError(f"ef_roots({n}) was called")

        monkeypatch.setattr(euler_frobenius, "ef_roots", searched)
        assert main(["symbol", "--degree", str(m), "--points", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: degree {m} is too high: the root product underflows at pi\n"
        )

    def test_usage_error_exit(self, capsys):
        code = main(["roots", "--max-order", "6"])
        err = capsys.readouterr().err
        assert code == 2
        assert "odd" in err

    @pytest.mark.parametrize(
        "args,message",
        [
            ("constants --max-degree 2 --spacing 0",
             "spacing must be a positive finite number"),
            ("symbol --degree 2 --rtol 0", "rtol must be a finite number above 4e-16"),
            ("verify --degree 2 --order 3", "derivative order exceeds degree"),
            ("extremal --degree 0", "degree must be at least 1"),
        ],
    )
    def test_library_refusal_exits_two(self, capsys, args, message):
        # the library's own ValueError, printed as it is
        assert main(args.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_violation_exit_code(self, monkeypatch, capsys):
        """Exit 1 is reserved for a genuine bound violation; forge one."""

        def fake_verify(s, k):
            return InequalityReport(
                degree=s.degree, order=k, ratio=100.0, constant=1.0,
                margin=-99.0, satisfied=False,
            )

        monkeypatch.setattr(cli, "verify_inequality", fake_verify)
        code = main(["verify", "--degree", "1", "--order", "1", "--trials", "2"])
        capsys.readouterr()
        assert code == 1

    def test_extremal_default_sweep(self, capsys):
        code = main(["extremal", "--degree", "1"])
        out = capsys.readouterr().out
        assert code == 0
        record = parse_record(out, "json-lines")
        assert [r["n"] for r in record.rows] == [0, 1, 3, 7, 15, 31, 63, 127, 255, 511]
        assert all(r["nondecreasing"] for r in record.rows)

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_negative_seed_is_usage_error(self, capsys):
        argv = ["verify", "--degree", "2", "--order", "1", "--seed", "-1",
                "--trials", "3"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be non-negative\n"

    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, where):
        out = tmp_path / "no" / "x.json" if where == "missing directory" else tmp_path
        assert main(["roots", "--max-order", "5", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"error: cannot write {out}: ")


def readme_examples() -> list[str]:
    """The command lines of README's Examples block."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split("Examples:\n\n```sh\n", 1)[1].split("```", 1)[0].splitlines()


class TestFlags:
    """Each subcommand accepts only the flags it reads."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--degree", "1", "--order", "1", "--rtol", "1e-10"],
            ["extremal", "--degree", "1", "--rtol", "1e-10"],
            ["roots", "--max-order", "5", "--rtol", "1e-10"],
            ["constants", "--max-degree", "1", "--seed", "3"],
            ["symbol", "--degree", "1", "--seed", "3"],
            ["extremal", "--degree", "1", "--seed", "3"],
            ["roots", "--max-order", "5", "--seed", "3"],
        ],
        ids=lambda argv: f"{argv[0]} {argv[-2]}",
    )
    def test_flag_a_subcommand_does_not_read_exits_two(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv,key,value",
        [
            (["constants", "--max-degree", "1", "--rtol", "1e-10"], "rtol", 1e-10),
            (["symbol", "--degree", "1", "--points", "3", "--rtol", "1e-10"],
             "rtol", 1e-10),
            (["verify", "--degree", "1", "--order", "1", "--trials", "2",
              "--seed", "3"], "seed", 3),
        ],
    )
    def test_flag_reaches_the_parameters(self, capsys, argv, key, value):
        assert main(argv) == 0
        record = parse_record(capsys.readouterr().out, "json-lines")
        assert record.parameters[key] == value

    def test_readme_examples_run(self, capsys, tmp_path):
        lines = readme_examples()
        assert lines and all(ln.startswith("splineineq ") for ln in lines)
        for i, line in enumerate(lines):
            argv = line.split()[1:]
            if "--out" in argv:
                at = argv.index("--out") + 1
                argv[at] = str(tmp_path / argv[at])
            else:
                argv += ["--out", str(tmp_path / f"example{i}.out")]
            assert main(argv) == 0, line
        assert capsys.readouterr().out == ""


# SHA-256 of stdout for fixed command lines, taken before the vectorised
# lattice route, integer-Horner root isolation and the merged scalar
# formatter; output bytes must not move when only speed is changed.
GOLDEN = [
    ("constants --max-degree 3", "json-lines",
     "5c9b835349bfa3a4d4fa5c1e557cdb3ce9c0906ffc9e9298696fddf0b64caf67"),
    ("constants --max-degree 4 --max-order 2 --spacing 0.5 --rtol 1e-10", "json-lines",
     "cd6a9cdb286f190737e3d5dfc525f5320f5ff4b2480c8575aa5ddfecfdbc1e8d"),
    ("symbol --degree 2 --points 9", "json-lines",
     "c7aa9940971fc930ae281e508c80bd5f4d5c3589716d7ddd8730ddad3dc554ad"),
    ("symbol --degree 0 --points 5", "json-lines",
     "b82de6c8533943f2129fd7046285465a74d65efe84402b7aa32491d925e03fd8"),
    ("symbol --degree 1 --points 7 --rtol 1e-14", "json-lines",
     "6b6bc360e1a5226917ee60888df506fd554c6c9a0aba82b4fefc60be9dfc444e"),
    ("verify --degree 3 --order 2 --spacing 0.5 --trials 20 --seed 7", "json-lines",
     "245d770a2cbb3f8bd7286e258e584b8d001768560e1f799bf01a7203ed519236"),
    ("extremal --degree 2 --n 0 --n 1 --n 31", "json-lines",
     "4bd3ca3bc67162a3d13ccda3ecf8fda627823f253ae81a004755ed2ac019ae33"),
    ("roots --max-order 11", "json-lines",
     "894717e5be31996ab618a7af614dc14200b98d02e4563d29dd7a07c4ae4963ce"),
    # long enough for the blocked band dots of l2_norm_sq
    ("extremal --degree 12 --n 65535 --n 1048575", "json-lines",
     "3ecb46afcabf8ae68cd6b20134a2a29f15a14ad93fda758d0d6ee8c3eff86801"),
    # every one of the 40 coefficient counts is a stack of many trials
    ("verify --degree 6 --order 3 --spacing 0.5 --trials 3000 --seed 11", "json-lines",
     "4c8463cf5a9a14233bbfb40fd0019ef8828a36cc4a124bb450025e5ab0316837"),
    # several render chunks: every trial row, and the summary in the last
    ("verify --degree 6 --order 3 --spacing 0.5 --trials 5000 --seed 0", "json-lines",
     "b5efd41ce7da97a24852dcc1430117c8193c5a513795713fb7f996edb1bb5bfb"),
    ("symbol --degree 12 --points 4097", "json-lines",
     "62f605c28da30abb4003c0fa1466a43686fd7eb359a6e1ae773c9dd511431148"),
    # every frequency doubles its terms past the first 17, in four chunks
    ("symbol --degree 0 --points 4097 --rtol 4.01e-16", "json-lines",
     "b42b73293a360086f0d8e1852745decdb66d94e4a687b2f9863d5d23c037f621"),
    ("symbol --degree 1 --points 4097 --rtol 1e-14", "json-lines",
     "241e74d827348bcc5061d4f6c0b36ff58220e8b3d07f7d94bd3c10362e8b113d"),
    ("constants --max-degree 3", "csv",
     "0d5c5632646e55114fc766f9b959b44dbae2eb38295877c927c68646441eced9"),
    ("constants --max-degree 4 --max-order 2 --spacing 0.5 --rtol 1e-10", "csv",
     "12acde7a2b04b1a52eedc2dc6e7e7451ec4e6499902bb8c2c84fafc273aff116"),
    ("symbol --degree 2 --points 9", "csv",
     "1e6d955d5502b6bb9f8c6e40f1b05e7945c3b9709a54914735ef67931965731b"),
    ("symbol --degree 0 --points 5", "csv",
     "b639a39599d1cc969e9590b61e5d200637b94a42f67dea119499da8ffc9fa9ca"),
    ("symbol --degree 1 --points 7 --rtol 1e-14", "csv",
     "8cad964cea1e1a2774713452dadc440a34df891abbbc535a906630dc5eceb375"),
    ("verify --degree 3 --order 2 --spacing 0.5 --trials 20 --seed 7", "csv",
     "a8379698c87880025d9f2278683423dd319cc555cc209ea9dedb8b8cc72815e6"),
    ("extremal --degree 2 --n 0 --n 1 --n 31", "csv",
     "a2645e54e2af52d9257c36869eec0879c1e124ba1df1a10efd76ce91e88b76d5"),
    ("roots --max-order 11", "csv",
     "0293b10a63e322c71de24bc2b9e997970afd82504d168ff0eaa535d688d0bf3a"),
    ("extremal --degree 12 --n 65535 --n 1048575", "csv",
     "3601b444a850546e10a4e1b1f206bdb43b92505fc7f0b911968e11c055ebf229"),
    ("verify --degree 6 --order 3 --spacing 0.5 --trials 3000 --seed 11", "csv",
     "daadb861cde050d451a8c7fb31a793a6da7a1bd31e7bf76d733a8cdaaeb7cd4a"),
    ("verify --degree 6 --order 3 --spacing 0.5 --trials 5000 --seed 0", "csv",
     "a54db513e8d39ed0090591990fc86df5b1d210e892fe75f63bf6ed0f583db7ba"),
    ("symbol --degree 12 --points 4097", "csv",
     "8c45457822aeea3ae00d3c6f32b87735c7444b456231313b997ac1196428085c"),
    ("symbol --degree 0 --points 4097 --rtol 4.01e-16", "csv",
     "ecdcb9482512061f4c18074784587216800a66397a0d25c1690d2ed7b0c9fb35"),
    ("symbol --degree 1 --points 4097 --rtol 1e-14", "csv",
     "a98b30492115bdbb9638f7aae679344fe624a92d568bc8962cdd3cfaeb287024"),
]


class TestGoldenOutput:
    @pytest.mark.parametrize("args,fmt,digest", GOLDEN)
    def test_stdout_digest(self, capsys, args, fmt, digest):
        code = main(args.split() + ["--format", fmt])
        out = capsys.readouterr().out
        assert code == (2 if "--degree 0" in args else 0)
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def typed(record: OutputRecord) -> tuple:
    """The record with each scalar tagged by its type, so 1, 1.0 and True differ."""

    def tag(d: dict) -> list:
        return [
            (k, type(v.item() if isinstance(v, np.generic) else v).__name__, v)
            for k, v in d.items()
        ]

    return (record.schema_version, record.command, tag(record.parameters),
            [tag(row) for row in record.rows])


def _stdout_argv(line: str) -> list[str]:
    """The arguments of a command line, less any --format or --out."""
    argv = line.split()
    if argv[0] == "splineineq":
        argv = argv[1:]
    for flag in ("--format", "--out"):
        if flag in argv:
            at = argv.index(flag)
            del argv[at : at + 2]
    return argv


CODEC_LINES = sorted({args for args, _, _ in GOLDEN}) + readme_examples() + [
    # a single length: n_list is the string "0" or "5", which CSV quotes
    "extremal --degree 2 --n 0",
    "extremal --degree 2 --n 5",
]


class TestCodec:
    """parse_record inverts render_record in both formats."""

    @pytest.mark.parametrize("line", CODEC_LINES)
    def test_both_formats_parse_to_the_record_built(self, monkeypatch, capsys, line):
        built = []
        render = cli.render_record

        def capture(record, fmt):
            built.append(record)
            return render(record, fmt)

        monkeypatch.setattr(cli, "render_record", capture)
        argv = _stdout_argv(line)
        for fmt in ("csv", "json-lines"):
            assert main(argv + ["--format", fmt]) == (2 if "--degree 0" in line else 0)
            back = parse_record(capsys.readouterr().out, fmt)
            assert typed(back) == typed(built[-1]), fmt
        assert typed(built[0]) == typed(built[1])

    @pytest.mark.parametrize(
        "text", ["5", "-7", "0.5", "1e5", "true", "false", "", '"', '"q"', "a\nb"]
    )
    def test_csv_quotes_text_that_reads_as_another_type(self, text):
        assert cli._scalar(text, "csv") == json.dumps(text)
        record = from_rows("t", {"p": text}, [{"v": text}])
        assert typed(parse_record(render_record(record, "csv"), "csv")) == typed(record)

    @pytest.mark.parametrize(
        "text", ["trial", "summary", "1,5", "inf", "nan", " 5", "a b", "x\"y"]
    )
    def test_csv_leaves_other_text_bare(self, text):
        assert cli._scalar(text, "csv") == text

    @settings(max_examples=200, deadline=None)
    @given(
        st.dictionaries(st.sampled_from(["a", "b %", "c"]), SCALARS),
        st.lists(st.tuples(SCALARS, SCALARS), max_size=5),
    )
    def test_any_scalars_round_trip(self, parameters, pairs):
        record = from_rows("t", parameters, [{"x": x, "y,z": y} for x, y in pairs])
        for fmt in ("csv", "json-lines"):
            assert typed(parse_record(render_record(record, fmt), fmt)) == typed(record)


class TestRtolValidation:
    @pytest.mark.parametrize("rtol", ["0", "-1", "nan", "inf", "-inf", "1e-20", "4e-16"])
    @pytest.mark.parametrize(
        "args", [["constants", "--max-degree", "2"], ["symbol", "--degree", "2"]]
    )
    def test_unusable_rtol_is_usage_error(self, capsys, args, rtol):
        assert main(args + [f"--rtol={rtol}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: rtol")

    def test_rtol_just_above_floor_runs(self, capsys):
        assert main(["constants", "--max-degree", "2", "--rtol", "1e-15"]) == 0
        record = parse_record(capsys.readouterr().out, "json-lines")
        assert record.parameters["rtol"] == 1e-15


class TestSpacingValidation:
    @pytest.mark.parametrize(
        "args",
        [
            "verify --degree 2 --order 1 --spacing inf",
            "constants --max-degree 2 --spacing inf",
            "constants --max-degree 2 --spacing nan",
            # h = 1/spacing overflows even where every constant is 1
            "constants --max-degree 0 --spacing 5e-324",
            # (pi/spacing)**k overflows
            "verify --degree 3 --order 3 --spacing 1e-120",
            "constants --max-degree 2 --spacing 1e-300",
            # the constant fits, the squared norms do not
            "verify --degree 2 --order 1 --spacing 1e-300",
        ],
    )
    def test_unusable_spacing_is_usage_error(self, capsys, args):
        # the overflowing Gram sums warn on their way to inf and NaN
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(args.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


class TestHugeSpacing:
    """Underflow is a usage error, not a vacuous pass."""

    @pytest.mark.parametrize(
        "args,message",
        [
            # (pi/spacing)**2 underflows to 0.0
            ("verify --degree 3 --order 2 --spacing 1e200 --trials 3",
             "error: sharp constant underflows to zero"),
            # the constant fits, the derivative's squared norm does not
            ("verify --degree 1 --order 1 --spacing 1e170 --trials 3",
             "error: trial 0: derivative norm underflows to zero"),
            ("constants --max-degree 2 --spacing 1e200",
             "error: sharp constant underflows to zero"),
        ],
    )
    def test_underflow_is_usage_error(self, capsys, args, message):
        assert main(args.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message)


class TestSubnormalSpacing:
    """Below the underflow floor the audit stops; just above it, it agrees."""

    ARGS = ["verify", "--degree", "1", "--order", "1", "--trials", "3"]

    def test_subnormal_derivative_norms_are_usage_error(self):
        # spacing 1e160 printed trial 0 ratio 1.9241954e-160 (spacing 1,
        # scaled: 1.9241733e-160) and exited 0
        src = str(Path(splineineq.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "splineineq", *self.ARGS, "--spacing", "1e160"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
            check=False,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        [line] = proc.stderr.splitlines()
        assert line == (
            "error: trial 0: derivative norm underflows into the subnormal range"
        )

    def test_just_inside_the_floor_matches_unit_spacing(self, capsys):
        ratios = {}
        for spacing in ("1", "1e156"):
            assert main(self.ARGS + ["--spacing", spacing]) == 0
            record = parse_record(capsys.readouterr().out, "json-lines")
            ratios[spacing] = [r["ratio"] for r in record.rows]
        for unit, scaled in zip(ratios["1"], ratios["1e156"]):
            assert scaled * 1e156 == pytest.approx(unit, rel=REPORT_SLACK)


class TestOverflowStderr:
    ARGS = ["verify", "--degree", "2", "--order", "1", "--spacing", "1e-300"]

    def test_no_warning_in_process(self, capsys):
        # no errstate wrapper: RuntimeWarning is an error in this suite
        assert main(self.ARGS) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: trial 0: norms overflow")
        assert captured.err.count("\n") == 1

    def test_stderr_is_one_line(self):
        src = str(Path(splineineq.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "splineineq", *self.ARGS],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
            check=False,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: trial 0: norms overflow")


class TestOutOfMemory:
    """A size no allocation can hold is a usage error, not a violation."""

    @pytest.mark.parametrize(
        "args",
        [
            # each asks for terabytes, so the first allocation fails at once
            "extremal --degree 2 --n 1000000000000",
            "symbol --degree 2 --points 10000000000000",
            "verify --degree 2 --order 1 --trials 10000000000000",
        ],
    )
    def test_usage_error(self, capsys, args):
        assert main(args.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: out of memory: ")

    @pytest.mark.parametrize(
        "args",
        [
            # past numpy's index range: a ValueError before any allocation
            "symbol --degree 2 --points 10000000000000000000",
            "verify --degree 2 --order 1 --trials 10000000000000000000",
            "extremal --degree 2 --n 9223372036854775807",
        ],
    )
    def test_size_past_the_index_range(self, capsys, args):
        assert main(args.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ")


def verify_record(m, k, spacing, seed, counts, checks):
    """The verify record of trials with these counts and (ratio, margin,
    satisfied) checks, the summary a running fold in trial order."""
    constant = sharp_constant(m, k, spacing)
    rows = []
    worst_ratio, min_margin, all_ok = 0.0, math.inf, True
    for i, (count, (ratio, margin, ok)) in enumerate(zip(counts, checks)):
        worst_ratio = max(worst_ratio, ratio)
        min_margin = min(min_margin, margin)
        all_ok = all_ok and ok
        rows.append({"kind": "trial", "trial": i, "coeff_count": count,
                     "ratio": ratio, "constant": constant,
                     "margin": margin, "satisfied": ok})
    rows.append({"kind": "summary", "trial": None, "coeff_count": None,
                 "ratio": worst_ratio, "constant": constant,
                 "margin": min_margin, "satisfied": all_ok})
    params = {"degree": m, "order": k, "spacing": spacing, "trials": len(counts),
              "seed": seed}
    return from_rows("verify", params, rows)


def verify_reference(m, k, spacing, trials, seed):
    """The per-trial audit loop that batching replaced, kept as an oracle."""
    counts = np.random.default_rng(seed).integers(1, 41, size=trials).tolist()
    checks = []
    for i, count in enumerate(counts):
        coeffs = np.random.default_rng(seed + i + 1).uniform(-1.0, 1.0, size=count)
        report = verify_inequality(
            CardinalSpline(degree=m, knot_spacing=spacing, coeffs=coeffs), k
        )
        checks.append((report.ratio, report.margin, report.satisfied))
    return verify_record(m, k, spacing, seed, counts, checks)


class TestBatchedVerify:
    @pytest.mark.parametrize(
        "m,k,spacing,seed",
        [
            (0, 0, 1.0, 3),
            (3, 2, 0.5, 7),
            (12, 12, 2.0, 5),
            # trial seeds that cross 2^32 and 2^128
            (3, 2, 0.5, 4294967290),
            (6, 3, 0.5, 2**128 - 5),
        ],
    )
    # at 50 trials some of the 40 counts are missing and some drawn once,
    # the edges of the per-count stacks
    @pytest.mark.parametrize("trials", [1, 50, 2500, 4097])
    def test_matches_per_trial_loop(self, m, k, spacing, seed, trials):
        got = cmd_verify(m, k, spacing, trials, seed)
        want = verify_reference(m, k, spacing, trials, seed)
        for fmt in ("json-lines", "csv"):
            assert render_record(got, fmt) == render_record(want, fmt)
        for row in got.rows:
            assert type(row["ratio"]) is float and type(row["margin"]) is float
            assert type(row["satisfied"]) is bool

    def test_reports_lowest_failing_trial(self, monkeypatch):
        # make every spline of two coefficient counts fail: the larger count
        # comes first in trial order, the smaller first in the batch order
        trials, seed = 300, 2
        counts = np.random.default_rng(seed).integers(1, 41, size=trials).tolist()
        big = counts[0]
        small = next(c for c in counts if c < big)
        assert counts.index(small) > 0

        failed = []

        def failing(s, k):
            if s.coeffs.shape[-1] in (big, small):
                failed.append(s.coeffs.shape)
                raise ValueError("forged failure")
            return verify_inequality(s, k)

        monkeypatch.setattr(cli, "verify_inequality", failing)
        with pytest.raises(cli.UsageError, match="^trial 0: forged failure$"):
            cmd_verify(2, 1, 1.0, trials, seed)
        assert failed[0] == (counts.count(small), small)  # the stack failing first

    def test_reports_lowest_failing_trial_checked_after_another(self, monkeypatch):
        # two forged failing trials: the lower-numbered one has the larger
        # count, so its stack is checked after the other's
        trials, seed = 1500, 4
        counts = np.random.default_rng(seed).integers(1, 41, size=trials).tolist()
        first = next(i for i in range(1, trials) if counts[i] > 1)
        later = next(i for i in range(first + 1, trials) if counts[i] < counts[first])
        bad = [
            np.random.default_rng(seed + i + 1).uniform(-1.0, 1.0, size=counts[i])
            for i in (first, later)
        ]

        failed = []

        def failing(s, k):
            rows = s.coeffs.reshape(-1, s.coeffs.shape[-1])
            for b in bad:
                if b.size == rows.shape[1] and (rows == b).all(axis=1).any():
                    failed.append(s.coeffs.shape)
                    raise ValueError("forged failure")
            return verify_inequality(s, k)

        monkeypatch.setattr(cli, "verify_inequality", failing)
        with pytest.raises(cli.UsageError, match=f"^trial {first}: forged failure$"):
            cmd_verify(2, 1, 1.0, trials, seed)
        small = counts[later]
        assert failed[0] == (counts.count(small), small)  # the stack failing first


def pcg64_rotations(seed: int, n: int) -> list[int]:
    """The XSL-RR rotation ``state >> 122`` of numpy's first n PCG64 outputs for seed."""
    bits = np.random.PCG64(seed)
    out = []
    for _ in range(n):
        bits.random_raw()
        out.append(bits.state["state"]["state"] >> 122)
    return out


class TestSeedStates:
    """verify's draw is numpy's, bit for bit: the seed hash and PCG64 stream."""

    @staticmethod
    def check_draws(lo: int, counts: np.ndarray) -> None:
        """uniform_stacks for seeds lo, lo + 1, ... against numpy's generators, by bytes."""
        stacks = _seeds.uniform_stacks(lo, counts)
        assert [stack.shape[1] for _, stack in stacks] == np.unique(counts).tolist()
        trials = np.concatenate([idx for idx, _ in stacks])
        assert sorted(trials.tolist()) == list(range(counts.size))
        for idx, stack in stacks:
            assert (np.diff(idx) > 0).all()
            assert stack.dtype == np.float64 and stack.shape[0] == idx.size
            assert (counts[idx] == stack.shape[1]).all()
            for i, row in zip(idx.tolist(), stack):
                ref = np.random.default_rng(lo + i).uniform(-1.0, 1.0, size=row.size)
                assert row.tobytes() == ref.tobytes(), lo + i

    @pytest.mark.parametrize(
        "lo,hi",
        [
            (1, 20001),
            # the seeds whose words run from one to two, two to three, four
            # to five (mixed past numpy's pool of 4) and five to six
            (2**32 - 8, 2**32 + 8),
            (2**64 - 8, 2**64 + 8),
            (2**128 - 8, 2**128 + 8),
            (2**160 - 8, 2**160 + 8),
        ],
    )
    def test_states_and_draws_are_numpys(self, lo, hi):
        states = _seeds.seed_states(lo, hi)
        assert states.dtype == np.uint64 and states.shape == (hi - lo, 4)
        for s, state in zip(range(lo, hi), states):
            want = np.random.SeedSequence(s).generate_state(4, np.uint64)
            assert state.tobytes() == want.tobytes(), s
        for width in (1, 40):
            self.check_draws(lo, np.full(hi - lo, width))
        # the outputs compared include rotation 0, whose left shift by
        # 64 - 0 the kernel must take as 0
        seeds = range(lo, min(hi, lo + 64))
        assert any(0 in pcg64_rotations(s, 40) for s in seeds)

    def test_counts_1_and_40_only(self):
        counts = np.random.default_rng(1).choice([1, 40], size=500)
        assert set(counts.tolist()) == {1, 40}
        self.check_draws(2**128 - 250, counts)

    @pytest.mark.parametrize("count", [1, 17, 40])
    def test_one_trial(self, count):
        self.check_draws(2**64 - 1, np.array([count]))

    def test_every_trial_the_same_count(self):
        self.check_draws(7, np.full(300, 23))


AUDIT = (6, 3, 0.5)  # degree, order and spacing of the benchmark's audit


def numpy_seeded_audit(trials: int, seed: int) -> str:
    """The audit record from numpy's own generator per trial, checked per count."""
    m, k, spacing = AUDIT
    counts = np.random.default_rng(seed).integers(1, 41, size=trials)
    checks = [None] * trials
    for count in np.unique(counts).tolist():
        idx = np.flatnonzero(counts == count).tolist()
        stack = np.array([
            np.random.default_rng(seed + i + 1).uniform(-1.0, 1.0, size=count)
            for i in idx
        ])
        report = verify_inequality(
            CardinalSpline(degree=m, knot_spacing=spacing, coeffs=stack), k
        )
        fields = (report.ratio.tolist(), report.margin.tolist(), report.satisfied.tolist())
        for i, *check in zip(idx, *fields):
            checks[i] = check
    record = verify_record(m, k, spacing, seed, counts.tolist(), checks)
    return render_record(record, "json-lines")


class TestSplitDraw:
    """verify's audit is numpy's generator per trial, checked per count."""

    @pytest.mark.parametrize("trials,seed", [(4097, 7), (20000, 0), (20000, 7)])
    def test_matches_per_trial_loop(self, trials, seed):
        got = cmd_verify(*AUDIT, trials, seed)
        assert render_record(got, "json-lines") == numpy_seeded_audit(trials, seed)

    def test_size_no_memory_can_hold(self, monkeypatch):
        # 4096 trials of 2^38 coefficients each: their one (4096, 2^38)
        # stack (8 PiB) is more than any memory holds, refused at once;
        # main turns the MemoryError into exit 2 (TestOutOfMemory)
        class HugeCounts:
            def integers(self, low, high, size):
                return np.full(size, 1 << 38, dtype=np.int64)

        monkeypatch.setattr(np.random, "default_rng", lambda seed: HugeCounts())
        with pytest.raises(MemoryError):
            cmd_verify(*AUDIT, 4096, 0)


def test_layers_the_bench_tracer_wraps_are_reached(monkeypatch):
    """A traced audit fails if a wrapped layer records no calls.

    The tracer wraps each function by name in every splineineq namespace
    that holds it, and numpy.random.default_rng; so must this test.
    """
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    targets = [("bernstein", "verify_inequality"), ("bernstein", "sharp_constant"),
               ("norms", "l2_norm_sq"), ("norms", "derivative_coeffs"),
               ("bspline", "gram_autocorrelation")]
    wrappers = {}
    for layer, name in targets:
        fn = getattr(importlib.import_module(f"splineineq.{layer}"), name)
        wrappers[id(fn)] = counting(f"{layer}.{name}", fn)
    for modname, mod in list(sys.modules.items()):
        if modname == "splineineq" or modname.startswith("splineineq."):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    monkeypatch.setattr(mod, attr, wrappers[id(obj)])
    rng = counting("rng", np.random.default_rng)
    monkeypatch.setattr(np.random, "default_rng", rng)

    cmd_verify(4, 2, 0.5, trials=1500, seed=3)
    assert calls["rng"] == 1  # the master generator; trials are seeded by hash
    for layer, name in targets:
        assert calls[f"{layer}.{name}"] > 0, name
