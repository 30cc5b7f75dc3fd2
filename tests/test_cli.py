from __future__ import annotations

import hashlib
import math

import pytest

from splineineq import cli
from splineineq.bernstein import InequalityReport
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
        record = OutputRecord(
            command="t", parameters={"a": 1.0, "b": 2, "c": None}, rows=[
                {"x": 1.0, "y": 3, "z": "s", "w": True, "v": None}
            ]
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
        record = OutputRecord(
            command="t", parameters={}, rows=[{"v": v} for v in vals]
        )
        for fmt in ("csv", "json-lines"):
            back = parse_record(render_record(record, fmt), fmt)
            assert [r["v"] for r in back.rows] == vals

    def test_unknown_format_rejected(self):
        record = cmd_roots(3)
        with pytest.raises(cli.UsageError):
            render_record(record, "xml")


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
        out = capsys.readouterr().out
        assert code == 2
        record = parse_record(out, "json-lines")
        assert len(record.rows) == 3

    def test_usage_error_exit(self, capsys):
        code = main(["roots", "--max-order", "6"])
        err = capsys.readouterr().err
        assert code == 2
        assert "odd" in err

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
]


class TestGoldenOutput:
    @pytest.mark.parametrize("args,fmt,digest", GOLDEN)
    def test_stdout_digest(self, capsys, args, fmt, digest):
        code = main(args.split() + ["--format", fmt])
        out = capsys.readouterr().out
        assert code == (2 if "--degree 0" in args else 0)
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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
