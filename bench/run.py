"""Benchmark of the splineineq command line, one fresh process per call.

    python3 bench/run.py --workload audit --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout; it imports the package from ``src/`` there
and exits with code 2 when there is none.  Each timed call is a new
``python -m splineineq ...`` process (started through child.py) writing its
record to a file, so every call pays the cold ``lru_cache`` costs a command
line user pays.  Calls form a closed loop with one client: each starts when
the previous one has exited and been checked.  A run makes one untimed
warm-up call at the default seed, whose rows must equal the committed
reference, then timed calls until ``--seconds`` is spent, checking every
output.  Only ``audit`` depends on the seed.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced calls and reports per-layer call counts, self times and
work counters, plus the tracing overhead.  The last line of standard output
is the result object; the lines before it print every metric with its unit,
the failed fraction and the environment, which is also written, with the
samples, to ``.bench_work/results/``.

Not measured, on purpose: ``roots`` (the kernel ``sweep`` already runs
cold), ``constants`` (about 7 ms, all of it set-up) and the Tier-1 suite's
time (it grows with every change, so it is no fixed workload).

``--write-reference`` regenerates reference.json from the current code.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import tracing

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
DEFAULT_SEED = 0  # the CLI's default --seed; the reference is taken there
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 150.0
BLAS_THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def child_env(src: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(src), **{v: str(BLAS_THREADS) for v in THREAD_VARS})


def clock() -> float:
    # system-wide monotonic clock, shared with the child's import stamp
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# -- workloads -------------------------------------------------------------

AUDIT_TRIALS = 20000
SWEEP_POINTS = 16385
LONG_N = [k * 2**20 - 1 for k in range(1, 13)]


@dataclass(frozen=True)
class Workload:
    argv: Callable[[int], list[str]]  # CLI arguments for a seed
    params: Callable[[int], dict]  # the record parameters those give
    items: int  # work items per call
    check: Callable  # (record, params, seed) -> problems


def _audit_argv(seed):
    return ["verify", "--degree", "6", "--order", "3", "--spacing", "0.5",
            "--trials", str(AUDIT_TRIALS), "--seed", str(seed)]


def _long_argv(seed):
    return ["extremal", "--degree", "12"] + [a for n in LONG_N for a in ("--n", str(n))]


WORKLOADS = {
    # many tiny splines: per-call overhead in rng, bernstein, norms, bspline
    "audit": Workload(
        argv=_audit_argv,
        params=lambda seed: {"degree": 6, "order": 3, "spacing": 0.5,
                             "trials": AUDIT_TRIALS, "seed": seed},
        items=AUDIT_TRIALS,
        check=lambda rec, p, seed: checks.check_audit(rec, p, seed),
    ),
    # three symbol routes, a cold order-25 root isolation, 16k wide rows
    "sweep": Workload(
        argv=lambda seed: ["symbol", "--degree", "12", "--points", str(SWEEP_POINTS)],
        params=lambda seed: {"degree": 12, "points": SWEEP_POINTS, "rtol": 1e-12},
        items=SWEEP_POINTS,
        check=lambda rec, p, seed: checks.check_sweep(rec, p),
    ),
    # the norms kernels streaming 1M..12.6M coefficients; one item is one
    # coefficient summed over the ladder
    "long": Workload(
        argv=_long_argv,
        params=lambda seed: {"degree": 12, "n_list": ",".join(map(str, LONG_N))},
        items=sum(n + 1 for n in LONG_N),
        check=lambda rec, p, seed: checks.check_long(rec, p),
    ),
}

# -- metrics ---------------------------------------------------------------

# On a shared 2-vCPU VM the CPU speed drifts by up to 20% over minutes, in
# step across processes, so the gated times are taken relative to a reference
# process (start Python and import numpy; no repository code) timed right
# before each call.  Across ten 40 s runs this cut the spread of the median
# from 16% to 7% there.  The raw seconds are printed and kept in the results.
REFERENCE_CMD = [sys.executable, "-c", "import numpy"]

END_TO_END = {
    "wall_rel": "1",  # spawn to exit of the CLI process, in reference times
    "setup_s": "s",  # spawn until splineineq.cli is imported
    "items_per_ref": "1/ref",  # items per reference time of wall_s - setup_s
    "peak_rss_mb": "MB",  # the child's ru_maxrss
}

# Layer span -> the workloads it runs on, each with the end-to-end metrics a
# change in that layer should move there (empty: it runs but should not move
# them).  On a workload not listed the layer should not move at all; on a
# listed one it must record calls, or the traced run fails.
_OVERHEAD = ("wall_rel", "items_per_ref")
_STREAM = ("wall_rel", "items_per_ref", "peak_rss_mb")
LAYER_MAP = {
    "cli.main": {"audit": ("wall_rel",), "sweep": ("wall_rel",), "long": ("wall_rel",)},
    "cli.cmd_verify": {"audit": _OVERHEAD},
    "cli.cmd_symbol": {"sweep": _OVERHEAD},
    "cli.cmd_extremal": {"long": _STREAM},
    "cli.render_record": {"audit": _OVERHEAD, "sweep": _OVERHEAD, "long": ()},
    "rng.default_rng": {"audit": _OVERHEAD},
    "bernstein.verify_inequality": {"audit": _OVERHEAD},
    "bernstein.extremal_ratio": {"long": _STREAM},
    "bernstein.fejer_extremal_coeffs": {"long": _STREAM},
    "bernstein.sharp_constant": {"audit": (), "long": ()},
    "norms.l2_norm_sq": {"audit": _OVERHEAD, "long": _STREAM},
    "norms.derivative_coeffs": {"audit": _OVERHEAD, "long": _STREAM},
    "bspline.gram_autocorrelation": {"audit": _OVERHEAD, "sweep": (), "long": ()},
    "favard.favard": {"audit": (), "long": ()},
    "symbol.symbol_lattice": {"sweep": _OVERHEAD},
    "symbol.symbol_fourier": {"sweep": _OVERHEAD},
    "symbol.ratio_L": {"sweep": _OVERHEAD},
    "euler_frobenius.ef_roots": {"sweep": _OVERHEAD},
    "euler_frobenius.symbol_via_ef": {"sweep": _OVERHEAD},
}

PER_LAYER = {}
for _name in LAYER_MAP:
    PER_LAYER[f"{_name}.calls"] = "count"
    PER_LAYER[f"{_name}.self_s"] = "s"
PER_LAYER.update({
    "norms.l2_norm_sq.coeffs": "count",
    "norms.l2_norm_sq.bytes_computed": "B",  # from array sizes, not measured traffic
    "cli.render_record.bytes": "B",
    "trace.attributed_s": "s",  # summed self time of all spans in a traced call
    "trace.overhead_s": "s",  # traced minus untraced wall_s
})


# -- one call --------------------------------------------------------------


def invoke(argv: list[str], work: Path, tag: str, trace: bool, env: dict, src: Path) -> dict:
    """Run one CLI call in a fresh process; return its timings and paths."""
    out, meta, err = (work / f"{tag}{ext}" for ext in (".jsonl", ".meta.json", ".err"))
    cmd = [sys.executable, str(CHILD), str(meta), str(src), str(int(trace)), "--",
           *argv, "--out", str(out)]
    with open(err, "wb") as errf:
        t0 = clock()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=errf, env=env)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            t1 = clock()
            killer.cancel()
            killer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    call = {"rc": proc.returncode, "wall_s": t1 - t0, "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "out": out, "err": err, "trace": trace}
    if meta.exists():
        info = json.loads(meta.read_text(encoding="utf-8"))
        call["setup_s"] = info["t_import"] - t0
        if trace:
            call["layers"] = _layer_figures(info["trace"], Path(f"{meta}.npz"))
            Path(f"{meta}.npz").unlink()
        meta.unlink()
    return call


def _layer_figures(info: dict, spans_path: Path) -> dict:
    import numpy as np

    with np.load(spans_path) as spans:
        calls, self_s = tracing.self_times(
            spans["span_name"], spans["parent"], spans["start"], spans["end"],
            len(info["names"]),
        )
    figures = dict(info["counters"])
    for i, name in enumerate(info["names"]):
        figures[f"{name}.calls"] = int(calls[i])
        figures[f"{name}.self_s"] = float(self_s[i])
    figures["trace.attributed_s"] = float(self_s.sum())
    return figures


def check_call(call: dict, workload: str, seed: int, reference: dict | None) -> list[str]:
    """Problems with one call's exit code and output; empty when correct."""
    problems = []
    if call["rc"] != 0:
        problems.append(f"exit code {call['rc']}")
    if "setup_s" not in call:
        problems.append("child wrote no import time")
    if not call["out"].exists():
        problems.append("no output file")
    else:
        record = checks.parse(call["out"].read_text(encoding="utf-8"))
        call["out"].unlink()
        if record is None:
            problems.append("output does not re-parse")
        else:
            wl = WORKLOADS[workload]
            try:
                problems += wl.check(record, wl.params(seed), seed)
                if reference is not None:
                    problems += checks.check_reference(record, reference)
            except (KeyError, TypeError, ValueError) as exc:
                problems.append(f"malformed rows: {exc!r}")
    if call["trace"] and "layers" in call:
        for name, runs_on in LAYER_MAP.items():
            if workload in runs_on and call["layers"].get(f"{name}.calls", 0) == 0:
                problems.append(f"layer {name} recorded no calls")
    if problems and call["err"].exists():
        tail = call["err"].read_text(encoding="utf-8", errors="replace").strip()[-400:]
        if tail:
            problems.append(f"stderr: {tail}")
    call["err"].unlink(missing_ok=True)
    return problems


# -- environment -----------------------------------------------------------


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _git_commit(root: Path) -> str | None:
    head = _read(root / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(root / ".git" / ref)
    if direct:
        return direct
    for line in (_read(root / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _caches() -> dict:
    found = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else ():
        level, kind = _read(index / "level"), _read(index / "type")
        if kind in ("Unified", "Data"):
            found[f"L{level}"] = _read(index / "size")
    return found


def environment(root: Path, seed: int) -> dict:
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "child_blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "caches": _caches(),
        "git_commit": _git_commit(root),
        "seed": seed,
    }


# -- a run -----------------------------------------------------------------


def _median(values):
    return statistics.median(values) if values else None


def _summary(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} median={q2:.6g} q3={q3:.6g}"


def run(workload: str, seed: int, seconds: int, trace: bool, root: Path) -> int:
    src = root / "src"
    wl = WORKLOADS[workload]
    env = child_env(src)
    work = root / ".bench_work" / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    reference = checks.load_reference()[workload]
    # sweep and long ignore the seed, so every call can meet the reference
    same_as_reference = wl.argv(seed) == wl.argv(DEFAULT_SEED)

    attempted, failures = 0, []
    calls = []

    def one(tag: str, argv_seed: int, traced: bool, ref) -> dict:
        nonlocal attempted
        t0 = clock()
        subprocess.run(REFERENCE_CMD, env=env, stdin=subprocess.DEVNULL, check=True)
        reference_s = clock() - t0
        call = invoke(wl.argv(argv_seed), work, tag, traced, env, src)
        call["reference_s"] = reference_s
        problems = check_call(call, workload, argv_seed, ref)
        attempted += 1
        if problems:
            failures.append({"call": tag, "problems": problems})
        call["ok"] = not problems
        return call

    start = clock()
    one("warmup", DEFAULT_SEED, False, reference)
    rounds = 0
    while True:
        t_round = clock()
        order = (False, True) if rounds % 2 == 0 else (True, False)
        for traced in order if trace else (False,):
            call = one(f"call{len(calls)}", seed, traced, reference if same_as_reference else None)
            calls.append(call)
        rounds += 1
        now = clock()
        if rounds >= MIN_ROUNDS and (now - start) + (now - t_round) > seconds:
            break

    good = [c for c in calls if c["ok"]]
    plain = [c for c in good if not c["trace"]]
    metrics, notes = {}, {}
    if plain:
        walls = [c["wall_s"] for c in plain]
        setups = [c["setup_s"] for c in plain]
        refs = [c["reference_s"] for c in plain]
        figures = {
            "wall_rel": [w / r for w, r in zip(walls, refs)],
            "setup_s": setups,
            "items_per_ref": [wl.items * r / (w - s) for w, s, r in zip(walls, setups, refs)],
            "peak_rss_mb": [c["peak_rss_mb"] for c in plain],
        }
        traced_calls = [c for c in good if c["trace"]]
        if not trace:
            for name, unit in END_TO_END.items():
                metrics[name] = {"value": _median(figures[name]), "unit": unit}
                notes[name] = _summary(figures[name])
            notes["wall_s (s)"] = _summary(walls)
            notes["items_per_s (1/s)"] = _summary([wl.items / (w - s) for w, s in zip(walls, setups)])
            notes["reference_s (s)"] = _summary(refs)
        elif traced_calls:
            for name, unit in PER_LAYER.items():
                values = [c["layers"].get(name, 0) for c in traced_calls]
                metrics[name] = {"value": _median(values), "unit": unit}
            overhead = _median([c["wall_s"] for c in traced_calls]) - _median(walls)
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
            notes["untraced compute_s"] = _summary([w - s for w, s in zip(walls, setups)])

    correct = not failures and bool(metrics)
    result = {"correct": correct, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    info = environment(root, seed)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "argv": wl.argv(seed), "environment": info, "failures": failures,
              "samples": [{k: v for k, v in c.items() if k not in ("out", "err")} for c in calls],
              "result": result}
    results = root / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-s{seed}-t{int(trace)}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)

    print(f"workload {workload}: {' '.join(wl.argv(seed))}")
    print(f"environment {json.dumps(info)}")
    for failure in failures:
        print(f"FAILED {failure['call']}: {'; '.join(failure['problems'])}")
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:>14.6g} {m['unit']:6s} {notes.get(name, '')}")
    for name, note in notes.items():
        if name not in metrics:
            print(f"{name:36s} {note}")
    print(f"{'failed_frac':36s} {len(failures) / attempted:>14.6g} 1      "
          f"({len(failures)} of {attempted} calls)")
    print(json.dumps(result))
    return 0 if correct else 1


def write_reference(root: Path) -> int:
    src = root / "src"
    env = child_env(src)
    work = root / ".bench_work" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    entries = {}
    for name, wl in WORKLOADS.items():
        call = invoke(wl.argv(DEFAULT_SEED), work, name, False, env, src)
        record = checks.parse(call["out"].read_text(encoding="utf-8"))
        problems = [] if record is None else wl.check(record, wl.params(DEFAULT_SEED), DEFAULT_SEED)
        if call["rc"] != 0 or record is None or problems:
            print(f"{name}: not a valid reference: rc={call['rc']} {problems}", file=sys.stderr)
            return 1
        entries[name] = checks.reference_entry(record)
    shutil.rmtree(work, ignore_errors=True)
    checks.REFERENCE_PATH.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")

    root = Path.cwd()
    if not (root / "src" / "splineineq" / "__init__.py").is_file():
        print("bench: no src/splineineq here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    global checks
    import checks

    if args.write_reference:
        return write_reference(root)
    return run(args.workload, args.seed, args.seconds, bool(args.trace), root)


if __name__ == "__main__":
    sys.exit(main())
