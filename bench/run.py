"""Benchmark entry point for randaudit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads are ``cli-paper``,
``verdict-long`` and ``search-batch`` (see bench/README.md).  With
``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it prints the per-layer metrics of a traced run.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; lines before it record the
environment and the sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from spans import STAGES, overdrawn
from worker import calibration_ms
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
OUT_DIR = Path(".bench-out")
SETUPS = 5  # set-up is measured this many times per run; the median is reported
# Times are reported as if the calibration kernel (worker.calibration_ms)
# took this long; each time is rescaled by the kernel time measured next to it.
CAL_REF_MS = 5.0
PROBES = 5  # interpreter and import probes per traced run
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)
# Operations per traced run: whole blocks, about 20-30 s of work each.
TRACE_OPS = {"cli-paper": 60, "verdict-long": 80, "search-batch": 240}
LAYERS = ("process", "cli", "sequences", "exact", "verdicts", "audit", "simulate", "report")


def environment() -> dict:
    commit = "unknown"
    head = Path(".git/HEAD")
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = Path(".git") / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": commit,
        "threads_per_library": 1,
    }


def start_worker(args: argparse.Namespace, *extra: str) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.monotonic_ns()
    proc = subprocess.run(
        [*cmd, "--t0", str(t0), *extra], stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=170
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def to_reference(ms: list[float], calibration: list[float]) -> list[float]:
    """Times rescaled to a machine on which the calibration kernel takes CAL_REF_MS."""
    return [t * CAL_REF_MS / c for t, c in zip(ms, calibration)]


def op_times(worker: dict) -> list[float]:
    """Operation times in reference ms; each uses the kernel runs on both sides of it."""
    cal = worker["calibration_ms"]
    return to_reference(worker["latencies_ms"], [(a + b) / 2 for a, b in zip(cal, cal[1:])])


def end_to_end(args: argparse.Namespace) -> tuple[dict, dict]:
    workers = [start_worker(args, "--setup-only") for _ in range(SETUPS - 1)]
    run = start_worker(args, "--seconds", str(args.seconds))
    workers.append(run)
    setups = [w["setup_s"] for w in workers]
    setups_ref = to_reference(setups, [w["setup_calibration_ms"] for w in workers])
    raw = run["latencies_ms"]
    lat = op_times(run)
    metrics = {
        "setup_s": (statistics.median(setups_ref), "s"),
        "ops_per_s": (len(lat) / (sum(lat) / 1000), "ops/s"),
        "op_ms.p50": (statistics.median(lat), "ms"),
        "op_ms.p90": (percentile(lat, 90), "ms"),
        "ok_ratio": ((run["attempted"] - run["failed"]) / run["attempted"], "ratio"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    info = {
        "samples": {"setup_s": len(setups), "op_ms": len(lat)},
        "calibration_ms": statistics.median(run["calibration_ms"]),
        "wall_clock": {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(raw) / (sum(raw) / 1000),
            "op_ms.p50": statistics.median(raw),
            "op_ms.p90": percentile(raw, 90),
        },
    }
    return metrics, {**run, "info": info}


def probe_ms(code: str, importtime: bool = False) -> list[dict]:
    """Bare-interpreter wall time, or -X importtime readings, in reference ms."""
    flags = ["-X", "importtime"] if importtime else []
    readings = []
    for _ in range(PROBES):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *flags, "-c", code], stdin=subprocess.DEVNULL, capture_output=True, text=True
        )
        wall = (time.perf_counter() - start) * 1000
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit("interpreter probe failed")
        scale = CAL_REF_MS / calibration_ms()
        if not importtime:
            readings.append({"wall": wall * scale})
            continue
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1000 * scale)
        readings.append(cumulative)
    return readings


def per_layer(args: argparse.Namespace) -> tuple[dict, dict]:
    ops = TRACE_OPS[args.workload]
    python = probe_ms("pass")
    imports = probe_ms("import randaudit", importtime=True)
    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
    plain = start_worker(args, "--ops", str(ops))
    traced = start_worker(args, "--ops", str(ops), "--spans", str(spans_file))
    summary = traced["summary"]
    scale = CAL_REF_MS / statistics.median(traced["calibration_ms"])

    def total(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0.0)

    def per_op_ms(name: str, key: str = "self_ns") -> float:
        return total(name, key) / 1e6 / ops * scale

    search = "audit.flip_search"
    searches = total(search, "searches")
    found = total(search, "found")
    rate_s = total("simulate.rejection_rate", "self_ns") / 1e9 * scale
    metrics: dict[str, tuple[float, str]] = {
        "process.python_ms": (statistics.median(r["wall"] for r in python), "ms"),
        "process.import_ms": (statistics.median(r.get("randaudit", 0.0) for r in imports), "ms"),
        "process.import_numpy_ms": (statistics.median(r.get("numpy", 0.0) for r in imports), "ms"),
        "cli.parse_args_ms": (per_op_ms("cli.parse_args", "duration_ns"), "ms"),
        "cli.run_ms": (per_op_ms("cli.run", "duration_ns"), "ms"),
    }
    for name in STAGES:
        metrics[f"{name}.self_ms"] = (per_op_ms(name), "ms")
    metrics.update(
        {
            "op.traced_ms": (per_op_ms("op", "duration_ns"), "ms"),
            "exact.tail.calls": (total("exact.tail", "calls") / ops, "count"),
            "audit.flip_search.exhaustive_ms": (per_op_ms(search, "method=exhaustive.self_ns"), "ms"),
            "audit.flip_search.constructive_ms": (per_op_ms(search, "method=constructive.self_ns"), "ms"),
            "audit.flip_search.minimal_ratio": (
                total(search, "guaranteed_minimal") / searches if searches else 0.0,
                "ratio",
            ),
            "audit.flip_search.mean_flips": (total(search, "flip_count") / found if found else 0.0, "count"),
            "simulate.trials_per_s": (
                total("simulate.rejection_rate", "trials") / rate_s if rate_s else 0.0,
                "1/s",
            ),
            "report.bytes_per_op": (total("report.json", "bytes") / ops, "bytes"),
        }
    )
    for layer in LAYERS:
        calls = sum(row["calls"] for name, row in summary.items() if name.split(".")[0] == layer)
        metrics[f"{layer}.calls"] = (calls / ops, "count")
    metrics["trace.overhead_ratio"] = (sum(op_times(plain)) / sum(op_times(traced)), "ratio")
    if bad := overdrawn(summary):
        raise SystemExit(f"replays take longer than the calls they explain: {', '.join(bad)}")
    run = {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "errors": plain["errors"] + traced["errors"],
        "info": {
            "samples": {"traced_ops": ops, "probes": PROBES},
            "calibration_ms": statistics.median(traced["calibration_ms"]),
            "spans_file": str(spans_file),
        },
    }
    return metrics, run


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not Path("src/randaudit/__init__.py").is_file():
        raise SystemExit("bench/run.py: run from the repository root; src/randaudit is missing")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.path.abspath("src")

    env = environment()
    metrics, run = per_layer(args) if args.trace else end_to_end(args)
    print(json.dumps({"environment": env, "workload": args.workload, "seed": args.seed, **run["info"]}))
    for message in run["errors"]:
        print(f"# failed operation: {message}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6f} {unit}")
    print(
        json.dumps(
            {
                "correct": run["failed"] == 0,
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )


if __name__ == "__main__":
    main()
