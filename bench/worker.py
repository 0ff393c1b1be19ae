"""One benchmark process: set up, run one workload, print one JSON line.

Started by ``run.py`` in a fresh interpreter so that set-up (interpreter
start, ``import randaudit``, input generation, one warm-up call per
operation family) is paid in full every time.  ``--t0`` is the
``time.monotonic_ns()`` reading the parent took just before starting
this process; CLOCK_MONOTONIC is system-wide, so set-up time is measured
from process start.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time

from spans import NullTracer, Tracer

MIN_OPS = 100  # op_ms.p90 needs ten samples beyond it
SETUP_CALIBRATIONS = 5


def calibration_ms() -> float:
    """Wall time of a fixed pure-Python kernel: big-int binomial sums and a string scan.

    The kernel shares no code with the program, so only the machine's
    speed moves it.  The speed of a shared machine drifts by 15-30% over
    seconds to minutes; timed right before and right after each
    operation, this kernel drifts with it, and ``run.py`` divides the
    drift out.
    """
    start = time.perf_counter()
    c, total, n = 1, 0, 2000
    for k in range(n // 2):
        c = c * (n - k) // (k + 1)
        total += c
    text = "".join("HT"[(i * i) % 7 < 3] for i in range(20000))
    total += sum(1 for a, b in zip(text, text[1:]) if a != b)
    return (time.perf_counter() - start) * 1000


def run_ops(workload, seed: int, tracer, seconds: float = 0.0, ops: int = 0) -> dict:
    """Closed loop, one client: each operation starts when the last one ends.

    With ``ops`` set, exactly that many operations run; otherwise the
    loop runs whole blocks until ``seconds`` have passed and ``MIN_OPS``
    are done.  Latency covers the program calls only; input generation,
    the oracle check and the calibration kernel run between operations.
    """
    latencies: list[float] = []
    calibrations: list[float] = []
    failed = 0
    errors: list[str] = []
    deadline = time.perf_counter() + seconds
    block = 0
    while not (ops and len(latencies) >= ops):
        for op in workload.block(seed, block):
            calibrations.append(calibration_ms())
            start = time.perf_counter()
            first_span = len(tracer.spans) if tracer.enabled else 0
            try:
                output = tracer.operation(lambda t: workload.run(t, op))
                elapsed = time.perf_counter() - start
                if tracer.enabled:
                    elapsed = tracer.spans[first_span].duration_ns / 1e9
                workload.check(op, output)
            except Exception as exc:  # a failed operation is counted, not fatal
                elapsed = time.perf_counter() - start
                failed += 1
                if len(errors) < 5:
                    errors.append(f"{type(exc).__name__}: {exc}")
            latencies.append(elapsed * 1000)
            if ops and len(latencies) >= ops:
                break
        block += 1
        # A timed run stops only between blocks, so every run holds the
        # same mix of operation families.
        if not ops and len(latencies) >= MIN_OPS and time.perf_counter() >= deadline:
            break
    calibrations.append(calibration_ms())
    return {
        "latencies_ms": latencies,
        "calibration_ms": calibrations,
        "attempted": len(latencies),
        "failed": failed,
        "errors": errors,
    }


def peak_rss_mb(scope: str) -> float:
    who = resource.RUSAGE_CHILDREN if scope == "children" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--ops", type=int, default=0)
    parser.add_argument("--spans", help="trace the run and write its spans to this file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import workloads

    workloads.setup()
    workload = workloads.WORKLOADS[args.workload]
    for op in workload.warmups():
        workload.run(NullTracer(), op)
    workload.block(args.seed, 0)
    setup_s = (time.monotonic_ns() - args.t0) / 1e9
    result: dict = {
        "setup_s": setup_s,
        "setup_calibration_ms": statistics.median(calibration_ms() for _ in range(SETUP_CALIBRATIONS)),
    }
    if not args.setup_only:
        tracer = Tracer() if args.spans else NullTracer()
        result.update(run_ops(workload, args.seed, tracer, seconds=args.seconds, ops=args.ops))
        result["peak_rss_mb"] = peak_rss_mb(workload.rss_scope)
        if args.spans:
            result["summary"] = tracer.summary()
            tracer.write(args.spans, {"workload": args.workload, "seed": args.seed})
    print(json.dumps(result))


if __name__ == "__main__":
    main()
