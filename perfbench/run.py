"""twistsum benchmark: one workload per process, closed loop, one thread.

    python3 perfbench/run.py --workload closed_form --seed 1 --seconds 20 --trace 0

Run from a checkout that has the program's sources under ``src/``.  With
``--trace 0`` it times the workload for ``--seconds`` seconds of whole
rounds, checks every output against an independent reference afterwards and
prints the end-to-end metrics, with times scaled to a reference host by the
calibration kernel in ``calibrate.py``.  With ``--trace 1`` it runs a fixed number of
rounds with spans around the program's public functions, runs each round
again with no spans, and prints the per-layer metrics.  The last line of standard output
is always the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import calibrate  # the benchmark's own directory is first on sys.path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("closed_form", "limit_sweep", "lattice_numeric")
SETUP_REPEATS = 9
#: timed seconds of program calls between two readings of the calibration kernel
CALIBRATE_EVERY_S = 0.5
TAIL_QUANTILE = 95  # percentile; a 30 s run of each workload completes 275 operations or more
#: round length of each workload at the first benchmarked commit; a traced
#: run covers seconds / (2 * this) rounds, a count fixed by the workload and
#: --seconds alone so that the traced counters repeat exactly
NOMINAL_ROUND_S = {"closed_form": 0.9, "limit_sweep": 1.2, "lattice_numeric": 0.9}


def measure_setup() -> tuple[float, float]:
    """Time of a fresh interpreter running ``import twistsum``: (reference s, wall s).

    Each start alternates with a start of a fresh interpreter running
    ``import numpy`` alone, the yardstick.  The reference time is the
    median start scaled by REF_YARDSTICK_S over the median yardstick start.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    def start(module: str) -> float:
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", f"import {module}"], env=env, cwd=ROOT, check=True)
        return perf_counter() - t0

    start("twistsum")  # writes the bytecode cache
    program, yardstick = [], []
    for _ in range(SETUP_REPEATS):
        program.append(start("twistsum"))
        yardstick.append(start("numpy"))
    wall = statistics.median(program)
    return wall * calibrate.REF_YARDSTICK_S / statistics.median(yardstick), wall


def run_round(ops, records: list, tracer=None, first_id: int = 0) -> None:
    for j, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = first_id + j
        t0 = perf_counter()
        try:
            value, error = op.call(), None
        except Exception as exc:  # the outcome of one operation, judged later
            value, error = None, exc
        records.append((op, value, error, perf_counter() - t0))


def judge(records: list) -> tuple[list[bool], bool, list[str]]:
    """Check every output; return (failed flag per record, correct, problems).

    A known failing case counts as failed whatever it does.  Any other
    operation that raises or returns a wrong value makes the run incorrect.
    """
    failed, correct, problems = [], True, []
    for op, value, error, _ in records:
        if error is None:
            try:
                ok = bool(op.check(value))
            except Exception as exc:
                ok = False
                problems.append(f"check of {op.label} raised {type(exc).__name__}: {exc}")
        else:
            ok = False
        failed.append(not ok)
        if ok or op.known_fault:
            continue
        correct = False
        if error is None:
            problems.append(f"wrong value: {op.label}")
        else:
            problems.append(f"raised: {op.label}: {type(error).__name__}: {error}")
    return failed, correct, problems


def timed_run(wl, seconds: float) -> tuple[list, list[float], float]:
    """Whole rounds for ``seconds``; returns (records, reference scale per record, peak MB).

    The calibration kernel runs before the first round and then after
    every round that ends at least CALIBRATE_EVERY_S of timed calls after
    the last reading.  Each record's scale is REF_KERNEL_S over the mean of
    the two readings around it.
    """
    records: list = []
    scales: list[float] = []
    start = perf_counter()
    before = calibrate.measure()
    readings = [before]
    busy = 0.0
    i = 0
    while True:
        t0 = perf_counter()
        run_round(wl.round(i), records)
        busy += perf_counter() - t0
        i += 1
        done = perf_counter() - start >= seconds
        if busy >= CALIBRATE_EVERY_S or done:
            after = calibrate.measure()
            readings.append(after)
            scale = calibrate.REF_KERNEL_S / ((before + after) / 2)
            scales.extend([scale] * (len(records) - len(scales)))
            before, busy = after, 0.0
        if done:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"rounds {i}, operations {len(records)}, timed {sum(rec[3] for rec in records):.3f} s, "
          f"calibration kernel median {1000 * statistics.median(readings):.2f} ms "
          f"over {len(readings)} readings")
    return records, scales, peak_mb


def timing_metrics(records: list, scales: list[float], failed: list[bool], peak_mb: float) -> dict:
    """Times in reference seconds; throughput counts the time of every call,
    latency only operations that did not fail."""
    ref = [rec[3] * scale for rec, scale in zip(records, scales)]
    latencies = [t for t, bad in zip(ref, failed) if not bad]
    wall = [rec[3] for rec, bad in zip(records, failed) if not bad]
    print(f"p{TAIL_QUANTILE} over {len(latencies)} operations that did not fail")
    print(f"wall time: {len(wall) / sum(rec[3] for rec in records):.4f} op/s, "
          f"p50 {1000 * statistics.median(wall):.3f} ms, "
          f"p{TAIL_QUANTILE} {1000 * statistics.quantiles(wall, n=100)[TAIL_QUANTILE - 1]:.3f} ms")
    return {
        "ops_per_ref_s": (len(latencies) / sum(ref), "op/ref_s"),
        "op_ref_ms_p50": (1000.0 * statistics.median(latencies), "ref_ms"),
        "op_ref_ms_tail": (1000.0 * statistics.quantiles(latencies, n=100)[TAIL_QUANTILE - 1], "ref_ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def traced_run(wl, seconds: float, seed: int) -> tuple[list, dict]:
    """Each round runs traced, then again untraced, so host drift hits both alike."""
    import spans

    rounds = max(1, round(seconds / (2 * NOMINAL_ROUND_S[wl.name])))
    tracer = spans.Tracer()
    traced: list = []
    plain: list = []
    traced_s = untraced_s = 0.0
    for i in range(rounds):
        tracer.install()
        try:
            t0 = perf_counter()
            run_round(wl.round(i), traced, tracer, len(traced))
            traced_s += perf_counter() - t0
        finally:
            tracer.uninstall()
        t0 = perf_counter()
        run_round(wl.round(i), plain)
        untraced_s += perf_counter() - t0
    tracer.write(TRACE_DIR / f"trace-{wl.name}-seed{seed}.json", [rec[0].label for rec in traced])
    print(f"traced rounds {rounds}, operations {len(traced)} traced + {len(plain)} untraced, "
          f"spans {len(tracer.spans)}")
    return traced + plain, tracer.metrics(traced_s, untraced_s)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "twistsum" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'twistsum'}", file=sys.stderr)
        return 2

    setup = None if args.trace else measure_setup()
    sys.path[:0] = [str(SRC), str(HERE)]
    import refs
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        records, metrics = traced_run(wl, args.seconds, args.seed)
    else:
        records, scales, peak_mb = timed_run(wl, args.seconds)
    flags, correct, problems = judge(records)
    failed = sum(flags)
    if not args.trace:
        metrics = timing_metrics(records, scales, flags, peak_mb)
        print(f"setup: {setup[1]:.4f} s wall")
        metrics["setup_s"] = (setup[0], "s")
    broken = refs.self_test()
    if broken:
        correct = False
        problems.append("reference self-test failed: " + ", ".join(broken))
    for line in problems:
        print(line, file=sys.stderr)
    print(f"workload {args.workload}: attempted {len(records)}, failed {failed}")
    known = Counter(rec[0].label for rec in records if rec[0].known_fault)
    known_failed = Counter(rec[0].label for rec, bad in zip(records, flags) if bad and rec[0].known_fault)
    for label, attempted in sorted(known.items()):
        print(f"known failing case {label}: failed {known_failed[label]} of {attempted}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
