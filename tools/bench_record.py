"""Record the benchmark's end-to-end metrics on the working tree and on a parent commit.

    python3 tools/bench_record.py --parent HEAD~1 --pairs 3 --seconds 30 --seed 1 --out BENCH_<n>.json

Run it from a checkout of the repository.  The working tree is the change.
The parent is checked out with ``git worktree add`` into a temporary
directory, which is removed on every exit.  The tool refuses to run when the
benchmark's paths (``perfbench/``) or ``BENCHMARK.json`` differ between the
two, so both sides run identical benchmark code.

Each pair runs ``perfbench/run.py --workload W --seed K --seconds S --trace 0``
once on each side, with this interpreter.  The side that runs first
alternates from pair to pair.  For each workload and each end-to-end metric
of ``BENCHMARK.json``, the file holds each side's median and quartiles.  It
also holds every run's ``attempted`` and ``failed``, the settings, the Python
version, the CPU count and one reading of ``perfbench/calibrate.py``.  It
records numbers and compares nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def _quartiles(values: list[float]) -> dict:
    """Median and quartiles; a single run is its own quartiles."""
    q1, median, q3 = statistics.quantiles(values * 2 if len(values) == 1 else values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def record(run, calibration: str, metrics: list[dict], workloads: list[str], pairs: int,
           seconds: float, seed: int) -> dict:
    """The record of ``pairs`` pairs per workload.

    ``run(side, workload)`` returns the JSON result (the last line) of one
    ``perfbench/run.py`` run on that side.  The parent runs first in the even
    pairs, the change in the odd ones.
    """
    doc = {
        "seed": seed, "pairs": pairs, "seconds": seconds, "python": platform.python_version(),
        "cpu_count": os.cpu_count(), "calibrate": calibration, "workloads": {},
    }
    for workload in workloads:
        runs = []
        for pair in range(pairs):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                result = run(side, workload)
                runs.append({
                    "pair": pair, "side": side, "attempted": result["attempted"], "failed": result["failed"],
                    "correct": result["correct"],
                    "metrics": {m["name"]: result["metrics"][m["name"]]["value"] for m in metrics},
                })
        doc["workloads"][workload] = {
            "metrics": {
                m["name"]: {
                    "unit": m["unit"], "better": m["better"],
                    **{side: _quartiles([r["metrics"][m["name"]] for r in runs if r["side"] == side])
                       for side in SIDES},
                }
                for m in metrics
            },
            "runs": runs,
        }
    return doc


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)


def _output(cmd: list[str], cwd: Path) -> str:
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{' '.join(cmd)} in {cwd} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the parent revision, e.g. HEAD~1")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", help="default: every workload of BENCHMARK.json")
    parser.add_argument("--out", required=True, metavar="FILE")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]

    parent = _git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    if parent.returncode:
        parser.error(f"unknown revision {args.parent!r}")
    parent = parent.stdout.strip()
    if _git("diff", "--quiet", parent, "--", *bench["paths"], "BENCHMARK.json").returncode:
        print(f"bench_record: the benchmark differs between {args.parent} and the working tree", file=sys.stderr)
        return 2
    change = _git("describe", "--always", "--dirty", "--abbrev=40").stdout.strip()

    with tempfile.TemporaryDirectory(prefix="bench_record-") as tmp:
        tree = Path(tmp) / "parent"
        try:
            _output(["git", "worktree", "add", "--detach", str(tree), parent], ROOT)
            roots = {"parent": tree, "change": ROOT}

            def run(side: str, workload: str) -> dict:
                cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", "0"]
                return json.loads(_output(cmd, roots[side]).splitlines()[-1])

            calibration = _output([sys.executable, "perfbench/calibrate.py"], ROOT).strip()
            doc = record(run, calibration, bench["end_to_end"], workloads, args.pairs, args.seconds, args.seed)
        finally:
            _git("worktree", "remove", "--force", str(tree))
            _git("worktree", "prune")
    doc = {"parent": parent, "change": change, **doc}
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
