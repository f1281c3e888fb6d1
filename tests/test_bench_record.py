"""``tools/bench_record.py`` driven by a fake runner: no git and no subprocess."""

import importlib.util
import json
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _TOOL)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

METRICS = json.loads((_TOOL.parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]


def test_record_shape_and_alternation():
    calls = []

    def fake_run(side, workload):
        calls.append((workload, side))
        n = len(calls)
        return {
            "correct": True, "attempted": 10 * n, "failed": n % 2,
            "metrics": {m["name"]: {"value": float(n), "unit": m["unit"]} for m in METRICS},
        }

    doc = bench_record.record(fake_run, "kernel median 50.00 ms", METRICS, ["limit_sweep", "closed_form"],
                              pairs=3, seconds=2.0, seed=5)
    doc = json.loads(json.dumps(doc))  # what the file holds

    # workload by workload; within each, the side that runs first alternates from pair to pair
    order = ["parent", "change", "change", "parent", "parent", "change"]
    assert calls == [("limit_sweep", side) for side in order] + [("closed_form", side) for side in order]
    assert {key: doc[key] for key in ("seed", "pairs", "seconds", "calibrate")} == {
        "seed": 5, "pairs": 3, "seconds": 2.0, "calibrate": "kernel median 50.00 ms",
    }
    assert isinstance(doc["python"], str) and doc["cpu_count"] >= 1
    assert list(doc["workloads"]) == ["limit_sweep", "closed_form"]

    sweep = doc["workloads"]["limit_sweep"]
    assert [(r["pair"], r["side"], r["attempted"], r["failed"]) for r in sweep["runs"]] == [
        (0, "parent", 10, 1), (0, "change", 20, 0), (1, "change", 30, 1),
        (1, "parent", 40, 0), (2, "parent", 50, 1), (2, "change", 60, 0),
    ]
    assert set(sweep["metrics"]) == {m["name"] for m in METRICS} and len(METRICS) == 5
    for m in METRICS:
        row = sweep["metrics"][m["name"]]
        assert (row["unit"], row["better"]) == (m["unit"], m["better"])
        assert row["parent"] == {"q1": 2.5, "median": 4.0, "q3": 4.5}  # the runs read 1, 4, 5
        assert row["change"] == {"q1": 2.5, "median": 3.0, "q3": 4.5}  # the runs read 2, 3, 6


def test_one_pair_is_its_own_quartiles():
    assert bench_record._quartiles([7.0]) == {"q1": 7.0, "median": 7.0, "q3": 7.0}
