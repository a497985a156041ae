"""tools/bench_pairs.py runs benchmarks/run.py in two trees and writes the pair summary."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_bench_pairs_writes_the_pair_summary(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_pairs.py"), "--parent", str(ROOT),
         "--pairs", "1", "--seconds", "0.1", "--workloads", "io-lifecycle", "-o", str(out),
         "--change", "nothing: the tree against itself"],
        check=True, capture_output=True,
    )
    report = json.loads(out.read_text())
    assert {"change", "complete", "command", "host", "method", "summary",
            "checks"} <= report.keys()
    assert report["change"] == "nothing: the tree against itself"
    assert report["complete"] is True
    assert report["checks"] == {"runs": 2, "failed": 0, "records_differ_from_reference": []}
    assert list(report["workloads"]) == ["io-lifecycle"]
    wl = report["workloads"]["io-lifecycle"]
    assert wl["pairs"] == 1
    assert wl["failed"] == {"parent": 0, "change": 0}
    assert wl["attempted"]["parent"] == wl["attempted"]["change"] > 0
    assert wl["records_differ_from_reference"] == {"parent": [], "change": []}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(wl["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    for metric in wl["metrics"].values():
        assert set(metric) == {"unit", "parent", "change", "change_lower", "runs"}
        for side in ("parent", "change"):
            (value,) = metric["runs"][side]
            assert metric[side] == {"median": value, "q1": value, "q3": value}
        assert metric["change_lower"] in (0, 1)


def test_checks_sum_over_every_run_of_both_sides():
    def workload(pairs, failed, differ):
        return {"pairs": pairs, "failed": dict(zip(("parent", "change"), failed)),
                "records_differ_from_reference": dict(zip(("parent", "change"), differ))}

    summary = {
        "backfill-pressure": workload(10, (0, 3), ([], ["plan"])),
        "io-lifecycle": workload(10, (2, 0), (["fcfs", "plan"], ["fcfs"])),
        "plan-anneal": workload(4, (0, 0), ([], [])),
    }
    assert bench_pairs.checks(summary) == {
        "runs": 48, "failed": 5,
        "records_differ_from_reference": [
            "backfill-pressure/plan", "io-lifecycle/fcfs", "io-lifecycle/plan"],
    }


def test_a_failing_run_keeps_the_pairs_already_done(tmp_path, monkeypatch):
    calls = 0

    def run_once(tree, workload, seed, seconds):  # the second pair's first run fails
        nonlocal calls
        calls += 1
        if calls == 3:
            raise RuntimeError("benchmarks/run.py exited 1")
        return {"metrics": {"sim_s": {"unit": "s", "value": 0.1 * calls}},
                "failed": 0, "attempted": 7, "records_differ_from_reference": []}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "bench.json"
    with pytest.raises(RuntimeError):
        bench_pairs.main(["--parent", str(ROOT), "--pairs", "3", "--workloads", "io-lifecycle",
                          "-o", str(out), "--change", "a change"])
    report = json.loads(out.read_text())
    assert report["complete"] is False
    wl = report["workloads"]["io-lifecycle"]
    assert wl["pairs"] == 1
    assert wl["metrics"]["sim_s"]["runs"] == {"parent": [0.1], "change": [0.2]}
    assert report["checks"] == {"runs": 2, "failed": 0, "records_differ_from_reference": []}
