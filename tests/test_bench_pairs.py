"""tools/bench_pairs.py runs benchmarks/run.py in two trees and writes the pair summary."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_pairs_writes_the_pair_summary(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_pairs.py"), "--parent", str(ROOT),
         "--pairs", "1", "--seconds", "0.1", "--workloads", "io-lifecycle", "-o", str(out)],
        check=True, capture_output=True,
    )
    report = json.loads(out.read_text())
    assert {"command", "host", "method", "summary"} <= report.keys()
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
