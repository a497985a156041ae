"""The records of every benchmark workload and policy equal the stored reference.

The jobs come from ``benchmarks/run.py``'s own set-up, so a change that moves
any record of a benchmark run fails here, not only in the benchmark's output.
"""

import functools
import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCH))  # run.py imports its sibling modules by name
_spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
bench = sys.modules["bench_run"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

REFERENCE = json.loads((BENCH / "reference.json").read_text())


@functools.cache
def inputs(workload: str):
    return bench.set_up(bench.WORKLOADS[workload], bench.DEFAULT_WORKLOAD_SEED, seed=0)


@pytest.mark.parametrize("policy", bench.POLICIES)
@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_records_match_reference(workload, policy):
    platform, jobs = inputs(workload)
    cfg = bench.bbsim.engine.SimConfig(
        io_model=bench.WORKLOADS[workload].io_model, seed=bench.SIM_SEED
    )
    records = bench.bbsim.engine.Simulation(platform, jobs[policy], policy, cfg).run()
    assert bench.records_sha256(records) == REFERENCE[workload][policy]["sha256"]
