"""The benchmark's per-layer tracer still finds the names it rebinds.

``benchmarks/tracing.py`` wraps public bbsim functions where their callers
look them up. If a layer stops calling one of those names, ``--trace 1``
reports zero calls for it without failing; this catches that. Nodes are
bound only by ``gantt``, from a trace: a simulation that writes one calls
neither ``allocate_nodes`` nor ``allocate_bb``, and ``gantt`` calls both.
"""

import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

import bbsim.engine
import bbsim.policies
from bbsim.cli import main
from bbsim.platform import DEFAULT_BB_MODEL, PlatformConfig, build_platform
from bbsim.policies import POLICY_NAMES
from bbsim.workload import synthetic_workload, write_workload

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"
_spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

BINDING = ("engine.allocate_nodes", "engine.allocate_bb")
BY_POLICY = {"plan": ("planner.plan_schedule", "planner.build_plan")}


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_tracer_sees_every_layer(policy, tmp_path, capsys):
    platform = build_platform(PlatformConfig())
    cap = platform.total_bb
    jobs = [replace(j, bb_per_proc=min(j.bb_per_proc, cap // j.n_procs))
            for j in synthetic_workload(20, seed=1, bb_model=DEFAULT_BB_MODEL)]
    workload, trace = tmp_path / "jobs.jsonl", tmp_path / "trace.jsonl"
    with open(workload, "w") as f:
        write_workload(f, jobs)
    with tracing.Tracer() as tracer:
        assert main(["simulate", "--workload", str(workload), "--policy", policy,
                     "--io-model", "on", "--trace", str(trace), "-o", str(tmp_path / "r.csv"),
                     "--manifest", str(tmp_path / "m.json")]) == 0
    spans = ("engine.link.add", *BY_POLICY.get(policy, ("policies.run_policy",)))
    assert {name: tracer.spans[name].calls > 0 for name in spans} == dict.fromkeys(spans, True)
    assert [tracer.spans[name].calls for name in BINDING] == [0, 0]
    assert bbsim.engine.run_policy is bbsim.policies.run_policy  # unbound on exit

    with tracing.Tracer() as replay:
        assert main(["gantt", str(trace), "-o", str(tmp_path / "gantt.csv")]) == 0
    assert [replay.spans[name].calls for name in BINDING] == [len(jobs)] * 2
    assert capsys.readouterr().err == ""
