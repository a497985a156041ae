"""The benchmark's per-layer tracer still finds the names it rebinds.

``benchmarks/tracing.py`` wraps public bbsim functions where their callers
look them up. If a layer stops calling one of those names, ``--trace 1``
reports zero calls for it without failing; this catches that. Nodes are
bound only while a trace is written, so the run has a sink.
"""

import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

import bbsim.engine
import bbsim.policies
from bbsim.engine import SimConfig, Simulation
from bbsim.platform import DEFAULT_BB_MODEL, PlatformConfig, build_platform
from bbsim.policies import POLICY_NAMES
from bbsim.workload import synthetic_workload

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"
_spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

BINDING = ("engine.allocate_nodes", "engine.allocate_bb")
EVERY_POLICY = (*BINDING, "engine.link.add")
BY_POLICY = {"plan": ("planner.plan_schedule", "planner.build_plan")}


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_tracer_sees_every_layer(policy):
    platform = build_platform(PlatformConfig())
    cap = platform.total_bb
    jobs = [replace(j, bb_per_proc=min(j.bb_per_proc, cap // j.n_procs))
            for j in synthetic_workload(20, seed=1, bb_model=DEFAULT_BB_MODEL)]
    with tracing.Tracer() as tracer:
        Simulation(platform, jobs, policy, SimConfig(io_model="on"), sink=[].append).run()
    spans = EVERY_POLICY + BY_POLICY.get(policy, ("policies.run_policy",))
    assert {name: tracer.spans[name].calls > 0 for name in spans} == dict.fromkeys(spans, True)
    assert bbsim.engine.run_policy is bbsim.policies.run_policy  # unbound on exit

    with tracing.Tracer() as untraced:
        Simulation(platform, jobs, policy, SimConfig(io_model="on")).run()
    assert [untraced.spans[name].calls for name in BINDING] == [0, 0]
