"""The trace of every benchmark run reaches its sink in time order.

A submit line carries the time of the tick that queues the job, and the job's
own submit time in "submit". Apart from that, the lines are the ones the engine
wrote when submit lines carried the submit time as "t", in the same order:
each run's lines, mapped back to that form, hash to the pins below.
"""

import hashlib
import json

import pytest

from test_reference_records import bench, inputs

# sha256 of each run's JSON lines, with each submit line's "t" set to its
# "submit" and that field dropped
LINES_SHA256 = {
    "backfill-pressure": {
        "fcfs": "eca6a51897338250b6b9bbde858ebc8fdab29e52f97a2d58842d72524909604a",
        "filler": "c19853e5260ab39aafdbd939a28d71ede0dccd84dc16d69a87b97e0f58340bf5",
        "fcfs-easy": "98ca32fdafc79104a447910b343ef3f314536baa2f86bae832a89d58053d3901",
        "fcfs-bb": "1dfb39daa10dd0e44671ff22120e5310fef26ba0308bcfe86b664a39abd9f8f9",
        "sjf-bb": "b4e7c50829a127c0809891ef2781159e4b434d4d61a5a3cb8990e00d0396042d",
        "plan": "327edd5a0efe03cf6fe7d064fb4af1657de3aa64f03c471f270e81fcd0818862",
    },
    "io-lifecycle": {
        "fcfs": "c690a795ce70b26e3ad33e97022b4d62d9f9145819b9f6d961081b51b598b9e7",
        "filler": "fad0b18e28c6132d9c1210cd7643d170c82338fc71403440b31c6b1c5909c77e",
        "fcfs-easy": "e2b7cd5de5ce7047f87aa3c82e9cefabe73d37e69a376f03172f7e2b821c2163",
        "fcfs-bb": "4fb913a1374dd5c959f86ebd0a647c2027c7519905d80077e91e18484ab4a0f5",
        "sjf-bb": "3dc49fbbcb4cd7191f9a319d33c30446ff0519bf41e6c1482d7862ea8713b58d",
        "plan": "4105aa09ef04e539eb0152a2f1a733cc8460a8c0680dc56b3ed0101325b14a9b",
    },
}

QUEUE_POLICY_LINES = {"backfill-pressure": 1500, "io-lifecycle": 900}


def submit_timed(line: dict) -> dict:
    if line["event"] != "submit":
        return line
    line = {**line, "t": line["submit"]}
    del line["submit"]
    return line


@pytest.mark.parametrize("policy", bench.POLICIES)
@pytest.mark.parametrize("workload", sorted(LINES_SHA256))
def test_trace_is_time_ordered(workload, policy):
    platform, jobs = inputs(workload)
    cfg = bench.bbsim.engine.SimConfig(
        io_model=bench.WORKLOADS[workload].io_model, seed=bench.SIM_SEED
    )
    lines: list[dict] = []
    bench.bbsim.engine.Simulation(platform, jobs[policy], policy, cfg, sink=lines.append).run()

    # submit, launch, and finish or kill of each job
    assert len(lines) == (180 if policy == "plan" else QUEUE_POLICY_LINES[workload])
    times = [line["t"] for line in lines]
    assert times == sorted(times)
    for line in lines:
        if line["event"] == "submit":
            assert line["submit"] <= line["t"] < line["submit"] + cfg.tick_period_s
    text = "".join(json.dumps(submit_timed(line)) + "\n" for line in lines)
    assert hashlib.sha256(text.encode()).hexdigest() == LINES_SHA256[workload][policy]
