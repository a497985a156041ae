"""The trace of every benchmark run reaches its sink in time order.

A submit line carries the time of the tick that queues the job, and the job's
own submit time in "submit"; a launch line carries the job's n_procs and
bb_total. Each run's lines hash to the pins below.
"""

import hashlib
import json

import pytest

from test_reference_records import bench, inputs

# sha256 of each run's JSON lines
LINES_SHA256 = {
    "backfill-pressure": {
        "fcfs": "4c6c5059fe8d06ee7e6673f3129c19443be983fe4b3849ca664c4269d908596a",
        "filler": "ec0dcae2434d9287ddeabea89e40cde6c9e23c6a6daecf8bca1ba0b872860b48",
        "fcfs-easy": "ac74e11f9d16906490e11e64e13819705c02450cfd3ab8b086d24de6cf3d4609",
        "fcfs-bb": "e84f318be3f0c8c8609404f86c0ac7ca2da970e00011db8ff4e1f51317ec177c",
        "sjf-bb": "571b9a90800c8ec2fc1b864987d97fb976aa64378b5bc00909cf153a1356a52f",
        "plan": "db398a9cffbd44a3ad71dcdc5c768874d12348d880037ee00e272bb66299fdd9",
    },
    "io-lifecycle": {
        "fcfs": "ea87d9e4a5844b04e54a2e21ee5f7bd83142893db095a8fc84ccd69528204715",
        "filler": "52964cee1ab5bc5cc4d30fa1ec6de229cd9b9d2452a51e409e90491df9291d04",
        "fcfs-easy": "07166c4636805a1e03d9009c727377254fc014af1238be2c73093af949a6060e",
        "fcfs-bb": "a25bd6651270d4f1bc6ec83d6e41453f2b703599bfc0dca0e178452eed719b9c",
        "sjf-bb": "a290a719e423a5389af790cee5dd6f741cb4eaa3b418babee1aaf590bd87c530",
        "plan": "7000b6b4cb8c7f6d1113e0648f4e450fc8732e2019b392a4120eafb5032c26e9",
    },
}

QUEUE_POLICY_LINES = {"backfill-pressure": 1500, "io-lifecycle": 900}


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
    text = "".join(json.dumps(line) + "\n" for line in lines)
    assert hashlib.sha256(text.encode()).hexdigest() == LINES_SHA256[workload][policy]
