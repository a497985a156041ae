"""`bbsim gantt` gives the pinned CSV for every benchmark workload and policy.

Each run goes through the command line: `simulate --trace` on the benchmark's
jobs, written as a workload file, on the default platform, then `gantt` on
its trace. The pins are what the CSV was when the engine bound every job's
nodes and storage-pool shares itself and wrote them on its launch line, so a
change to how the trace carries a binding must leave each CSV byte for byte.
The records of each run must equal the benchmark's reference too.
"""

import hashlib

import pytest

from bbsim.cli import main
from bbsim.workload import write_workload

from test_reference_records import REFERENCE, bench, inputs

GANTT_SHA256 = {
    "backfill-pressure": {
        "fcfs": "ffc795f214481bd64f9e1caa6964e7c89df877e712bb17f40268db00a2baf2a1",
        "filler": "a8d3de7f7fe89a7155d3a8ef939b55b2332fa4677f744360a0a0515a5a29ba41",
        "fcfs-easy": "a3267045b7be89e203a08ab23465de8e7777c88a51461a0ca3c12e21d4fab617",
        "fcfs-bb": "7e76543cc09de54dfe6ea0b28796549ce4ed76bddb567f5a59265f157878e8c7",
        "sjf-bb": "e6647e3cb6dede448a601140b319263697e4475638616dece515100622243e19",
        "plan": "ab36016097f412c51cc741a9c850aac00418d028d97deaff2a91f19ce6ca585a",
    },
    "io-lifecycle": {
        "fcfs": "8f239dfd5216626e10e63c94d6243ebd492b19cb708a21c818d3796975224d91",
        "filler": "150c4d7458cfc36af0bdc68ea128b034bed65fc2e2f86029ff300d2a0225276a",
        "fcfs-easy": "db4c43cc22907290f584c6fa6260c33ea8628b3484a38fe4c7a0a58cb564b002",
        "fcfs-bb": "2e96cca0c3d9c7c6928d736d6c440781a669f504625c35ca0e7f253217af0b5d",
        "sjf-bb": "38c94d47221cc2281f99004738d1b58d07b6b92ebefc64eaf29c6a876ca17b5e",
        "plan": "8cf864b8f7de5062ac0538bc5fa77a83997555b5fa0fa2acadbac5f8601af0f1",
    },
    "plan-anneal": {
        "fcfs": "4b9608c869ad82cd15f2f4c62d9279057af712e451011901ded9c30e92827f42",
        "filler": "4f32460a90946abce701df80e8d5dd85f6b47678ced1784076796713ac61880a",
        "fcfs-easy": "f6be7182b194fe8913f6f7630844e1b913b09c8fea74595f298dabb0be783579",
        "fcfs-bb": "2b01cfdec626564e7dfd433198c04ccbd56376e8fb382e7b70a86537a66ac88f",
        "sjf-bb": "363a170cbdbeeee554a88921fe9ab07c724a414ba807bded14fa279d9a0dcfa6",
        "plan": "81de60bb683e50a405eabd139f3e557ec86b5fe7365fb84921e004a02563a4d1",
    },
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("policy", bench.POLICIES)
@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_gantt_csv_matches_pin(workload, policy, tmp_path, capsys):
    _, jobs = inputs(workload)
    jobs_path, trace, records, out = (
        tmp_path / name for name in ("jobs.jsonl", "trace.jsonl", "records.csv", "gantt.csv"))
    with open(jobs_path, "w") as f:
        write_workload(f, jobs[policy])
    assert main(["simulate", "--workload", str(jobs_path), "--policy", policy,
                 "--seed", str(bench.SIM_SEED), "--io-model", bench.WORKLOADS[workload].io_model,
                 "--trace", str(trace), "-o", str(records),
                 "--manifest", str(tmp_path / "manifest.json")]) == 0
    assert main(["gantt", str(trace), "-o", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert sha256(records) == REFERENCE[workload][policy]["sha256"]
    assert sha256(out) == GANTT_SHA256[workload][policy]
