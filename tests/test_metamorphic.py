"""Metamorphic relations between the queue policies.

Each relation follows from the policy definitions: a change to the workload
that takes away the only difference between two policies must make their
records equal. Each test also checks that the two policies differ on the
unchanged workload, so the relation is not met by accident. One relation
holds for each policy on its own: a job's id is only its name.
"""

from dataclasses import replace

import pytest

from bbsim.engine import POLICY_NAMES, SimConfig, Simulation
from bbsim.platform import DEFAULT_BB_MODEL, PlatformConfig, build_platform
from bbsim.workload import synthetic_workload

PLATFORM = build_platform(PlatformConfig())
UNBOUNDED_BB = build_platform(PlatformConfig(bb_capacity_total=10**18))


@pytest.fixture(scope="module")
def pressure300():
    """The first 300 jobs of the pressure workload, buffer requests cut to capacity."""
    jobs = synthetic_workload(2000, seed=42, mean_interarrival=45.0,
                              bb_model=DEFAULT_BB_MODEL)[:300]
    cap = PLATFORM.total_bb
    return [replace(j, bb_per_proc=min(j.bb_per_proc, cap // j.n_procs)) for j in jobs]


def outcomes(jobs, policy, io_model, platform=PLATFORM):
    records = Simulation(platform, jobs, policy, SimConfig(io_model=io_model)).run()
    return {r.job_id: (r.start, r.finish, r.killed) for r in records}


@pytest.mark.parametrize("io_model", ["off", "on"])
def test_without_buffer_requests_fcfs_bb_equals_fcfs_easy(pressure300, io_model):
    """fcfs-bb's head reserves buffer too; with no buffer requested, nothing else differs."""
    assert outcomes(pressure300, "fcfs-easy", io_model) != outcomes(
        pressure300, "fcfs-bb", io_model)
    no_bb = [replace(j, bb_per_proc=0) for j in pressure300]
    assert all(j.bb_total == 0 for j in no_bb)
    assert outcomes(no_bb, "fcfs-easy", io_model) == outcomes(no_bb, "fcfs-bb", io_model)


@pytest.mark.parametrize("io_model", ["off", "on"])
def test_with_equal_walltimes_sjf_bb_equals_fcfs_bb(pressure300, io_model):
    """sjf-bb orders its backfill candidates by walltime, then by arrival as fcfs-bb does."""
    assert outcomes(pressure300, "sjf-bb", io_model) != outcomes(
        pressure300, "fcfs-bb", io_model)
    longest = max(j.walltime for j in pressure300)
    equal = [replace(j, walltime=longest) for j in pressure300]
    assert outcomes(equal, "sjf-bb", io_model) == outcomes(equal, "fcfs-bb", io_model)


@pytest.mark.parametrize("io_model", ["off", "on"])
def test_with_unbounded_buffer_fcfs_bb_equals_fcfs_easy(pressure300, io_model):
    """With far more buffer than the jobs ever hold together, fcfs-bb's buffer hold never binds."""
    assert outcomes(pressure300, "fcfs-easy", io_model) != outcomes(
        pressure300, "fcfs-bb", io_model)
    assert outcomes(pressure300, "fcfs-easy", io_model, UNBOUNDED_BB) == outcomes(
        pressure300, "fcfs-bb", io_model, UNBOUNDED_BB)


@pytest.mark.parametrize("io_model", ["off", "on"])
def test_job_ids_are_only_names(pressure300, io_model):
    """With no two jobs submitted at once, no record may hang on an id: ids in
    reverse give every policy the same records up to the relabel (plan on the
    first 120 jobs)."""
    distinct = []
    for j in pressure300:
        at = max(j.submit_time, distinct[-1].submit_time + 1) if distinct else j.submit_time
        distinct.append(replace(j, submit_time=at))
    assert len({j.submit_time for j in pressure300}) < len(pressure300)
    top = max(j.id for j in distinct) + min(j.id for j in distinct)
    for policy in POLICY_NAMES:
        jobs = distinct[:120] if policy == "plan" else distinct
        relabelled = [replace(j, id=top - j.id) for j in jobs]
        assert outcomes(relabelled, policy, io_model) == {
            top - job_id: outcome for job_id, outcome in outcomes(jobs, policy, io_model).items()}
