"""Metamorphic relations between the queue policies.

Each relation follows from the policy definitions: a change to the workload
that takes away the only difference between two policies must make their
records equal. Each test also checks that the two policies differ on the
unchanged workload, so the relation is not met by accident.
"""

from dataclasses import replace

import pytest

from bbsim.engine import SimConfig, Simulation
from bbsim.platform import DEFAULT_BB_MODEL, PlatformConfig, build_platform
from bbsim.workload import synthetic_workload

PLATFORM = build_platform(PlatformConfig())


@pytest.fixture(scope="module")
def pressure300():
    """The first 300 jobs of the pressure workload, buffer requests cut to capacity."""
    jobs = synthetic_workload(2000, seed=42, mean_interarrival=45.0,
                              bb_model=DEFAULT_BB_MODEL)[:300]
    cap = PLATFORM.total_bb
    return [replace(j, bb_per_proc=min(j.bb_per_proc, cap // j.n_procs)) for j in jobs]


def outcomes(jobs, policy, io_model):
    records = Simulation(PLATFORM, jobs, policy, SimConfig(io_model=io_model)).run()
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
