"""The engine's I/O lifecycle against an oracle that shares none of its code."""

from hypothesis import given, settings
from hypothesis import strategies as st

from bbsim.engine import SimConfig, Simulation
from bbsim.platform import PlatformConfig, build_platform
from bbsim.workload import JobSpec
from io_oracle import lifecycle_outcomes

MAX_JOBS = 5
MAX_BB = 400


@st.composite
def job_specs(draw, job_id):
    runtime = draw(st.integers(1, 60))
    return JobSpec(
        id=job_id,
        submit_time=draw(st.integers(0, 150)),
        runtime=runtime,
        walltime=draw(st.integers(runtime, 3 * runtime + 60)),
        n_procs=draw(st.integers(1, 2)),
        bb_total_bytes=draw(st.sampled_from([0, 1, 7, 50, 100, 333, MAX_BB])),
        n_phases=draw(st.integers(1, min(runtime, 10))),
    )


@given(
    n_jobs=st.integers(1, MAX_JOBS),
    data=st.data(),
    tick=st.sampled_from([1, 7, 60]),
    pfs_bw=st.integers(1, 20),
    compute_bw=st.integers(1, 50),
)
@settings(max_examples=300, deadline=None)
def test_engine_matches_lifecycle_oracle(n_jobs, data, tick, pfs_bw, compute_bw):
    jobs = [data.draw(job_specs(i)) for i in range(1, n_jobs + 1)]
    platform = build_platform(PlatformConfig(  # room for every job at once
        n_compute_nodes=2 * MAX_JOBS, n_storage_nodes=1,
        compute_link_bw=compute_bw, pfs_link_bw=pfs_bw, bb_capacity_total=MAX_JOBS * MAX_BB,
    ))
    cfg = SimConfig(tick_period_s=tick, io_model="on", validate=True)
    records = Simulation(platform, jobs, "fcfs", cfg).run()
    expected = lifecycle_outcomes(jobs, tick, pfs_bw, compute_bw)
    assert {r.job_id: (r.finish, r.killed) for r in records} == expected
    assert all(r.start == -(-job.submit_time // tick) * tick for r, job in zip(records, jobs))
