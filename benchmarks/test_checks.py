"""Each benchmark check must fail on a hand-made record list that breaks it.

    python3 -m pytest benchmarks/test_checks.py
"""

import sys
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pytest  # noqa: E402

import bbsim.metrics  # noqa: E402
import checks  # noqa: E402
from bbsim.engine import SimConfig, Simulation  # noqa: E402
from bbsim.metrics import JobRecord  # noqa: E402
from bbsim.planner import SearchStats  # noqa: E402
from bbsim.platform import PlatformConfig, build_platform  # noqa: E402
from bbsim.policies import HeadReservation  # noqa: E402
from bbsim.workload import JobSpec  # noqa: E402

TICK = 60


def job(jid, submit=0, runtime=60, walltime=None, procs=1, bb=0, phases=1):
    return JobSpec(
        id=jid,
        submit_time=submit,
        runtime=runtime,
        walltime=walltime or runtime,
        n_procs=procs,
        n_phases=phases,
        bb_total_bytes=bb,
    )


def rec(jid, submit=0, start=0, finish=60, procs=1, bb=0, killed=False):
    return JobRecord(jid, submit, start, finish, procs, bb, killed, "test")


def test_one_record_per_job():
    jobs = [job(1), job(2)]
    assert checks.one_record_per_job(jobs, [rec(1), rec(2)]) == set()
    assert checks.one_record_per_job(jobs, [rec(1)]) == {2}
    assert checks.one_record_per_job(jobs, [rec(1), rec(1), rec(2)]) == {1}
    assert checks.one_record_per_job(jobs, [rec(1), rec(2), rec(3)]) == {3}


def test_start_times():
    assert checks.start_times([rec(1, submit=30, start=60)], TICK) == set()
    assert checks.start_times([rec(1, submit=90, start=60)], TICK) == {1}
    assert checks.start_times([rec(1, submit=0, start=90, finish=150)], TICK) == {1}


def test_capacity():
    back_to_back = [rec(1, start=0, finish=60, procs=4), rec(2, start=60, finish=120, procs=4)]
    assert checks.capacity(back_to_back, 4, 10) == set()
    procs = [rec(1, start=0, finish=120, procs=3), rec(2, start=60, finish=120, procs=2)]
    assert checks.capacity(procs, 4, 10) == {2}
    bb = [rec(1, start=0, finish=120, bb=6), rec(2, start=60, finish=120, bb=6)]
    assert checks.capacity(bb, 4, 10) == {2}


def test_durations_io_off():
    jobs = {1: job(1, runtime=60)}
    assert checks.durations_io_off(jobs, [rec(1, start=0, finish=60)]) == set()
    assert checks.durations_io_off(jobs, [rec(1, start=0, finish=61)]) == {1}


def test_durations_io_on():
    platform = SimpleNamespace(pfs_link_bw=10, compute_link_bw=5)
    # lower bound: 60 + 2 * 100 / 10 + (3 - 1) * 100 / 5 = 120
    jobs = {1: job(1, runtime=60, walltime=200, bb=100, phases=3)}
    ok = [rec(1, start=0, finish=120, bb=100)]
    assert checks.durations_io_on(jobs, ok, platform) == set()
    too_fast = [rec(1, start=0, finish=119, bb=100)]
    assert checks.durations_io_on(jobs, too_fast, platform) == {1}
    too_long = [rec(1, start=0, finish=201, bb=100)]
    assert checks.durations_io_on(jobs, too_long, platform) == {1}
    killed_early = [rec(1, start=0, finish=150, bb=100, killed=True)]
    assert checks.durations_io_on(jobs, killed_early, platform) == {1}


def test_filler_oracle():
    # 2 processors: job 1 takes both for a minute, job 2 fits at 60
    jobs = [job(1, procs=2), job(2, submit=10, procs=1)]
    good = [rec(1, start=0, finish=60, procs=2), rec(2, submit=10, start=60, finish=120)]
    assert checks.filler_oracle(jobs, good, 2, 0, TICK) == set()
    late = [rec(1, start=0, finish=60, procs=2), rec(2, submit=10, start=120, finish=180)]
    assert checks.filler_oracle(jobs, late, 2, 0, TICK) == {2}


def test_head_promises():
    held = [(0, HeadReservation(job_id=1, start=90, n_procs=1, bb_bytes=0))]
    assert checks.head_promises([rec(1, start=120, finish=180)], held, TICK) == set()
    assert checks.head_promises([rec(1, start=180, finish=240)], held, TICK) == {1}


def test_plan_cycles():
    # jobs 1-3 queued at tick 0, job 3 still queued at tick 60
    records = [rec(1), rec(2), rec(3, start=60, finish=120)]
    good = [SearchStats(6, "exhaustive"), SearchStats(1, "exhaustive")]
    assert checks.plan_cycles(records, good, TICK) == set()
    wrong_builds = [SearchStats(5, "exhaustive"), SearchStats(1, "exhaustive")]
    assert checks.plan_cycles(records, wrong_builds, TICK) == {1, 2, 3}
    missing_cycle = good[:1]
    assert checks.plan_cycles(records, missing_cycle, TICK) == {1, 2, 3}
    big = [rec(i, start=0, finish=60) for i in range(1, 8)]
    assert checks.plan_cycles(big, [SearchStats(189, "anneal")], TICK) == set()
    assert checks.plan_cycles(big, [SearchStats(9, "anneal", True)], TICK) == set()
    skipped_189 = [SearchStats(189, "anneal", True)]
    assert checks.plan_cycles(big, skipped_189, TICK) == set(range(1, 8))


def test_summary_means(monkeypatch):
    records = [rec(1, submit=0, start=60, finish=120), rec(2, start=0, finish=60)]
    assert checks.summary_means(records) == set()
    real = bbsim.metrics.summarize

    def off_by_one(records, metric, **kw):
        s = real(records, metric, **kw)
        return s.__class__(s.count, s.mean + 1, s.ci95, s.quantiles, s.tail)

    monkeypatch.setattr(bbsim.metrics, "summarize", off_by_one)
    assert checks.summary_means(records) == {1, 2}


@pytest.mark.parametrize("policy", ["filler", "fcfs-bb", "sjf-bb", "plan"])
@pytest.mark.parametrize("io_model", ["off", "on"])
def test_real_simulation_passes(policy, io_model):
    platform = build_platform(PlatformConfig())
    jobs = [job(i, submit=30 * i, runtime=300, walltime=600, procs=48, bb=10**9, phases=2)
            for i in range(1, 9)]
    sim = Simulation(platform, jobs, policy, SimConfig(io_model=io_model, seed=1))
    records = sim.run()
    assert checks.check_simulation(sim, jobs, records, TICK) == set()
