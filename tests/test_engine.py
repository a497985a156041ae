import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbsim.engine import FairShareLink, SimConfig, Simulation
from bbsim.planner import AnnealConfig
from bbsim.platform import DEFAULT_BB_MODEL, PlatformConfig, build_platform
from bbsim.policies import POLICY_NAMES
from bbsim.workload import JobSpec, synthetic_workload
from conftest import link_finishes
from io_oracle import transfer_finishes

IO_OFF = SimConfig(io_model="off", validate=True)


def small_platform(pfs_bw=100, compute_bw=50, bb=10_000):
    cfg = PlatformConfig(
        n_compute_nodes=4,
        n_storage_nodes=1,
        compute_link_bw=compute_bw,
        pfs_link_bw=pfs_bw,
        bb_capacity_total=bb,
    )
    return build_platform(cfg)


def one_job(runtime=100, walltime=None, procs=1, bb=0, phases=1, submit=0):
    return JobSpec(
        id=1,
        submit_time=submit,
        runtime=runtime,
        walltime=walltime if walltime is not None else 10 * runtime,
        n_procs=procs,
        bb_total_bytes=bb,
        n_phases=phases,
    )


def starts(records):
    return {r.job_id: r.start for r in records}


def test_empty_workload():
    assert Simulation(small_platform(), [], "fcfs").run() == []


def test_single_job_no_io():
    records = Simulation(small_platform(), [one_job(runtime=100)], "fcfs", IO_OFF).run()
    (r,) = records
    assert (r.start, r.finish, r.killed) == (0, 100, False)


def test_io_off_occupies_exactly_runtime():
    # fixture mode: burst buffer held but no transfers simulated
    job = one_job(runtime=137, bb=5_000)
    (r,) = Simulation(small_platform(), [job], "fcfs", IO_OFF).run()
    assert r.finish - r.start == 137


def test_jobs_start_at_the_first_tick_at_or_after_their_submit():
    # an idle machine: a job submitted on a tick starts then, one just after
    # waits a period, and one submitted after the queue emptied waits for
    # the tick after its submit
    jobs = [replace(one_job(runtime=30, submit=t), id=i) for i, t in enumerate((0, 60, 61, 500))]
    records = Simulation(small_platform(), jobs, "fcfs", IO_OFF).run()
    assert starts(records) == {0: 0, 1: 60, 2: 120, 3: 540}


def test_job_submitted_behind_a_wide_job_starts_at_the_tick_after_it_ends():
    wide = one_job(runtime=150, procs=4)
    late = replace(one_job(runtime=30, submit=30), id=2)
    records = Simulation(small_platform(), [wide, late], "fcfs", IO_OFF).run()
    assert starts(records) == {1: 0, 2: 180}


def test_infeasible_job_rejected():
    from bbsim.engine import InfeasibleError

    with pytest.raises(InfeasibleError):
        Simulation(small_platform(bb=10), [one_job(bb=11)], "fcfs").run()


@pytest.mark.parametrize("policy", ["bogus", "PLAN", "fcfs "])
def test_unknown_policy_rejected(policy):
    with pytest.raises(ValueError, match=f"unknown policy {policy!r}"):
        Simulation(small_platform(), [one_job()], policy)


def test_three_phase_lifecycle_timeline():
    # pfs link 100 B/s, compute link 50 B/s, 1000 B buffer, 3 phases of 30 s.
    # stage-in [0,10), phase [10,40), checkpoint [40,60), phase [60,90),
    # checkpoint [90,110), phase [110,140), stage-out [140,150).
    # each drain (1000 B, 10 s) overlaps the next compute phase.
    job = one_job(runtime=90, bb=1000, phases=3)
    (r,) = Simulation(small_platform(), [job], "fcfs", SimConfig(validate=True)).run()
    assert r.start == 0
    assert r.finish == 150


def test_drain_backlog_is_fifo_and_byte_exact():
    # pfs link 10 B/s: the first drain is still active when the second
    # checkpoint completes, so the second drain queues behind it.
    job = one_job(runtime=30, walltime=1000, bb=1000, phases=3)
    platform = small_platform(pfs_bw=10, compute_bw=1000)
    (r,) = Simulation(platform, [job], "fcfs", SimConfig(validate=True)).run()
    # stage-in 100 s, phases at 100/111/122, compute done 132; stage-out and
    # drain 1 share the link from 132 (drain 1 done 290), drain 2 from 290
    # (stage-out done 332), drain 2 alone after that (done 411).
    assert r.start == 0
    assert r.finish == 411


def test_total_io_time_matches_link_capacity():
    # 4000 B moved over a 10 B/s link in the backlog scenario: the link is
    # busy for [0,100) and [111,411), exactly 400 s.
    job = one_job(runtime=30, walltime=1000, bb=1000, phases=3)
    sim = Simulation(small_platform(pfs_bw=10, compute_bw=1000), [job], "fcfs",
                     SimConfig(validate=True))
    (r,) = sim.run()
    assert r.finish - r.start - (111 - 100) == 400


def test_walltime_kill_under_io_stretch():
    # walltime equals pure compute time, so stage-in pushes past the limit
    job = one_job(runtime=60, walltime=60, bb=1000, phases=1)
    (r,) = Simulation(small_platform(pfs_bw=100), [job], "fcfs", SimConfig(validate=True)).run()
    assert r.killed
    assert r.finish == 60
    assert r.finish - r.start == job.walltime


def test_finish_at_walltime_boundary_is_not_a_kill():
    job = one_job(runtime=60, walltime=60)
    (r,) = Simulation(small_platform(), [job], "fcfs", IO_OFF).run()
    assert not r.killed
    assert r.finish == 60


def test_kill_releases_resources():
    # after the first job is killed a second identical one can run
    jobs = [
        one_job(runtime=60, walltime=60, bb=10_000, phases=1),
        JobSpec(id=2, submit_time=0, runtime=60, walltime=60, n_procs=1,
                bb_total_bytes=10_000, n_phases=1),
    ]
    records = Simulation(small_platform(pfs_bw=100), jobs, "fcfs", SimConfig(validate=True)).run()
    assert all(r.killed for r in records)
    assert starts(records) == {1: 0, 2: 60}


def test_kill_mid_checkpoint_ignores_the_dump():
    # pfs link 100 B/s, compute link 50 B/s. Job 1 and job 2 stage in 1000 B
    # each over [0,20) at half the link. Job 1 computes [20,50) and dumps its
    # checkpoint over [50,70); its walltime ends at 60, mid-dump. Job 2
    # computes [20,65) and stages out 1000 B alone from 65: done at 75. Had
    # the dump completed at 70 and started a drain, job 2 would share the
    # link from 70 and finish at 80.
    jobs = [
        one_job(runtime=60, walltime=60, bb=1000, phases=2),
        JobSpec(id=2, submit_time=0, runtime=45, walltime=1000, n_procs=1,
                bb_total_bytes=1000),
    ]
    records = Simulation(small_platform(pfs_bw=100, compute_bw=50), jobs, "fcfs",
                         SimConfig(validate=True)).run()
    assert [(r.job_id, r.finish, r.killed) for r in records] == [
        (1, 60, True), (2, 75, False)]


def test_kill_mid_drain_frees_the_link():
    # pfs link 100 B/s, compute link 1000 B/s. Both jobs stage in over
    # [0,20). Job 1 computes [20,50), dumps [50,51) and drains 1000 B from
    # 51, alone until 55 (600 B left). Job 2 computes [20,55) and stages out
    # from 55; the two share 50 B/s each until job 1's walltime ends at 60
    # (drain 350 B left, stage-out 750 B left). With the drain gone, job 2
    # finishes at 60 + 750/100 = 67.5; had the drain stayed on the link,
    # job 2 would finish at 71.
    jobs = [
        one_job(runtime=60, walltime=60, bb=1000, phases=2),
        JobSpec(id=2, submit_time=0, runtime=35, walltime=1000, n_procs=1,
                bb_total_bytes=1000),
    ]
    sim = Simulation(small_platform(pfs_bw=100, compute_bw=1000), jobs, "fcfs",
                     SimConfig(validate=True))
    records = sim.run()
    assert [(r.job_id, r.finish, r.killed) for r in records] == [
        (1, 60, True), (2, Fraction(135, 2), False)]
    assert not sim.link.active


# link bandwidth and buffer size; odd, so (P + 1) // 2 bytes take just over 1/2 s
P = 10**17 + 1


@pytest.mark.parametrize(
    ("walltime", "finish", "killed"),
    [(101, 101, True), (102, Fraction(101 * P + 1, P), False)],
)
def test_events_ordered_by_exact_time_below_float_resolution(walltime, finish, killed):
    # stage-in and stage-out of (P + 1) // 2 bytes take 1 + 1/P s together,
    # so the stage-out completes at 101 + 1/P: after a walltime of 101 by
    # 1/P s, though float(101 + 1/P) == 101.0, and before a walltime of 102
    job = one_job(runtime=100, walltime=walltime, bb=(P + 1) // 2, phases=1)
    platform = small_platform(pfs_bw=P, bb=P)
    (r,) = Simulation(platform, [job], "fcfs", SimConfig(validate=True)).run()
    assert float(Fraction(101 * P + 1, P)) == 101.0
    assert (r.finish, r.killed) == (finish, killed)


def huge_first_job(walltime):
    """A full-width job of the given walltime, then seven small jobs."""
    return [one_job(runtime=walltime, walltime=walltime, procs=96)] + [
        replace(one_job(runtime=60 * i, walltime=60 * i, procs=i, submit=i), id=i)
        for i in range(2, 9)
    ]


def test_workload_whose_waits_could_reach_2_to_53_is_refused():
    """A wait of about 10**20 s to the 16th overflows a float in the plan
    score; such a workload is refused before it runs."""
    platform = build_platform(PlatformConfig())
    # S + 2W + nP without the first job's walltime: last submit 8, the small
    # jobs' walltimes 60 * (2 + ... + 8) s, one 60 s tick for each of 8 jobs
    small = 8 + 2 * 60 * 35 + 8 * 60
    with pytest.raises(ValueError, match=rf"^workload too long: .* is {2 * 10**20 + small} s, "
                                         r"must be below 2\*\*53 s$"):
        Simulation(platform, huge_first_job(10**20), "plan", IO_OFF, AnnealConfig(alpha=16))
    walltime = (2**53 - small) // 2
    Simulation(platform, huge_first_job(walltime - 1), "plan", IO_OFF)  # just below
    with pytest.raises(ValueError, match="workload too long"):
        Simulation(platform, huge_first_job(walltime), "plan", IO_OFF)


def launched_at_zero(sink=None):
    """A simulation whose first tick has launched two jobs (walltimes 1000 and 500)."""
    jobs = [
        one_job(runtime=100, procs=1, bb=3000),
        replace(one_job(runtime=50, procs=2, bb=1000), id=2),
    ]
    sim = Simulation(small_platform(), jobs, "fcfs", IO_OFF, sink=sink)
    sim._on_tick(0)
    assert set(sim.running) == {1, 2}
    sim._check_invariants(0)
    return sim


def test_invariants_reject_demand_no_running_job_holds():
    sim = launched_at_zero()
    sim.profile.add(1000, 1600, 4, 0)  # a head reservation left behind
    with pytest.raises(AssertionError, match="exactly the running jobs"):
        sim._check_invariants(0)


def test_invariants_reject_a_running_job_held_over_the_wrong_interval():
    sim = launched_at_zero()
    sim.profile.remove(0, 500, 2, 1000)  # job 2 holds [0, 500)
    sim.profile.add(0, 560, 2, 1000)
    with pytest.raises(AssertionError, match="exactly the running jobs"):
        sim._check_invariants(0)


def test_invariants_reject_a_node_missing_from_the_binding():
    sim = launched_at_zero(sink=[].append)
    sim._binding.free_nodes.pop()  # now neither free nor held by a running job
    with pytest.raises(AssertionError):
        sim._check_invariants(0)


def test_invariants_reject_a_pool_with_bytes_no_job_gave_back():
    sim = launched_at_zero(sink=[].append)
    (pool,) = sim._binding.free_bb
    sim._binding.free_bb[pool] += 1
    with pytest.raises(AssertionError):
        sim._check_invariants(0)


def test_a_sink_set_once_the_run_has_begun_is_refused():
    sim = launched_at_zero()  # its two running jobs were launched with no nodes bound
    for sink in ([].append, None):
        with pytest.raises(RuntimeError, match=r"sink must be set before run\(\)"):
            sim.sink = sink
    lines: list[dict] = []
    sim = Simulation(small_platform(), [one_job()], "fcfs", IO_OFF)
    sim.sink = lines.append  # before run(), as the CLI sets it
    sim.run()
    assert [line["event"] for line in lines] == ["submit", "launch", "finish"]


TABLE1_EASY_STARTS = {1: 0, 2: 0, 6: 180, 3: 600, 7: 600}
TABLE1_BB_STARTS = {1: 0, 2: 0, 4: 120, 3: 600}


def test_worked_example_backfilling(table1_platform, table1_jobs):
    records = Simulation(table1_platform, table1_jobs, "fcfs-easy", IO_OFF).run()
    got = starts(records)
    for jid, start in TABLE1_EASY_STARTS.items():
        assert got[jid] == start, f"job {jid}"


def test_worked_example_buffer_aware_backfilling(table1_platform, table1_jobs):
    records = Simulation(table1_platform, table1_jobs, "fcfs-bb", IO_OFF).run()
    got = starts(records)
    for jid, start in TABLE1_BB_STARTS.items():
        assert got[jid] == start, f"job {jid}"


def test_worked_example_all_policies_complete(table1_platform, table1_jobs):
    for policy in ("fcfs", "fcfs-easy", "filler", "fcfs-bb", "sjf-bb", "plan"):
        records = Simulation(table1_platform, table1_jobs, policy, IO_OFF).run()
        assert len(records) == 8, policy
        assert not any(r.killed for r in records), policy


def test_determinism_across_runs():
    jobs = synthetic_workload(60, seed=7, max_procs=4)
    platform = small_platform(bb=0)
    for policy in ("fcfs-easy", "plan"):
        a = Simulation(platform, jobs, policy, SimConfig(io_model="off", seed=1)).run()
        b = Simulation(platform, jobs, policy, SimConfig(io_model="off", seed=1)).run()
        assert a == b, policy


def test_io_on_never_beats_io_off():
    jobs = [one_job(runtime=300, bb=2000, phases=4)]
    platform = small_platform()
    (off,) = Simulation(platform, jobs, "fcfs", SimConfig(io_model="off")).run()
    (on,) = Simulation(platform, jobs, "fcfs", SimConfig(io_model="on")).run()
    assert on.finish > off.finish


def test_trace_collection():
    lines: list[dict] = []
    sim = Simulation(small_platform(), [one_job(runtime=60, bb=100, submit=30)], "fcfs",
                     sink=lines.append)
    sim.run()
    # the tick at 60 queues the job submitted at 30 and launches it; it stages
    # 100 B in and out at 100 B/s around its 60 s of compute
    assert [(e["t"], e["event"]) for e in lines] == [
        (60, "submit"), (60, "launch"), (122, "finish")]
    assert lines[0]["submit"] == 30
    assert sum(lines[1]["bb_shares"].values()) == 100


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_traced_run_keeps_the_binding_valid(policy):
    """With a sink, every event checks the free nodes and pools against the running jobs."""
    platform = build_platform(PlatformConfig())
    cap = platform.total_bb
    jobs = [replace(j, bb_per_proc=min(j.bb_per_proc, cap // j.n_procs))
            for j in synthetic_workload(40, seed=3, bb_model=DEFAULT_BB_MODEL)]
    cfg = SimConfig(io_model="on", validate=True)
    lines: list[dict] = []
    traced = Simulation(platform, jobs, policy, cfg, sink=lines.append).run()
    assert traced == Simulation(platform, jobs, policy, cfg).run()
    launches = [line for line in lines if line["event"] == "launch"]
    assert len(launches) == len(jobs)
    assert any(len(line["bb_shares"]) > 1 for line in launches)  # split across pools


def test_drain_and_stage_out_ending_together_finish_the_job_once():
    # job 2's last drain and its stage-out both end at 863/12 s; job 1
    # queues its stage-in on the link and is killed at its walltime
    platform = build_platform(PlatformConfig(
        n_compute_nodes=10, n_storage_nodes=1,
        compute_link_bw=8, pfs_link_bw=2, bb_capacity_total=2000,
    ))
    jobs = [
        JobSpec(id=1, submit_time=3, runtime=1, walltime=62, n_procs=1, bb_total_bytes=50),
        JobSpec(id=2, submit_time=0, runtime=53, walltime=72, n_procs=1, bb_total_bytes=7,
                n_phases=10),
    ]
    for validate in (False, True):
        lines: list[dict] = []
        cfg = SimConfig(tick_period_s=1, validate=validate)
        records = Simulation(platform, jobs, "fcfs", cfg, sink=lines.append).run()
        assert [(r.job_id, r.finish, r.killed) for r in records] == [
            (1, 65, True), (2, Fraction(863, 12), False)]
        assert [e["event"] for e in lines if e["job"] == 2] == ["submit", "launch", "finish"]


# -- shared-link sharing discipline -------------------------------------------


def finishes(starts, bw):
    """The link's finish times, required to equal the oracle's."""
    got = link_finishes(starts, bw)
    assert got == transfer_finishes(starts, bw)
    return got


def test_transfer_single():
    assert finishes([(0, 100)], 10) == [Fraction(10)]


def test_transfer_equal_split():
    # two simultaneous transfers each get half the link
    assert finishes([(0, 100), (0, 100)], 10) == [20, 20]


def test_transfer_reshare_on_arrival():
    # second transfer arrives halfway: [0,5) full rate, then an even split
    assert finishes([(0, 100), (5, 100)], 10) == [Fraction(15), Fraction(20)]


def test_transfer_reshare_on_departure():
    # after the short transfer finishes, the long one gets the link back:
    # 10 B by t=2, then 90 B at full rate
    assert finishes([(0, 10), (0, 100)], 10) == [Fraction(2), Fraction(11)]


def test_transfer_fractional_exactness():
    assert finishes([(0, 10), (0, 10), (0, 10)], 3) == [10, 10, 10]
    assert finishes([(0, 10), (0, 10)], 3) == [Fraction(20, 3), Fraction(20, 3)]


@given(
    xs=st.lists(st.tuples(st.integers(0, 50), st.integers(1, 500)), min_size=1, max_size=8),
    bw=st.integers(1, 7),
)
@settings(max_examples=300, deadline=None)
def test_transfer_conservation_random(xs, bw):
    done = finishes(xs, bw)
    # the link never exceeds bw, so the span must cover total bytes / bw
    span = max(done) - min(t for t, _ in xs)
    assert span >= Fraction(sum(b for _, b in xs), bw)
    assert all(f > t0 for (t0, _), f in zip(xs, done))


def test_link_time_cannot_move_backwards():
    link = FairShareLink(10)
    link.add(10, "a", 100)
    with pytest.raises(AssertionError):
        link.advance(5)


def test_link_add_on_active_key_appends_bytes():
    # 10 B/s shared by two: at t=4 each has moved 20 B, and a gets 50 B more
    link = FairShareLink(10)
    link.add(0, "a", 100)
    link.add(0, "b", 100)
    link.add(4, "a", 50)
    assert link.scale == 1
    assert link.active == {"a": 130, "b": 80}
    assert link.next_completion() == 20
    assert link.finished_ids(20) == ["b"]
    assert link.next_completion() == 20 + Fraction(50, 10)


@given(
    bw=st.integers(1, 13),
    ops=st.lists(st.tuples(st.sampled_from(["add", "advance", "finished", "remove"]),
                           st.integers(0, 3), st.integers(1, 1000),
                           st.fractions(0, 1, max_denominator=9)), max_size=40),
)
@settings(max_examples=300, deadline=None)
def test_link_matches_a_fraction_model(bw, ops):
    """Remaining bytes as ints over scale agree with plain Fractions stepped alike.

    Each op moves time a fraction of the way to the next completion (or on
    by up to its size while the link is idle), so no transfer is overrun.
    """
    link, model, last = FairShareLink(bw), {}, Fraction(0)

    def model_advance(t):
        nonlocal last
        if model:
            served = Fraction(bw, len(model)) * (t - last)
            for k in model:
                model[k] -= served
        last = t

    for op, key, size, frac in ops:
        due = last + min(model.values()) * len(model) / bw if model else None
        assert link.next_completion() == due
        now = last + (frac * (due - last) if model else frac * size)
        now = int(now) if now.denominator == 1 else now  # the engine mixes int and Fraction times
        if op == "add":
            link.add(now, key, size)
            model_advance(now)
            model[key] = model.get(key, Fraction(0)) + size
        elif op == "advance":
            link.advance(now)
            model_advance(now)
        elif op == "finished":
            finished = link.finished_ids(now)
            model_advance(now)
            assert finished == [k for k, rem in model.items() if rem == 0]
            for k in finished:
                del model[k]
        elif key in model:
            link.remove(now, key)
            model_advance(now)
            del model[key]
        assert all(type(v) is int for v in link.active.values())
        assert {k: Fraction(v, link.scale) for k, v in link.active.items()} == model
        assert math.gcd(link.scale, *link.active.values()) == 1
