import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bbsim.policies
from bbsim.availability import AvailabilityProfile, CapacityError
from bbsim.policies import (
    EasyGuaranteeViolation,
    SchedulerState,
    backfill_pass,
    fcfs_pass,
    launch,
    run_policy,
    sjf_sorted,
)
from bbsim.workload import JobSpec

from conftest import TABLE1, table1_job

TB = 10**12
MIN = 60


def job(jid, submit=0, walltime=60, procs=1, bb=0, runtime=None):
    runtime = runtime or walltime
    return JobSpec(
        id=jid, submit_time=submit, runtime=runtime, walltime=walltime,
        n_procs=procs, bb_total_bytes=bb,
    )


def state_with_running(queue, now, running=(), procs=4, bb=10 * TB):
    profile = AvailabilityProfile(procs, bb)
    for j in running:
        profile.add(0, j.walltime, j.n_procs, j.bb_total)
    return SchedulerState(queue={j.id: j for j in queue}, profile=profile, now=now)


def table1():
    return {row[0]: table1_job(*row) for row in TABLE1}


def test_policy_name_mapping():
    """Each name picks its pass: what the head reserves, and the backfill order."""
    jobs = table1()
    reserved = {}
    for name in ("fcfs", "filler", "fcfs-easy", "fcfs-bb", "sjf-bb"):
        state = state_with_running([jobs[3]], now=1 * MIN, running=[jobs[1], jobs[2]])
        res = run_policy(state, name, validate=True).head_reservation
        reserved[name] = res and (res.start, res.bb_bytes)
    assert reserved == {
        "fcfs": None, "filler": None, "fcfs-easy": (4 * MIN, 0),
        "fcfs-bb": (10 * MIN, 8 * TB), "sjf-bb": (10 * MIN, 8 * TB),
    }
    # a short job behind a long one backfills first under sjf-bb only
    head = job(1, procs=4, walltime=600)
    long, short = job(2, walltime=500), job(3, walltime=30)
    for name, first in (("fcfs-bb", 2), ("sjf-bb", 3)):
        state = state_with_running([head, long, short], now=0,
                                   running=[job(99, procs=3, walltime=1200)])
        assert [j.id for j in run_policy(state, name).launched] == [first]
    with pytest.raises(ValueError, match="unknown queue policy: 'plan'"):
        run_policy(state, "plan")  # handled by the planner, not here


def test_fcfs_launches_table1_head_jobs():
    jobs = table1()
    state = state_with_running([jobs[1], jobs[2]], now=0)
    launched = fcfs_pass(state)
    assert [j.id for j in launched] == [1, 2]
    free_procs, free_bb = state.profile.free_at(0)
    assert (free_procs, free_bb) == (2, 4 * TB)


def test_fcfs_empty_queue():
    state = state_with_running([], now=0)
    assert fcfs_pass(state) == []


def test_fcfs_stops_at_blocked_head():
    blocked = job(1, procs=4)
    feasible = job(2, procs=1)
    running = [job(99, procs=1, walltime=600)]
    state = state_with_running([blocked, feasible], now=0, running=running)
    assert fcfs_pass(state) == []
    assert [j.id for j in state.queue.values()] == [1, 2]


def test_backfill_has_no_stop_rule():
    too_much_bb = job(1, procs=1, bb=int(9.5 * TB), walltime=60)
    fits = job(2, procs=1, bb=0, walltime=60)
    running = [job(99, procs=1, bb=TB, walltime=600)]
    state = state_with_running([too_much_bb, fits], now=0, running=running)
    launched = backfill_pass(state, list(state.queue.values()))
    assert [j.id for j in launched] == [2]
    assert [j.id for j in state.queue.values()] == [1]


def test_easy_backfills_job6_at_t3():
    jobs = table1()
    state = state_with_running(
        [jobs[3], jobs[4], jobs[5], jobs[6]], now=3 * MIN, running=[jobs[1], jobs[2]]
    )
    result = run_policy(state, "fcfs-easy", validate=True)
    assert [j.id for j in result.launched] == [6]
    # job 3 reserved processors-only at t=4 min (jobs 4 and 5 would delay it)
    assert result.head_reservation.start == 4 * MIN
    assert result.head_reservation.bb_bytes == 0
    assert [j.id for j in state.queue.values()] == [3, 4, 5]


def test_easy_bb_reserves_storage_for_head():
    jobs = table1()
    state = state_with_running([jobs[3]], now=1 * MIN, running=[jobs[1], jobs[2]])
    result = run_policy(state, "fcfs-bb", validate=True)
    assert result.launched == []
    res = result.head_reservation
    assert (res.job_id, res.start, res.n_procs, res.bb_bytes) == (3, 10 * MIN, 3, 8 * TB)
    # reservation is dropped again after the cycle
    running_only = state_with_running([], now=1 * MIN, running=[jobs[1], jobs[2]])
    assert state.profile == running_only.profile


def test_easy_single_fitting_job_needs_no_reservation():
    state = state_with_running([job(1, procs=2)], now=0)
    result = run_policy(state, "fcfs-easy")
    assert [j.id for j in result.launched] == [1]
    assert result.head_reservation is None


def test_reserve_bb_asymmetry():
    """Without BB reservations the head's slot only guarantees processors."""
    jobs = table1()
    for name, want_bb_free in (("fcfs-easy", False), ("fcfs-bb", True)):
        state = state_with_running([jobs[3]], now=1 * MIN, running=[jobs[1], jobs[2]])
        result = run_policy(state, name, validate=True)
        res = result.head_reservation
        free_procs, free_bb = state.profile.free_at(res.start)
        assert free_procs >= jobs[3].n_procs
        assert (free_bb >= jobs[3].bb_total) == want_bb_free


@pytest.mark.parametrize("policy, running, head_start", [
    # the buffer blocks the head, whose processors-only reservation takes
    # the last free processor from now
    ("fcfs-easy", job(9, walltime=100, procs=3, bb=9 * TB), 0),
    ("fcfs-bb", job(9, walltime=100, procs=4), 100),
])
def test_easy_skips_backfill_with_no_free_processor(policy, running, head_start,
                                                    monkeypatch):
    def no_backfill(state, candidates):
        raise AssertionError("backfill pass with no processor free")

    monkeypatch.setattr(bbsim.policies, "backfill_pass", no_backfill)
    state = state_with_running([job(1, bb=2 * TB), job(2, walltime=10)], now=0,
                               running=[running])
    before = state.profile.copy()
    result = run_policy(state, policy, validate=True)
    assert result.launched == []
    assert (result.head_reservation.job_id, result.head_reservation.start) == (1, head_start)
    assert state.profile == before and list(state.queue) == [1, 2]


def test_easy_guarantee_check_fires(monkeypatch):
    """A pass whose hold is weaker than the reported reservation is caught.

    The check guards only the EASY pass's own hold arithmetic: a backfill
    launch that overlaps the hold raises CapacityError first. So this faulty
    pass lifts the hold for good before it starts a job in the head's
    reserved processors, as a hold too weak to cover them would; the EASY
    pass's own release of the hold then has nothing to give back.
    """
    hold = (100, 150, 2, 5)  # the head's reservation: start, end, procs, bytes

    def grab_reserved_procs(state, candidates):
        (rogue,) = candidates
        state.profile.remove(*hold)
        launch(state, rogue)
        monkeypatch.setattr(state.profile, "remove", lambda *demand: None)
        return [rogue]

    monkeypatch.setattr(bbsim.policies, "backfill_pass", grab_reserved_procs)

    def blocked_head():
        # the head waits for the buffer until t=100; the rogue runs to t=200
        return state_with_running([job(1, walltime=50, procs=2, bb=5),
                                   job(2, walltime=200, procs=3)],
                                  now=0, running=[job(99, walltime=100, bb=8)], bb=10)

    result = run_policy(blocked_head(), "fcfs-bb")
    assert [j.id for j in result.launched] == [2]
    res = result.head_reservation
    assert (res.start, res.start + 50, res.n_procs, res.bb_bytes) == hold
    with pytest.raises(EasyGuaranteeViolation, match="reserved start 100, "
                                                     "post-backfill earliest slot 200"):
        run_policy(blocked_head(), "fcfs-bb", validate=True)


def test_sjf_sort_is_stable_and_total():
    """Walltime, then submit time, then id: jobs 4 and 5 tie on walltime and
    their ids run against their submit order, so a key without submit_time
    puts 4 first."""
    a = job(1, submit=0, walltime=60)
    b = job(2, submit=0, walltime=60)
    c = job(3, submit=10, walltime=30)
    d = job(4, submit=20, walltime=90)
    e = job(5, submit=15, walltime=90)
    assert [j.id for j in sjf_sorted([d, a, e, b, c])] == [3, 1, 2, 5, 4]


def test_sjf_head_requeued_at_front():
    # head has the longest walltime; SJF must not move it off the front
    head = job(1, procs=4, walltime=600)
    short = job(2, procs=1, walltime=30)
    running = [job(99, procs=2, walltime=1200)]
    state = state_with_running([head, short], now=0, running=running)
    run_policy(state, "sjf-bb", validate=True)
    assert next(iter(state.queue.values())).id == 1


def test_filler_table1_t1_launches_nothing():
    jobs = table1()
    state = state_with_running([jobs[3]], now=1 * MIN, running=[jobs[1], jobs[2]])
    result = run_policy(state, "filler")
    assert result.launched == []


def test_filler_equals_fcfs_when_everything_fits():
    queue = [job(i, procs=1) for i in range(1, 4)]
    s1 = state_with_running(queue, now=0)
    s2 = state_with_running(queue, now=0)
    assert [j.id for j in run_policy(s1, "filler").launched] == [
        j.id for j in fcfs_pass(s2)
    ]


def test_filler_starves_wide_head():
    """Small jobs keep arriving; the 2-proc head never fits on a 2-proc cluster."""
    profile = AvailabilityProfile(2, 0)
    held = [(0, 30, 1, 0)]  # the intervals added and not yet removed
    profile.add(*held[0])
    head = job(100, submit=0, procs=2, walltime=60)
    queue = {head.id: head}
    waits = []
    for cycle in range(12):
        now = cycle * 60
        # one new narrow job per cycle, overlapping the previous one
        queue[cycle] = job(cycle, submit=now, procs=1, walltime=90)
        for r in [r for r in held if r[1] <= now]:
            profile.remove(*r)
            held.remove(r)
        state = SchedulerState(queue=queue, profile=profile, now=now)
        held += [(now, now + j.walltime, j.n_procs, j.bb_total)
                 for j in run_policy(state, "filler").launched]
        assert head in state.queue.values()
        waits.append(now - head.submit_time)
    assert waits == sorted(waits) and waits[-1] >= 11 * 60


def test_run_policy_dispatch():
    jobs = table1()
    state = state_with_running([jobs[1], jobs[2]], now=0)
    result = run_policy(state, "fcfs")
    assert [j.id for j in result.launched] == [1, 2]
    assert result.head_reservation is None


# -- the backfill pass against its unfiltered loop ------------------------------


def unfiltered_backfill_pass(state, candidates):
    """The pass without its skip: the profile decides every candidate."""
    launched = []
    for job in candidates:
        if state.profile.has_capacity(
            job.n_procs, job.bb_total, state.now, state.now + job.walltime
        ):
            launch(state, job)
            launched.append(job)
    return launched


ORACLE_PROCS, ORACLE_BB = 6, 8
# times stay within a few seconds of each other, so that demand often starts
# or ends right at now, next to it, or where a candidate's walltime ends
demands = st.tuples(
    st.integers(1, ORACLE_PROCS), st.integers(0, ORACLE_BB), st.integers(1, 8)
)


@given(
    now=st.integers(0, 10),
    held=st.lists(
        st.tuples(st.integers(0, 16), st.integers(1, 8),
                  st.integers(0, ORACLE_PROCS), st.integers(0, ORACLE_BB)),
        max_size=6,
    ),
    head=st.one_of(st.none(), st.tuples(demands, st.integers(1, 4))),
    jobs=st.lists(
        st.tuples(st.integers(1, ORACLE_PROCS + 1), st.integers(0, ORACLE_BB + 1),
                  st.integers(1, 8)),
        max_size=10,
    ),
)
@settings(max_examples=1000, deadline=None)
def test_backfill_pass_matches_unfiltered_loop(now, held, head, jobs):
    """Same launches in the same order, the same profile and the same queue.

    The profile holds random demand before, at and after now, and often a
    head reservation placed as EASY places it, some time after now, so free
    capacity after now rises and falls again.
    """
    profile = AvailabilityProfile(ORACLE_PROCS, ORACLE_BB)
    for start, duration, procs, bb in held:
        try:
            profile.add(start, start + duration, procs, bb)
        except CapacityError:
            pass  # more demand than the platform has; leave it out
    if head is not None:
        (procs, bb, walltime), gap = head
        start = profile.earliest_slot(procs, bb, walltime, now + gap)
        profile.add(start, start + walltime, procs, bb)
    queue = [job(i, walltime=w, procs=p, bb=b) for i, (p, b, w) in enumerate(jobs, 1)]
    states = [
        SchedulerState({j.id: j for j in queue}, profile.copy(), now) for _ in range(2)
    ]
    launched = backfill_pass(states[0], queue)
    expected = unfiltered_backfill_pass(states[1], queue)
    assert [j.id for j in launched] == [j.id for j in expected]
    assert states[0].profile == states[1].profile
    assert list(states[0].queue) == list(states[1].queue)
