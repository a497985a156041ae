import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbsim.availability import AvailabilityProfile
from bbsim.planner import (
    SearchStats,
    anneal,
    build_plan,
    demands,
    exhaustive,
    initial_candidates,
    plan_schedule,
    score,
)
from bbsim.policies import SchedulerState
from bbsim.workload import JobSpec

from conftest import TABLE1, table1_job

TB = 10**12
MIN = 60


def job(jid, submit=0, walltime=60, procs=1, bb=0):
    return JobSpec(
        id=jid, submit_time=submit, runtime=walltime, walltime=walltime,
        n_procs=procs, bb_total_bytes=bb,
    )


def random_queue(rng, n, now=0, procs=8, max_bb=10):
    return [
        job(
            jid=i + 1,
            submit=rng.randint(0, now),
            walltime=rng.randint(1, 300),
            procs=rng.randint(1, procs),
            bb=rng.randint(0, max_bb),
        )
        for i in range(n)
    ]


def test_score_arithmetic():
    assert score([0, 0, 0], alpha=2) == 0
    assert score([10, 20], alpha=2) == 500
    assert score([10, 20], alpha=1) == 30


def test_score_adds_left_to_right_on_every_python():
    # sum() compensates float rounding from Python 3.12 on and gives 1.0000000000000002e16
    assert score([10**8, 1, 1], 2) == 1e16


def test_alpha_two_penalizes_unfairness():
    # both schedules have total wait 30, but the lopsided one scores worse
    assert score([30, 0], 2) == 900 > score([20, 10], 2) == 500


def test_build_plan_single_job_fits_now():
    profile = AvailabilityProfile(4, 10 * TB)
    j = job(1, submit=0, walltime=60)
    plan = build_plan(demands([j], profile, 30), profile, alpha=1)
    assert plan.starts == {1: 30}
    assert plan.score == 30  # waited from submit=0 to now


def test_build_plan_table1_job3():
    profile = AvailabilityProfile(4, 10 * TB)
    profile.add(0, 10 * MIN, 1, 4 * TB)
    profile.add(0, 4 * MIN, 1, 2 * TB)
    j3 = table1_job(*TABLE1[2])
    plan = build_plan(demands([j3], profile, 1 * MIN), profile, alpha=2)
    assert plan.starts == {3: 10 * MIN}


def test_build_plan_serializes_full_width_jobs():
    profile = AvailabilityProfile(96, 0)
    a, b = job(1, walltime=100, procs=96), job(2, walltime=100, procs=96)
    plan = build_plan(demands([a, b], profile, 0), profile, alpha=1)
    assert plan.starts == {1: 0, 2: 100}
    plan = build_plan(demands([b, a], profile, 0), profile, alpha=1)
    assert plan.starts == {2: 0, 1: 100}


def test_build_plan_does_not_mutate_profile():
    profile = AvailabilityProfile(4, 0)
    build_plan(demands([job(1)], profile, 0), profile, alpha=1)
    assert profile.breakpoints() == []


def test_build_plan_deterministic():
    rng = random.Random(4)
    queue = random_queue(rng, 6)
    profile = AvailabilityProfile(8, 10)
    plans = [build_plan(demands(queue, profile, 0), profile, 2) for _ in range(2)]
    assert plans[0] == plans[1]


def test_initial_candidates_identical_jobs():
    queue = [job(i) for i in range(1, 5)]
    for cand in initial_candidates(queue):
        assert cand == queue


def test_initial_candidates_count_and_fcfs_first():
    rng = random.Random(1)
    queue = random_queue(rng, 7)
    cands = initial_candidates(queue)
    assert len(cands) == 9
    assert cands[0] == queue


def test_initial_candidates_walltime_ascending():
    # pending jobs 3, 4, 5 of the worked example: walltimes 1, 3, 1 minutes
    queue = [table1_job(*TABLE1[i]) for i in (2, 3, 4)]
    cands = initial_candidates(queue)
    assert [j.id for j in cands[7]] == [3, 5, 4]
    assert [j.id for j in cands[8]] == [4, 3, 5]


def test_exhaustive_single_job():
    profile = AvailabilityProfile(4, 0)
    plan = exhaustive([job(1)], profile, 0, 1)
    assert plan.permutation == (1,)


def test_exhaustive_evaluates_all_permutations():
    rng = random.Random(2)
    queue = random_queue(rng, 5)
    stats = SearchStats()
    exhaustive(queue, AvailabilityProfile(8, 10), 0, 2, stats)
    assert stats.n_builds == 120


def test_exhaustive_beats_fcfs_on_contended_instance():
    # last-submitted shortest job should jump the queue under alpha=1
    profile = AvailabilityProfile(4, 0)
    profile.add(0, 100, 3, 0)
    queue = [
        job(1, submit=0, walltime=500, procs=4),
        job(2, submit=0, walltime=500, procs=4),
        job(3, submit=90, walltime=10, procs=1),
    ]
    plan = exhaustive(queue, profile, now=100, alpha=1)
    fcfs_plan = build_plan(demands(queue, profile, 100), profile, alpha=1)
    assert plan.score < fcfs_plan.score
    assert plan.permutation != fcfs_plan.permutation


def test_exhaustive_tie_break_is_lexicographic():
    # identical jobs: every permutation scores the same; arrival order wins
    queue = [job(i) for i in (1, 2, 3)]
    plan = exhaustive(queue, AvailabilityProfile(1, 0), 0, 1)
    assert plan.permutation == (1, 2, 3)


def permutation_loop(queue, profile, now, alpha):
    """The reference exhaustive search: every order built on a fresh copy, in
    lexicographic order of arrival indices, the first taken and then a
    strictly lower score."""
    best = None
    for perm in itertools.permutations(demands(queue, profile, now)):
        plan = build_plan(list(perm), profile, alpha)
        if best is None or plan.score < best.score:
            best = plan
    return best


@given(
    held=st.lists(st.tuples(st.integers(0, 60), st.integers(1, 60), st.integers(0, 4),
                            st.integers(0, 3)), max_size=6),
    shapes=st.lists(st.tuples(st.integers(0, 20), st.sampled_from([10, 20, 30]),  # submit, walltime,
                              st.integers(1, 4), st.integers(0, 3)),  # procs, bb
                    min_size=1, max_size=3),
    picks=st.lists(st.integers(0, 2), min_size=1, max_size=5),
    alpha=st.sampled_from([0.5, 1, 2, 2.5, 16]),
)
@settings(max_examples=300, derandomize=True, deadline=None)
def test_exhaustive_is_the_permutation_loop(held, shapes, picks, alpha):
    """The same rows, starts and score, ties included: jobs picked from at most
    three shapes are often identical, so many orders tie."""
    profile = AvailabilityProfile(4, 3)
    for start, duration, procs, bb in held:
        if profile.has_capacity(procs, bb, start, start + duration):
            profile.add(start, start + duration, procs, bb)
    queue = [job(jid, *shapes[pick % len(shapes)]) for jid, pick in enumerate(picks, 1)]
    plan = exhaustive(queue, profile, 20, alpha)
    reference = permutation_loop(queue, profile, 20, alpha)
    assert (plan.jobs, plan.placed, plan.score) == (
        reference.jobs, reference.placed, reference.score)


def test_demands_refuses_a_job_submitted_after_now():
    """Refusing it keeps every wait >= 0, which the exhaustive search's cut needs."""
    queue = [job(1, submit=30), job(2, submit=31)]
    with pytest.raises(ValueError, match=r"^job 2 is submitted at 31, after now \(30\)$"):
        demands(queue, AvailabilityProfile(4, 0), 30)


def heterogeneous_queue(n=8, seed=3):
    rng = random.Random(seed)
    return random_queue(rng, n, now=50)


def test_anneal_budget_is_189():
    queue = heterogeneous_queue(8)
    profile = AvailabilityProfile(8, 10)
    stats = SearchStats()
    anneal(queue, profile, 50, 2, random.Random(0), stats)
    assert not stats.annealing_skipped
    assert stats.n_builds == 9 + 30 * 6 == 189


def test_anneal_earliest_slot_budget(monkeypatch):
    """One seeded annealing cycle makes an exact number of slot scans: one
    earliest_slot lower bound per job on the base profile, then, in every
    build, one place call that scans for each job (taking the slot for all but
    the last). Searched scans are the rows place receives plus any
    earliest_slot call off the base profile."""
    base = AvailabilityProfile(8, 10)
    calls = {"bounds": 0, "searched": 0}
    earliest_slot, place = AvailabilityProfile.earliest_slot, AvailabilityProfile.place

    def counting(self, *args, **kwargs):
        calls["bounds" if self is base else "searched"] += 1
        return earliest_slot(self, *args, **kwargs)

    def counting_place(self, rows):
        calls["searched"] += len(rows)
        return place(self, rows)

    monkeypatch.setattr(AvailabilityProfile, "earliest_slot", counting)
    monkeypatch.setattr(AvailabilityProfile, "place", counting_place)
    stats = SearchStats()
    anneal(heterogeneous_queue(8), base, 50, 2, random.Random(0), stats)
    assert stats.n_builds == 189
    assert calls == {"bounds": 8, "searched": stats.n_builds * 8}


def test_lower_bounds_equal_searching_from_now():
    """Builds that search each job from its per-search lower bound place the
    jobs where builds that search from now do."""
    rng = random.Random(12)
    for trial in range(200):
        n, now = rng.randint(1, 9), rng.randint(0, 60)
        queue = random_queue(rng, n, now=now)
        profile = AvailabilityProfile(8, 10)
        for k in range(rng.randint(0, 6)):  # demand that starts before and after now
            start = rng.randint(0, 150)
            end = start + rng.randint(1, 200)
            procs, bb = rng.randint(0, 8), rng.randint(0, 10)
            if profile.has_capacity(procs, bb, start, end):
                profile.add(start, end, procs, bb)
        bounded = rng.sample(demands(queue, profile, now), n)
        from_now = [row._replace(not_before=now) for row in bounded]
        plan = build_plan(bounded, profile, 2)
        oracle = build_plan(from_now, profile, 2)
        assert plan.starts == oracle.starts
        assert plan.score == oracle.score
        assert plan.permutation == oracle.permutation


def test_anneal_skipped_for_identical_jobs():
    queue = [job(i, walltime=50) for i in range(1, 7)]
    profile = AvailabilityProfile(1, 0)
    stats = SearchStats()
    plan = anneal(queue, profile, 0, 2, random.Random(0), stats)
    assert stats.annealing_skipped
    assert stats.n_builds == 9
    assert plan.permutation == (1, 2, 3, 4, 5, 6)


def test_anneal_never_worse_than_candidates():
    for seed in range(10):
        queue = heterogeneous_queue(8, seed=seed)
        profile = AvailabilityProfile(8, 10)
        stats = SearchStats()
        best = anneal(queue, profile, 50, 2, random.Random(seed), stats)
        candidate_scores = [
            build_plan(order, profile, 2).score
            for order in initial_candidates(demands(queue, profile, 50))
        ]
        assert best.score <= min(candidate_scores)


class NeverAcceptRandom:
    """Metropolis draw always 1.0: strictly worse swaps are never accepted."""

    def __init__(self, seed):
        self._inner = random.Random(seed)

    def randrange(self, n):
        return self._inner.randrange(n)

    def random(self):
        return 1.0


def test_metropolis_rejects_worse_when_draw_is_high():
    queue = heterogeneous_queue(8)
    profile = AvailabilityProfile(8, 10)
    best = anneal(queue, profile, 50, 2, NeverAcceptRandom(0))
    candidate_best = min(
        build_plan(order, profile, 2).score
        for order in initial_candidates(demands(queue, profile, 50))
    )
    assert best.score <= candidate_best


def test_metropolis_zero_temperature_limit():
    # e^((S - S')/T) -> 0 as T -> 0+ for S' > S
    assert math.exp((100.0 - 200.0) / 1e-300) == 0.0


def test_plan_schedule_exhaustive_path_and_future_reservation():
    profile = AvailabilityProfile(4, 10 * TB)
    profile.add(0, 10 * MIN, 1, 4 * TB)
    profile.add(0, 4 * MIN, 1, 2 * TB)
    j3 = table1_job(*TABLE1[2])
    state = SchedulerState(queue={3: j3}, profile=profile, now=1 * MIN)
    assert exhaustive([j3], profile, 1 * MIN, 2).starts[3] == 10 * MIN
    result = plan_schedule(state, 2, random.Random(0))
    assert result.launched == []
    expected = AvailabilityProfile(4, 10 * TB)
    expected.add(0, 10 * MIN, 1, 4 * TB)
    expected.add(0, 4 * MIN, 1, 2 * TB)
    assert profile == expected  # a planned future start reserves nothing
    assert state.queue == {3: j3}


def test_plan_schedule_launches_now_jobs():
    state = SchedulerState(
        queue={1: job(1), 2: job(2)}, profile=AvailabilityProfile(4, 0), now=0
    )
    result = plan_schedule(state, 2, random.Random(0))
    assert sorted(j.id for j in result.launched) == [1, 2]
    assert state.queue == {}
    expected = AvailabilityProfile(4, 0)
    expected.add(0, 60, 1, 0)  # job 1
    expected.add(0, 60, 1, 0)  # job 2
    assert state.profile == expected


def test_plan_schedule_empty_queue_is_noop():
    state = SchedulerState(queue={}, profile=AvailabilityProfile(4, 0), now=0)
    result = plan_schedule(state, 2, random.Random(0))
    assert result.launched == []


def test_plan_matches_bruteforce_small_queue():
    rng = random.Random(9)
    for trial in range(20):
        n = rng.randint(1, 4)
        queue = random_queue(rng, n, now=30)
        profile = AvailabilityProfile(8, 10)
        for i in range(rng.randint(0, 3)):
            start = rng.randint(0, 100)
            end = start + rng.randint(1, 200)
            procs, bb = rng.randint(0, 4), rng.randint(0, 5)
            if profile.has_capacity(procs, bb, start, end):
                profile.add(start, end, procs, bb)
        plan = exhaustive(queue, profile, 30, 2)
        brute = min(
            build_plan(list(p), profile, 2).score
            for p in itertools.permutations(demands(queue, profile, 30))
        )
        assert plan.score == brute
