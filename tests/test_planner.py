import itertools
import math
import random

import pytest

from bbsim.availability import AvailabilityProfile, Reservation
from bbsim.planner import (
    AnnealConfig,
    SearchStats,
    anneal,
    build_plan,
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


def test_alpha_two_penalizes_unfairness():
    # both schedules have total wait 30, but the lopsided one scores worse
    assert score([30, 0], 2) == 900 > score([20, 10], 2) == 500


def test_build_plan_single_job_fits_now():
    profile = AvailabilityProfile(4, 10 * TB)
    j = job(1, submit=0, walltime=60)
    plan = build_plan([j], profile, now=30, alpha=1)
    assert plan.starts == {1: 30}
    assert plan.score == 30  # waited from submit=0 to now


def test_build_plan_table1_job3():
    profile = AvailabilityProfile(4, 10 * TB)
    profile.add(Reservation(1, 0, 10 * MIN, 1, 4 * TB))
    profile.add(Reservation(2, 0, 4 * MIN, 1, 2 * TB))
    j3 = table1_job(*TABLE1[2])
    plan = build_plan([j3], profile, now=1 * MIN, alpha=2)
    assert plan.starts == {3: 10 * MIN}


def test_build_plan_serializes_full_width_jobs():
    profile = AvailabilityProfile(96, 0)
    a, b = job(1, walltime=100, procs=96), job(2, walltime=100, procs=96)
    plan = build_plan([a, b], profile, now=0, alpha=1)
    assert plan.starts == {1: 0, 2: 100}
    plan = build_plan([b, a], profile, now=0, alpha=1)
    assert plan.starts == {2: 0, 1: 100}


def test_build_plan_does_not_mutate_profile():
    profile = AvailabilityProfile(4, 0)
    build_plan([job(1)], profile, now=0, alpha=1)
    assert profile.breakpoints() == []


def test_build_plan_deterministic():
    rng = random.Random(4)
    queue = random_queue(rng, 6)
    profile = AvailabilityProfile(8, 10)
    plans = [build_plan(queue, profile, 0, 2) for _ in range(2)]
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
    profile.add(Reservation(99, 0, 100, 3, 0))
    queue = [
        job(1, submit=0, walltime=500, procs=4),
        job(2, submit=0, walltime=500, procs=4),
        job(3, submit=90, walltime=10, procs=1),
    ]
    plan = exhaustive(queue, profile, now=100, alpha=1)
    fcfs_plan = build_plan(queue, profile, now=100, alpha=1)
    assert plan.score < fcfs_plan.score
    assert plan.permutation != fcfs_plan.permutation


def test_exhaustive_tie_break_is_lexicographic():
    # identical jobs: every permutation scores the same; arrival order wins
    queue = [job(i) for i in (1, 2, 3)]
    plan = exhaustive(queue, AvailabilityProfile(1, 0), 0, 1)
    assert plan.permutation == (1, 2, 3)


def heterogeneous_queue(n=8, seed=3):
    rng = random.Random(seed)
    return random_queue(rng, n, now=50)


def test_anneal_budget_is_189():
    queue = heterogeneous_queue(8)
    profile = AvailabilityProfile(8, 10)
    stats = SearchStats()
    cfg = AnnealConfig(alpha=2)
    anneal(queue, profile, 50, cfg, random.Random(0), stats)
    assert not stats.annealing_skipped
    assert stats.n_builds == 9 + 30 * 6 == 189


def test_anneal_earliest_slot_budget(monkeypatch):
    """One seeded annealing cycle makes an exact number of earliest-slot
    searches: every build searches the jobs after its replayed prefix."""
    calls = 0
    original = AvailabilityProfile.earliest_slot

    def counting(self, *args):
        nonlocal calls
        calls += 1
        return original(self, *args)

    monkeypatch.setattr(AvailabilityProfile, "earliest_slot", counting)
    stats = SearchStats()
    anneal(heterogeneous_queue(8), AvailabilityProfile(8, 10), 50,
           AnnealConfig(alpha=2), random.Random(0), stats)
    assert stats.n_builds == 189
    # 9 * 8 for the seed orderings, then 8 - min(i, j) per swap; 189 * 8
    # without the replay
    assert calls == 1147


def test_prefix_replay_equals_scratch_build():
    rng = random.Random(11)
    for trial in range(100):
        n = rng.randint(2, 9)
        queue = random_queue(rng, n, now=40)
        profile = AvailabilityProfile(8, 10)
        for k in range(rng.randint(0, 4)):
            start = rng.randint(0, 80)
            r = Reservation(100 + k, start, start + rng.randint(1, 200),
                            rng.randint(0, 4), rng.randint(0, 5))
            if profile.has_capacity(r.n_procs, r.bb_bytes, r.start, r.end):
                profile.add(r)
        incumbent_order = rng.sample(queue, n)
        incumbent = build_plan(incumbent_order, profile, 40, 2)
        i, j = rng.sample(range(n), 2)
        order = list(incumbent_order)
        order[i], order[j] = order[j], order[i]
        prefix = tuple(incumbent.starts[job.id] for job in order[: min(i, j)])
        replayed = build_plan(order, profile, 40, 2, known_starts=prefix)
        scratch = build_plan(order, profile, 40, 2)
        assert replayed.starts == scratch.starts
        assert replayed.score == scratch.score
        assert replayed.permutation == scratch.permutation


def test_anneal_skipped_for_identical_jobs():
    queue = [job(i, walltime=50) for i in range(1, 7)]
    profile = AvailabilityProfile(1, 0)
    stats = SearchStats()
    plan = anneal(queue, profile, 0, AnnealConfig(alpha=2), random.Random(0), stats)
    assert stats.annealing_skipped
    assert stats.n_builds == 9
    assert plan.permutation == (1, 2, 3, 4, 5, 6)


def test_anneal_never_worse_than_candidates():
    cfg = AnnealConfig(alpha=2)
    for seed in range(10):
        queue = heterogeneous_queue(8, seed=seed)
        profile = AvailabilityProfile(8, 10)
        stats = SearchStats()
        best = anneal(queue, profile, 50, cfg, random.Random(seed), stats)
        candidate_scores = [
            build_plan(order, profile, 50, cfg.alpha).score
            for order in initial_candidates(queue)
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
    best = anneal(queue, profile, 50, AnnealConfig(alpha=2), NeverAcceptRandom(0))
    candidate_best = min(
        build_plan(order, profile, 50, 2).score for order in initial_candidates(queue)
    )
    assert best.score <= candidate_best


def test_metropolis_zero_temperature_limit():
    # e^((S - S')/T) -> 0 as T -> 0+ for S' > S
    assert math.exp((100.0 - 200.0) / 1e-300) == 0.0


def test_plan_schedule_exhaustive_path_and_future_reservation():
    profile = AvailabilityProfile(4, 10 * TB)
    profile.add(Reservation(1, 0, 10 * MIN, 1, 4 * TB))
    profile.add(Reservation(2, 0, 4 * MIN, 1, 2 * TB))
    j3 = table1_job(*TABLE1[2])
    state = SchedulerState(queue=[j3], profile=profile, now=1 * MIN)
    assert exhaustive([j3], profile, 1 * MIN, 2).starts[3] == 10 * MIN
    result = plan_schedule(state, AnnealConfig(alpha=2), random.Random(0))
    assert result.launched == []
    assert 3 not in profile  # a planned future start reserves nothing
    assert state.queue == [j3]


def test_plan_schedule_launches_now_jobs():
    state = SchedulerState(
        queue=[job(1), job(2)], profile=AvailabilityProfile(4, 0), now=0
    )
    result = plan_schedule(state, AnnealConfig(alpha=2), random.Random(0))
    assert sorted(j.id for j in result.launched) == [1, 2]
    assert state.queue == []
    assert sorted(r.job_id for r in state.profile.reservations()) == [1, 2]


def test_plan_schedule_empty_queue_is_noop():
    state = SchedulerState(queue=[], profile=AvailabilityProfile(4, 0), now=0)
    result = plan_schedule(state, AnnealConfig(), random.Random(0))
    assert result.launched == []


def test_plan_matches_bruteforce_small_queue():
    rng = random.Random(9)
    for trial in range(20):
        n = rng.randint(1, 4)
        queue = random_queue(rng, n, now=30)
        profile = AvailabilityProfile(8, 10)
        for i in range(rng.randint(0, 3)):
            start = rng.randint(0, 100)
            r = Reservation(100 + i, start, start + rng.randint(1, 200),
                            rng.randint(0, 4), rng.randint(0, 5))
            if profile.has_capacity(r.n_procs, r.bb_bytes, r.start, r.end):
                profile.add(r)
        plan = exhaustive(queue, profile, 30, 2)
        brute = min(
            build_plan(list(p), profile, 30, 2).score
            for p in itertools.permutations(queue)
        )
        assert plan.score == brute
