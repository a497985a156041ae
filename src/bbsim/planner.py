"""Plan-based scheduling: permutation plans scored by sum of waiting times^alpha,
searched exhaustively for small queues or by simulated annealing seeded with
nine heuristic orderings. A build finds and takes each job's slot in one
AvailabilityProfile.earliest_slot scan.
"""

from __future__ import annotations

import itertools
import math
import numbers
import random
from dataclasses import dataclass
from typing import NamedTuple

from .availability import AvailabilityProfile
from .policies import CycleResult, SchedulerState, launch
from .workload import JobSpec

EXHAUSTIVE_THRESHOLD = 5  # queues up to this length are searched exhaustively
MAX_ALPHA = 16


@dataclass
class AnnealConfig:
    """Plan search settings. alpha is at most MAX_ALPHA so that no score overflows
    while waits stay below 2**53 s (285 million years), the range in which every
    float(wait) is exact: such a wait to the 16th is below 2**848, so the sum of
    wait**alpha over any queue shorter than 2**176 jobs stays below 2**1024."""
    alpha: float = 2.0
    r: float = 0.9  # cooling rate
    n_cooling: int = 30
    m_steps: int = 6  # constant-temperature steps

    def __post_init__(self):
        for name, value in vars(self).items():
            # type(...) is int refuses bool, an int subclass, too
            if name in ("n_cooling", "m_steps") and type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not real or not math.isfinite(value):  # nan and inf are not real numbers
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if not 0 < self.r < 1:
            raise ValueError("cooling rate must be in (0, 1)")
        if self.n_cooling < 1 or self.m_steps < 1:
            raise ValueError("cooling/constant-temperature steps must be >= 1")
        if not 0 < self.alpha <= MAX_ALPHA:
            raise ValueError(f"alpha must be in (0, {MAX_ALPHA}], got {self.alpha!r}")


class ExecutionPlan(NamedTuple):
    permutation: tuple[int, ...]  # job ids in plan order
    starts: dict[int, int]  # job id -> planned start
    score: float


@dataclass
class SearchStats:
    n_builds: int = 0
    method: str = ""
    annealing_skipped: bool = False


def score(waits, alpha: float) -> float:
    return sum(float(w) ** alpha for w in waits)


class Demand(NamedTuple):
    """A queued job as the plan search reads it, once per search."""
    id: int
    n_procs: int
    bb_total: int
    walltime: int
    submit_time: int
    not_before: int  # the job's earliest slot on the profile the search starts from


def demands(queue: list[JobSpec], profile: AvailabilityProfile, now: int) -> list[Demand]:
    """The queue's demands, each with its earliest slot on profile from now.

    A build only adds demand to a copy of profile, so no time before a job's
    not_before fits it on the copy either: searching from not_before finds
    the same slot as searching from now.
    """
    return [
        Demand(j.id, j.n_procs, j.bb_total, j.walltime, j.submit_time,
               profile.earliest_slot(j.n_procs, j.bb_total, j.walltime, now))
        for j in queue
    ]


def build_plan(
    jobs: list[Demand],
    profile: AvailabilityProfile,
    alpha: float,
    stats: SearchStats | None = None,
) -> ExecutionPlan:
    """Place jobs in the given order at their earliest slots on a profile copy."""
    if stats is not None:
        stats.n_builds += 1
    work = profile.copy()
    slot, last = work.earliest_slot, len(jobs) - 1
    starts: dict[int, int] = {}
    waits = []
    for k, (jid, n_procs, bb, walltime, submit_time, not_before) in enumerate(jobs):
        # nothing is placed after the last job, so its demand is never taken
        start = slot(n_procs, bb, walltime, not_before, k < last)
        starts[jid] = start
        waits.append(start - submit_time)
    # job ids are unique, so starts keeps their order
    return ExecutionPlan(tuple(starts), starts, score(waits, alpha))


def initial_candidates(queue: list[Demand]) -> list[list[Demand]]:
    """The nine heuristic orderings seeding the annealing (all stable sorts)."""
    def by(key, reverse=False):
        return sorted(queue, key=key, reverse=reverse)

    return [
        list(queue),  # arrival order (FCFS)
        by(lambda j: j.n_procs),
        by(lambda j: -j.n_procs),
        by(lambda j: j.bb_total / j.n_procs),
        by(lambda j: -j.bb_total / j.n_procs),
        by(lambda j: j.bb_total / j.n_procs**2),
        by(lambda j: -j.bb_total / j.n_procs**2),
        by(lambda j: j.walltime),
        by(lambda j: -j.walltime),
    ]


def exhaustive(
    queue: list[JobSpec],
    profile: AvailabilityProfile,
    now: int,
    alpha: float,
    stats: SearchStats | None = None,
) -> ExecutionPlan:
    """Minimal-score plan over all |Q|! permutations.

    Iteration is in lexicographic order of arrival indices with strict
    improvement, so score ties resolve to the lexicographically smallest
    permutation.
    """
    best: ExecutionPlan | None = None
    for perm in itertools.permutations(demands(queue, profile, now)):
        plan = build_plan(list(perm), profile, alpha, stats)
        if best is None or plan.score < best.score:
            best = plan
    assert best is not None, "empty queue"
    if stats is not None:
        stats.method = "exhaustive"
    return best


def anneal(
    queue: list[JobSpec],
    profile: AvailabilityProfile,
    now: int,
    cfg: AnnealConfig,
    rng: random.Random,
    stats: SearchStats | None = None,
) -> ExecutionPlan:
    """Simulated annealing from the best of the nine candidates.

    Initial temperature is the best-worst candidate score spread; annealing is
    skipped entirely when the spread is zero. The incumbent plan is kept
    between steps, so each inner step constructs exactly one new plan:
    n_cooling * m_steps + 9 constructions total with defaults (189), each of
    which scans every job.
    """
    if stats is None:
        stats = SearchStats()
    stats.method = "anneal"
    rows = demands(queue, profile, now)
    candidates = [
        build_plan(order, profile, cfg.alpha, stats) for order in initial_candidates(rows)
    ]
    jobs_by_id = {row.id: row for row in rows}
    best = min(candidates, key=lambda p: p.score)
    worst = max(candidates, key=lambda p: p.score)
    if best.score == worst.score:
        stats.annealing_skipped = True
        return best

    temperature = worst.score - best.score
    current = best
    n = len(queue)
    for _ in range(cfg.n_cooling):
        for _ in range(cfg.m_steps):
            i = rng.randrange(n)
            j = rng.randrange(n - 1)
            if j >= i:
                j += 1
            new_jobs = [jobs_by_id[jid] for jid in current.permutation]
            new_jobs[i], new_jobs[j] = new_jobs[j], new_jobs[i]
            plan = build_plan(new_jobs, profile, cfg.alpha, stats)
            if plan.score < best.score:
                best = current = plan
            elif plan.score < current.score or rng.random() < math.exp(
                (current.score - plan.score) / temperature
            ):
                current = plan
        temperature *= cfg.r
    return best


def plan_schedule(
    state: SchedulerState,
    cfg: AnnealConfig,
    rng: random.Random,
    stats: SearchStats | None = None,
) -> CycleResult:
    """Build the best plan for the whole queue and launch the jobs it starts now.

    Nothing is reserved for the later jobs: the plan is rebuilt from scratch
    at the next scheduling cycle.
    """
    result = CycleResult()
    if not state.queue:
        return result
    if len(state.queue) <= EXHAUSTIVE_THRESHOLD:
        plan = exhaustive(list(state.queue.values()), state.profile, state.now, cfg.alpha, stats)
    else:
        plan = anneal(list(state.queue.values()), state.profile, state.now, cfg, rng, stats)
    for jid in plan.permutation:
        if plan.starts[jid] == state.now:
            job = state.queue[jid]
            launch(state, job)
            result.launched.append(job)
    return result
