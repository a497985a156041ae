"""Plan-based scheduling: permutation plans scored by sum of waiting times^alpha,
searched exhaustively for small queues or by simulated annealing seeded with
nine heuristic orderings.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

from .availability import AvailabilityProfile, Reservation
from .policies import CycleResult, SchedulerState, launch
from .workload import JobSpec

EXHAUSTIVE_THRESHOLD = 5  # queues up to this length are searched exhaustively


@dataclass
class AnnealConfig:
    alpha: float = 2.0
    r: float = 0.9  # cooling rate
    n_cooling: int = 30
    m_steps: int = 6  # constant-temperature steps

    def __post_init__(self):
        if not 0 < self.r < 1:
            raise ValueError("cooling rate must be in (0, 1)")
        if self.n_cooling < 1 or self.m_steps < 1:
            raise ValueError("cooling/constant-temperature steps must be >= 1")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")


@dataclass(frozen=True)
class ExecutionPlan:
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


def build_plan(
    jobs: list[JobSpec],
    profile: AvailabilityProfile,
    now: int,
    alpha: float,
    stats: SearchStats | None = None,
    known_starts: tuple[int, ...] = (),
) -> ExecutionPlan:
    """Place jobs in the given order at their earliest slots on a profile copy.

    The first len(known_starts) jobs go at those starts instead, capacity-checked.
    """
    if stats is not None:
        stats.n_builds += 1
    work = profile.copy()
    starts: dict[int, int] = {}
    waits = []
    for k, job in enumerate(jobs):
        bb = job.bb_total
        if k < len(known_starts):
            start = known_starts[k]
        else:
            start = work.earliest_slot(job.n_procs, bb, job.walltime, now)
        work.add(Reservation(job.id, start, start + job.walltime, job.n_procs, bb))
        starts[job.id] = start
        waits.append(start - job.submit_time)
    return ExecutionPlan(
        permutation=tuple(j.id for j in jobs),
        starts=starts,
        score=score(waits, alpha),
    )


def initial_candidates(queue: list[JobSpec]) -> list[list[JobSpec]]:
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
    for perm in itertools.permutations(queue):
        plan = build_plan(list(perm), profile, now, alpha, stats)
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
    n_cooling * m_steps + 9 constructions total with defaults (189). A swap
    of positions i and j replays the incumbent's first min(i, j) starts.
    """
    if stats is None:
        stats = SearchStats()
    stats.method = "anneal"
    candidates = [
        build_plan(order, profile, now, cfg.alpha, stats)
        for order in initial_candidates(queue)
    ]
    jobs_by_id = {j.id: j for j in queue}
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
            new_perm = list(current.permutation)
            new_perm[i], new_perm[j] = new_perm[j], new_perm[i]
            prefix = tuple(current.starts[jid] for jid in new_perm[: min(i, j)])
            new_jobs = [jobs_by_id[jid] for jid in new_perm]
            plan = build_plan(new_jobs, profile, now, cfg.alpha, stats, prefix)
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
        plan = exhaustive(state.queue, state.profile, state.now, cfg.alpha, stats)
    else:
        plan = anneal(state.queue, state.profile, state.now, cfg, rng, stats)
    jobs_by_id = {j.id: j for j in state.queue}
    for jid in plan.permutation:
        job = jobs_by_id[jid]
        if plan.starts[jid] == state.now:
            launch(state, job)
            result.launched.append(job)
    return result
