"""Plan-based scheduling: permutation plans scored by sum of waiting times^alpha,
searched exhaustively for small queues or by simulated annealing seeded with
nine heuristic orderings. The exhaustive search walks the permutation tree
depth first, so orders that share a prefix place it once. An annealing build
is one AvailabilityProfile.place call on a copy of the profile, which finds
and takes every job's slot in turn.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import NamedTuple

from .availability import AvailabilityProfile
from .policies import CycleResult, SchedulerState, launch
from .workload import JobSpec

EXHAUSTIVE_THRESHOLD = 5  # queues up to this length are searched exhaustively
COOLING_RATE = 0.9  # the temperature's factor after each cooling step
N_COOLING = 30  # cooling steps
M_STEPS = 6  # swaps tried at each temperature
MAX_ALPHA = 16  # see SimConfig.alpha


class ExecutionPlan(NamedTuple):
    """A search reads only the score of most plans it builds, so permutation
    and starts are made when asked for."""
    jobs: tuple[Demand, ...]  # in plan order
    placed: list[int]  # planned starts, in plan order
    score: float

    @property
    def permutation(self) -> tuple[int, ...]:  # job ids in plan order
        return tuple(row.id for row in self.jobs)

    @property
    def starts(self) -> dict[int, int]:  # job id -> planned start, in plan order
        return dict(zip(self.permutation, self.placed))


@dataclass
class SearchStats:
    """n_builds counts the orders a search considers: q! for an exhaustive
    search, which places only the prefixes its cut leaves, and 189 for an
    annealed one (9 if annealing is skipped)."""
    n_builds: int = 0
    method: str = ""
    annealing_skipped: bool = False


def score(waits, alpha: float) -> float:
    """The waits to the power alpha, added left to right from 0.0: sum() compensates
    float rounding from Python 3.12 on, so it could pick another plan there."""
    total = 0.0
    for w in waits:
        total += float(w) ** alpha
    return total


class Demand(NamedTuple):
    """A queued job as the plan search reads it, once per search. It leads with
    the demand AvailabilityProfile.place reads."""
    n_procs: int
    bb_total: int
    walltime: int
    not_before: int  # the job's earliest slot on the profile the search starts from
    id: int
    submit_time: int  # at most the search's now, so every wait is >= 0


def demands(queue: list[JobSpec], profile: AvailabilityProfile, now: int) -> list[Demand]:
    """The queue's demands, each with its earliest slot on profile from now.

    A build only adds demand to a copy of profile, so no time before a job's
    not_before fits it on the copy either: searching from not_before finds
    the same slot as searching from now. A job submitted after now is refused:
    its wait could be negative, and exhaustive's cut needs every wait >= 0.
    """
    slot = profile.earliest_slot
    rows = []
    for j in queue:
        if j.submit_time > now:
            raise ValueError(f"job {j.id} is submitted at {j.submit_time}, after now ({now})")
        n_procs, bb_total, walltime = j.n_procs, j.bb_total, j.walltime
        rows.append(Demand(n_procs, bb_total, walltime, slot(n_procs, bb_total, walltime, now),
                           j.id, j.submit_time))
    return rows


def build_plan(
    jobs: list[Demand],
    profile: AvailabilityProfile,
    alpha: float,
    stats: SearchStats | None = None,
) -> ExecutionPlan:
    """Place jobs in the given order at their earliest slots on a profile copy."""
    if stats is not None:
        stats.n_builds += 1
    placed = profile.copy().place(jobs)
    waits = [start - row.submit_time for row, start in zip(jobs, placed)]
    return ExecutionPlan(tuple(jobs), placed, score(waits, alpha))


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
    """Minimal-score plan over all |Q|! permutations, searched depth first.

    A node of the permutation tree takes its row's slot on a copy of its
    parent's profile and adds the row's wait to its parent's partial score,
    left to right as score does; a leaf only looks up its row's slot. Every
    wait is >= 0 (see demands), and adding a float >= 0 never makes a float
    sum smaller, so a node whose partial score is already at least the best
    complete score has no order below it that scores lower, and is cut.
    Children follow arrival order, so orders are visited in lexicographic
    order of arrival indices, and a leaf replaces the best only with a
    strictly lower score: ties resolve to the lexicographically smallest
    permutation, the plan the loop over every permutation returns.
    """
    rows = demands(queue, profile, now)
    if stats is not None:
        stats.n_builds += math.factorial(len(rows))
        stats.method = "exhaustive"
    # scores are finite (see SimConfig.alpha), so the first complete order
    # always replaces this one
    best = ExecutionPlan((), [], math.inf)

    def extend(work, partial: float, rest: tuple[Demand, ...], jobs: tuple, starts: tuple):
        """Visit the node whose profile is work, which has placed jobs at starts
        and has rest left to place."""
        nonlocal best
        if len(rest) == 1:  # a leaf
            (row,) = rest
            start = work.earliest_slot(row.n_procs, row.bb_total, row.walltime, row.not_before)
            total = partial + float(start - row.submit_time) ** alpha
            if total < best.score:
                best = ExecutionPlan((*jobs, row), [*starts, start], total)
            return
        for k, row in enumerate(rest):
            child = work.copy()
            start = child.earliest_slot(row.n_procs, row.bb_total, row.walltime,
                                        row.not_before, True)
            total = partial + float(start - row.submit_time) ** alpha
            if total < best.score:  # else no order below child scores lower
                extend(child, total, rest[:k] + rest[k + 1:], (*jobs, row), (*starts, start))

    extend(profile, 0.0, tuple(rows), (), ())
    assert best.jobs, "empty queue"
    return best


def anneal(
    queue: list[JobSpec],
    profile: AvailabilityProfile,
    now: int,
    alpha: float,
    rng: random.Random,
    stats: SearchStats | None = None,
) -> ExecutionPlan:
    """Simulated annealing from the best of the nine candidates.

    Initial temperature is the best-worst candidate score spread; annealing is
    skipped entirely when the spread is zero. The incumbent plan, which holds
    its job order, is kept between steps, so each inner step swaps two jobs of
    a copy of that order and constructs exactly one new plan:
    N_COOLING * M_STEPS + 9 = 189 constructions in all, each of which scans
    every job.
    """
    if stats is None:
        stats = SearchStats()
    stats.method = "anneal"
    rows = demands(queue, profile, now)
    candidates = [
        build_plan(order, profile, alpha, stats) for order in initial_candidates(rows)
    ]
    best = min(candidates, key=lambda p: p.score)
    worst = max(candidates, key=lambda p: p.score)
    if best.score == worst.score:
        stats.annealing_skipped = True
        return best

    temperature = worst.score - best.score
    current = best
    n = len(queue)
    for _ in range(N_COOLING):
        for _ in range(M_STEPS):
            i = rng.randrange(n)
            j = rng.randrange(n - 1)
            if j >= i:
                j += 1
            new_jobs = list(current.jobs)
            new_jobs[i], new_jobs[j] = new_jobs[j], new_jobs[i]
            plan = build_plan(new_jobs, profile, alpha, stats)
            if plan.score < best.score:
                best = current = plan
            elif plan.score < current.score or rng.random() < math.exp(
                (current.score - plan.score) / temperature
            ):
                current = plan
        temperature *= COOLING_RATE
    return best


def plan_schedule(
    state: SchedulerState,
    alpha: float,
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
        plan = exhaustive(list(state.queue.values()), state.profile, state.now, alpha, stats)
    else:
        plan = anneal(list(state.queue.values()), state.profile, state.now, alpha, rng, stats)
    for row, start in zip(plan.jobs, plan.placed):
        if start == state.now:
            job = state.queue[row.id]
            launch(state, job)
            result.launched.append(job)
    return result
