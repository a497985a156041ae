"""Plan-based scheduling: permutation plans scored by sum of waiting times^alpha,
searched exhaustively for small queues or by simulated annealing seeded with
nine heuristic orderings. Both work on copies of the profile's step lists.
An annealing build is one pass that finds and takes every job's slot in turn
and adds its score as it goes.

The exhaustive search walks the permutation tree depth first, so orders that
share a prefix place it once, and cuts a node only when no order below it
scores strictly lower, so its plan is the loop over every permutation's, ties
included. That rests on three facts: every wait is >= 0 (see demands); a
profile below a node only gains demand, so no job starts there before its
slot at the node; and float(wait) ** alpha does not fall as the wait grows
(float pow is taken to be monotone). Float sums are not exact, so a cut that
adds terms ahead of time is made only where every sum is exact (see
exhaustive).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

from .availability import AvailabilityProfile, find_slot, take_slot
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
    search, which places only the prefixes its cuts leave, and 189 for an
    annealed one (9 if annealing is skipped)."""
    n_builds: int = 0
    method: str = ""
    annealing_skipped: bool = False
    rows_scanned: int = 0  # rows whose slot annealing builds scanned (to a swap's cut)
    nodes: int = 0  # nodes of the permutation tree an exhaustive search entered


class Demand(NamedTuple):
    """A queued job as the plan search reads it, once per search."""
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
    its wait could be negative, and exhaustive's cuts need every wait >= 0.
    Adding a negative term can lower a partial score, and a negative wait to
    the power alpha is complex or, for an even alpha, falls as the start moves
    later, so a term at a node would not bound the terms below it.
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
    swap: tuple[int, int, list[int]] = (-1, -1, []),
) -> ExecutionPlan:
    """Place jobs in order, each at its earliest slot on a copy of the profile's
    steps, taken before the next (the last only found), with find_slot's scan
    and take_slot's writes inline; add each wait to the power alpha left to
    right from 0.0 (sum() rounds otherwise from 3.12 on).

    swap = (lo, hi, starts): jobs is the order planned at starts, rows lo and
    hi swapped. If the rows now at lo and hi get each other's starts there,
    every row between keeps its own: that start still fits, and only the row
    then at lo could block an earlier one, but now at hi it would not fit at
    its start beside it. So the later rows get that plan's starts unscanned,
    and a plan so cut holds its order's starts too.
    """
    times, fp, fb = profile.steps()
    placed: list[int] = []
    total = 0.0
    last = len(jobs) - 1
    scanned = len(jobs)
    lo, hi, old = swap
    for r, row in enumerate(jobs):
        n_procs, bb_bytes, duration, start, _, submit_time = row
        end = start + duration
        i = k = bisect_right(times, start) - 1
        while times[k] < end:
            if fp[k] < n_procs or fb[k] < bb_bytes:
                k += 1
                while fp[k] < n_procs or fb[k] < bb_bytes:
                    k += 1
                i, start = k, times[k]
                end = start + duration
            k += 1
        placed.append(start)
        total += float(start - submit_time) ** alpha
        if r == hi and start == old[lo] and placed[lo] == old[hi]:
            for later, at in zip(jobs[hi + 1:], old[hi + 1:]):
                total += float(at - later.submit_time) ** alpha
            placed += old[hi + 1:]
            scanned = hi + 1
            break
        if r == last or not (n_procs or bb_bytes):
            continue
        if times[k] != end:
            times.insert(k, end)
            fp.insert(k, fp[k - 1])
            fb.insert(k, fb[k - 1])
        elif fp[k - 1] - n_procs == fp[k] and fb[k - 1] - bb_bytes == fb[k]:
            del times[k], fp[k], fb[k]
        if times[i] != start:
            i += 1
            times.insert(i, start)
            fp.insert(i, fp[i - 1])
            fb.insert(i, fb[i - 1])
            k += 1
        elif fp[i] - n_procs == fp[i - 1] and fb[i] - bb_bytes == fb[i - 1]:
            del times[i], fp[i], fb[i]
            k -= 1
        for m in range(i, k):
            fp[m] -= n_procs
            fb[m] -= bb_bytes
    if stats is not None:
        stats.n_builds += 1
        stats.rows_scanned += scanned
    return ExecutionPlan(tuple(jobs), placed, total)


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

    A node of the permutation tree holds its own step lists and a partial
    score, its placed rows' waits to the power alpha added left to right as
    build_plan does. It first scans every row it has left on its steps
    (find_slot), which gives each row's slot there and its term; a leaf stops
    there. A child copies the steps and takes its row's slot (take_slot) only
    if it survives two cuts, each exact:

    - the child's partial score is at least the best complete score: every
      wait is >= 0 (see demands), and adding a float >= 0 never makes a float
      sum smaller;
    - the node's partial score plus all of its rows' terms is at least the
      best, when the partial score and every term are whole numbers whose sum
      is below 2**53, so that every float sum of them is exact in any order.
      Below the node the steps only gain demand, so no row starts before its
      slot at the node, and wait**alpha does not fall as the wait grows, so
      every order below scores at least that sum. Without the partial score
      in the check, or with a fraction anywhere, adding the same terms in
      another order can round lower, and the cut would drop a better plan.

    Children follow arrival order, so orders are visited in lexicographic
    order of arrival indices, and a leaf replaces the best only with a
    strictly lower score: ties resolve to the lexicographically smallest
    permutation, the plan the loop over every permutation returns.
    """
    if stats is None:
        stats = SearchStats()
    stats.method = "exhaustive"
    rows = demands(queue, profile, now)
    stats.n_builds += math.factorial(len(rows))
    # scores are finite (see SimConfig.alpha), so the first complete order
    # always replaces this one
    best = ExecutionPlan((), [], math.inf)

    def extend(times, fp, fb, partial: float, rest: tuple[Demand, ...], jobs: tuple,
               starts: tuple):
        """Visit the node whose step lists are times, fp and fb, which has placed
        jobs at starts and has rest left to place."""
        nonlocal best, nodes
        nodes += 1
        slots, terms = [], []
        for n_procs, bb_bytes, duration, not_before, _, submit_time in rest:
            slot = find_slot(times, fp, fb, n_procs, bb_bytes, duration, not_before)
            slots.append(slot)
            terms.append(float(slot[0] - submit_time) ** alpha)
        if len(rest) == 1:  # a leaf
            total = partial + terms[0]
            if total < best.score:
                best = ExecutionPlan((*jobs, *rest), [*starts, slots[0][0]], total)
            return
        # fsum rounds once, so over whole numbers bound < 2**53 only if the exact sum is
        bound = partial + math.fsum(terms)
        if (bound >= best.score and bound < 2**53 and partial.is_integer()
                and all(map(float.is_integer, terms))):
            return  # no order below scores lower
        for k, row in enumerate(rest):
            total = partial + terms[k]
            if total < best.score:  # else no order below child scores lower
                start, i, j = slots[k]
                n_procs, bb_bytes, duration = row[:3]
                child = times[:], fp[:], fb[:]
                if n_procs or bb_bytes:
                    take_slot(*child, i, j, start, start + duration, n_procs, bb_bytes)
                extend(*child, total, rest[:k] + rest[k + 1:], (*jobs, row), (*starts, start))

    nodes = 0
    extend(*profile.steps(), 0.0, tuple(rows), (), ())
    stats.nodes += nodes
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
    N_COOLING * M_STEPS + 9 = 189 constructions in all, each cut once its
    swap has moved no start (see build_plan).
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
            plan = build_plan(new_jobs, profile, alpha, stats,
                              (min(i, j), max(i, j), current.placed))
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
