"""Inside the plan policy: candidate orders, annealing, and the search budget.

For a queue of 8 heterogeneous jobs the planner seeds simulated annealing with
nine heuristic orderings, then spends a fixed budget of pairwise swaps. This
script shows each candidate's score, the annealed result, and (since 8! is
still enumerable) the true optimum.

Run: python3 demos/03_plan_search.py
"""

import itertools
import random

from bbsim.availability import AvailabilityProfile
from bbsim.planner import SearchStats, anneal, build_plan, demands, initial_candidates
from bbsim.workload import JobSpec

CANDIDATE_NAMES = [
    "arrival order",
    "procs ascending",
    "procs descending",
    "bb/proc ascending",
    "bb/proc descending",
    "bb/proc^2 ascending",
    "bb/proc^2 descending",
    "walltime ascending",
    "walltime descending",
]


def make_queue(seed, n=8):
    rng = random.Random(seed)
    return [
        JobSpec(id=i + 1, submit_time=rng.randint(0, 50),
                runtime=(w := rng.randint(60, 600)), walltime=w,
                n_procs=rng.randint(1, 8),
                bb_total_bytes=rng.randint(0, 10) * 10**9)
        for i in range(n)
    ]


def main():
    queue = make_queue(seed=12)
    profile = AvailabilityProfile(total_procs=8, total_bb=20 * 10**9)
    now, alpha = 60, 2

    print("candidate orderings:")
    rows = demands(queue, profile, now)
    for name, order in zip(CANDIDATE_NAMES, initial_candidates(rows)):
        plan = build_plan(order, profile, alpha)
        ids = "-".join(str(j.id) for j in order)
        print(f"  {name:22s} {ids:22s} score {plan.score:>14.0f}")

    stats = SearchStats()
    best = anneal(queue, profile, now, alpha, random.Random(0), stats)
    print(f"\nannealed: {'-'.join(map(str, best.permutation)):22s} "
          f"score {best.score:>14.0f}  ({stats.n_builds} plans built)")

    optimum = min(
        build_plan(list(p), profile, alpha).score
        for p in itertools.permutations(rows)
    )
    print(f"optimum over all {40320} orders:          score {optimum:>14.0f}")
    print(f"anneal / optimum = {best.score / optimum:.4f}")


if __name__ == "__main__":
    main()
