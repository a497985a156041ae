"""End-to-end checks, one printed PASS/FAIL line per criterion.

These are the headline guarantees of the package; the per-module test files
cover the details. The directional-ordering check runs five 2,000-job
simulations and dominates the runtime of the suite (a few minutes).
"""

import itertools
import math
import random
import statistics
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbsim.availability import AvailabilityProfile
from bbsim.cli import main as cli_main
from bbsim.engine import SimConfig, Simulation
from bbsim.metrics import bounded_slowdown, waiting_time
from bbsim.planner import (
    SearchStats, anneal, build_plan, demands, exhaustive, initial_candidates,
)
from bbsim.platform import DEFAULT_BB_MODEL, PlatformConfig, build_platform
from bbsim.workload import JobSpec, synthetic_workload, write_workload

from conftest import TABLE1, link_finishes, table1_job
from io_oracle import transfer_finishes

TB = 10**12
MIN = 60


@pytest.fixture
def report(request):
    """Print one PASS/FAIL line per criterion, bypassing output capture."""
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def _report(name: str, passed: bool, detail: str = "") -> None:
        tag = "PASS" if passed else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        line = f"{tag}: {name}{suffix}"
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print(line, flush=True)
        else:
            print(line, flush=True)
        assert passed, f"{name}{suffix}"

    return _report


def clamp_bb(jobs, platform):
    cap = platform.total_bb
    return [replace(j, bb_per_proc=min(j.bb_per_proc, cap // j.n_procs))
            for j in jobs]


# -- worked scheduling example ---------------------------------------------------


def occupancy(records, t):
    return sum(r.n_procs for r in records if r.start <= t < r.finish)


def test_worked_example(report, table1_platform, table1_jobs):
    cfg = SimConfig(io_model="off", validate=True)

    easy = Simulation(table1_platform, table1_jobs, "fcfs-easy", cfg)
    easy_starts = {r.job_id: r.start // MIN for r in easy.run()}
    ok = all(easy_starts[j] == s for j, s in
             {1: 0, 2: 0, 6: 3, 3: 10, 7: 10}.items())
    report("worked example, processor-only backfilling start times", ok,
           f"starts {easy_starts}")

    bb = Simulation(table1_platform, table1_jobs, "fcfs-bb", cfg)
    bb_records = bb.run()
    bb_starts = {r.job_id: r.start // MIN for r in bb_records}
    ok = all(bb_starts[j] == s for j, s in {1: 0, 2: 0, 4: 2, 3: 10}.items())
    report("worked example, buffer-aware backfilling start times", ok,
           f"starts {bb_starts}")

    held = [hr for t, hr in bb.head_reservations if hr.job_id == 3 and t >= MIN]
    ok = bool(held) and all(
        (hr.start, hr.n_procs, hr.bb_bytes) == (10 * MIN, 3, 8 * TB) for hr in held
    )
    report("worked example, head job reservation is (10 min, 3 cpu, 8 TB)", ok)

    easy_records = Simulation(table1_platform, table1_jobs, "fcfs-easy", cfg).run()
    stall = all(4 - occupancy(easy_records, t) >= 3
                for t in range(4 * MIN, 10 * MIN, MIN))
    early = all(bb_starts[j] < 10 for j in (4, 5, 6, 7, 8))
    report("worked example, idle barrier under processor-only backfilling only",
           stall and early)


# -- planner optimality on small queues -------------------------------------------


def random_instance(rng, n_jobs, now=100):
    total_procs = rng.randint(2, 8)
    total_bb = rng.randint(0, 12)
    profile = AvailabilityProfile(total_procs, total_bb)
    for i in range(rng.randint(0, 4)):
        start = rng.randint(0, 200)
        end = start + rng.randint(1, 400)
        procs, bb = rng.randint(0, total_procs), rng.randint(0, total_bb)
        if profile.has_capacity(procs, bb, start, end):
            profile.add(start, end, procs, bb)
    queue = [
        JobSpec(id=i + 1, submit_time=rng.randint(0, now),
                runtime=(w := rng.randint(1, 300)), walltime=w,
                n_procs=rng.randint(1, total_procs),
                bb_total_bytes=rng.randint(0, total_bb))
        for i in range(n_jobs)
    ]
    return queue, profile


def oracle_best_score(queue, profile, now, alpha):
    """Independent brute force: place each order greedily, keep the best sum."""
    best = math.inf
    for perm in itertools.permutations(queue):
        prof = profile.copy()
        total = 0
        for j in perm:
            start = prof.earliest_slot(j.n_procs, j.bb_total, j.walltime, now)
            prof.add(start, start + j.walltime, j.n_procs, j.bb_total)
            total += (start - j.submit_time) ** alpha
        best = min(best, total)
    return best


def test_planner_matches_bruteforce(report):
    rng = random.Random(2024)
    failures = 0
    for trial in range(200):
        queue, profile = random_instance(rng, rng.randint(3, 5))
        alpha = rng.choice([1, 2])
        stats = SearchStats()
        plan = exhaustive(queue, profile, 100, alpha, stats)
        if plan.score != oracle_best_score(queue, profile, 100, alpha):
            failures += 1
        if stats.method != "exhaustive":
            failures += 1
    report("planner equals brute-force optimum on 200 small queues",
           failures == 0, f"{failures} mismatches")


# -- annealing budget and quality --------------------------------------------------


def anneal_instance(seed, n=8):
    # contended on both resources: 8 jobs want ~20 processors and ~24 buffer
    # units against 12 of each, so the job order matters
    rng = random.Random(seed)
    queue = [
        JobSpec(id=i + 1, submit_time=rng.randint(0, 50),
                runtime=(w := rng.randint(60, 600)), walltime=w,
                n_procs=rng.randint(1, 4),
                bb_total_bytes=rng.randint(0, 6))
        for i in range(n)
    ]
    return queue, AvailabilityProfile(12, 12)


def test_annealing_budget(report):
    counts = set()
    for seed in range(20):
        queue, profile = anneal_instance(seed, n=6 + seed % 4)
        stats = SearchStats()
        anneal(queue, profile, 60, 2, random.Random(seed), stats)
        if not stats.annealing_skipped:
            counts.add(stats.n_builds)
    report("annealing search budget is exactly 189 plan constructions",
           counts == {189}, f"observed {sorted(counts)}")


def pruned_optimum(queue, profile, now, alpha):
    """Exact optimum by depth-first search with branch-and-bound pruning. A node
    is cut once its partial score plus each remaining job's wait from its
    earliest slot on the node's profile reaches the best score: below the node
    the profile only gains demand, so no job starts before that slot, and
    every wait is >= 0."""
    best = math.inf
    prof = profile.copy()

    def dfs(remaining, acc):
        nonlocal best
        if not remaining:
            best = acc
            return
        starts = [prof.earliest_slot(j.n_procs, j.bb_total, j.walltime, now) for j in remaining]
        terms = [(start - j.submit_time) ** alpha for j, start in zip(remaining, starts)]
        if acc + sum(terms) >= best:
            return
        for i, j in enumerate(remaining):
            start = starts[i]
            partial = acc + terms[i]
            if partial >= best:
                continue
            held = (start, start + j.walltime, j.n_procs, j.bb_total)
            prof.add(*held)
            dfs(remaining[:i] + remaining[i + 1:], partial)
            prof.remove(*held)

    dfs(tuple(queue), 0)
    return best


def test_annealing_quality(report):
    good = 0
    never_worse = True
    for seed in range(100):
        queue, profile = anneal_instance(seed)
        best = anneal(queue, profile, 60, 2, random.Random(seed))
        cand = min(build_plan(order, profile, 2).score
                   for order in initial_candidates(demands(queue, profile, 60)))
        if best.score > cand:
            never_worse = False
        optimum = pruned_optimum(queue, profile, 60, 2)
        if best.score <= 1.05 * optimum:
            good += 1
    report("annealing never beats its own candidates backwards", never_worse)
    report("annealing within 5% of the 8! optimum in >= 90 of 100 instances",
           good >= 90, f"{good}/100 within 5%")


# -- backfilling guarantee and capacity invariants at scale --------------------


@pytest.fixture(scope="module")
def platform96():
    return build_platform(PlatformConfig())


def test_easy_guarantee_at_scale(report, platform96):
    jobs = synthetic_workload(2000, seed=3, mean_interarrival=60.0,
                              bb_model=DEFAULT_BB_MODEL)
    jobs = clamp_bb(jobs, platform96)
    # validate=True re-checks the head's reserved start after every backfill
    # pass and, after every event, that the profile is the one the running
    # jobs make and every resource invariant (processors, total buffer,
    # per-node buffer)
    ok = True
    for policy in ("fcfs-easy", "fcfs-bb", "sjf-bb"):
        sim = Simulation(platform96, jobs, policy,
                         SimConfig(io_model="off", validate=True))
        records = sim.run()
        ok = ok and len(records) == 2000
        if policy != "fcfs-easy":
            # the reservation covers both resources, so a promised start can
            # only improve as jobs finish early, whatever order the backfill
            # candidates come in; under fcfs-easy it cannot hold (backfilled
            # jobs may take the buffer the head needs). launches happen on
            # ticks, so round the promise up to one.
            tick = 60
            starts = {r.job_id: r.start for r in records}
            ok = ok and len(sim.head_reservations) > 0 and all(
                starts[hr.job_id] <= -(-hr.start // tick) * tick
                for _, hr in sim.head_reservations
            )
    report("no backfill guarantee or capacity violation over 2,000 jobs", ok)


# -- byte-exact link sharing ---------------------------------------------------


def test_transfer_conservation(report):
    examples_ok = all(
        link_finishes(xs, 10) == transfer_finishes(xs, 10) == want
        for xs, want in (
            ([(0, 100)], [10]),
            ([(0, 100), (0, 100)], [20, 20]),
            ([(0, 100), (5, 100)], [15, 20]),
        )
    )
    report("link sharing reproduces the three worked finish times", examples_ok)

    @given(
        xs=st.lists(st.tuples(st.integers(0, 100), st.integers(1, 10**6)),
                    min_size=1, max_size=12),
        bw=st.integers(1, 9),
    )
    @settings(max_examples=100, deadline=None)
    def exact_and_conserved(xs, bw):
        finishes = link_finishes(xs, bw)  # asserts byte-exact completion
        assert finishes == transfer_finishes(xs, bw)
        # the link never moves more than bw bytes per second
        span = max(finishes) - min(t for t, _ in xs)
        assert span * bw >= sum(b for _, b in xs)

    try:
        exact_and_conserved()
        failure = ""
    except AssertionError as e:
        failure = str(e)
    report("randomized transfer schedules finish as the exact oracle says and "
           "conserve bytes", not failure, failure)


# -- directional policy orderings under buffer pressure -------------------------


@pytest.fixture(scope="module")
def pressure_results(platform96):
    jobs = synthetic_workload(2000, seed=42, mean_interarrival=45.0,
                              bb_model=DEFAULT_BB_MODEL)
    jobs = clamp_bb(jobs, platform96)
    out = {}
    for policy in ("fcfs-easy", "fcfs-bb", "sjf-bb", "filler", "plan"):
        out[policy] = Simulation(platform96, jobs, policy,
                                 SimConfig(io_model="off", seed=1)).run()
    return out


def mean_of(records, metric):
    return statistics.mean(metric(r) for r in records)


def test_directional_orderings(report, pressure_results):
    r = pressure_results
    w = {p: mean_of(recs, waiting_time) for p, recs in r.items()}
    s = {p: mean_of(recs, bounded_slowdown) for p, recs in r.items()}

    report("buffer-oblivious backfilling waits >= 1.5x buffer-aware",
           w["fcfs-easy"] >= 1.5 * w["fcfs-bb"]
           and s["fcfs-easy"] >= 1.5 * s["fcfs-bb"],
           f"wait ratio {w['fcfs-easy'] / w['fcfs-bb']:.2f}, "
           f"slowdown ratio {s['fcfs-easy'] / s['fcfs-bb']:.2f}")
    report("shortest-first backfilling does not raise the mean wait",
           w["sjf-bb"] <= w["fcfs-bb"],
           f"{w['sjf-bb']:.0f} vs {w['fcfs-bb']:.0f} s")
    report("plan-based scheduling improves on shortest-first backfilling",
           w["plan"] < w["sjf-bb"], f"{w['plan']:.0f} vs {w['sjf-bb']:.0f} s")
    max_filler = max(waiting_time(x) for x in r["filler"])
    max_bb = max(waiting_time(x) for x in r["fcfs-bb"])
    report("greedy filling starves some job worse than backfilling ever does",
           max_filler > max_bb, f"{max_filler:.0f} vs {max_bb:.0f} s")


# -- metric identities ------------------------------------------------------------


def test_metric_identities(report, pressure_results):
    all_records = [rec for recs in pressure_results.values() for rec in recs]
    report("bounded slowdown is >= 1 on every record",
           all(bounded_slowdown(rec) >= 1.0 for rec in all_records),
           f"{len(all_records)} records")

    rng = random.Random(7)
    ok = True
    for trial in range(50):
        queue, profile = random_instance(rng, rng.randint(1, 6))
        plan = build_plan(demands(queue, profile, 100), profile, alpha=1)
        waits = [plan.starts[j.id] - j.submit_time for j in queue]
        if plan.score != len(queue) * statistics.mean(waits):
            ok = False
    report("linear plan score equals queue length times mean waiting time", ok)


# -- manifest determinism -----------------------------------------------------------


def test_manifest_determinism(report, tmp_path):
    workload = tmp_path / "jobs.jsonl"
    with open(workload, "w") as f:
        write_workload(f, [table1_job(*row) for row in TABLE1])
    config = tmp_path / "platform.json"
    config.write_text(
        '{"platform": {"n_compute_nodes": 4, "n_storage_nodes": 1,'
        ' "bb_capacity_total": 10000000000000}}'
    )
    identical = True
    for policy in ("fcfs-bb", "plan"):
        first = tmp_path / f"{policy}.csv"
        manifest = tmp_path / f"{policy}.json"
        assert cli_main([
            "simulate", "--workload", str(workload), "--config", str(config),
            "--policy", policy, "--io-model", "off",
            "-o", str(first), "--manifest", str(manifest),
        ]) == 0
        replay = tmp_path / f"{policy}-replay.csv"
        assert cli_main(["simulate", "--from-manifest", str(manifest),
                         "-o", str(replay)]) == 0
        if first.read_bytes() != replay.read_bytes():
            identical = False
    report("manifest re-runs produce byte-identical records", identical)
