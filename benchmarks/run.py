"""bbsim benchmark: host time of Simulation.run per policy, with checked outputs.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one generated job list run under all six policies. A run
repeats whole rounds -- time a fixed probe loop, set the workload up, then run
every policy once -- until ``--seconds`` have passed. It reports the median
set-up time and the mean over rounds of each policy's ``Simulation.run`` host
time, both scaled to the reference host speed (see ``probe_seconds``). Every
simulation's records go through the checks in ``checks.py``; a job that fails
a check, or that belongs to a simulation which raised, counts as failed.

``--seed`` sets the order in which the jobs are handed to ``Simulation``; the
records must not depend on it. The jobs themselves come from
``--workload-seed`` (default 42), so that runs with different ``--seed``
measure the same work. With ``--trace 1`` untraced and traced rounds
alternate (see ``tracing.py``), and the per-layer metrics are printed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the records hashes and simulated outcomes. The full report is written
to ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import heapq
import io
import json
import math
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import bbsim  # noqa: E402

if Path(bbsim.__file__).resolve().parent != SRC / "bbsim":
    sys.exit(f"bbsim must be imported from {SRC}, got {bbsim.__file__}")

import bbsim.engine  # noqa: E402
import bbsim.metrics  # noqa: E402
import bbsim.workload  # noqa: E402
from bbsim.platform import DEFAULT_BB_MODEL, PlatformConfig, build_platform  # noqa: E402

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402

POLICIES = ("fcfs", "filler", "fcfs-easy", "fcfs-bb", "sjf-bb", "plan")
DEFAULT_WORKLOAD_SEED = 42
SIM_SEED = 1  # SimConfig.seed: the RNG of plan's annealing
# probe_seconds() on the machine the reference timings in README.md come from
PROBE_REFERENCE_S = 0.016
REFERENCE = HERE / "reference.json"


@dataclass(frozen=True)
class Workload:
    """Generator parameters; the five queue policies run the first
    ``queue_jobs`` jobs and ``plan`` runs the first ``plan_jobs``."""

    mean_interarrival: float
    io_model: str
    queue_jobs: int
    plan_jobs: int

    @property
    def n_jobs(self) -> int:
        return max(self.queue_jobs, self.plan_jobs)

    def jobs_for(self, policy: str) -> int:
        return self.plan_jobs if policy == "plan" else self.queue_jobs


# plan rebuilds its whole schedule 189 times a tick, so on the two workloads
# that are not about it, it runs a prefix short enough to keep a round short.
WORKLOADS = {
    # the queue grows to hundreds of jobs: time goes to policy queue scans
    # and has_capacity sweeps; the link is idle
    "backfill-pressure": Workload(45.0, "off", queue_jobs=500, plan_jobs=60),
    # short queue, data movement on: time goes to the event heap with
    # Fraction timestamps and to the fair-share link
    "io-lifecycle": Workload(90.0, "on", queue_jobs=300, plan_jobs=60),
    # the pressure prefix under plan: time goes to build_plan and the
    # profile's earliest_slot, add and copy
    "plan-anneal": Workload(45.0, "off", queue_jobs=120, plan_jobs=120),
}


def clamp_bb(jobs, platform):
    """Cut each buffer request to what the platform can ever provide."""
    cap = platform.total_bb
    return [replace(j, bb_per_proc=min(j.bb_per_proc, cap // j.n_procs)) for j in jobs]


def set_up(wl: Workload, workload_seed: int, seed: int):
    """Platform and, per policy, its job list in a seed-shuffled order."""
    platform = build_platform(PlatformConfig())
    jobs = bbsim.workload.synthetic_workload(
        wl.n_jobs,
        seed=workload_seed,
        mean_interarrival=wl.mean_interarrival,
        bb_model=DEFAULT_BB_MODEL,
    )
    jobs = clamp_bb(jobs, platform)
    inputs = {}
    for policy in POLICIES:
        part = jobs[: wl.jobs_for(policy)]
        random.Random(seed).shuffle(part)
        inputs[policy] = part
    return platform, inputs


def records_sha256(records) -> str:
    buf = io.StringIO()
    bbsim.metrics.write_records(buf, records)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def simulate(platform, jobs, policy: str, io_model: str) -> dict:
    """One checked Simulation.run; its host time, hash, outcome and failed jobs."""
    cfg = bbsim.engine.SimConfig(io_model=io_model, seed=SIM_SEED)
    try:
        sim = bbsim.engine.Simulation(platform, jobs, policy, cfg)
        gc.collect()
        t0 = time.perf_counter()
        records = sim.run()
        elapsed = time.perf_counter() - t0
    except Exception:
        return {
            "s": None,
            "sha256": None,
            "n_jobs": len(jobs),
            "failed": len(jobs),
            "error": traceback.format_exc(),
        }
    bad = checks.check_simulation(sim, jobs, records, cfg.tick_period_s)
    wait, bsld = checks.recomputed_means(records) if records else (0, 0)
    return {
        "s": elapsed,
        "sha256": records_sha256(records),
        "n_jobs": len(jobs),
        "failed": min(len(bad), len(jobs)),
        "killed": sum(r.killed for r in records),
        "mean_wait_s": float(wait),
        "mean_bounded_slowdown": float(bsld),
        "anneal_skipped": sum(s.annealing_skipped for s in sim.plan_stats),
    }


def probe_seconds() -> float:
    """Fastest of five host times of a fixed pure-Python loop.

    The loop does heap, dict and Fraction work, as bbsim's hot paths do, but
    never calls bbsim: a change to bbsim cannot move it, while a change in the
    host's speed moves it as it moves bbsim. Each round's times are scaled by
    PROBE_REFERENCE_S / probe_seconds(), which takes out most of the speed
    changes of a shared host.
    """

    def once() -> float:
        t0 = time.perf_counter()
        heap, counts, acc = [], {}, Fraction(0)
        for i in range(12000):
            heapq.heappush(heap, (i * 7919 % 12007, i))
            counts[i % 251] = counts.get(i % 251, 0) + i
            if i % 8 == 0:
                acc += Fraction(i, 7)
        while heap:
            heapq.heappop(heap)
        sorted(counts.items(), key=lambda kv: -kv[1])
        return time.perf_counter() - t0

    gc.collect()
    return min(once() for _ in range(5))


def run_round(wl: Workload, platform, inputs) -> dict[str, dict]:
    return {policy: simulate(platform, inputs[policy], policy, wl.io_model) for policy in POLICIES}


def sim_seconds(rounds, policies=POLICIES, key="scaled_s") -> float:
    """Mean over rounds of the summed Simulation.run time of the given policies.

    A mean, not a median: a shared host can switch between two speeds for
    seconds at a time, and the median of such a sample jumps from one speed
    to the other as their mix passes one half, where the mean moves with it.
    """
    totals = [sum(r[p][key] for p in policies) for r in rounds if all(r[p][key] for p in policies)]
    return statistics.mean(totals) if totals else math.nan


def mark_mismatches(rounds, first_hashes) -> None:
    """A simulation whose records differ from the run's first round failed in full."""
    for rnd in rounds:
        for policy, res in rnd.items():
            if res["sha256"] is not None and res["sha256"] != first_hashes[policy]:
                res["failed"] = res["n_jobs"]
                res["error"] = f"{policy}: records differ from the run's first round"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workload-seed", type=int, default=DEFAULT_WORKLOAD_SEED)
    ap.add_argument(
        "--write-reference",
        action="store_true",
        help="store this run's hashes and outcomes as the workload's reference",
    )
    args = ap.parse_args(argv)
    default_seeds = args.workload_seed == DEFAULT_WORKLOAD_SEED
    if args.write_reference and not default_seeds:
        ap.error("--write-reference stores the outcomes of the default workload seed only")
    wl = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = Tracer() if args.trace else None

    # each round sets the workload up afresh, so that set-up is timed across
    # the whole run; with tracing, untraced and traced rounds alternate, so
    # that the tracing overhead is measured under the same host conditions
    deadline = time.perf_counter() + args.seconds
    untraced, traced, setup_times, probes = [], [], [], []
    while True:
        trace_this = tracer is not None and len(untraced) > len(traced)
        probes.append(probe_seconds())
        scale = PROBE_REFERENCE_S / probes[-1]
        with tracer if trace_this else contextlib.nullcontext():
            t0 = time.perf_counter()
            platform, inputs = set_up(wl, args.workload_seed, args.seed)
            if not trace_this:
                setup_times.append((time.perf_counter() - t0) * scale)
            rnd = run_round(wl, platform, inputs)
        for res in rnd.values():
            res["scaled_s"] = res["s"] and res["s"] * scale
        (traced if trace_this else untraced).append(rnd)
        if time.perf_counter() >= deadline and (traced or tracer is None):
            break

    all_rounds = untraced + traced
    first = untraced[0]
    hashes = {p: res["sha256"] for p, res in first.items()}
    mark_mismatches(all_rounds, hashes)
    attempted = sum(res["n_jobs"] for rnd in all_rounds for res in rnd.values())
    failed = sum(res["failed"] for rnd in all_rounds for res in rnd.values())
    errors = sorted({res["error"] for rnd in all_rounds for res in rnd.values() if "error" in res})

    if tracer:
        values = tracer.layer_metrics(len(traced))
        values["planner.anneal_skipped"] = statistics.mean(
            r["plan"].get("anneal_skipped", 0) for r in traced
        )
        values["trace.overhead_s"] = sim_seconds(traced, key="s") - sim_seconds(untraced, key="s")
        section = "per_layer"
    else:
        values = {"sim_s": sim_seconds(untraced), "setup_s": statistics.median(setup_times)}
        for p in POLICIES:
            values[f"sim_s.{p}"] = sim_seconds(untraced, [p])
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        section = "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}

    outcomes = {
        p: {k: first[p].get(k) for k in ("sha256", "killed", "mean_wait_s", "mean_bounded_slowdown")}
        for p in POLICIES
    }
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    if args.write_reference and failed == 0:
        reference[args.workload] = outcomes
        REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    if default_seeds and args.workload in reference:
        differs = [p for p in POLICIES if reference[args.workload][p]["sha256"] != hashes[p]]
    else:
        differs = None
    info = {
        "workload": args.workload,
        "untraced_rounds": len(untraced),
        "traced_rounds": len(traced),
        "probe_s": statistics.median(probes),
        "host_sim_s": sim_seconds(untraced, key="s"),
        "records_differ_from_reference": differs,
        "outcomes": outcomes,
        "errors": errors,
    }
    report = {
        **info,
        "args": vars(args),
        "setup_s": setup_times,
        "probe_s": probes,
        "round_seconds": {
            kind: [{p: res["s"] for p, res in r.items()} for r in rnds]
            for kind, rnds in (("untraced", untraced), ("traced", traced))
        },
        "metrics": metrics,
    }
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(report, indent=2) + "\n")

    print(json.dumps(info))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
