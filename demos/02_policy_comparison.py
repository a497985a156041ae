"""Compare all six queue policies on a synthetic burst-buffer-bound workload.

Jobs are sized so that the expected buffer demand at full processor load is
close to the installed capacity, which is where policy choice matters most.

Run: python3 demos/02_policy_comparison.py  (takes a minute or two)
"""

from dataclasses import replace

from bbsim.engine import SimConfig, Simulation
from bbsim.metrics import bounded_slowdown, summarize, waiting_time
from bbsim.platform import DEFAULT_BB_MODEL, PlatformConfig, build_platform
from bbsim.workload import synthetic_workload

POLICIES = ("fcfs", "fcfs-easy", "filler", "fcfs-bb", "sjf-bb", "plan")


def main():
    platform = build_platform(PlatformConfig())
    jobs = synthetic_workload(
        400, seed=7, mean_interarrival=60.0, bb_model=DEFAULT_BB_MODEL
    )
    cap = platform.total_bb
    # no single job may exceed the installed buffer capacity
    jobs = [replace(j, bb_per_proc=min(j.bb_per_proc, cap // j.n_procs))
            for j in jobs]

    print(f"{len(jobs)} jobs on {platform.n_procs} processors, "
          f"{cap / 1e12:.1f} TB of burst buffer\n")
    print(f"{'policy':10s} {'mean wait [s]':>14s} {'median':>8s} "
          f"{'mean slowdown':>14s}")
    for policy in POLICIES:
        records = Simulation(platform, jobs, policy, SimConfig(io_model="off")).run()
        waits = summarize(records, waiting_time)
        slows = summarize(records, bounded_slowdown)
        median = dict(waits.quantiles)[0.5]
        print(f"{policy:10s} {waits.mean:14.1f} {median:8.0f} {slows.mean:14.2f}")


if __name__ == "__main__":
    main()
