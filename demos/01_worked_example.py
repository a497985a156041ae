"""Worked example: why burst buffers break plain EASY backfilling.

Eight jobs compete for 4 processors and 10 TB of shared burst buffer.
Processor-only backfilling (fcfs-easy) lets small jobs grab buffer space that
the queue head will need, so the head's reservation protects processors that
then sit idle. Buffer-aware backfilling (fcfs-bb) reserves both resources.

Run: python3 demos/01_worked_example.py
"""

from bbsim.engine import SimConfig, Simulation
from bbsim.platform import PlatformConfig, build_platform
from bbsim.workload import JobSpec

TB = 10**12
MIN = 60

JOBS = [
    # (id, submit [min], runtime [min], cpus, bb [TB]); walltime == runtime
    (1, 0, 10, 1, 4),
    (2, 0, 4, 1, 2),
    (3, 1, 1, 3, 8),
    (4, 2, 3, 2, 4),
    (5, 3, 1, 3, 4),
    (6, 3, 1, 2, 2),
    (7, 4, 5, 1, 2),
    (8, 4, 3, 2, 4),
]


def build_jobs():
    return [
        JobSpec(id=j, submit_time=s * MIN, runtime=r * MIN, walltime=r * MIN,
                n_procs=c, bb_total_bytes=b * TB)
        for j, s, r, c, b in JOBS
    ]


def main():
    platform = build_platform(PlatformConfig(
        n_compute_nodes=4, n_storage_nodes=1,
        bb_capacity_total=10 * TB,
    ))
    cfg = SimConfig(io_model="off", validate=True)
    for policy in ("fcfs-easy", "fcfs-bb"):
        records = Simulation(platform, build_jobs(), policy, cfg).run()
        print(f"\n{policy}")
        print("  job  submit  start  finish  (minutes)")
        for r in sorted(records, key=lambda r: (r.start, r.job_id)):
            print(f"  {r.job_id:3d}  {r.submit // MIN:6d}  {r.start // MIN:5d}"
                  f"  {int(r.finish) // MIN:6d}")
        mean_wait = sum(r.start - r.submit for r in records) / len(records)
        print(f"  mean wait: {mean_wait / MIN:.1f} min")


if __name__ == "__main__":
    main()
