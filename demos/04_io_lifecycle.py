"""Follow one job through the data-movement model.

A job stages its input from the parallel file system into the burst buffer,
alternates compute phases with checkpoint dumps (compute pauses during the
dump, the drain back to the file system overlaps the next phase), and finally
stages its results out. All transfers on the shared file-system link split
bandwidth equally and are accounted byte-exactly.

Run: python3 demos/04_io_lifecycle.py
"""

import math
from fractions import Fraction

from bbsim.engine import FairShareLink, SimConfig, Simulation
from bbsim.platform import PlatformConfig, build_platform
from bbsim.workload import JobSpec


def link_finishes(starts, bandwidth):
    """Finish times of (start time, bytes) transfers, given in time order,
    stepped through one shared link."""
    link = FairShareLink(bandwidth)
    finishes = {}

    def complete_until(t):
        while (done := link.next_completion()) is not None and done <= t:
            finishes.update(dict.fromkeys(link.finished_ids(done), done))

    for i, (t, size) in enumerate(starts):
        complete_until(t)
        link.add(t, i, size)
    complete_until(math.inf)
    return [finishes[i] for i in range(len(starts))]


def main():
    platform = build_platform(PlatformConfig(
        n_compute_nodes=4, n_storage_nodes=1,
        groups=1, chassis_per_group=1, routers_per_chassis=1, nodes_per_router=5,
        compute_link_bw=50, pfs_link_bw=100, bb_capacity_total=10_000,
    ))
    job = JobSpec(id=1, submit_time=0, runtime=90, walltime=900,
                  n_procs=1, bb_total_bytes=1000, n_phases=3)

    trace: list[dict] = []
    (record,) = Simulation(platform, [job], "fcfs", SimConfig(), sink=trace.append).run()
    print("pure compute time:", job.runtime, "s")
    print("wall clock with data movement:", record.finish - record.start, "s")
    print("trace:")
    for entry in trace:
        print(f"  t={entry['t']:7.1f}  {entry['event']}")

    print("\nfair sharing of the file-system link (100 B each, 10 B/s):")
    for starts in ([(0, 100)], [(0, 100), (0, 100)], [(0, 100), (5, 100)]):
        finishes = link_finishes(starts, bandwidth=10)
        shown = ", ".join(str(Fraction(f)) for f in finishes)
        print(f"  starts {starts} -> finish times {shown}")


if __name__ == "__main__":
    main()
