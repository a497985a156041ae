import math

import pytest

from bbsim.engine import FairShareLink
from bbsim.platform import PlatformConfig, build_platform
from bbsim.workload import JobSpec

TB = 10**12
MIN = 60

# Worked example: 8 jobs on a 4-CPU cluster with 10 TB of shared burst buffer,
# walltime equal to runtime, scheduler tick every minute.
TABLE1 = [
    # (id, submit [min], runtime [min], cpus, bb [TB])
    (1, 0, 10, 1, 4),
    (2, 0, 4, 1, 2),
    (3, 1, 1, 3, 8),
    (4, 2, 3, 2, 4),
    (5, 3, 1, 3, 4),
    (6, 3, 1, 2, 2),
    (7, 4, 5, 1, 2),
    (8, 4, 3, 2, 4),
]


def table1_job(jid, submit, runtime, cpus, bb_tb):
    return JobSpec(
        id=jid,
        submit_time=submit * MIN,
        runtime=runtime * MIN,
        walltime=runtime * MIN,
        n_procs=cpus,
        bb_total_bytes=bb_tb * TB,
    )


@pytest.fixture
def table1_jobs():
    return [table1_job(*row) for row in TABLE1]


@pytest.fixture
def table1_platform():
    cfg = PlatformConfig(
        n_compute_nodes=4,
        n_storage_nodes=1,
        bb_capacity_total=10 * TB,
    )
    return build_platform(cfg)


def link_finishes(starts, bw):
    """Finish times of (start time, bytes) transfers stepped through FairShareLink.

    Transfers start in time order; before each start, every completion due
    at or before it is popped, as the engine runs completions first.
    """
    link = FairShareLink(bw)
    finishes = {}

    def complete_until(t):
        while (done := link.next_completion()) is not None and done <= t:
            for key in link.finished_ids(done):  # asserts byte-exact completion
                finishes[key] = done

    for t, i in sorted((t, i) for i, (t, _) in enumerate(starts)):
        complete_until(t)
        link.add(t, i, starts[i][1])
    complete_until(math.inf)
    return [finishes[i] for i in range(len(starts))]
