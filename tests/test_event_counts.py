"""Every benchmark run dispatches a pinned number of events, and only live ones.

The engine pops no superseded event: the link's next completion lives in one
slot, and a scheduler tick runs only while a job waits. Each compute phase is
one event, its checkpoint dump included; a job's queued drain joins its
active one; a job that moves no bytes gets no walltime event. A change that
brings back stale link events, idle ticks or a per-dump event moves these
counts, so it fails here without a timing bound. A change that lowers a
count updates the pin.

The profile's window checks are pinned the same way: a backfill pass asks
has_capacity only about candidates within the free capacity at now, and the
queue drops a launched job by its id, so no run compares two jobs.
"""

import pytest

from test_reference_records import bench, inputs

Simulation = bench.bbsim.engine.Simulation
AvailabilityProfile = bench.bbsim.availability.AvailabilityProfile
JobSpec = bench.bbsim.workload.JobSpec


def run(workload, policy):
    platform, jobs = inputs(workload)
    cfg = bench.bbsim.engine.SimConfig(
        io_model=bench.WORKLOADS[workload].io_model, seed=bench.SIM_SEED
    )
    Simulation(platform, jobs[policy], policy, cfg).run()


# Simulation._dispatch calls per run
DISPATCHED = {
    "backfill-pressure": {
        "fcfs": 1693, "filler": 1505, "fcfs-easy": 1660,
        "fcfs-bb": 1514, "sjf-bb": 1540, "plan": 171,
    },
    "io-lifecycle": {
        "fcfs": 3955, "filler": 3914, "fcfs-easy": 3937,
        "fcfs-bb": 3860, "sjf-bb": 3850, "plan": 770,
    },
    "plan-anneal": {
        "fcfs": 426, "filler": 381, "fcfs-easy": 409,
        "fcfs-bb": 388, "sjf-bb": 384, "plan": 379,
    },
}


@pytest.mark.parametrize("policy", bench.POLICIES)
@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_dispatched_events(workload, policy, monkeypatch):
    dispatched = 0
    queue_at_tick: list[int] = []
    dispatch, on_tick = Simulation._dispatch, Simulation._on_tick

    def counting_dispatch(self, *args):
        nonlocal dispatched
        dispatched += 1
        return dispatch(self, *args)

    def recording_tick(self, now):
        queue_at_tick.append(len(self.queue))
        return on_tick(self, now)

    monkeypatch.setattr(Simulation, "_dispatch", counting_dispatch)
    monkeypatch.setattr(Simulation, "_on_tick", recording_tick)
    run(workload, policy)
    assert dispatched == DISPATCHED[workload][policy]
    assert queue_at_tick and min(queue_at_tick) > 0, "a tick ran with no job waiting"


# Simulation._push calls per io-lifecycle run: the heap's events, the link's
# completions (kept in their own slot) not included
PUSHED = {
    "fcfs": 2483, "filler": 2426, "fcfs-easy": 2456,
    "fcfs-bb": 2384, "sjf-bb": 2376, "plan": 461,
}


@pytest.mark.parametrize("policy", bench.POLICIES)
def test_heap_pushes(policy, monkeypatch):
    pushed = 0
    push = Simulation._push

    def counting_push(self, *args):
        nonlocal pushed
        pushed += 1
        return push(self, *args)

    monkeypatch.setattr(Simulation, "_push", counting_push)
    run("io-lifecycle", policy)
    assert pushed == PUSHED[policy]


# AvailabilityProfile.has_capacity calls per run; plan asks earliest_slot only
HAS_CAPACITY = {
    "backfill-pressure": {
        "fcfs": 1188, "filler": 500, "fcfs-easy": 1155,
        "fcfs-bb": 2616, "sjf-bb": 2679, "plan": 0,
    },
    "io-lifecycle": {
        "fcfs": 827, "filler": 300, "fcfs-easy": 811,
        "fcfs-bb": 989, "sjf-bb": 1019, "plan": 0,
    },
}


@pytest.mark.parametrize("policy", bench.POLICIES)
@pytest.mark.parametrize("workload", sorted(HAS_CAPACITY))
def test_capacity_checks_and_no_job_comparisons(workload, policy, monkeypatch):
    calls = {"has_capacity": 0, "__eq__": 0}
    has_capacity, eq = AvailabilityProfile.has_capacity, JobSpec.__eq__

    def counting_has_capacity(self, *args):
        calls["has_capacity"] += 1
        return has_capacity(self, *args)

    def counting_eq(self, other):
        calls["__eq__"] += 1
        return eq(self, other)

    monkeypatch.setattr(AvailabilityProfile, "has_capacity", counting_has_capacity)
    monkeypatch.setattr(JobSpec, "__eq__", counting_eq)
    run(workload, policy)
    assert calls == {"has_capacity": HAS_CAPACITY[workload][policy], "__eq__": 0}
