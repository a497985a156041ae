"""Every benchmark run dispatches a pinned number of events, and only live ones.

The engine pops no superseded event: the link's next completion lives in one
slot, and a scheduler tick runs only while a job waits. Submissions are no
events: each tick reads the jobs submitted by then. Each compute phase is one
event, its checkpoint dump included; a job's queued drain joins its active
one; a job that moves no bytes gets no walltime event; no phase end past the
walltime is pushed. A change that brings back submit events, stale link
events, idle ticks or a per-dump event moves these counts, so it fails here
without a timing bound. A change that lowers a count updates the pin.

The events that still do nothing are pinned too: the walltime event of a job
that finished first. A phase end never finds its job killed.

The profile's window checks are pinned the same way: a backfill pass asks
has_capacity only about candidates within the free capacity at now, and the
queue drops a launched job by its id, so no run compares two jobs. So is the
plan search's work: its annealing builds and its slot scans. The exhaustive
search places each order prefix once and cuts a prefix that cannot win, so a
change to what it places or cuts moves these pins, and says so.

Event times count whole units of 1/lcm(link bandwidths) s, so the only
times that are not ints are link completions shared by transfers; their
count per io-lifecycle run is pinned, so that a Fraction slipping back into
the ticks, phase ends or lone transfers fails here without a timing bound.
So is the largest common denominator of the link's served bytes.

Which nodes a job holds is bound only from the trace, by gantt: no run calls
allocate_nodes or allocate_bb, with a sink or without one.
"""

import pytest

from test_reference_records import bench, inputs

engine = bench.bbsim.engine
Simulation = engine.Simulation
AvailabilityProfile = bench.bbsim.availability.AvailabilityProfile
JobSpec = bench.bbsim.workload.JobSpec


def run(workload, policy, sink=None):
    platform, jobs = inputs(workload)
    cfg = bench.bbsim.engine.SimConfig(
        io_model=bench.WORKLOADS[workload].io_model, seed=bench.SIM_SEED
    )
    Simulation(platform, jobs[policy], policy, cfg, sink=sink).run()


def counting(calls, name, fn):
    """fn, adding each of its calls to calls[name]."""
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


# Simulation._dispatch calls per run
DISPATCHED = {
    "backfill-pressure": {
        "fcfs": 1193, "filler": 1005, "fcfs-easy": 1160,
        "fcfs-bb": 1014, "sjf-bb": 1040, "plan": 111,
    },
    "io-lifecycle": {
        "fcfs": 3524, "filler": 3491, "fcfs-easy": 3513,
        "fcfs-bb": 3435, "sjf-bb": 3424, "plan": 689,
    },
    "plan-anneal": {
        "fcfs": 306, "filler": 261, "fcfs-easy": 289,
        "fcfs-bb": 268, "sjf-bb": 264, "plan": 259,
    },
}


# no-op job events per io-lifecycle run, all walltime events of finished jobs;
# the other workloads have none
NO_OPS = {
    "fcfs": 163, "filler": 170, "fcfs-easy": 166,
    "fcfs-bb": 164, "sjf-bb": 166, "plan": 38,
}


@pytest.mark.parametrize("policy", bench.POLICIES)
@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_dispatched_events(workload, policy, monkeypatch):
    dispatched = 0
    no_ops = {engine.WALLTIME_EXPIRED: 0, engine.PHASE_COMPLETE: 0}
    queue_at_policy: list[int] = []
    dispatch = Simulation._dispatch

    def counting_dispatch(self, now, event, payload):
        nonlocal dispatched
        dispatched += 1
        if event in no_ops and payload not in self.running:
            no_ops[event] += 1
        return dispatch(self, now, event, payload)

    def recording(fn):  # the queue a tick hands its policy, as the benchmark tracer reads it
        def wrapper(state, *args, **kwargs):
            queue_at_policy.append(len(state.queue))
            return fn(state, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(Simulation, "_dispatch", counting_dispatch)
    for name in ("run_policy", "plan_schedule"):
        monkeypatch.setattr(engine, name, recording(getattr(engine, name)))
    run(workload, policy)
    assert dispatched == DISPATCHED[workload][policy]
    expected = NO_OPS[policy] if workload == "io-lifecycle" else 0
    assert no_ops == {engine.WALLTIME_EXPIRED: expected, engine.PHASE_COMPLETE: 0}
    assert queue_at_policy and min(queue_at_policy) > 0, "a tick ran with no job waiting"


# Simulation._push calls per io-lifecycle run: the heap's events, the link's
# completions (kept in their own slot) not included
PUSHED = {
    "fcfs": 2052, "filler": 2003, "fcfs-easy": 2032,
    "fcfs-bb": 1959, "sjf-bb": 1950, "plan": 380,
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


# event times per io-lifecycle run that are not ints: keyed times and the
# link's completions, which wait in their own slot; io off has none
NON_INT_TIMES = {
    "fcfs": 614, "filler": 231, "fcfs-easy": 211,
    "fcfs-bb": 335, "sjf-bb": 449, "plan": 10,
}


@pytest.mark.parametrize("policy", bench.POLICIES)
def test_non_integer_event_times(policy, monkeypatch):
    non_int = 0
    key, next_completion = Simulation._key, engine.FairShareLink.next_completion

    def counting_key(self, time, *args):
        nonlocal non_int
        non_int += type(time) is not int
        return key(self, time, *args)

    def counting_next_completion(self):
        nonlocal non_int
        at = next_completion(self)
        non_int += at is not None and type(at) is not int
        return at

    monkeypatch.setattr(Simulation, "_key", counting_key)
    monkeypatch.setattr(engine.FairShareLink, "next_completion", counting_next_completion)
    run("io-lifecycle", policy)
    assert non_int == NON_INT_TIMES[policy]


# the link's largest scale.bit_length() per io-lifecycle run; in brackets that
# of the lowest-terms denominator, which a link reducing by a gcd at each
# advance would reach. scale only grows while transfers are active and is back
# to 1 when the link is idle, so a lost idle reset moves these without a
# timing bound
LINK_SCALE_BITS = {
    "fcfs": 17,  # (16)
    "filler": 8,  # (8)
    "fcfs-easy": 10,  # (10)
    "fcfs-bb": 13,  # (13)
    "sjf-bb": 14,  # (12)
    "plan": 3,  # (3)
}


@pytest.mark.parametrize("policy", bench.POLICIES)
def test_link_scale_stays_small(policy, monkeypatch):
    peak = 0
    advance = engine.FairShareLink.advance

    def recording_advance(self, now):
        nonlocal peak
        advance(self, now)
        peak = max(peak, self.scale.bit_length())

    monkeypatch.setattr(engine.FairShareLink, "advance", recording_advance)
    run("io-lifecycle", policy)
    assert peak == LINK_SCALE_BITS[policy]


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


# (build_plan builds, slot scans, add calls) of each plan run. Only anneal
# calls build_plan; each build is one place call, which finds and takes the
# slot of every job but the last, and finds that last job's slot without taking
# it. earliest_slot finds each search's per-job lower bounds and each node of
# exhaustive's permutation tree that the cut leaves: with take at an inner node,
# without at a leaf. Slot scans are the rows all place calls receive plus the
# earliest_slot calls. add only launches jobs, once per job of the run.
PLAN_WORK = {
    "backfill-pressure": (2835, 24715, 60),
    "io-lifecycle": (18, 1231, 60),
    "plan-anneal": (13608, 135615, 120),
}


@pytest.mark.parametrize("workload", sorted(PLAN_WORK))
def test_plan_search_work(workload, monkeypatch):
    calls = dict.fromkeys(("build_plan", "slot_scans", "add"), 0)
    planner = bench.bbsim.planner
    place = AvailabilityProfile.place

    def counting_place(self, rows):
        calls["slot_scans"] += len(rows)
        return place(self, rows)

    monkeypatch.setattr(planner, "build_plan", counting(calls, "build_plan", planner.build_plan))
    monkeypatch.setattr(AvailabilityProfile, "earliest_slot",
                        counting(calls, "slot_scans", AvailabilityProfile.earliest_slot))
    monkeypatch.setattr(AvailabilityProfile, "place", counting_place)
    monkeypatch.setattr(AvailabilityProfile, "add", counting(calls, "add", AvailabilityProfile.add))
    run(workload, "plan")
    assert tuple(calls.values()) == PLAN_WORK[workload]
    assert calls["add"] == len(inputs(workload)[1]["plan"])


@pytest.mark.parametrize("policy", bench.POLICIES)
@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_nodes_bound_only_for_the_trace(workload, policy, monkeypatch):
    calls = {"allocate_nodes": 0, "allocate_bb": 0}
    for name in calls:
        monkeypatch.setattr(engine, name, counting(calls, name, getattr(engine, name)))
    run(workload, policy)
    lines: list[dict] = []
    run(workload, policy, sink=lines.append)
    n_jobs = len(inputs(workload)[1][policy])
    assert sum(line["event"] == "launch" for line in lines) == n_jobs
    assert calls == {"allocate_nodes": 0, "allocate_bb": 0}
