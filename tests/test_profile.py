import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbsim.availability import (
    AllocationError,
    AvailabilityProfile,
    CapacityError,
    InfeasibleError,
    allocate_bb,
    allocate_nodes,
)

TB = 10**12
MIN = 60


def table1_profile_at_t1():
    """State one minute in: job 1 holds (1 CPU, 4 TB) until t=10 min,
    job 2 holds (1 CPU, 2 TB) until t=4 min."""
    p = AvailabilityProfile(total_procs=4, total_bb=10 * TB)
    p.add(0, 10 * MIN, 1, 4 * TB)
    p.add(0, 4 * MIN, 1, 2 * TB)
    return p


def test_empty_profile_earliest_slot():
    p = AvailabilityProfile(96, 10 * TB)
    assert p.earliest_slot(96, 10 * TB, 600, 0) == 0
    assert p.earliest_slot(1, 0, 600, 1234) == 1234


def test_table1_earliest_slot_with_bb():
    p = table1_profile_at_t1()
    # CPUs free at t=4 min, but 8 TB only after job 1 completes at t=10 min
    assert p.earliest_slot(3, 8 * TB, 1 * MIN, 1 * MIN) == 10 * MIN


def test_table1_earliest_slot_cpu_only():
    p = table1_profile_at_t1()
    assert p.earliest_slot(3, 0, 1 * MIN, 1 * MIN) == 4 * MIN


def test_infeasible_demand_raises():
    p = AvailabilityProfile(4, 10 * TB)
    with pytest.raises(InfeasibleError):
        p.earliest_slot(5, 0, 60, 0)
    with pytest.raises(InfeasibleError):
        p.earliest_slot(1, 11 * TB, 60, 0)


def test_add_then_remove_restores_profile():
    p = table1_profile_at_t1()
    before = (p.breakpoints(), [p.free_at(t) for t in p.breakpoints()])
    p.add(10 * MIN, 11 * MIN, 3, 8 * TB)
    p.remove(10 * MIN, 11 * MIN, 3, 8 * TB)
    after = (p.breakpoints(), [p.free_at(t) for t in p.breakpoints()])
    assert before == after


def test_capacity_boundary():
    p = AvailabilityProfile(96, 0)
    p.add(0, 100, 48, 0)
    p.add(0, 100, 48, 0)
    with pytest.raises(CapacityError):
        p.add(50, 150, 1, 0)
    p.add(100, 200, 96, 0)  # adjacent interval is fine


def test_empty_interval_rejected():
    p = table1_profile_at_t1()
    before = p.copy()
    for start, end in ((5 * MIN, 5 * MIN), (20 * MIN, 20 * MIN), (4 * MIN, 0)):
        with pytest.raises(ValueError):
            p.add(start, end, 1, TB)
        with pytest.raises(ValueError):
            p.remove(start, end, 1, TB)
    assert p == before


def test_negative_demand_rejected():
    p = table1_profile_at_t1()
    before = p.copy()
    for procs, bb in ((-1, 0), (0, -TB)):
        with pytest.raises(ValueError):
            p.add(0, 1 * MIN, procs, bb)
        with pytest.raises(ValueError):
            p.remove(0, 1 * MIN, procs, bb)
    assert p == before


def test_remove_of_demand_not_held_is_rejected():
    """A remove may not lift free capacity above the totals anywhere in its window."""
    p = table1_profile_at_t1()
    before = p.copy()
    p.remove(0, 10 * MIN, 1, 4 * TB)  # job 1 ends
    with pytest.raises(CapacityError):  # and is removed a second time
        p.remove(0, 10 * MIN, 1, 4 * TB)
    with pytest.raises(CapacityError):  # job 2's processor is held over [0, 4 min) only
        p.remove(0, 5 * MIN, 1, 0)
    with pytest.raises(CapacityError):  # nothing is held after 4 min
        p.remove(20 * MIN, 30 * MIN, 0, 1)
    p.add(0, 10 * MIN, 1, 4 * TB)
    assert p == before  # the rejected removes left nothing behind


@pytest.mark.parametrize("change, demand", [("add", (0, 8)), ("remove", (2, 0))])
def test_window_failing_at_its_last_step_changes_nothing(change, demand):
    """The first steps of the window take the change, the last refuses it: the
    steps already written are undone and the breakpoints inserted at both ends go."""
    p = AvailabilityProfile(4, 10)
    for start, procs, bb in ((0, 3, 1), (10, 2, 2), (20, 1, 3)):
        p.add(start, start + 10, procs, bb)  # free (1, 9), then (2, 8), then (3, 7)
    before = p.copy()
    # [5, 25) spans three steps; bytes run out, or processors pass 4, only in [20, 25)
    with pytest.raises(CapacityError):
        getattr(p, change)(5, 25, *demand)
    assert p == before


def test_equality_is_over_the_step_function():
    p = table1_profile_at_t1()
    q = AvailabilityProfile(total_procs=4, total_bb=10 * TB)
    q.add(0, 4 * MIN, 1, 2 * TB)  # the same demand, added in the other order
    q.add(0, 10 * MIN, 1, 4 * TB)
    assert p == q
    q.add(10 * MIN, 11 * MIN, 1, 0)
    assert p != q
    assert p != AvailabilityProfile(4, 10 * TB + 1)


def test_reserve_on_table1_state_free_bb():
    p = table1_profile_at_t1()
    p.add(10 * MIN, 11 * MIN, 3, 8 * TB)
    # at t=10 jobs 1 and 2 are done; only the new 8 TB reservation is held
    free_procs, free_bb = p.free_at(10 * MIN)
    assert free_bb == 2 * TB
    assert free_procs == 1
    # independent re-summation over all held intervals at t=10
    held = [(0, 10 * MIN, 1, 4 * TB), (0, 4 * MIN, 1, 2 * TB), (10 * MIN, 11 * MIN, 3, 8 * TB)]
    used = sum(bb for start, end, _, bb in held if start <= 10 * MIN < end)
    assert 10 * TB - used == free_bb


def test_allocate_bb_worst_fit_water_fills():
    shares = allocate_bb({0: 5 * TB, 1: 5 * TB, 2: 5 * TB}, 6 * TB)
    assert shares == {0: 2 * TB, 1: 2 * TB, 2: 2 * TB}


def test_allocate_bb_zero_request():
    assert allocate_bb({0: TB, 1: TB}, 0) == {0: 0, 1: 0}


def test_allocate_bb_insufficient():
    with pytest.raises(AllocationError):
        allocate_bb({0: TB, 1: TB}, 3 * TB)


def test_allocate_bb_uneven_pools():
    shares = allocate_bb({0: 4, 1: 10, 2: 7}, 9)
    # worst-fit: node 1 drains to 7, then nodes 1 and 2 drain together
    assert shares == {0: 0, 1: 6, 2: 3}
    assert sum(shares.values()) == 9


def test_allocate_bb_remainder_to_lowest_ids():
    assert allocate_bb({0: 5, 1: 5}, 3) == {0: 2, 1: 1}


def test_allocate_nodes():
    assert allocate_nodes(range(96), 3) == [0, 1, 2]
    assert allocate_nodes({5, 9, 50}, 2) == [5, 9]
    assert allocate_nodes({5, 9, 50}, 0) == []
    with pytest.raises(AllocationError):
        allocate_nodes({1}, 2)


reservation_lists = st.lists(
    st.tuples(
        st.integers(0, 500),  # start
        st.integers(1, 200),  # duration
        st.integers(0, 8),  # procs
        st.integers(0, 10),  # bb units
    ),
    max_size=25,
)


@given(reservation_lists)
@settings(max_examples=200)
def test_incremental_free_matches_resummation(specs):
    p = AvailabilityProfile(8, 10)
    added = []
    for start, dur, procs, bb in specs:
        if p.has_capacity(procs, bb, start, start + dur):
            p.add(start, start + dur, procs, bb)
            added.append((start, start + dur, procs, bb))
    checkpoints = sorted({t for start, end, _, _ in added for t in (start, end)})
    for t in checkpoints:
        used_p = sum(procs for start, end, procs, _ in added if start <= t < end)
        used_b = sum(bb for start, end, _, bb in added if start <= t < end)
        free_p, free_b = p.free_at(t)
        assert free_p == 8 - used_p
        assert free_b == 10 - used_b
        assert free_p >= 0 and free_b >= 0


@given(
    reservation_lists,
    st.integers(1, 8),
    st.integers(0, 10),
    st.integers(1, 100),
    st.integers(0, 300),
)
@settings(max_examples=200)
def test_earliest_slot_is_tight(specs, procs, bb, duration, not_before):
    p = AvailabilityProfile(8, 10)
    for start, dur, rp, rb in specs:
        if p.has_capacity(rp, rb, start, start + dur):
            p.add(start, start + dur, rp, rb)
    t = p.earliest_slot(procs, bb, duration, not_before)
    assert t >= not_before
    assert p.has_capacity(procs, bb, t, t + duration)
    # tight: starting at any earlier breakpoint (or not_before) is infeasible
    earlier = [b for b in p.breakpoints() if not_before <= b < t] + (
        [not_before] if not_before < t else []
    )
    for s in earlier:
        assert not p.has_capacity(procs, bb, s, s + duration)


def outcome(call):
    """call's result, or the type and message of the error it raised."""
    try:
        return call()
    except (CapacityError, InfeasibleError, ValueError) as exc:
        return type(exc), str(exc)


@given(
    reservation_lists,
    st.integers(-2, 10),  # procs, beyond the totals and negative too
    st.integers(-2, 12),  # bb units
    st.integers(-2, 100),  # duration, non-positive too
    st.integers(0, 300),  # not_before, often before demand that is still to come
)
@settings(max_examples=300)
def test_take_equals_earliest_slot_then_add(specs, procs, bb, duration, not_before):
    """earliest_slot with take returns earliest_slot's start and leaves the profile
    == to earliest_slot followed by add, or raises what they raise and changes nothing."""
    p = AvailabilityProfile(8, 10)
    for start, dur, rp, rb in specs:
        if p.has_capacity(rp, rb, start, start + dur):
            p.add(start, start + dur, rp, rb)
    expected = p.copy()

    def search_then_add():
        t = expected.earliest_slot(procs, bb, duration, not_before)
        expected.add(t, t + duration, procs, bb)
        return t

    taken = outcome(lambda: p.earliest_slot(procs, bb, duration, not_before, take=True))
    assert taken == outcome(search_then_add)
    assert p == expected


@given(reservation_lists, st.data())
@settings(max_examples=300)
def test_place_equals_earliest_slot_row_by_row(specs, data):
    """place returns the starts of earliest_slot with take row by row, the last
    row untaken, and leaves the profile == to theirs. Rows have zero bytes and
    full width among them, and windows that start inside a step or on a
    breakpoint and that end on one; place reads only a row's first four items."""
    p = AvailabilityProfile(8, 10)
    for start, dur, rp, rb in specs:
        if p.has_capacity(rp, rb, start, start + dur):
            p.add(start, start + dur, rp, rb)
    breakpoints = [0, *p.breakpoints()]
    rows = []
    for k in range(data.draw(st.integers(0, 8))):
        not_before = data.draw(st.sampled_from(breakpoints) | st.integers(0, 700))
        to_breakpoints = [b - not_before for b in breakpoints if b > not_before]
        durations = st.integers(1, 200)
        if to_breakpoints:
            durations |= st.sampled_from(to_breakpoints)
        rows.append((data.draw(st.integers(0, 8)), data.draw(st.integers(0, 10)),
                     data.draw(durations), not_before, k))
    expected = p.copy()
    last = len(rows) - 1
    starts = [expected.earliest_slot(*row[:4], take=k < last) for k, row in enumerate(rows)]
    work = p.copy()
    assert work.place(rows) == starts
    assert work == expected


class BruteForceProfile:
    """Used processors and bytes at every second of [0, horizon)."""

    def __init__(self, total_procs, total_bb, horizon):
        self.total_procs, self.total_bb = total_procs, total_bb
        self.used_p = [0] * horizon
        self.used_b = [0] * horizon

    def apply(self, held, sign):
        start, end, procs, bb = held
        for t in range(start, end):
            self.used_p[t] += sign * procs
            self.used_b[t] += sign * bb

    def free_at(self, t):
        return self.total_procs - self.used_p[t], self.total_bb - self.used_b[t]

    def has_capacity(self, procs, bb, start, end):
        return all(
            self.used_p[t] + procs <= self.total_procs
            and self.used_b[t] + bb <= self.total_bb
            for t in range(start, end)
        )

    def holds(self, procs, bb, start, end):
        return all(
            self.used_p[t] >= procs and self.used_b[t] >= bb for t in range(start, end)
        )

    def earliest_slot(self, procs, bb, duration, not_before):
        t = not_before
        while not self.has_capacity(procs, bb, t, t + duration):
            t += 1
        return t

    def breakpoints(self):
        usage = list(zip(self.used_p, self.used_b))
        return [t for t in range(len(usage)) if usage[t] != (usage[t - 1] if t else (0, 0))]


ORACLE_TOTALS = (8, 10)
# a short horizon makes reservations and query windows often share an end
ORACLE_LAST_END = 40  # added reservations end at or before this second
ORACLE_MAX_START = ORACLE_LAST_END + 5
ORACLE_MAX_DURATION = 30
ORACLE_MAX_OPS = 30
ORACLE_TAKE_DURATION = 20
# all is free from the last end held on, and a take starts no later than that,
# so each take moves the last end on by at most ORACLE_TAKE_DURATION
ORACLE_HORIZON = ORACLE_MAX_START + ORACLE_MAX_DURATION + ORACLE_MAX_OPS * ORACLE_TAKE_DURATION

oracle_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.integers(0, ORACLE_LAST_END - 1),  # start
            st.integers(1, 20),  # duration, clipped to ORACLE_LAST_END
            st.integers(0, 8),  # procs
            st.integers(0, 10),  # bb units
        ),
        st.tuples(st.just("remove"), st.integers(0, 30)),  # which held reservation
        st.tuples(
            st.just("take"),  # earliest_slot with take, from not_before
            st.integers(0, ORACLE_LAST_END - 1),  # not_before
            st.integers(1, ORACLE_TAKE_DURATION),
            st.integers(0, 8),  # procs
            st.integers(0, 10),  # bb units
        ),
        st.tuples(
            st.just("phantom"),  # a remove of demand that need not be held
            st.integers(0, ORACLE_LAST_END - 1),
            st.integers(1, 20),
            st.integers(0, 8),
            st.integers(0, 10),
        ),
    ),
    max_size=ORACLE_MAX_OPS,
)
oracle_queries = st.lists(
    st.tuples(
        st.integers(0, 8),  # procs
        st.integers(0, 10),  # bb units
        st.integers(0, ORACLE_MAX_START),  # start / not_before
        st.integers(1, ORACLE_MAX_DURATION),
    ),
    min_size=1,
    max_size=4,
)


@given(oracle_ops, oracle_queries)
@settings(max_examples=150, deadline=None)
def test_profile_matches_per_second_oracle(ops, queries):
    """Every query agrees with a per-second array after each add, take and
    remove, a take finds the array's earliest slot and leaves the profile an
    add at that start would, a remove of demand that is not held fails and
    changes nothing, and breakpoints are exactly the seconds where free
    capacity changes."""
    p = AvailabilityProfile(*ORACLE_TOTALS)
    oracle = BruteForceProfile(*ORACLE_TOTALS, ORACLE_HORIZON)
    held: list[tuple[int, int, int, int]] = []  # the intervals added and not yet removed
    for op in ops:
        if op[0] == "add":
            _, start, duration, procs, bb = op
            r = (start, min(start + duration, ORACLE_LAST_END), procs, bb)
            if oracle.has_capacity(procs, bb, r[0], r[1]):
                p.add(*r)
                held.append(r)
                oracle.apply(r, +1)
            else:
                with pytest.raises(CapacityError):
                    p.add(*r)
        elif op[0] == "take":
            _, not_before, duration, procs, bb = op
            t = oracle.earliest_slot(procs, bb, duration, not_before)
            r = (t, t + duration, procs, bb)
            added = p.copy()
            added.add(*r)
            assert p.earliest_slot(procs, bb, duration, not_before, take=True) == t
            assert p == added
            held.append(r)
            oracle.apply(r, +1)
        elif op[0] == "phantom":
            _, start, duration, procs, bb = op
            end = min(start + duration, ORACLE_LAST_END)
            if not oracle.holds(procs, bb, start, end):
                with pytest.raises(CapacityError):
                    p.remove(start, end, procs, bb)
        elif held:
            r = held.pop(op[1] % len(held))
            p.remove(*r)
            oracle.apply(r, -1)
        assert p.breakpoints() == oracle.breakpoints()
        for t in range(max([ORACLE_LAST_END] + [r[1] for r in held]) + 1):
            assert p.free_at(t) == oracle.free_at(t)
        for procs, bb, start, duration in queries:
            end = start + duration
            assert p.has_capacity(procs, bb, start, end) == oracle.has_capacity(
                procs, bb, start, end
            )
            assert p.earliest_slot(procs, bb, duration, start) == oracle.earliest_slot(
                procs, bb, duration, start
            )


sub_window_cuts = st.lists(
    st.tuples(
        st.integers(0, 30),  # which held reservation
        st.integers(0, 40),  # where in it the sub-window starts
        st.integers(0, 40),  # how long it runs, wrapped to the reservation's end
        st.integers(0, 8),  # the part of its processors given back
        st.integers(0, 10),  # the part of its bytes given back
    ),
    min_size=1,
    max_size=8,
)


oracle_adds = st.lists(
    st.tuples(
        st.integers(0, ORACLE_LAST_END - 1),  # start
        st.integers(1, 20),  # duration, clipped to ORACLE_LAST_END
        st.integers(0, 8),  # procs
        st.integers(0, 10),  # bb units
    ),
    min_size=1,
    max_size=ORACLE_MAX_OPS,
)


@given(oracle_adds, sub_window_cuts)
@settings(max_examples=150, deadline=None)
def test_giving_back_a_held_sub_window_matches_the_per_second_oracle(adds, cuts):
    """Removing any part of held demand over any sub-window of its interval,
    then adding it back, gives the breakpoints and free capacity of a
    per-second array after each step."""
    p = AvailabilityProfile(*ORACLE_TOTALS)
    oracle = BruteForceProfile(*ORACLE_TOTALS, ORACLE_HORIZON)
    held = []
    for start, duration, procs, bb in adds:
        r = (start, min(start + duration, ORACLE_LAST_END), procs, bb)
        if oracle.has_capacity(procs, bb, r[0], r[1]):
            p.add(*r)
            held.append(r)
            oracle.apply(r, +1)
    for which, offset, length, procs_part, bb_part in cuts:
        if not held:
            break
        start, end, procs, bb = held[which % len(held)]
        sub_start = start + offset % (end - start)
        sub_end = sub_start + 1 + length % (end - sub_start)
        sub = (sub_start, sub_end, procs_part % (procs + 1), bb_part % (bb + 1))
        for change, sign in (("remove", -1), ("add", +1)):
            getattr(p, change)(*sub)
            oracle.apply(sub, sign)
            assert p.breakpoints() == oracle.breakpoints()
            for t in range(ORACLE_LAST_END + 1):
                assert p.free_at(t) == oracle.free_at(t)


def water_fill_by_levels(pools, bb_bytes):
    """Worst-fit split, one level at a time: give the fullest pools, evenly,
    what brings them down to the next lower level, until the request is met."""
    if bb_bytes < 0:
        raise ValueError("negative request")
    if bb_bytes > sum(pools.values()):
        raise AllocationError(
            f"request {bb_bytes} exceeds aggregate free capacity {sum(pools.values())}"
        )
    shares = {node: 0 for node in pools}
    remaining = bb_bytes
    while remaining > 0:
        free = {node: pools[node] - shares[node] for node in pools}
        level = max(free.values())
        top = sorted(node for node, f in free.items() if f == level)
        lower = [f for f in free.values() if f < level]
        second = max(lower) if lower else 0
        take = min(remaining, len(top) * (level - second))
        assert take > 0  # guaranteed by the aggregate-capacity check
        per, rem = divmod(take, len(top))
        for i, node in enumerate(top):
            shares[node] += per + (1 if i < rem else 0)
        remaining -= take
    return shares


def allocation_outcome(allocate, pools, bb_bytes):
    try:
        return list(allocate(pools, bb_bytes).items())
    except AllocationError as exc:
        return str(exc)


@given(
    st.dictionaries(
        st.integers(0, 30),
        st.one_of(st.integers(0, 12), st.integers(0, 10**13)),
        max_size=12,
    ),
    st.data(),
)
@settings(max_examples=300)
def test_allocate_bb_matches_level_by_level_oracle(pools, data):
    """Same shares, in the same node order, and the same AllocationError."""
    bb_bytes = data.draw(st.integers(0, sum(pools.values()) + 10))
    assert allocation_outcome(allocate_bb, pools, bb_bytes) == allocation_outcome(
        water_fill_by_levels, pools, bb_bytes
    )
