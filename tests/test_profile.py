import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbsim.availability import (
    AllocationError,
    AvailabilityProfile,
    CapacityError,
    InfeasibleError,
    Reservation,
    allocate_bb,
    allocate_nodes,
)

TB = 10**12
MIN = 60


def table1_profile_at_t1():
    """State one minute in: job 1 holds (1 CPU, 4 TB) until t=10 min,
    job 2 holds (1 CPU, 2 TB) until t=4 min."""
    p = AvailabilityProfile(total_procs=4, total_bb=10 * TB)
    p.add(Reservation(1, 0, 10 * MIN, 1, 4 * TB))
    p.add(Reservation(2, 0, 4 * MIN, 1, 2 * TB))
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
    p.add(Reservation(3, 10 * MIN, 11 * MIN, 3, 8 * TB))
    p.remove(3)
    after = (p.breakpoints(), [p.free_at(t) for t in p.breakpoints()])
    assert before == after


def test_capacity_boundary():
    p = AvailabilityProfile(96, 0)
    p.add(Reservation(1, 0, 100, 48, 0))
    p.add(Reservation(2, 0, 100, 48, 0))
    with pytest.raises(CapacityError):
        p.add(Reservation(3, 50, 150, 1, 0))
    p.add(Reservation(4, 100, 200, 96, 0))  # adjacent interval is fine


def test_reserve_on_table1_state_free_bb():
    p = table1_profile_at_t1()
    p.add(Reservation(3, 10 * MIN, 11 * MIN, 3, 8 * TB))
    # at t=10 jobs 1 and 2 are done; only the new 8 TB reservation is held
    free_procs, free_bb = p.free_at(10 * MIN)
    assert free_bb == 2 * TB
    assert free_procs == 1
    # independent re-summation over all reservations at t=10
    used = sum(
        r.bb_bytes for r in p.reservations() if r.start <= 10 * MIN < r.end
    )
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
    for i, (start, dur, procs, bb) in enumerate(specs):
        r = Reservation(i, start, start + dur, procs, bb)
        if p.has_capacity(procs, bb, r.start, r.end):
            p.add(r)
            added.append(r)
    checkpoints = sorted({t for r in added for t in (r.start, r.end)})
    for t in checkpoints:
        used_p = sum(r.n_procs for r in added if r.start <= t < r.end)
        used_b = sum(r.bb_bytes for r in added if r.start <= t < r.end)
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
    for i, (start, dur, rp, rb) in enumerate(specs):
        if p.has_capacity(rp, rb, start, start + dur):
            p.add(Reservation(i, start, start + dur, rp, rb))
    t = p.earliest_slot(procs, bb, duration, not_before)
    assert t >= not_before
    assert p.has_capacity(procs, bb, t, t + duration)
    # tight: starting at any earlier breakpoint (or not_before) is infeasible
    earlier = [b for b in p.breakpoints() if not_before <= b < t] + (
        [not_before] if not_before < t else []
    )
    for s in earlier:
        assert not p.has_capacity(procs, bb, s, s + duration)
