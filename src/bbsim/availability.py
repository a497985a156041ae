"""Availability profile: free processors and burst-buffer bytes over future time.

The profile is a step function of free capacity and no more: callers add and
remove demand over the interval they know, and free capacity stays between
zero and the fixed platform totals. Each step stores its free processors and
bytes, so queries look only at the steps their window covers; a +inf sentinel
step with the totals ends every scan without a bound check. Two module
functions work on the three step lists: find_slot, the slot scan, and
take_slot, the one writer. add and remove scan their window, check it on the
way and hand it to take_slot; earliest_slot is find_slot, and with take
take_slot after it. steps hands out copies of the step lists, and both plan
searches work on them: planner.exhaustive calls find_slot and take_slot on
each node's copy, and planner.build_plan places a whole job order with the
scan and the writes inline: calling the writer per job gave back most of its
gain, and add and remove as one-job builds made every queue policy 8-12%
slower. No search copies a profile, so copy is left to the tests and
benchmarks/tracing.py. Time is integer seconds throughout.
"""

from __future__ import annotations

import math
from bisect import bisect_right


class CapacityError(Exception):
    """Demand would drive free capacity below zero or above the platform totals."""


class InfeasibleError(Exception):
    """Demand exceeds what the platform can ever provide."""


class AllocationError(Exception):
    """Not enough free resources to satisfy an allocation."""


def _bad_demand(start: int, end: int) -> ValueError:
    return ValueError(f"empty interval [{start}, {end}) or negative demand")


def find_slot(
    times: list[float], fp: list[int], fb: list[int],
    n_procs: int, bb_bytes: int, duration: int, not_before: int,
) -> tuple[int, int, int]:
    """The slot scan over step lists: (start, i, k) for the smallest start >=
    not_before with the demand free over all of [start, start + duration),
    step i holding start and k the first step at or after its end.

    One scan from the step holding not_before: a run of steps short of the
    demand moves the candidate start to the breakpoint after it, and the last
    finite step holds the totals, so a demand within them is found.
    """
    start, end = not_before, not_before + duration
    i = k = bisect_right(times, start) - 1
    while times[k] < end:
        if fp[k] < n_procs or fb[k] < bb_bytes:
            k += 1
            while fp[k] < n_procs or fb[k] < bb_bytes:
                k += 1
            i, start = k, times[k]
            end = start + duration
        k += 1
    return start, i, k


def take_slot(
    times: list[float], fp: list[int], fb: list[int],
    i: int, k: int, start: int, end: int, n_procs: int, bb_bytes: int,
) -> None:
    """The one writer of step lists: take the demand from free capacity over
    [start, end).

    Step i holds start and k is the first step at or after end. The demand
    is negative to give capacity back and is not zero on both resources,
    and the caller has shown that every step of the window stays within
    [0, totals]. An inserted breakpoint splits a step the demand then
    changes, so only an end found in place can merge: end first, which
    keeps i valid.
    """
    if times[k] != end:
        times.insert(k, end)
        fp.insert(k, fp[k - 1])
        fb.insert(k, fb[k - 1])
    elif fp[k - 1] - n_procs == fp[k] and fb[k - 1] - bb_bytes == fb[k]:
        del times[k], fp[k], fb[k]  # step k - 1, once taken from, goes on into step k
    if times[i] != start:  # start lies inside step i
        i += 1
        times.insert(i, start)
        fp.insert(i, fp[i - 1])
        fb.insert(i, fb[i - 1])
        k += 1
    elif fp[i] - n_procs == fp[i - 1] and fb[i] - bb_bytes == fb[i - 1]:
        del times[i], fp[i], fb[i]  # step i, once taken from, equals step i - 1
        k -= 1
    for m in range(i, k):
        fp[m] -= n_procs
        fb[m] -= bb_bytes


class AvailabilityProfile:
    """Piecewise-constant free capacity, changed by adding and removing demand.

    Internally keeps sorted breakpoint times, each with the free processors
    and burst-buffer bytes up to the next one. The first breakpoint is -inf,
    so every time lies in exactly one step, and the last is +inf; between
    them, a breakpoint exists exactly where free capacity changes, so two
    profiles are equal exactly when their step functions are. Queries bisect
    to the step holding their start and scan only the steps their window covers.
    """

    def __init__(self, total_procs: int, total_bb: int):
        if total_procs < 0 or total_bb < 0:
            raise ValueError("platform totals must be non-negative")
        self.total_procs = total_procs
        self.total_bb = total_bb
        self._times: list[float] = [-math.inf, math.inf]
        self._free_p: list[int] = [total_procs, total_procs]
        self._free_b: list[int] = [total_bb, total_bb]

    def copy(self) -> "AvailabilityProfile":
        new = AvailabilityProfile(self.total_procs, self.total_bb)
        new._times = list(self._times)
        new._free_p = list(self._free_p)
        new._free_b = list(self._free_b)
        return new

    def __eq__(self, other) -> bool:
        """Same totals and the same step function."""
        return isinstance(other, AvailabilityProfile) and vars(self) == vars(other)

    # -- changing free capacity --------------------------------------------

    def add(self, start: int, end: int, n_procs: int, bb_bytes: int) -> None:
        """Take the demand from free capacity over [start, end)."""
        if not (start < end and n_procs >= 0 <= bb_bytes):
            raise _bad_demand(start, end)
        times, fp, fb = self._times, self._free_p, self._free_b
        i = k = bisect_right(times, start) - 1
        while times[k] < end:
            if fp[k] < n_procs or fb[k] < bb_bytes:
                raise CapacityError(f"demand ({n_procs} procs, {bb_bytes} B) exceeds free"
                                    f" capacity over [{start}, {end})")
            k += 1
        if n_procs or bb_bytes:
            take_slot(times, fp, fb, i, k, start, end, n_procs, bb_bytes)

    def remove(self, start: int, end: int, n_procs: int, bb_bytes: int) -> None:
        """Give back demand that add took over [start, end)."""
        if not (start < end and n_procs >= 0 <= bb_bytes):
            raise _bad_demand(start, end)
        times, fp, fb = self._times, self._free_p, self._free_b
        top_p, top_b = self.total_procs - n_procs, self.total_bb - bb_bytes
        i = k = bisect_right(times, start) - 1
        while times[k] < end:
            if fp[k] > top_p or fb[k] > top_b:
                raise CapacityError(f"demand ({n_procs} procs, {bb_bytes} B) is not held"
                                    f" over [{start}, {end})")
            k += 1
        if n_procs or bb_bytes:
            take_slot(times, fp, fb, i, k, start, end, -n_procs, -bb_bytes)

    # -- queries -----------------------------------------------------------

    def steps(self) -> tuple[list[float], list[int], list[int]]:
        """Fresh copies of the step lists, the caller's to change: the breakpoint
        times from -inf to +inf, and each step's free processors and free bytes."""
        return list(self._times), list(self._free_p), list(self._free_b)

    def breakpoints(self) -> list[int]:
        return self._times[1:-1]

    def free_at(self, t: int) -> tuple[int, int]:
        """(free processors, free burst-buffer bytes) at time t."""
        i = bisect_right(self._times, t) - 1
        return self._free_p[i], self._free_b[i]

    def has_capacity(self, n_procs: int, bb_bytes: int, start: int, end: int) -> bool:
        """True if the demand fits in free capacity over all of [start, end)."""
        if n_procs > self.total_procs or bb_bytes > self.total_bb:
            return False
        times, fp, fb = self._times, self._free_p, self._free_b
        k = bisect_right(times, start) - 1
        while times[k] < end:
            if fp[k] < n_procs or fb[k] < bb_bytes:
                return False
            k += 1
        return True

    def earliest_slot(
        self, n_procs: int, bb_bytes: int, duration: int, not_before: int, take: bool = False
    ) -> int:
        """Smallest t >= not_before with the demand free over all of [t, t+duration),
        found by find_slot. With take, take_slot also takes the demand over the
        window found, where the scan stopped: the same as earliest_slot
        followed by add.
        """
        if not (n_procs <= self.total_procs and bb_bytes <= self.total_bb and duration > 0):
            if n_procs > self.total_procs or bb_bytes > self.total_bb:
                raise InfeasibleError(
                    f"demand ({n_procs} procs, {bb_bytes} B) exceeds platform totals"
                )
            raise ValueError("duration must be positive")
        times, fp, fb = self._times, self._free_p, self._free_b
        start, i, k = find_slot(times, fp, fb, n_procs, bb_bytes, duration, not_before)
        if not take:
            return start
        if not n_procs >= 0 <= bb_bytes:
            raise _bad_demand(start, start + duration)
        if n_procs or bb_bytes:
            take_slot(times, fp, fb, i, k, start, start + duration, n_procs, bb_bytes)
        return start


def allocate_bb(pools: dict[int, int], bb_bytes: int) -> dict[int, int]:
    """Split an aggregate burst-buffer request across storage-node free pools.

    Worst-fit: bytes always go to the node(s) with the largest free pool,
    which water-fills the pools down towards a common level. Remainder bytes
    of an uneven split go to the lowest node ids.
    """
    if bb_bytes < 0:
        raise ValueError("negative request")
    if bb_bytes > sum(pools.values()):
        raise AllocationError(
            f"request {bb_bytes} exceeds aggregate free capacity {sum(pools.values())}"
        )
    shares = dict.fromkeys(pools, 0)
    if bb_bytes == 0:
        return shares
    # water-fill in one pass: the m fullest pools hold top_sum - m * level
    # bytes above the m-th largest level; take the first m for which cutting
    # them on down to the next lower level would cover the request
    order = sorted(pools, key=pools.__getitem__, reverse=True)
    top_sum = 0
    for m, node in enumerate(order, 1):
        level = pools[node]
        top_sum += level
        below = pools[order[m]] if m < len(order) else 0
        if bb_bytes <= top_sum - m * below:
            break
    per, rem = divmod(bb_bytes - (top_sum - m * level), m)
    for i, node in enumerate(sorted(order[:m])):
        shares[node] = pools[node] - level + per + (1 if i < rem else 0)
    return shares


def allocate_nodes(free_nodes, n: int) -> list[int]:
    """Pick the n lowest-id free nodes (deterministic)."""
    free = sorted(free_nodes)
    if n > len(free):
        raise AllocationError(f"need {n} nodes, only {len(free)} free")
    return free[:n]
