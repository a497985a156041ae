"""Availability profile: free processors and burst-buffer bytes over future time.

The profile is a step function of free capacity and no more: callers add and
remove demand over the interval they know, and free capacity stays between
zero and the fixed platform totals. Each step stores its free processors and
bytes, so earliest-slot queries and window feasibility checks look only at
the steps their window covers; a +inf sentinel step with the totals ends
every scan without a bound check. earliest_slot is the one slot scan; with
take it also takes the demand over the window it found, in the same pass.
Time is integer seconds throughout.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right


class CapacityError(Exception):
    """Demand would drive free capacity below zero or above the platform totals."""


class InfeasibleError(Exception):
    """Demand exceeds what the platform can ever provide."""


class AllocationError(Exception):
    """Not enough free resources to satisfy an allocation."""


def _bad_demand(start: int, end: int) -> ValueError:
    return ValueError(f"empty interval [{start}, {end}) or negative demand")


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

    def _apply(self, start: int, end: int, dp: int, db: int, i: int, j: int) -> bool:
        """Add (dp, db) to free capacity over [start, end), start < end, where
        i and j are where start and end bisect left into the breakpoints.

        Returns False, changing nothing, if free capacity would leave [0, totals].
        """
        times, fp, fb = self._times, self._free_p, self._free_b
        # breakpoints at start and end, inserted with unchanged free capacity if absent
        if times[i] != start:
            times.insert(i, start)
            fp.insert(i, fp[i - 1])
            fb.insert(i, fb[i - 1])
            j += 1
        if times[j] != end:
            times.insert(j, end)
            fp.insert(j, fp[j - 1])
            fb.insert(j, fb[j - 1])
        ok = True
        for k in range(i, j):  # not empty, as start < end
            p, b = fp[k] + dp, fb[k] + db
            if not (0 <= p <= self.total_procs and 0 <= b <= self.total_bb):
                for m in range(i, k):  # undo the steps already written
                    fp[m] -= dp
                    fb[m] -= db
                ok = False
                break
            fp[k], fb[k] = p, b
        # only the two ends can have become redundant; j first keeps i valid
        for k in (j, i):
            if fp[k] == fp[k - 1] and fb[k] == fb[k - 1]:
                del times[k], fp[k], fb[k]
        return ok

    def add(self, start: int, end: int, n_procs: int, bb_bytes: int) -> None:
        """Take the demand from free capacity over [start, end)."""
        if not (start < end and n_procs >= 0 <= bb_bytes):
            raise _bad_demand(start, end)
        i = bisect_left(self._times, start)
        j = bisect_left(self._times, end, i)
        if not self._apply(start, end, -n_procs, -bb_bytes, i, j):
            raise CapacityError(f"demand ({n_procs} procs, {bb_bytes} B) exceeds free capacity"
                                f" over [{start}, {end})")

    def remove(self, start: int, end: int, n_procs: int, bb_bytes: int) -> None:
        """Give back demand that add took over [start, end)."""
        if not (start < end and n_procs >= 0 <= bb_bytes):
            raise _bad_demand(start, end)
        i = bisect_left(self._times, start)
        j = bisect_left(self._times, end, i)
        if not self._apply(start, end, n_procs, bb_bytes, i, j):
            raise CapacityError(
                f"demand ({n_procs} procs, {bb_bytes} B) is not held over [{start}, {end})"
            )

    # -- queries -----------------------------------------------------------

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
        """Smallest t >= not_before with the demand free over all of [t, t+duration).

        One scan from the step holding not_before: a run of steps short of the
        demand moves the candidate start to the breakpoint after it. With take,
        the demand is also taken over the window found, with its breakpoints
        put where the scan stopped; the same as earliest_slot followed by add.
        """
        if not (n_procs <= self.total_procs and bb_bytes <= self.total_bb and duration > 0):
            if n_procs > self.total_procs or bb_bytes > self.total_bb:
                raise InfeasibleError(
                    f"demand ({n_procs} procs, {bb_bytes} B) exceeds platform totals"
                )
            raise ValueError("duration must be positive")
        times, fp, fb = self._times, self._free_p, self._free_b
        start, end = not_before, not_before + duration
        i = k = bisect_right(times, start) - 1  # i is the step holding start
        while times[k] < end:
            if fp[k] < n_procs or fb[k] < bb_bytes:
                # skip the blocked run; the last finite step holds the totals
                k += 1
                while fp[k] < n_procs or fb[k] < bb_bytes:
                    k += 1
                i, start = k, times[k]
                end = start + duration
            k += 1
        if not take:
            return start
        if not n_procs >= 0 <= bb_bytes:
            raise _bad_demand(start, end)
        if not (n_procs or bb_bytes):
            return start  # add would insert both ends and merge them away again
        # the scan found the demand free on every step of the window, so the
        # unchecked write below keeps each value in [0, totals]. An inserted
        # breakpoint splits a step the demand then changes, so only one found
        # in place can merge: end first, which keeps i valid
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
