"""Availability profile: free processors and burst-buffer bytes over future time.

The profile is a step function of free capacity, derived from a set of
reservations that never together exceed the fixed platform totals. It stores
the free processors and bytes of each step, so earliest-slot queries and
window feasibility checks look only at the steps their window covers. Adding
or removing a reservation is exact. Time is integer seconds throughout.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass


class CapacityError(Exception):
    """A reservation would drive free capacity negative."""


class InfeasibleError(Exception):
    """Demand exceeds what the platform can ever provide."""


class AllocationError(Exception):
    """Not enough free resources to satisfy an allocation."""


@dataclass(frozen=True)
class Reservation:
    job_id: int
    start: int
    end: int
    n_procs: int
    bb_bytes: int

    def __post_init__(self):
        if self.start >= self.end:
            raise ValueError(f"reservation interval empty: [{self.start}, {self.end})")
        if self.n_procs < 0 or self.bb_bytes < 0:
            raise ValueError("negative resource demand")


class AvailabilityProfile:
    """Mutable ledger of reservations with piecewise-constant free capacity.

    Internally keeps sorted breakpoint times, each with the free processors
    and burst-buffer bytes up to the next one. The first breakpoint is -inf,
    so every time lies in exactly one step; past it, a breakpoint exists
    exactly where free capacity changes. Queries bisect to the step holding
    their start and scan only the steps their window covers. At most one
    reservation per job id.
    """

    def __init__(self, total_procs: int, total_bb: int):
        if total_procs < 0 or total_bb < 0:
            raise ValueError("platform totals must be non-negative")
        self.total_procs = total_procs
        self.total_bb = total_bb
        self._times: list[float] = [-math.inf]
        self._free_p: list[int] = [total_procs]
        self._free_b: list[int] = [total_bb]
        self._res: dict[int, Reservation] = {}

    def copy(self) -> "AvailabilityProfile":
        new = AvailabilityProfile(self.total_procs, self.total_bb)
        new._times = list(self._times)
        new._free_p = list(self._free_p)
        new._free_b = list(self._free_b)
        new._res = dict(self._res)
        return new

    # -- reservation bookkeeping ------------------------------------------

    def reservations(self) -> list[Reservation]:
        return list(self._res.values())

    def __contains__(self, job_id: int) -> bool:
        return job_id in self._res

    def _split(self, t: int) -> int:
        """Index of the breakpoint at t, inserted with unchanged free capacity if absent."""
        times = self._times
        i = bisect.bisect_left(times, t)
        if i == len(times) or times[i] != t:
            times.insert(i, t)
            self._free_p.insert(i, self._free_p[i - 1])
            self._free_b.insert(i, self._free_b[i - 1])
        return i

    def _apply(self, start: int, end: int, dp: int, db: int) -> None:
        """Add (dp, db) to free capacity over [start, end)."""
        times, fp, fb = self._times, self._free_p, self._free_b
        i, j = self._split(start), self._split(end)
        for k in range(i, j):
            fp[k] += dp
            fb[k] += db
        # only the two ends can have become redundant; j first keeps i valid
        for k in (j, i):
            if fp[k] == fp[k - 1] and fb[k] == fb[k - 1]:
                del times[k], fp[k], fb[k]

    def add(self, r: Reservation) -> None:
        if r.job_id in self._res:
            raise ValueError(f"job {r.job_id} already has a reservation")
        if not self.has_capacity(r.n_procs, r.bb_bytes, r.start, r.end):
            raise CapacityError(
                f"reservation for job {r.job_id} exceeds free capacity "
                f"over [{r.start}, {r.end})"
            )
        self._res[r.job_id] = r
        self._apply(r.start, r.end, -r.n_procs, -r.bb_bytes)

    def remove(self, job_id: int) -> Reservation:
        r = self._res.pop(job_id)
        self._apply(r.start, r.end, r.n_procs, r.bb_bytes)
        return r

    # -- queries -----------------------------------------------------------

    def breakpoints(self) -> list[int]:
        return self._times[1:]

    def free_at(self, t: int) -> tuple[int, int]:
        """(free processors, free burst-buffer bytes) at time t."""
        i = bisect.bisect_right(self._times, t) - 1
        return self._free_p[i], self._free_b[i]

    def has_capacity(self, n_procs: int, bb_bytes: int, start: int, end: int) -> bool:
        """True if demand fits on top of existing reservations over [start, end)."""
        if n_procs > self.total_procs or bb_bytes > self.total_bb:
            return False
        times, fp, fb = self._times, self._free_p, self._free_b
        for k in range(bisect.bisect_right(times, start) - 1, len(times)):
            if times[k] >= end:
                break
            if fp[k] < n_procs or fb[k] < bb_bytes:
                return False
        return True

    def earliest_slot(
        self, n_procs: int, bb_bytes: int, duration: int, not_before: int
    ) -> int:
        """Smallest t >= not_before with the demand free over all of [t, t+duration)."""
        if n_procs > self.total_procs or bb_bytes > self.total_bb:
            raise InfeasibleError(
                f"demand ({n_procs} procs, {bb_bytes} B) exceeds platform totals"
            )
        if duration <= 0:
            raise ValueError("duration must be positive")
        times, fp, fb = self._times, self._free_p, self._free_b
        candidate, end = not_before, not_before + duration
        for k in range(bisect.bisect_right(times, candidate) - 1, len(times)):
            if times[k] >= end:
                break
            if fp[k] < n_procs or fb[k] < bb_bytes:
                # the last step is entirely free, so step k + 1 exists
                candidate = times[k + 1]
                end = candidate + duration
        return candidate


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


def allocate_nodes(free_nodes, n: int) -> list[int]:
    """Pick the n lowest-id free nodes (deterministic)."""
    free = sorted(free_nodes)
    if n > len(free):
        raise AllocationError(f"need {n} nodes, only {len(free)} free")
    return free[:n]
