"""Availability profile: free processors and burst-buffer bytes over future time.

The profile is a step function derived from a set of non-overlapping (in the
resource sense) reservations against fixed platform totals. It supports
earliest-slot queries, window feasibility checks and exact add/remove of
reservations. Time is integer seconds throughout.
"""

from __future__ import annotations

import bisect
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

    Internally keeps a sorted list of breakpoint times with resource deltas;
    queries sweep the breakpoints accumulating usage. At most one reservation
    per job id.
    """

    def __init__(self, total_procs: int, total_bb: int):
        if total_procs < 0 or total_bb < 0:
            raise ValueError("platform totals must be non-negative")
        self.total_procs = total_procs
        self.total_bb = total_bb
        self._times: list[int] = []
        self._dp: list[int] = []
        self._db: list[int] = []
        self._res: dict[int, Reservation] = {}

    def copy(self) -> "AvailabilityProfile":
        new = AvailabilityProfile(self.total_procs, self.total_bb)
        new._times = list(self._times)
        new._dp = list(self._dp)
        new._db = list(self._db)
        new._res = dict(self._res)
        return new

    # -- reservation bookkeeping ------------------------------------------

    def reservations(self) -> list[Reservation]:
        return list(self._res.values())

    def __contains__(self, job_id: int) -> bool:
        return job_id in self._res

    def _apply(self, t: int, dp: int, db: int) -> None:
        if dp == 0 and db == 0:
            return
        i = bisect.bisect_left(self._times, t)
        if i < len(self._times) and self._times[i] == t:
            self._dp[i] += dp
            self._db[i] += db
            if self._dp[i] == 0 and self._db[i] == 0:
                del self._times[i], self._dp[i], self._db[i]
        else:
            self._times.insert(i, t)
            self._dp.insert(i, dp)
            self._db.insert(i, db)

    def add(self, r: Reservation) -> None:
        if r.job_id in self._res:
            raise ValueError(f"job {r.job_id} already has a reservation")
        if not self.has_capacity(r.n_procs, r.bb_bytes, r.start, r.end):
            raise CapacityError(
                f"reservation for job {r.job_id} exceeds free capacity "
                f"over [{r.start}, {r.end})"
            )
        self._res[r.job_id] = r
        self._apply(r.start, r.n_procs, r.bb_bytes)
        self._apply(r.end, -r.n_procs, -r.bb_bytes)

    def remove(self, job_id: int) -> Reservation:
        r = self._res.pop(job_id)
        self._apply(r.start, -r.n_procs, -r.bb_bytes)
        self._apply(r.end, r.n_procs, r.bb_bytes)
        return r

    # -- queries -----------------------------------------------------------

    def breakpoints(self) -> list[int]:
        return list(self._times)

    def free_at(self, t: int) -> tuple[int, int]:
        """(free processors, free burst-buffer bytes) at time t."""
        used_p = used_b = 0
        for i, bp in enumerate(self._times):
            if bp > t:
                break
            used_p += self._dp[i]
            used_b += self._db[i]
        return self.total_procs - used_p, self.total_bb - used_b

    def has_capacity(self, n_procs: int, bb_bytes: int, start: int, end: int) -> bool:
        """True if demand fits on top of existing reservations over [start, end)."""
        if n_procs > self.total_procs or bb_bytes > self.total_bb:
            return False
        used_p = used_b = 0
        n = len(self._times)
        for i, t in enumerate(self._times):
            if t >= end:
                break
            used_p += self._dp[i]
            used_b += self._db[i]
            seg_end = self._times[i + 1] if i + 1 < n else None
            if seg_end is not None and seg_end <= start:
                continue
            if used_p + n_procs > self.total_procs or used_b + bb_bytes > self.total_bb:
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
        candidate = not_before
        used_p = used_b = 0
        n = len(self._times)
        for i, t in enumerate(self._times):
            if t >= candidate + duration:
                return candidate
            used_p += self._dp[i]
            used_b += self._db[i]
            seg_end = self._times[i + 1] if i + 1 < n else None
            if seg_end is not None and seg_end <= not_before:
                continue
            if used_p + n_procs > self.total_procs or used_b + bb_bytes > self.total_bb:
                # open-ended infeasibility is impossible: deltas sum to zero
                assert seg_end is not None
                candidate = max(candidate, seg_end)
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
