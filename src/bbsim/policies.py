"""Queue-based schedulers: FCFS, filler, and EASY-backfilling variants.

All policies operate on a SchedulerState: its profile holds the demand of
every executing job and nothing else, and its queue maps pending job ids to
jobs in arrival order. Launching a job takes its demand from now for its
walltime and deletes its id; EASY's head reservation lives for one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

from .availability import AvailabilityProfile
from .workload import JobSpec

POLICY_NAMES = ("fcfs", "fcfs-easy", "filler", "fcfs-bb", "sjf-bb", "plan")


@dataclass
class SchedulerState:
    queue: dict[int, JobSpec]  # pending jobs by id, in arrival order
    profile: AvailabilityProfile
    now: int


@dataclass(frozen=True)
class HeadReservation:
    job_id: int
    start: int
    n_procs: int
    bb_bytes: int


@dataclass
class CycleResult:
    launched: list[JobSpec] = field(default_factory=list)
    head_reservation: HeadReservation | None = None


class EasyGuaranteeViolation(AssertionError):
    """A backfilled job delayed the head job's reserved start."""


def launch(state: SchedulerState, job: JobSpec) -> None:
    state.profile.add(state.now, state.now + job.walltime, job.n_procs, job.bb_total)
    del state.queue[job.id]


def _fits_now(state: SchedulerState, job: JobSpec) -> bool:
    return state.profile.has_capacity(
        job.n_procs, job.bb_total, state.now, state.now + job.walltime
    )


def fcfs_pass(state: SchedulerState) -> list[JobSpec]:
    """Launch queue-order jobs that fit now; stop at the first that does not."""
    launched = []
    for job in list(state.queue.values()):  # launch deletes from the queue
        if not _fits_now(state, job):
            break
        launch(state, job)
        launched.append(job)
    return launched


def backfill_pass(state: SchedulerState, candidates: list[JobSpec]) -> list[JobSpec]:
    """Launch every candidate that fits now without touching any reservation.

    Candidates must be queued jobs, each listed once. Checking the whole
    walltime window keeps allocations clear of future reservations; a
    candidate over the free capacity at now fails that check, so is skipped.
    """
    launched = []
    free_procs, free_bb = state.profile.free_at(state.now)
    for job in candidates:
        if job.n_procs <= free_procs and job.bb_total <= free_bb and _fits_now(state, job):
            launch(state, job)
            launched.append(job)
            free_procs, free_bb = state.profile.free_at(state.now)
    return launched


def sjf_sorted(jobs: list[JobSpec]) -> list[JobSpec]:
    return sorted(jobs, key=attrgetter("walltime", "submit_time", "id"))


def easy_schedule(
    state: SchedulerState, reserve_bb: bool, sjf: bool, validate: bool = False
) -> CycleResult:
    """EASY-backfilling: FCFS pass, head reservation, backfill, drop reservation.

    The head reservation covers processors only, or processors and burst
    buffers when reserve_bb is set; one earliest_slot scan finds and holds it.
    With sjf set, SJF order applies to the backfill candidates only; the head
    stays at the front of the queue. With no processor free at now beside the
    hold, no candidate can start, so the backfill is skipped; the head
    reservation is reported either way.
    With validate, a re-check catches only this pass's own hold being weaker than
    the reported reservation: a launch overlapping the hold raises CapacityError first.
    """
    result = CycleResult(launched=fcfs_pass(state))
    if not state.queue:
        return result
    queued = iter(state.queue.values())
    head = next(queued)
    bb_demand = head.bb_total if reserve_bb else 0
    start = state.profile.earliest_slot(
        head.n_procs, bb_demand, head.walltime, state.now, take=True
    )
    result.head_reservation = HeadReservation(head.id, start, head.n_procs, bb_demand)
    if state.profile.free_at(state.now)[0]:  # every job needs a processor
        rest = list(queued)
        candidates = sjf_sorted(rest) if sjf else rest
        result.launched += backfill_pass(state, candidates)
    state.profile.remove(start, start + head.walltime, head.n_procs, bb_demand)
    if validate:
        recomputed = state.profile.earliest_slot(
            head.n_procs, bb_demand, head.walltime, state.now
        )
        if recomputed != start:
            raise EasyGuaranteeViolation(
                f"head job {head.id}: reserved start {start}, "
                f"post-backfill earliest slot {recomputed}"
            )
    return result


def run_policy(state: SchedulerState, name: str, validate: bool = False) -> CycleResult:
    """One pass of the queue policy called name: the one map of names to passes.

    filler is greedy first-fit in arrival order, with no reservation at all;
    the three EASY variants differ in what the head reserves and in the
    order of the backfill candidates.
    """
    if name == "fcfs":
        return CycleResult(launched=fcfs_pass(state))
    if name == "filler":
        return CycleResult(launched=backfill_pass(state, list(state.queue.values())))
    if name in ("fcfs-easy", "fcfs-bb", "sjf-bb"):
        return easy_schedule(state, reserve_bb=name != "fcfs-easy", sjf=name == "sjf-bb",
                             validate=validate)
    raise ValueError(f"unknown queue policy: {name!r}")
