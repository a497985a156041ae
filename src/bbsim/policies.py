"""Queue-based schedulers: FCFS, filler, and EASY-backfilling variants.

All policies operate on a SchedulerState: its profile holds the demand of
every executing job and nothing else, and its queue maps pending job ids to
jobs in arrival order. Launching a job takes its demand from now for its
walltime and deletes its id; EASY's head reservation lives for one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .availability import AvailabilityProfile
from .workload import JobSpec

POLICY_NAMES = ("fcfs", "fcfs-easy", "filler", "fcfs-bb", "sjf-bb", "plan")


@dataclass(frozen=True)
class PolicyConfig:
    name: str
    order: str = "fcfs"  # "fcfs" | "sjf"
    reserve_bb: bool = False
    backfilling: bool = False

    @classmethod
    def from_name(cls, name: str) -> "PolicyConfig":
        table = {
            "fcfs": cls("fcfs"),
            "fcfs-easy": cls("fcfs-easy", backfilling=True),
            "filler": cls("filler", backfilling=True),
            "fcfs-bb": cls("fcfs-bb", backfilling=True, reserve_bb=True),
            "sjf-bb": cls("sjf-bb", order="sjf", backfilling=True, reserve_bb=True),
        }
        if name not in table:
            raise ValueError(f"unknown queue policy: {name!r}")
        return table[name]


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
    return sorted(jobs, key=lambda j: (j.walltime, j.submit_time, j.id))


def easy_schedule(
    state: SchedulerState, cfg: PolicyConfig, validate: bool = False
) -> CycleResult:
    """EASY-backfilling: FCFS pass, head reservation, backfill, drop reservation.

    The head reservation covers processors only, or processors and burst
    buffers when cfg.reserve_bb is set. SJF order applies to the backfill
    candidates only; the head stays at the front of the queue either way.
    With no processor free at now beside those the head holds, no candidate
    can start, so the backfill is skipped; the head reservation is reported.
    """
    result = CycleResult(launched=fcfs_pass(state))
    if not state.queue:
        return result
    queued = iter(state.queue.values())
    head = next(queued)
    bb_demand = head.bb_total if cfg.reserve_bb else 0
    start = state.profile.earliest_slot(
        head.n_procs, bb_demand, head.walltime, state.now
    )
    result.head_reservation = HeadReservation(head.id, start, head.n_procs, bb_demand)
    free_procs = state.profile.free_at(state.now)[0]
    if start == state.now:
        free_procs -= head.n_procs
    if free_procs == 0:  # every job needs a processor
        return result
    held = (start, start + head.walltime, head.n_procs, bb_demand)
    state.profile.add(*held)
    rest = list(queued)
    candidates = sjf_sorted(rest) if cfg.order == "sjf" else rest
    result.launched += backfill_pass(state, candidates)
    state.profile.remove(*held)
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


def filler_schedule(state: SchedulerState) -> CycleResult:
    """Greedy first-fit in arrival order, no reservations at all."""
    return CycleResult(launched=backfill_pass(state, list(state.queue.values())))


def run_policy(
    state: SchedulerState, cfg: PolicyConfig, validate: bool = False
) -> CycleResult:
    if cfg.name == "fcfs":
        return CycleResult(launched=fcfs_pass(state))
    if cfg.name == "filler":
        return filler_schedule(state)
    if cfg.backfilling:
        return easy_schedule(state, cfg, validate=validate)
    raise ValueError(f"policy {cfg.name!r} not handled here")
