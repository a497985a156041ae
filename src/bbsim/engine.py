"""Deterministic discrete-event simulation of the cluster.

Job lifecycle: stage-in -> compute phases, each but the last ending in a
checkpoint dump that is drained asynchronously to the PFS -> stage-out. Each
of the three moves the job's burst-buffer request. The dump (compute to
burst buffer) runs at the compute link rate without cross-job contention, so
it is folded into its phase: one event ends both. All PFS-link transfers
share bandwidth equally; a job's drains run one after another, so a new drain
appends its bytes to the job's active one. The link counts the bytes served to
each active transfer as one int over a scale that is reset when the link is
idle, and each transfer ends at a mark on that count, so completions are
byte-exact. Event times count units of 1/U s, U the lcm of the two link
bandwidths under io_model "on" and 1 under "off", so only a link completion
shared by transfers may be a Fraction; ticks, walltimes and phase ends with
their dumps are ints. Events run in order of exact time, then event priority,
then push order; the heap key leads with the time as a float only so that most
comparisons are one float comparison. Times leave the engine in seconds: the
policies' now, starts, head reservations, record finishes and trace "t".

Jobs enter the queue only at a scheduler tick, which reads every job submitted
by then; the heap holds one tick while jobs wait or remain unsubmitted. The
link's next completion time waits bare in one slot beside the heap, set at each
change of the link. Phase and walltime events carry the job id alone, and no
phase end past the walltime is pushed, so the only events that find their job
ended are walltime events of jobs that finished first. A job that moves no
bytes gets no walltime event: it ends within it. An optional sink gets each
trace line's dict as it happens, with the time "t" of its event; a submit line
has its tick's time, and the job's own in "submit", so lines run in time order.
"""

from __future__ import annotations

import heapq
import numbers
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isfinite, lcm

from .availability import (
    AvailabilityProfile,
    InfeasibleError,
    allocate_bb,
    allocate_nodes,
)
from .metrics import JobRecord
from .planner import MAX_ALPHA, SearchStats, plan_schedule
from .platform import Platform
from .policies import POLICY_NAMES, SchedulerState, run_policy
from .workload import JobSpec, phase_durations

# event priorities: at equal timestamps, completions run before the
# scheduler so freed resources are visible to the same tick, and a job whose
# last phase ends exactly at its walltime finishes rather than being killed
TRANSFER_COMPLETE = 1
PHASE_COMPLETE = 2
WALLTIME_EXPIRED = 3
SCHEDULER_TICK = 4

@dataclass
class SimConfig:
    """Run settings. seed and alpha, the exponent of plan's score, are read only
    by the plan policy but checked for every policy. alpha is at most MAX_ALPHA
    so that no score overflows while waits stay below 2**53 s (285 million
    years), the range in which every float(wait) is exact: such a wait to the
    16th is below 2**848, so the sum of wait**alpha over any queue shorter than
    2**176 jobs stays below 2**1024."""
    tick_period_s: int = 60
    io_model: str = "on"  # "on" | "off"
    seed: int = 0
    alpha: float = 2.0
    validate: bool = False

    def __post_init__(self):
        for name in ("tick_period_s", "seed"):
            if type(getattr(self, name)) is not int:  # refuses bool, an int subclass, too
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        alpha = self.alpha
        real = isinstance(alpha, numbers.Real) and not isinstance(alpha, bool)
        if not real or not isfinite(alpha):  # nan and inf are not real numbers
            raise ValueError(f"alpha must be a real number, got {alpha!r}")
        if not 0 < alpha <= MAX_ALPHA:
            raise ValueError(f"alpha must be in (0, {MAX_ALPHA}], got {alpha!r}")
        if self.io_model not in ("on", "off"):
            raise ValueError("io_model must be 'on' or 'off'")
        if self.tick_period_s <= 0:
            raise ValueError("tick period must be positive")


class FairShareLink:
    """Single shared link with equal bandwidth split among active transfers.

    Transfers are keyed by the caller; the engine uses (job id, role) with
    role "in" (stage-in), "drain" (checkpoint drain) or "out" (stage-out).
    The bandwidth is bytes per time unit, an int or a Fraction. Each active
    transfer has been served ``served / scale`` bytes since the link was last
    idle, and ends when served reaches its mark ``active[key]``, which bytes
    appended to it raise. scale grows only when a share is not a whole number
    of 1/scale bytes, and is 1 again, with served 0, once the link is idle.
    Times stay ints or Fractions, and a completion at a whole unit is an int.
    """

    def __init__(self, bandwidth):
        self._bw_num, self._bw_den = bandwidth.numerator, bandwidth.denominator
        self.active: dict = {}  # key -> end mark: served bytes, times scale, at which it is done
        self.scale = 1
        self.served = 0  # bytes each active transfer has received, times scale
        self.last = 0

    def advance(self, now) -> None:
        # now - last is dt / (b * d), with dt taken in ints: no Fraction is built
        a, b = self.last.numerator, self.last.denominator
        c, d = now.numerator, now.denominator
        dt = c * b - a * d
        assert dt >= 0, "link time must not move backwards"
        self.last = now
        active = self.active
        if dt and active:
            # each transfer is served bw * dt / (b * d * n) bytes, num / den over scale
            num, den = self._bw_num * dt * self.scale, self._bw_den * b * d * len(active)
            share, rem = divmod(num, den)
            if rem:  # refine scale by the factor the share lacks
                m = den // gcd(num, den)
                self.scale, self.served = self.scale * m, self.served * m
                for key in active:
                    active[key] *= m
                share = num * m // den
            self.served += share

    def add(self, now, key, total: int) -> None:
        """Start a transfer, or append its bytes to key's active transfer."""
        self.advance(now)
        self.active[key] = self.active.get(key, self.served) + total * self.scale

    def remove(self, now, key) -> None:
        self.advance(now)
        del self.active[key]
        if not self.active:
            self.scale, self.served = 1, 0

    def next_completion(self):
        if not self.active:
            return None
        # last + (min mark - served) * n / (scale * bw), as an int when whole, else one Fraction
        a, b = self.last.numerator, self.last.denominator
        bw = self.scale * self._bw_num  # over bw_den, in units of 1 / scale bytes
        left = min(self.active.values()) - self.served
        num = a * bw + left * len(self.active) * b * self._bw_den
        at, rem = divmod(num, b * bw)
        return Fraction(num, b * bw) if rem else at

    def finished_ids(self, now) -> list:
        """Advance to now and pop every finished transfer, in start order."""
        self.advance(now)
        finished = [key for key, mark in self.active.items() if mark <= self.served]
        for key in finished:
            mark = self.active.pop(key)
            assert mark == self.served, "transfer completion must be byte-exact"
        if not self.active:
            self.scale, self.served = 1, 0
        return finished


class NodeBinding:
    """The nodes and storage-pool bytes each running job holds; no record reads them.

    No run binds: gantt replays a trace's launch, finish and kill lines in file
    order. It lives here, where benchmarks/tracing.py times allocate_nodes and
    allocate_bb by their engine names.
    """

    def __init__(self, compute_nodes, bb_capacity: dict[int, int]):
        self.free_nodes = set(compute_nodes)
        self.free_bb = Counter(bb_capacity)
        self.held: dict[int, tuple[list[int], dict[int, int]]] = {}  # job id -> take's result

    def take(self, job_id: int, n_procs: int, bb_total: int) -> tuple[list[int], dict[int, int]]:
        nodes = allocate_nodes(self.free_nodes, n_procs)
        shares = {n: s for n, s in allocate_bb(self.free_bb, bb_total).items() if s}
        self.free_nodes.difference_update(nodes)
        self.free_bb.subtract(shares)
        self.held[job_id] = nodes, shares
        return nodes, shares

    def release(self, job_id: int) -> None:
        nodes, shares = self.held.pop(job_id)
        self.free_nodes.update(nodes)
        self.free_bb.update(shares)


@dataclass(slots=True)
class RunningJob:
    job: JobSpec
    io_bytes: int  # bytes of the stage-in, each checkpoint and the stage-out; 0 with io off
    phases: tuple  # phase durations in time units, each but the last with its checkpoint dump
    start: int  # s
    end_by: int  # the walltime's end, in time units
    phase: int = 0  # current phase (1-based); 0 while staging in
    compute_done: bool = False


class Simulation:
    """One deterministic simulation run of a workload under one policy.

    A workload is refused unless S + 2W + nP < 2**53, for n jobs with last
    submit time S and walltimes summing to W, and tick period P. Then every
    wait, real or planned, is below 2**53 s, where each float(wait) is exact
    and MAX_ALPHA keeps plan scores finite. A run ends by S + W + nP: after
    S, jobs run for at most W s in all, and an idle machine with jobs waiting
    starts one at the next tick, at most P s on, at most n times. A plan or a
    head reservation made at time t starts every job by t + W, after all the
    walltimes placed before it.
    """

    def __init__(
        self,
        platform: Platform,
        jobs: list[JobSpec],
        policy: str,
        sim_cfg: SimConfig | None = None,
        sink=None,
    ):
        self.platform = platform
        self.jobs = sorted(jobs, key=lambda j: (j.submit_time, j.id))
        self.policy_name = policy
        self.cfg = sim_cfg or SimConfig()
        if policy not in POLICY_NAMES:
            raise ValueError(f"unknown policy {policy!r}")
        self.rng = random.Random(self.cfg.seed)

        seen: set[int] = set()
        for job in self.jobs:
            if job.id in seen:
                raise ValueError(f"duplicate job id {job.id}")
            seen.add(job.id)
            if job.n_procs > platform.n_procs or job.bb_total > platform.total_bb:
                raise InfeasibleError(
                    f"job {job.id} exceeds platform capacity "
                    f"({job.n_procs} procs, {job.bb_total} B)"
                )
        span = sum(2 * j.walltime + self.cfg.tick_period_s for j in self.jobs)
        span += self.jobs[-1].submit_time if self.jobs else 0
        if span >= 2**53:
            raise ValueError(f"workload too long: last submit + 2 * walltimes + one tick "
                             f"per job is {span} s, must be below 2**53 s")

        self.profile = AvailabilityProfile(platform.n_procs, platform.total_bb)
        self.queue: dict[int, JobSpec] = {}  # pending jobs by id, in arrival order
        self.running: dict[int, RunningJob] = {}
        on = self.cfg.io_model == "on"  # then a dump and a lone transfer last whole units
        self.unit = lcm(platform.compute_link_bw, platform.pfs_link_bw) if on else 1
        self.link = FairShareLink(Fraction(platform.pfs_link_bw, self.unit))
        self.records: list[JobRecord] = []
        self.head_reservations: list[tuple[int, object]] = []  # (tick time, HeadReservation)
        self.plan_stats: list[SearchStats] = []
        self._heap: list = []
        self._seq = 0  # events keyed so far
        self.sink = sink  # called with each trace line's dict, or None
        self._link_at = None  # the link's next completion time, None while it is idle
        self._unsubmitted = self.jobs[::-1]  # popped from the end, in submit order
        self._state = SchedulerState(self.queue, self.profile, 0)  # its now is set each tick

    # -- event machinery -----------------------------------------------------

    def _key(self, time, event: int, payload) -> tuple:
        # float(time) only speeds up comparisons: it is monotone in time, and
        # the exact time breaks ties between equal floats
        self._seq += 1
        return (float(time), time, event, self._seq, payload)

    def _push(self, time, event: int, payload=None) -> None:
        heapq.heappush(self._heap, self._key(time, event, payload))

    def _push_next_tick(self, now: int) -> None:
        """One period on while jobs wait, else the first tick at or after the next submit."""
        tick = self.cfg.tick_period_s
        if self.queue or self._unsubmitted:
            at = now + tick if self.queue else -(-self._unsubmitted[-1].submit_time // tick) * tick
            self._push(at * self.unit, SCHEDULER_TICK)

    def run(self) -> list[JobRecord]:
        self._push_next_tick(0)
        validate = self.cfg.validate
        heap = self._heap
        while (now := self._link_at) is not None or heap:
            if now is not None and (not heap or now <= heap[0][1]):
                event, payload = TRANSFER_COMPLETE, None
            else:
                _, now, event, _, payload = heapq.heappop(heap)
            self._dispatch(now, event, payload)
            if validate:
                self._check_invariants(now)
        assert not self.queue and not self.running, "simulation ended with live jobs"
        self.records.sort(key=lambda r: r.job_id)
        return self.records

    def _dispatch(self, now, event: int, payload) -> None:
        if event == SCHEDULER_TICK:
            self._on_tick(now // self.unit)
        elif payload is None:  # the link's next completion
            self._on_pfs_completions(now)
        elif event == PHASE_COMPLETE:
            self._on_phase_complete(self.running[payload], now)
        elif payload in self.running:  # else the job finished within its walltime
            self._kill(self.running[payload], now)

    # -- scheduling ------------------------------------------------------------

    def _on_tick(self, now: int) -> None:  # now in s
        pending = self._unsubmitted
        while pending and pending[-1].submit_time <= now:
            job = pending.pop()
            self.queue[job.id] = job
            if self.sink is not None:
                self.sink({"t": float(now), "event": "submit", "job": job.id,
                          "submit": float(job.submit_time)})
        state = self._state
        state.now = now
        if self.policy_name == "plan":
            stats = SearchStats()
            result = plan_schedule(state, self.cfg.alpha, self.rng, stats)
            self.plan_stats.append(stats)
        else:
            result = run_policy(state, self.policy_name, validate=self.cfg.validate)
        if result.head_reservation is not None:
            self.head_reservations.append((now, result.head_reservation))
        for job in result.launched:
            self._start_job(job, now)
        self._push_next_tick(now)

    def _start_job(self, job: JobSpec, now: int) -> None:  # now in s
        unit = self.unit
        io_bytes = job.bb_total if self.cfg.io_model == "on" else 0
        phases = (job.runtime * unit,)  # with no checkpoint, the phases run back to back
        if io_bytes:
            dump = io_bytes * (unit // self.platform.compute_link_bw)
            *head, last = phase_durations(job)
            phases = (*(d * unit + dump for d in head), last * unit)
        t = now * unit
        rj = RunningJob(job, io_bytes, phases, now, t + job.walltime * unit)
        self.running[job.id] = rj
        if self.sink is not None:
            self.sink({"t": float(now), "event": "launch", "job": job.id,
                       "n_procs": job.n_procs, "bb_total": job.bb_total})
        if io_bytes:  # else the job ends at start + runtime, within its walltime
            self._push(rj.end_by, WALLTIME_EXPIRED, job.id)
            self._start_pfs_transfer(t, (job.id, "in"), io_bytes)
        else:
            self._start_phase(rj, t, 1)

    # -- lifecycle -------------------------------------------------------------

    def _start_phase(self, rj: RunningJob, now, phase: int) -> None:
        rj.phase = phase
        end = now + rj.phases[phase - 1]
        if end <= rj.end_by:  # else the walltime event kills the job first
            self._push(end, PHASE_COMPLETE, rj.job.id)

    def _on_phase_complete(self, rj: RunningJob, now) -> None:
        if rj.phase < len(rj.phases):
            # the checkpoint dump is in the burst buffer: drain it to the PFS
            # while the next phase computes
            self._start_pfs_transfer(now, (rj.job.id, "drain"), rj.io_bytes)
            self._start_phase(rj, now, rj.phase + 1)
        elif rj.io_bytes:
            rj.compute_done = True
            self._start_pfs_transfer(now, (rj.job.id, "out"), rj.io_bytes)
        else:
            self._finish(rj, now, killed=False)

    def _finish(self, rj: RunningJob, now, killed: bool) -> None:
        job = rj.job
        self.profile.remove(rj.start, rj.start + job.walltime, job.n_procs, job.bb_total)
        del self.running[job.id]
        finish, rem = divmod(now, self.unit)  # in s: an int when whole, else a Fraction
        finish = Fraction(now, self.unit) if rem else finish
        self.records.append(
            JobRecord(
                job_id=job.id,
                submit=job.submit_time,
                start=rj.start,
                finish=finish,
                n_procs=job.n_procs,
                bb_total=job.bb_total,
                killed=killed,
                policy=self.policy_name,
            )
        )
        if self.sink is not None:
            self.sink({"t": float(finish), "event": "kill" if killed else "finish", "job": job.id})

    def _kill(self, rj: RunningJob, now) -> None:
        live = [key for key in self.link.active if key[0] == rj.job.id]
        for key in live:
            self.link.remove(now, key)
        if live:
            self._link_at = self.link.next_completion()
        self._finish(rj, now, killed=True)

    # -- transfers ---------------------------------------------------------------

    def _start_pfs_transfer(self, now, key: tuple[int, str], total: int) -> None:
        self.link.add(now, key, total)
        self._link_at = self.link.next_completion()

    def _on_pfs_completions(self, now) -> None:
        finished = self.link.finished_ids(now)
        for job_id, role in finished:
            rj = self.running.get(job_id)
            if rj is None:  # its drain and stage-out ended together, and the first finished it
                continue
            if role == "in":
                self._start_phase(rj, now, 1)
            elif (
                rj.compute_done
                and (job_id, "out") not in self.link.active
                and (job_id, "drain") not in self.link.active
            ):
                self._finish(rj, now, killed=False)
        self._link_at = self.link.next_completion()

    # -- invariants ----------------------------------------------------------------

    def _check_invariants(self, now) -> None:
        held = AvailabilityProfile(self.platform.n_procs, self.platform.total_bb)
        for rj in self.running.values():
            held.add(rj.start, rj.start + rj.job.walltime, rj.job.n_procs, rj.job.bb_total)
        assert held == self.profile, "profile must hold exactly the running jobs"
        link = self.link
        assert all(job_id in self.running for job_id, _ in link.active), "transfer of an ended job"
        assert all(mark >= link.served for mark in link.active.values()), "transfer overrun"
        assert link.active or (link.scale, link.served) == (1, 0), "idle link not reset"
        assert (self._link_at is None) == (not link.active), "link completion slot out of step"
