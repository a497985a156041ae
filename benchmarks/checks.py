"""Output checks for one simulation, each computed from the inputs alone.

No check takes the simulator's own derived results as its reference: the
records are compared with the job specifications, the platform totals, a naive
per-tick greedy simulator, and arithmetic done here. Every check returns the
ids of the jobs it found at fault; an empty set means the check passed.
"""

from __future__ import annotations

import math
from fractions import Fraction

import bbsim.metrics

# the specification the checks hold the program to, written out here rather
# than read from bbsim: AnnealConfig defaults and the slowdown bound
EXHAUSTIVE_MAX_QUEUE = 5
ANNEAL_BUILDS = 30 * 6 + 9  # n_cooling * m_steps + nine seed candidates
SKIPPED_BUILDS = 9
SLOWDOWN_BOUND_S = 600


def ceil_to(t, tick: int) -> int:
    return -(-t // tick) * tick


def one_record_per_job(jobs, records) -> set[int]:
    """Every submitted job has exactly one record, and no record is extra."""
    counts: dict[int, int] = {}
    for r in records:
        counts[r.job_id] = counts.get(r.job_id, 0) + 1
    ids = {j.id for j in jobs}
    bad = {jid for jid in ids if counts.get(jid) != 1}
    return bad | (counts.keys() - ids)


def start_times(records, tick: int) -> set[int]:
    """No job starts before it is submitted, and every start is on a tick."""
    return {r.job_id for r in records if r.start < r.submit or r.start % tick}


def capacity(records, n_procs: int, total_bb: int) -> set[int]:
    """Sweep the [start, finish) intervals; no instant exceeds the totals.

    At equal times ends are applied before starts, since intervals are
    half-open. A start that drives usage over a total is the job at fault.
    """
    events = []
    for r in records:
        events.append((r.finish, 0, r.job_id, -r.n_procs, -r.bb_total))
        events.append((r.start, 1, r.job_id, r.n_procs, r.bb_total))
    events.sort()
    used_p = used_b = 0
    bad = set()
    for _, _, job_id, dp, db in events:
        used_p += dp
        used_b += db
        if used_p > n_procs or used_b > total_bb:
            bad.add(job_id)
    return bad


def durations_io_off(jobs_by_id, records) -> set[int]:
    """Without data movement a job occupies exactly its runtime."""
    return {
        r.job_id
        for r in records
        if r.job_id in jobs_by_id and r.finish - r.start != jobs_by_id[r.job_id].runtime
    }


def min_io_on_duration(job, platform) -> Fraction:
    """Runtime plus stage-in, stage-out and checkpoints, each at full link speed."""
    bb = job.bb_total
    return (
        job.runtime
        + Fraction(2 * bb, platform.pfs_link_bw)
        + Fraction((job.n_phases - 1) * bb, platform.compute_link_bw)
    )


def durations_io_on(jobs_by_id, records, platform) -> set[int]:
    """A killed job ran its walltime; any other job ran between the I/O lower
    bound and its walltime. Compared in exact arithmetic."""
    bad = set()
    for r in records:
        job = jobs_by_id.get(r.job_id)
        if job is None:
            continue
        ran = Fraction(r.finish) - r.start
        if r.killed:
            ok = ran == job.walltime
        else:
            ok = min_io_on_duration(job, platform) <= ran <= job.walltime
        if not ok:
            bad.add(r.job_id)
    return bad


def naive_filler_starts(jobs, n_procs: int, total_bb: int, tick: int) -> dict[int, int]:
    """Start times under greedy arrival-order filling, recomputed every tick.

    With data movement off a job holds its resources for exactly its runtime,
    and with no reservations a job fits over its whole walltime exactly when
    it fits now, because usage only falls as running jobs end.
    """
    pending = sorted(jobs, key=lambda j: (j.submit_time, j.id))
    queue, running, starts = [], [], {}
    i, t = 0, 0
    while i < len(pending) or queue:
        running = [(end, p, b) for end, p, b in running if end > t]
        while i < len(pending) and pending[i].submit_time <= t:
            queue.append(pending[i])
            i += 1
        used_p = sum(p for _, p, _ in running)
        used_b = sum(b for _, _, b in running)
        waiting = []
        for job in queue:
            if used_p + job.n_procs <= n_procs and used_b + job.bb_total <= total_bb:
                starts[job.id] = t
                running.append((t + job.runtime, job.n_procs, job.bb_total))
                used_p += job.n_procs
                used_b += job.bb_total
            else:
                waiting.append(job)
        queue = waiting
        t += tick
    return starts


def filler_oracle(jobs, records, n_procs: int, total_bb: int, tick: int) -> set[int]:
    """io-off filler starts equal those of the naive greedy simulator."""
    expected = naive_filler_starts(jobs, n_procs, total_bb, tick)
    return {r.job_id for r in records if expected.get(r.job_id) != r.start}


def head_promises(records, head_reservations, tick: int) -> set[int]:
    """Each head job starts no later than its reserved start, rounded up to a tick."""
    starts = {r.job_id: r.start for r in records}
    return {
        hr.job_id
        for _, hr in head_reservations
        if starts.get(hr.job_id, math.inf) > ceil_to(hr.start, tick)
    }


def queued_per_tick(records, tick: int) -> dict[int, list[int]]:
    """Tick time -> ids of the jobs in the queue when that tick's scheduler ran.

    A job is queued at every tick from its submission up to and including
    the tick that starts it.
    """
    queued: dict[int, list[int]] = {}
    for r in records:
        for t in range(ceil_to(r.submit, tick), r.start + 1, tick):
            queued.setdefault(t, []).append(r.job_id)
    return queued


def plan_cycles(records, plan_stats, tick: int) -> set[int]:
    """One plan cycle per tick with a non-empty queue, each with the build count
    its queue length implies: q! if exhaustive, 189 if annealed, 9 if skipped."""
    queued = queued_per_tick(records, tick)
    ticks = sorted(queued)
    if len(ticks) != len(plan_stats):
        return {r.job_id for r in records}
    bad = set()
    for t, stats in zip(ticks, plan_stats):
        q = len(queued[t])
        if q <= EXHAUSTIVE_MAX_QUEUE:
            ok = stats.method == "exhaustive" and stats.n_builds == math.factorial(q)
        else:
            expected = SKIPPED_BUILDS if stats.annealing_skipped else ANNEAL_BUILDS
            ok = stats.method == "anneal" and stats.n_builds == expected
        if not ok:
            bad.update(queued[t])
    return bad


def recomputed_means(records) -> tuple[Fraction, Fraction]:
    """(mean wait, mean bounded slowdown) in exact arithmetic."""
    n = len(records)
    wait = sum(Fraction(r.start - r.submit) for r in records)
    bsld = 0
    for r in records:
        ran = Fraction(r.finish) - r.start
        bsld += max(Fraction(1), (r.start - r.submit + ran) / max(ran, SLOWDOWN_BOUND_S))
    return wait / n, bsld / n


def summary_means(records) -> set[int]:
    """metrics.summarize agrees with the means recomputed here."""
    wait, bsld = recomputed_means(records)
    got_wait = bbsim.metrics.summarize(records, bbsim.metrics.waiting_time).mean
    got_bsld = bbsim.metrics.summarize(records, bbsim.metrics.bounded_slowdown).mean
    if math.isclose(got_wait, wait, rel_tol=1e-9) and math.isclose(
        got_bsld, bsld, rel_tol=1e-9
    ):
        return set()
    return {r.job_id for r in records}


def check_simulation(sim, jobs, records, tick: int) -> set[int]:
    """Run every check that applies to this simulation; return the failed job ids."""
    platform = sim.platform
    jobs_by_id = {j.id: j for j in jobs}
    io_off = sim.cfg.io_model == "off"
    bad = one_record_per_job(jobs, records)
    bad |= start_times(records, tick)
    bad |= capacity(records, platform.n_procs, platform.total_bb)
    if io_off:
        bad |= durations_io_off(jobs_by_id, records)
    else:
        bad |= durations_io_on(jobs_by_id, records, platform)
    if sim.policy_name == "filler" and io_off:
        bad |= filler_oracle(jobs, records, platform.n_procs, platform.total_bb, tick)
    if sim.policy_name in ("fcfs-bb", "sjf-bb"):
        bad |= head_promises(records, sim.head_reservations, tick)
    if sim.policy_name == "plan":
        bad |= plan_cycles(records, sim.plan_stats, tick)
    if records:
        bad |= summary_means(records)
    return bad
