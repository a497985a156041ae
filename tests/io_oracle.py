"""Independent oracles for the shared PFS link and the I/O lifecycle.

Both step in exact Fractions from each thing that happens to the next, with
no link class, no heap and nothing from the engine. The PFS bandwidth is
split equally among the transfers in flight.

transfer_finishes gives the finish times of bare transfers on the link.

lifecycle_outcomes gives the outcomes of jobs that never wait. On a platform
with room for every job, each job starts at the first scheduler tick at or
after its submission, and its life is then fixed: stage-in, compute phases
with a checkpoint dump after each but the last, one drain of each dump to
the PFS, stage-out, and a kill at the walltime. The transfers in flight are
every stage-in or stage-out, and the first of each job's drains, which run
one after another as separate transfers.
"""

from fractions import Fraction


def lifecycle_outcomes(jobs, tick, pfs_bw, compute_bw):
    """{job id: (finish, killed)} for jobs that each start at their first tick."""
    pending, running, outcome = [], [], {}
    for job in jobs:
        size = job.bb_total
        base, rem = divmod(job.runtime, job.n_phases)
        # a step is [on the PFS link, seconds or bytes left, a drain follows it]
        steps = [[True, Fraction(size), False]] if size else []
        for i in range(job.n_phases):
            last = i == job.n_phases - 1
            steps.append([False, Fraction(base + rem if last else base), False])
            if size and not last:
                steps.append([False, Fraction(size, compute_bw), True])
        if size:
            steps.append([True, Fraction(size), False])
        start = -(-job.submit_time // tick) * tick
        pending.append({"id": job.id, "size": size, "start": start,
                        "deadline": start + job.walltime, "steps": steps, "drains": []})

    def active(j):
        return j["steps"][:1] + j["drains"][:1]

    now = 0
    while pending or running:
        flows = sum(on_link for j in running for on_link, _, _ in active(j))
        rate = Fraction(pfs_bw, flows) if flows else None
        times = [j["start"] for j in pending] + [j["deadline"] for j in running]
        times += [now + (left / rate if on_link else left)
                  for j in running for on_link, left, _ in active(j)]
        t = min(times)
        for j in running:
            for step in active(j):
                step[1] -= (t - now) * rate if step[0] else t - now
        now = t
        running += [j for j in pending if j["start"] == now]
        pending = [j for j in pending if j["start"] != now]
        for j in list(running):
            for queue in (j["steps"], j["drains"]):
                if queue and queue[0][1] == 0 and queue.pop(0)[2]:
                    j["drains"].append([True, Fraction(j["size"]), False])
            if not j["steps"] and not j["drains"]:
                outcome[j["id"]] = (now, False)
                running.remove(j)
        for j in list(running):  # completions come first at equal times
            if j["deadline"] == now:
                outcome[j["id"]] = (now, True)
                running.remove(j)
    return outcome


def transfer_finishes(starts, bw):
    """Finish time of each (start time, bytes) transfer, in input order.

    Steps from each start or finish to the next; between two of them every
    transfer in flight moves bw / (transfers in flight) bytes a second.
    """
    left = {i: Fraction(size) for i, (_, size) in enumerate(starts)}
    finishes = [None] * len(starts)
    now = min((t for t, _ in starts), default=0)
    while left:
        flying = [i for i in left if starts[i][0] <= now]
        rate = Fraction(bw, len(flying)) if flying else None
        times = [starts[i][0] for i in left if starts[i][0] > now]
        times += [now + left[i] / rate for i in flying]
        t = min(times)
        for i in flying:
            left[i] -= (t - now) * rate
            if left[i] == 0:
                finishes[i] = t
                del left[i]
        now = t
    return finishes
