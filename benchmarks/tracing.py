"""Per-layer spans, taken from outside the program by rebinding public names.

A Tracer replaces public functions and methods of each bbsim layer with
wrappers that time every call, inside a ``with tracer:`` block. Nothing in
bbsim is edited: the wrappers are bound where the callers look the names up
(module globals such as ``bbsim.engine.run_policy``, class attributes such as
``AvailabilityProfile.has_capacity``) and the originals are put back on
exit. Spans nest, so each span's self time is its duration minus the
time of the spans it encloses.
"""

from __future__ import annotations

import functools
import time

import bbsim.engine
import bbsim.metrics
import bbsim.planner
import bbsim.workload
from bbsim.availability import AvailabilityProfile
from bbsim.engine import FairShareLink, Simulation

# (owner, attribute, span name)
TARGETS = (
    (Simulation, "run", "engine.run"),
    (bbsim.engine, "run_policy", "policies.run_policy"),
    (bbsim.engine, "plan_schedule", "planner.plan_schedule"),
    (bbsim.engine, "allocate_nodes", "engine.allocate_nodes"),
    (bbsim.engine, "allocate_bb", "engine.allocate_bb"),
    (bbsim.planner, "build_plan", "planner.build_plan"),
    (bbsim.planner, "anneal", "planner.anneal"),
    (bbsim.planner, "exhaustive", "planner.exhaustive"),
    (AvailabilityProfile, "has_capacity", "availability.has_capacity"),
    (AvailabilityProfile, "earliest_slot", "availability.earliest_slot"),
    (AvailabilityProfile, "add", "availability.add"),
    (AvailabilityProfile, "copy", "availability.copy"),
    (AvailabilityProfile, "remove", "availability.remove"),
    (FairShareLink, "advance", "engine.link.advance"),
    (FairShareLink, "add", "engine.link.add"),
    (FairShareLink, "remove", "engine.link.remove"),
    (FairShareLink, "next_completion", "engine.link.next_completion"),
    (FairShareLink, "finished_ids", "engine.link.finished_ids"),
    (bbsim.workload, "synthetic_workload", "workload.synthetic_workload"),
    (bbsim.metrics, "summarize", "metrics.summarize"),
    (bbsim.metrics, "write_records", "metrics.write_records"),
)


class Span:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Aggregated spans and counters for the calls made inside its with block."""

    def __init__(self):
        self.spans = {name: Span() for _, _, name in TARGETS}
        self.queue_lens = {"policies.run_policy": [], "planner.plan_schedule": []}
        self.breakpoints: list[int] = []
        self.launched = 0
        self.link_peak_active = 0
        self._stack: list[list[float]] = []  # [start, time of enclosed spans]
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        """Bind the wrappers; every call from here on is recorded."""
        for owner, attr, name in TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        """Put the original functions back."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn):
        span = self.spans[name]
        stack = self._stack
        clock = time.perf_counter
        before = self._scheduler_entry if name in self.queue_lens else None
        after = {
            "policies.run_policy": self._run_policy_exit,
            "engine.link.add": self._link_add_exit,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                if before is not None:
                    before(name, args[0])
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                stack.pop()
                elapsed = clock() - frame[0]
                span.calls += 1
                span.total += elapsed
                span.self_time += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return wrapper

    # observations made inside the span they belong to

    def _scheduler_entry(self, name, state) -> None:
        self.queue_lens[name].append(len(state.queue))
        self.breakpoints.append(len(state.profile.breakpoints()))

    def _run_policy_exit(self, args, result) -> None:
        self.launched += len(result.launched)

    def _link_add_exit(self, args, result) -> None:
        self.link_peak_active = max(self.link_peak_active, len(args[0].active))

    def layer_metrics(self, n_rounds: int) -> dict[str, float]:
        """Per-layer figures per round."""
        s = self.spans

        def mean(xs):
            return sum(xs) / len(xs) if xs else 0.0

        link = [v for k, v in s.items() if k.startswith("engine.link.")]
        pol_q = self.queue_lens["policies.run_policy"]
        plan_q = self.queue_lens["planner.plan_schedule"]
        per_round = {
            "policies.run_policy.calls": s["policies.run_policy"].calls,
            "policies.run_policy.self_s": s["policies.run_policy"].self_time,
            "policies.launched": self.launched,
            "availability.has_capacity.calls": s["availability.has_capacity"].calls,
            "availability.has_capacity.s": s["availability.has_capacity"].total,
            "availability.earliest_slot.calls": s["availability.earliest_slot"].calls,
            "availability.earliest_slot.s": s["availability.earliest_slot"].total,
            "availability.add.calls": s["availability.add"].calls,
            "availability.add.self_s": s["availability.add"].self_time,
            "availability.copy.calls": s["availability.copy"].calls,
            "availability.copy.s": s["availability.copy"].total,
            "availability.remove.calls": s["availability.remove"].calls,
            "availability.remove.s": s["availability.remove"].total,
            "planner.plan_schedule.calls": s["planner.plan_schedule"].calls,
            "planner.build_plan.calls": s["planner.build_plan"].calls,
            "planner.build_plan.self_s": s["planner.build_plan"].self_time,
            "planner.anneal.calls": s["planner.anneal"].calls,
            "planner.exhaustive.calls": s["planner.exhaustive"].calls,
            "engine.self_s": s["engine.run"].self_time,
            "engine.ticks": len(pol_q) + len(plan_q),
            "engine.link.calls": sum(v.calls for v in link),
            "engine.link.s": sum(v.self_time for v in link),
            "engine.allocate.s": s["engine.allocate_nodes"].total
            + s["engine.allocate_bb"].total,
            "metrics.summarize.s": s["metrics.summarize"].total,
            "metrics.write_records.s": s["metrics.write_records"].total,
            "workload.synthetic_workload.s": s["workload.synthetic_workload"].total,
        }
        out = {k: v / n_rounds for k, v in per_round.items()}
        out.update(
            {
                "policies.queue_len_mean": mean(pol_q),
                "policies.queue_len_max": max(pol_q, default=0),
                "availability.breakpoints_per_tick_mean": mean(self.breakpoints),
                "planner.queue_len_mean": mean(plan_q),
                "engine.link.peak_active": self.link_peak_active,
            }
        )
        return out
