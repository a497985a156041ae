"""Workload ingestion: SWF traces, burst-buffer synthesis, phase durations, workload files."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, replace
from typing import Iterable, TextIO

import numpy as np

from .platform import LogNormalModel

SWF_FIELDS = 18
PART_SECONDS = 3 * 7 * 24 * 3600  # three weeks
N_PARTS = 16
MAX_PHASES = 10

WORKLOAD_FORMAT = "bbsim-workload"
WORKLOAD_VERSION = 1


class SwfParseError(Exception):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class JobSpec:
    id: int
    submit_time: int
    runtime: int
    walltime: int
    n_procs: int
    bb_per_proc: int = 0
    n_phases: int = 1
    # explicit aggregate request; overrides n_procs * bb_per_proc when set
    bb_total_bytes: int | None = None

    def __post_init__(self):
        for name, value in vars(self).items():
            # type(...) is int refuses bool, an int subclass, too
            if type(value) is not int and (value is not None or name != "bb_total_bytes"):
                raise ValueError(f"job {self.id!r}: {name} must be an integer, got {value!r}")
        if self.submit_time < 0:
            raise ValueError(f"job {self.id}: submit_time must be non-negative")
        if self.runtime <= 0:
            raise ValueError(f"job {self.id}: runtime must be positive")
        if self.walltime < self.runtime:
            raise ValueError(f"job {self.id}: walltime < runtime")
        if self.n_procs < 1:
            raise ValueError(f"job {self.id}: needs at least one processor")
        if self.bb_per_proc < 0 or (self.bb_total_bytes or 0) < 0:
            raise ValueError(f"job {self.id}: negative burst-buffer request")
        if not 1 <= self.n_phases <= MAX_PHASES:
            raise ValueError(f"job {self.id}: n_phases out of [1, {MAX_PHASES}]")

    @property
    def bb_total(self) -> int:
        if self.bb_total_bytes is not None:
            return self.bb_total_bytes
        return self.n_procs * self.bb_per_proc


@dataclass
class SwfParseResult:
    jobs: list[JobSpec]
    n_dropped: int


def parse_swf(stream: Iterable[str]) -> SwfParseResult:
    """Parse a Standard Workload Format trace into JobSpecs (bb fields unset).

    Field mapping (1-indexed SWF): submit=2, runtime=4, processors=8 with
    fallback to 5 when -1, walltime=9 with fallback to runtime. Records with a
    negative submit time or a non-positive runtime or processor count are
    dropped and counted.
    """
    jobs: list[JobSpec] = []
    dropped = 0
    for line_no, line in enumerate(stream, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith(";"):
            continue
        fields = stripped.split()
        if len(fields) != SWF_FIELDS:
            raise SwfParseError(line_no, f"expected {SWF_FIELDS} fields, got {len(fields)}")
        try:
            values = [int(float(f)) for f in fields]
        except (ValueError, OverflowError) as exc:  # OverflowError: a field of inf
            raise SwfParseError(line_no, str(exc)) from exc
        job_id, submit, runtime = values[0], values[1], values[3]
        n_procs = values[7] if values[7] > 0 else values[4]
        walltime = values[8] if values[8] > 0 else runtime
        if submit < 0 or runtime <= 0 or n_procs <= 0:
            dropped += 1
            continue
        jobs.append(
            JobSpec(
                id=job_id,
                submit_time=submit,
                runtime=runtime,
                walltime=max(walltime, runtime),
                n_procs=n_procs,
            )
        )
    return SwfParseResult(jobs=jobs, n_dropped=dropped)


def _job_rng(seed: int, job_id: int, stream: int) -> np.random.Generator:
    # keyed on (seed, job id), not draw order: filtering jobs never shifts samples
    return np.random.default_rng([seed, job_id, stream])


def synthesize_bb(jobs: list[JobSpec], model: LogNormalModel, seed: int) -> list[JobSpec]:
    """Assign per-processor burst-buffer requests, i.i.d. log-normal per job."""
    out = []
    for job in jobs:
        rng = _job_rng(seed, job.id, 0)
        draw = rng.lognormal(model.mu, model.sigma)
        if not math.isfinite(draw):
            raise ValueError(f"job {job.id}: burst-buffer draw overflows with mu {model.mu!r}, "
                             f"sigma {model.sigma!r}")
        bb = int(round(draw))
        out.append(replace(job, bb_per_proc=max(bb, 0)))
    return out


def phase_durations(job: JobSpec) -> tuple[int, ...]:
    """Compute time of each of a job's phases: even split, remainder to the last."""
    base, rem = divmod(job.runtime, job.n_phases)
    return (base,) * (job.n_phases - 1) + (base + rem,)


def assign_phases(jobs: list[JobSpec], seed: int) -> list[JobSpec]:
    """Draw each job's phase count in 1..10, capped so each phase lasts >= 1 s."""
    out = []
    for job in jobs:
        n = int(_job_rng(seed, job.id, 1).integers(1, MAX_PHASES + 1))
        out.append(replace(job, n_phases=min(n, job.runtime)))
    return out


def part_index(submit_time: int) -> int | None:
    """Three-week part of a submit time, or None past the last part."""
    idx = submit_time // PART_SECONDS
    return idx if idx < N_PARTS else None


# -- workload files (JSON lines, versioned header) --------------------------

_JOB_FIELDS = tuple(f.name for f in dataclasses.fields(JobSpec))


def write_workload(stream: TextIO, jobs: Iterable[JobSpec], meta: dict | None = None) -> None:
    header = {"format": WORKLOAD_FORMAT, "version": WORKLOAD_VERSION}
    if meta:
        header.update(meta)
    stream.write(json.dumps(header, sort_keys=True) + "\n")
    for job in jobs:
        stream.write(json.dumps({f: getattr(job, f) for f in _JOB_FIELDS}) + "\n")


def read_workload(stream: TextIO) -> tuple[list[JobSpec], dict]:
    header_line = stream.readline()
    if not header_line.strip():
        raise ValueError("empty workload file")
    try:
        header = json.loads(header_line)
    except RecursionError as exc:  # nested too deep to parse
        raise ValueError(f"line 1: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != WORKLOAD_FORMAT:
        raise ValueError(f"not a {WORKLOAD_FORMAT} file")
    if header.get("version") != WORKLOAD_VERSION:
        raise ValueError(
            f"unsupported {WORKLOAD_FORMAT} version {header.get('version')!r}"
            f" (expected {WORKLOAD_VERSION})"
        )
    jobs = []
    for line_no, line in enumerate(stream, start=2):
        if not line.strip():
            continue
        try:
            fields = json.loads(line)
            unknown = sorted(set(fields) - set(_JOB_FIELDS))
            if unknown:
                raise ValueError(f"unknown job field(s) {', '.join(unknown)}")
            jobs.append(JobSpec(**fields))
        # TypeError: missing fields, or not an object; RecursionError: nested too deep
        except (TypeError, ValueError, RecursionError) as exc:
            raise ValueError(f"line {line_no}: {exc}") from exc
    return jobs, header


# -- synthetic workloads (tests and demos) -----------------------------------

SYNTHETIC_RUNTIME_RANGE = (60, 1200)  # seconds, drawn log-uniformly
SYNTHETIC_WALLTIME_FACTOR = 2.0  # walltime is runtime times uniform [1, this)


def synthetic_workload(
    n_jobs: int,
    seed: int,
    *,
    mean_interarrival: float = 30.0,
    max_procs: int = 32,
    bb_model: LogNormalModel | None = None,
) -> list[JobSpec]:
    """Poisson arrivals, log-uniform runtimes, geometric-ish processor counts."""
    rng = np.random.default_rng(seed)
    lo, hi = SYNTHETIC_RUNTIME_RANGE
    t = 0.0
    jobs: list[JobSpec] = []
    for i in range(n_jobs):
        t += rng.exponential(mean_interarrival)
        runtime = int(round(math.exp(rng.uniform(math.log(lo), math.log(hi)))))
        runtime = max(runtime, 1)
        stretch = rng.uniform(1.0, SYNTHETIC_WALLTIME_FACTOR)
        walltime = max(runtime, int(round(runtime * stretch)))
        n_procs = min(int(2 ** rng.integers(0, int(math.log2(max_procs)) + 1)), max_procs)
        jobs.append(
            JobSpec(
                id=i + 1,
                submit_time=int(t),
                runtime=runtime,
                walltime=walltime,
                n_procs=n_procs,
            )
        )
    if bb_model is not None:
        jobs = synthesize_bb(jobs, bb_model, seed)
    return assign_phases(jobs, seed)
