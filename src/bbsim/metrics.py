"""Evaluation metrics: waiting time, bounded slowdown, summaries, normalization."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, TextIO

from .policies import POLICY_NAMES

SLOWDOWN_BOUND_S = 600  # jobs shorter than 10 minutes are bounded
DEFAULT_TAIL_K = 3000

# letter-value quantile levels (median, fourths, eighths, ... sixty-fourths)
LETTER_VALUE_LEVELS = tuple(
    sorted(
        {1 / 2}
        | {1 / 2**k for k in range(2, 7)}
        | {1 - 1 / 2**k for k in range(2, 7)}
    )
)

RECORDS_HEADER = "# bbsim-records v1"
RECORD_COLUMNS = ("job_id", "submit", "start", "finish", "n_procs", "bb_total", "killed", "policy")


@dataclass(frozen=True)
class JobRecord:
    """One job's outcome; finish is exact from the engine, a float after read_records."""
    job_id: int
    submit: int
    start: int
    finish: int | Fraction | float
    n_procs: int
    bb_total: int
    killed: bool
    policy: str


@dataclass(frozen=True)
class Summary:
    count: int
    mean: float
    ci95: float
    quantiles: tuple[tuple[float, float], ...]  # (level, value), levels ascending
    tail: tuple[float, ...]  # top-k values, descending


def waiting_time(rec: JobRecord) -> float:
    return rec.start - rec.submit


def bounded_slowdown(rec: JobRecord) -> float:
    """max(1, (wait + run) / max(run, SLOWDOWN_BOUND_S)); killed jobs ran to their walltime."""
    wait = waiting_time(rec)
    run = rec.finish - rec.start
    return max(1.0, (wait + run) / max(run, SLOWDOWN_BOUND_S))


def nearest_rank_quantile(sorted_values: list[float], level: float) -> float:
    n = len(sorted_values)
    idx = max(1, math.ceil(level * n))
    return sorted_values[idx - 1]


def left_sum(values: Iterable[float]) -> float:
    """The values added left to right from 0.0, as planner.score adds: sum()
    compensates float rounding from Python 3.12 on."""
    total = 0.0
    for v in values:
        total += v
    return total


def summarize(
    records: Iterable[JobRecord],
    metric: Callable[[JobRecord], float],
    tail_k: int = DEFAULT_TAIL_K,
) -> Summary:
    values = [float(metric(r)) for r in records]
    if not values:
        raise ValueError("no records to summarize")
    n = len(values)
    mean = left_sum(values) / n
    if n > 1:
        var = left_sum((v - mean) ** 2 for v in values) / (n - 1)
        ci95 = 1.96 * math.sqrt(var) / math.sqrt(n)
    else:
        ci95 = 0.0
    ordered = sorted(values)
    quantiles = tuple(
        (level, nearest_rank_quantile(ordered, level)) for level in LETTER_VALUE_LEVELS
    )
    tail = tuple(sorted(values, reverse=True)[:tail_k])
    return Summary(count=n, mean=mean, ci95=ci95, quantiles=quantiles, tail=tail)


def normalize_by_reference(
    part_means: dict[tuple[str, int], float], reference: str
) -> dict[tuple[str, int], float]:
    """Divide each (policy, part) mean by the reference policy's mean of that part."""
    parts = {part for _, part in part_means}
    missing = [p for p in sorted(parts) if (reference, p) not in part_means]
    if missing:
        raise ValueError(f"reference policy {reference!r} missing for parts {missing}")
    return {
        (policy, part): mean / part_means[(reference, part)]
        for (policy, part), mean in part_means.items()
    }


# -- record CSV round-trip ----------------------------------------------------


def _fmt_time(x) -> str:
    f = float(x)
    return str(int(f)) if f == int(f) else repr(f)


def write_records(stream: TextIO, records: Iterable[JobRecord]) -> None:
    stream.write(RECORDS_HEADER + "\n")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(RECORD_COLUMNS)
    for r in records:
        writer.writerow(
            [
                r.job_id,
                r.submit,
                r.start,
                _fmt_time(r.finish),
                r.n_procs,
                r.bb_total,
                int(r.killed),
                r.policy,
            ]
        )


def read_records(stream: Iterator[str]) -> list[JobRecord]:
    first = next(stream, "").strip()
    if first != RECORDS_HEADER:
        raise ValueError(f"not a bbsim records file (header {first!r})")
    reader = csv.DictReader(stream)
    try:
        return _read_rows(reader)
    except csv.Error as exc:  # for example a field past csv's size limit
        # the DictReader's line_num counts only the rows it returned; its reader's is current
        raise ValueError(f"records line {reader.reader.line_num + 1}: {exc}") from exc


def _read_rows(reader: csv.DictReader) -> list[JobRecord]:
    missing = [c for c in RECORD_COLUMNS if c not in (reader.fieldnames or ())]
    if missing:
        raise ValueError(f"records file lacks column(s) {', '.join(missing)}")
    out = []
    seen: set[tuple[str, int]] = set()
    for row in reader:
        where = f"records line {reader.line_num + 1}"
        # DictReader files extra fields under the key None and fills missing ones with None
        if None in row or None in row.values():
            raise ValueError(f"{where}: expected {len(reader.fieldnames)} fields")
        try:
            r = JobRecord(
                job_id=int(row["job_id"]),
                submit=int(row["submit"]),
                start=int(row["start"]),
                finish=float(row["finish"]),
                n_procs=int(row["n_procs"]),
                bb_total=int(row["bb_total"]),
                killed=row["killed"] == "1",
                policy=row["policy"],
            )
            # only what a run can write: a finite finish, 0 <= submit <= start <= finish, a 0/1
            # flag, a job on at least one processor, a known policy, and each job once per policy
            if r.submit < 0:
                raise ValueError(f"submit must be >= 0, got {r.submit}")
            if not math.isfinite(r.finish):
                raise ValueError(f"finish must be finite, got {row['finish']!r}")
            if not r.submit <= r.start <= r.finish:
                raise ValueError(f"need submit <= start <= finish, got {r.submit}, "
                                 f"{r.start}, {row['finish']}")
            if row["killed"] not in ("0", "1"):
                raise ValueError(f"killed must be 0 or 1, got {row['killed']!r}")
            if r.n_procs < 1:
                raise ValueError(f"n_procs must be >= 1, got {r.n_procs}")
            if r.bb_total < 0:
                raise ValueError(f"bb_total must be >= 0, got {r.bb_total}")
            if r.policy not in POLICY_NAMES:
                raise ValueError(f"unknown policy {r.policy!r}")
            if (r.policy, r.job_id) in seen:
                raise ValueError(f"duplicate job {r.job_id} for policy {r.policy!r}")
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc
        seen.add((r.policy, r.job_id))
        out.append(r)
    return out
