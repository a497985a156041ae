import io
import math
import statistics

import pytest
from hypothesis import given, strategies as st

from bbsim.metrics import (
    LETTER_VALUE_LEVELS,
    JobRecord,
    bounded_slowdown,
    nearest_rank_quantile,
    normalize_by_reference,
    read_records,
    summarize,
    waiting_time,
    write_records,
)


def rec(job_id=1, submit=0, start=0, finish=0.0, procs=1, bb=0, killed=False):
    return JobRecord(
        job_id=job_id, submit=submit, start=start, finish=finish,
        n_procs=procs, bb_total=bb, killed=killed, policy="fcfs",
    )


def test_waiting_time():
    assert waiting_time(rec(submit=100, start=250)) == 150
    assert waiting_time(rec(submit=5, start=5)) == 0


def test_bounded_slowdown_examples():
    # long job, no wait: exactly 1
    assert bounded_slowdown(rec(start=0, finish=1000)) == 1.0
    # long job, 10% wait: 1.1
    assert bounded_slowdown(rec(submit=0, start=100, finish=1100)) == pytest.approx(1.1)
    # short job: runtime replaced by the 600 s bound
    assert bounded_slowdown(rec(submit=0, start=1190, finish=1200)) == 2.0
    # tiny job with no wait would give < 1 without the floor
    assert bounded_slowdown(rec(start=0, finish=1)) == 1.0


def test_bounded_slowdown_killed_job_uses_elapsed_time():
    r = rec(submit=0, start=600, finish=1200, killed=True)
    assert bounded_slowdown(r) == 2.0


def test_nearest_rank_quantile():
    values = list(range(1, 101))
    assert nearest_rank_quantile(values, 0.5) == 50
    assert nearest_rank_quantile(values, 0.25) == 25
    assert nearest_rank_quantile(values, 0.999) == 100
    assert nearest_rank_quantile([7.0], 0.5) == 7.0
    assert nearest_rank_quantile(values, 1 / 64) == 2


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32), min_size=1))
def test_quantile_is_an_observed_value(values):
    ordered = sorted(values)
    for level in LETTER_VALUE_LEVELS:
        assert nearest_rank_quantile(ordered, level) in values


def test_summarize_identical_values():
    records = [rec(job_id=i, submit=0, start=10, finish=20) for i in range(50)]
    s = summarize(records, waiting_time)
    assert s.count == 50
    assert s.mean == 10
    assert s.ci95 == 0.0
    assert all(v == 10 for _, v in s.quantiles)


def test_summarize_mean_and_ci():
    waits = list(range(1, 101))
    records = [rec(job_id=i, submit=0, start=w) for i, w in enumerate(waits)]
    s = summarize(records, waiting_time)
    assert s.mean == statistics.mean(waits)
    expected_ci = 1.96 * statistics.stdev(waits) / math.sqrt(100)
    assert s.ci95 == pytest.approx(expected_ci)
    assert dict(s.quantiles)[0.5] == 50


def test_summarize_tail():
    records = [rec(job_id=i, submit=0, start=w) for i, w in enumerate(range(10))]
    s = summarize(records, waiting_time, tail_k=3)
    assert s.tail == (9, 8, 7)


def test_summarize_empty_raises():
    with pytest.raises(ValueError):
        summarize([], waiting_time)


def test_normalize_by_reference():
    means = {
        ("fcfs", 0): 40.0, ("sjf-bb", 0): 20.0,
        ("fcfs", 1): 9.0, ("sjf-bb", 1): 3.0,
    }
    out = normalize_by_reference(means, "sjf-bb")
    assert out[("fcfs", 0)] == 2.0
    assert out[("fcfs", 1)] == 3.0
    assert out[("sjf-bb", 0)] == 1.0


def test_normalize_missing_reference_part():
    means = {("fcfs", 0): 40.0, ("sjf-bb", 0): 20.0, ("fcfs", 1): 9.0}
    with pytest.raises(ValueError, match="parts \\[1\\]"):
        normalize_by_reference(means, "sjf-bb")


def test_records_roundtrip():
    records = [
        rec(job_id=1, submit=0, start=5, finish=17.5, procs=3, bb=10**12),
        rec(job_id=2, submit=3, start=5, finish=60, killed=True),
    ]
    buf = io.StringIO()
    write_records(buf, records)
    buf.seek(0)
    assert read_records(buf) == records


def test_records_header_is_versioned():
    buf = io.StringIO()
    write_records(buf, [rec()])
    assert buf.getvalue().splitlines()[0] == "# bbsim-records v1"


def test_read_records_rejects_unknown_header():
    buf = io.StringIO("# something else\njob_id\n")
    with pytest.raises(ValueError):
        read_records(buf)


@pytest.mark.parametrize("row", ["1,0,0", "1,0,0,10,1,0,0,fcfs,extra"])
def test_read_records_rejects_missing_or_extra_fields(row):
    buf = io.StringIO(
        "# bbsim-records v1\n"
        "job_id,submit,start,finish,n_procs,bb_total,killed,policy\n"
        "1,0,0,10,1,0,0,fcfs\n" + row + "\n"
    )
    with pytest.raises(ValueError, match="^records line 4: expected 8 fields$"):
        read_records(buf)


@pytest.mark.parametrize("row, message", [
    ("1,0,0,nan,1,0,0,fcfs", "finish must be finite, got 'nan'"),
    ("1,0,0,inf,1,0,0,fcfs", "finish must be finite, got 'inf'"),
    ("1,0,10,5,1,0,0,fcfs", "need submit <= start <= finish, got 0, 10, 5"),
    ("1,10,5,20,1,0,0,fcfs", "need submit <= start <= finish, got 10, 5, 20"),
    ("1,0,0,10,1,0,7,fcfs", "killed must be 0 or 1, got '7'"),
    ("1,0,0,abc,1,0,0,fcfs", "could not convert string to float: 'abc'"),
    ("2,0,0,10,-5,0,0,fcfs", "n_procs must be >= 1, got -5"),
    ("2,0,0,10,1,-1,0,fcfs", "bb_total must be >= 0, got -1"),
    ("1,0,100,110,1,0,0,fcfs", "duplicate job 1 for policy 'fcfs'"),
    ("2,-1900000,0,10,1,0,0,fcfs", "submit must be >= 0, got -1900000"),
    ("2,0,0,10,1,0,0,fifo", "unknown policy 'fifo'"),
    ("2,0,0,10,1,0,0,fc\0fs", "unknown policy 'fc\\x00fs'"),
])
def test_read_records_rejects_what_no_run_writes(row, message):
    buf = io.StringIO(
        "# bbsim-records v1\n"
        "job_id,submit,start,finish,n_procs,bb_total,killed,policy\n"
        "1,0,0,10,1,0,0,fcfs\n" + row + "\n"
    )
    with pytest.raises(ValueError) as excinfo:
        read_records(buf)
    assert str(excinfo.value) == f"records line 4: {message}"
