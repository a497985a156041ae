import hashlib
import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbsim.cli import main
from bbsim.platform import DEFAULT_BB_MODEL, LogNormalModel
from bbsim.workload import (
    JobSpec,
    SwfParseError,
    _job_rng,
    assign_phases,
    parse_swf,
    phase_durations,
    read_workload,
    synthesize_bb,
    synthetic_workload,
    write_workload,
)


def swf_record(job_id=1, submit=0, runtime=600, alloc=4, req=4, walltime=900):
    fields = [job_id, submit, 0, runtime, alloc, -1, -1, req, walltime] + [-1] * 9
    return " ".join(str(f) for f in fields)


def test_parse_basic_record():
    result = parse_swf([swf_record()])
    (job,) = result.jobs
    assert (job.submit_time, job.runtime, job.n_procs, job.walltime) == (0, 600, 4, 900)
    assert result.n_dropped == 0


def test_parse_skips_header_comments():
    text = "; MaxJobs: 3\n;\n" + swf_record() + "\n"
    assert len(parse_swf(io.StringIO(text)).jobs) == 1


def test_requested_procs_fallback_to_allocated():
    (job,) = parse_swf([swf_record(req=-1, alloc=8)]).jobs
    assert job.n_procs == 8


def test_walltime_fallback_to_runtime():
    (job,) = parse_swf([swf_record(walltime=-1)]).jobs
    assert job.walltime == job.runtime == 600


def test_invalid_records_dropped_and_counted():
    result = parse_swf([swf_record(runtime=-1), swf_record(req=-1, alloc=0),
                        swf_record(submit=-100), swf_record()])
    assert len(result.jobs) == 1
    assert result.n_dropped == 3


def test_negative_job_id_dropped_and_counted():
    result = parse_swf([swf_record(job_id=-1), swf_record(job_id=2)])
    assert [job.id for job in result.jobs] == [2]
    assert result.n_dropped == 1


def test_jobspec_rejects_negative_submit_time():
    with pytest.raises(ValueError, match="job 7: submit_time must be non-negative"):
        JobSpec(id=7, submit_time=-100, runtime=5, walltime=5, n_procs=1)


def test_malformed_field_count_reports_line():
    with pytest.raises(SwfParseError, match="line 2"):
        parse_swf([swf_record(), "1 2 3"])


def test_synthesize_bb_point_mass():
    jobs = [JobSpec(id=i, submit_time=0, runtime=60, walltime=60, n_procs=2) for i in range(5)]
    model = LogNormalModel(mu=math.log(1e9), sigma=1e-12)
    for job in synthesize_bb(jobs, model, seed=7):
        assert job.bb_per_proc == pytest.approx(1e9, abs=2)
        assert job.bb_total == 2 * job.bb_per_proc


def test_synthesize_bb_overflowing_draw_is_value_error():
    jobs = [JobSpec(id=3, submit_time=0, runtime=60, walltime=60, n_procs=2)]
    with pytest.raises(ValueError, match="job 3: burst-buffer draw overflows with mu 1000"):
        synthesize_bb(jobs, LogNormalModel(mu=1000.0, sigma=1.0), seed=7)


def test_synthesize_bb_deterministic_and_seed_sensitive():
    jobs = [JobSpec(id=i, submit_time=0, runtime=60, walltime=60, n_procs=1) for i in range(50)]
    model = LogNormalModel(mu=math.log(4e9), sigma=1.0)
    a = synthesize_bb(jobs, model, seed=1)
    b = synthesize_bb(jobs, model, seed=1)
    c = synthesize_bb(jobs, model, seed=2)
    assert a == b
    assert a != c


def test_synthesize_bb_keyed_on_job_id_not_order():
    jobs = [JobSpec(id=i, submit_time=0, runtime=60, walltime=60, n_procs=1) for i in range(20)]
    model = LogNormalModel(mu=math.log(4e9), sigma=1.0)
    full = {j.id: j.bb_per_proc for j in synthesize_bb(jobs, model, seed=3)}
    filtered = {j.id: j.bb_per_proc for j in synthesize_bb(jobs[10:], model, seed=3)}
    assert all(full[jid] == bb for jid, bb in filtered.items())


def test_synthesize_bb_law_of_large_numbers():
    # at byte scale the integer rounding is negligible for the log-mean
    mu = math.log(4e9)
    jobs = [JobSpec(id=i, submit_time=0, runtime=60, walltime=60, n_procs=1) for i in range(10**5)]
    model = LogNormalModel(mu=mu, sigma=1.0)
    out = synthesize_bb(jobs, model, seed=11)
    log_mean = float(np.mean([math.log(j.bb_per_proc) for j in out]))
    assert abs(log_mean - mu) < 0.02


def test_phase_plan_even_split():
    job = JobSpec(id=1, submit_time=0, runtime=600, walltime=600, n_procs=1, n_phases=10)
    assert phase_durations(job) == (60,) * 10


def test_phase_plan_remainder_to_last():
    job = JobSpec(id=1, submit_time=0, runtime=100, walltime=100, n_procs=1, n_phases=3)
    assert phase_durations(job) == (33, 33, 34)


def test_generate_phases_caps_at_runtime():
    job = JobSpec(id=1, submit_time=0, runtime=5, walltime=5, n_procs=1)
    for seed in range(30):
        durations = phase_durations(assign_phases([job], seed)[0])
        assert 1 <= len(durations) <= 5
        assert all(d >= 1 for d in durations)


@given(runtime=st.integers(1, 10**6), seed=st.integers(0, 1000))
@settings(max_examples=100)
def test_phase_durations_sum_to_runtime(runtime, seed):
    job = JobSpec(id=1, submit_time=0, runtime=runtime, walltime=runtime, n_procs=1)
    durations = phase_durations(assign_phases([job], seed)[0])
    assert sum(durations) == runtime
    assert all(d > 0 for d in durations)


@given(
    submit=st.integers(0, 10**6),
    runtime=st.integers(1, 10**5),
    extra=st.integers(0, 10**5),
    alloc=st.integers(-1, 128),
    req=st.integers(-1, 128),
)
def test_parsed_jobs_satisfy_invariants(submit, runtime, extra, alloc, req):
    record = swf_record(
        submit=submit, runtime=runtime, alloc=alloc, req=req, walltime=runtime + extra
    )
    result = parse_swf([record])
    for job in result.jobs:
        assert 0 < job.runtime <= job.walltime
        assert job.n_procs >= 1
        assert job.bb_total >= 0


def test_workload_file_round_trip(tmp_path):
    jobs = synthetic_workload(25, seed=5, bb_model=LogNormalModel(math.log(4e9), 1.0))
    path = tmp_path / "w.jsonl"
    with open(path, "w") as f:
        write_workload(f, jobs, meta={"seed": 5})
    with open(path) as f:
        loaded, header = read_workload(f)
    assert loaded == jobs
    assert header["seed"] == 5


def test_read_workload_rejects_unknown_job_field():
    text = (
        '{"format": "bbsim-workload", "version": 1}\n'
        '{"id": 1, "submit_time": 0, "runtime": 5, "walltime": 5, "n_procs": 1, "colour": "red"}\n'
    )
    with pytest.raises(ValueError, match="line 2: unknown job field.*colour"):
        read_workload(io.StringIO(text))


def test_read_workload_rejects_missing_job_field():
    text = '{"format": "bbsim-workload", "version": 1}\n{"id": 1, "submit_time": 0}\n'
    with pytest.raises(ValueError, match="line 2: .*runtime"):
        read_workload(io.StringIO(text))


def test_read_workload_rejects_header_that_is_not_an_object():
    with pytest.raises(ValueError, match="not a bbsim-workload file"):
        read_workload(io.StringIO("[1]\n"))


def test_read_workload_rejects_other_version():
    text = '{"format": "bbsim-workload", "version": 99}\n'
    with pytest.raises(ValueError, match="version 99"):
        read_workload(io.StringIO(text))


@pytest.mark.parametrize(
    "field, value",
    [("submit_time", 0.5), ("runtime", 5.5), ("walltime", 10.0), ("n_procs", True),
     ("bb_per_proc", "1"), ("n_phases", None), ("bb_total_bytes", 1.5), ("id", 7.0)],
)
def test_jobspec_rejects_non_integer_fields(field, value):
    fields = {"id": 7, "submit_time": 0, "runtime": 5, "walltime": 10, "n_procs": 1}
    fields[field] = value
    with pytest.raises(ValueError, match=rf"job 7(\.0)?: {field} must be an integer"):
        JobSpec(**fields)


def test_read_workload_rejects_fractional_time_with_line_number():
    text = (
        '{"format": "bbsim-workload", "version": 1}\n'
        '{"id": 1, "submit_time": 0.5, "runtime": 5, "walltime": 5, "n_procs": 1}\n'
    )
    with pytest.raises(ValueError, match="line 2: job 1: submit_time must be an integer"):
        read_workload(io.StringIO(text))


# -- pins of the generated inputs -----------------------------------------------
# The SHA-256 of each generated workload file, taken before the generator was
# last changed: a change in numpy's streams or in how bbsim seeds them fails
# here first, by name, and not only in the records pins downstream.


def workload_sha256(jobs) -> str:
    buf = io.StringIO()
    write_workload(buf, jobs)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("n_jobs, mean_interarrival, sha256", [
    # backfill-pressure, io-lifecycle and plan-anneal as benchmarks/run.py makes
    # them, before clamping and shuffling
    (500, 45.0, "9ba84fd072d7dc588b67f45a1798f1f453af64aea54ebd99b898942788f5f073"),
    (300, 90.0, "ec5eb524394c5bbd65c90ea29879755d94b3c631516117d65328dbe3448cbdc8"),
    (120, 45.0, "bad20ecdb8167f0a54b00787ebb065f9394dee5c2d7eb2fc6c0eaca61d7b770b"),
    # the 2,000-job pressure workload of the acceptance and metamorphic tests
    (2000, 45.0, "a2f0cac07c722c716dcf869f0a01256c8c05e3ad14d6825527081cea8c41b7a6"),
])
def test_synthetic_workload_pins(n_jobs, mean_interarrival, sha256):
    jobs = synthetic_workload(n_jobs, seed=42, mean_interarrival=mean_interarrival,
                              bb_model=DEFAULT_BB_MODEL)
    assert workload_sha256(jobs) == sha256


@pytest.mark.parametrize("seed, sha256", [
    (0, "4080abab386ae2f9352f7bd14436d4a1f813bd48b301845dcbc37f87cc366c77"),
    # a seed of more than one 32-bit word
    (2**40 + 3, "8efd8a3f33684a49fdc93cb17330ec541cd206325fe354b66a68477a6bc0f228"),
])
def test_convert_pins(tmp_path, seed, sha256):
    swf = tmp_path / "trace.swf"
    records = [swf_record(job_id=i, submit=37 * i, runtime=(i * 613) % 5000 + 1,
                          alloc=1 + i % 7, req=1 + i % 5, walltime=6000)
               for i in (1, 2, 3, 5, 8, 13, 21, 34, 2**32, 2**32 + 1)]
    swf.write_text("; pinned trace\n" + "\n".join(records) + "\n")
    out = tmp_path / "w.jsonl"
    assert main(["convert", str(swf), "-o", str(out), "--seed", str(seed)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


# -- the per-job seeding rule ------------------------------------------------------


@pytest.mark.parametrize("seed, job_id, stream", list(itertools.product(
    (0, 1, 2**32 - 1, 2**32, 2**64 + 5), repeat=3)))
def test_job_rng_seeds_as_numpy_seeds_the_list(seed, job_id, stream):
    ours = _job_rng(seed, job_id, stream).bit_generator.state
    assert ours == np.random.default_rng([seed, job_id, stream]).bit_generator.state


@pytest.mark.parametrize("key", [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (-(2**40), 7, 1)])
def test_job_rng_refuses_a_negative_value_as_numpy_does(key):
    with pytest.raises(ValueError):
        np.random.default_rng(list(key))
    with pytest.raises(ValueError, match="expected non-negative integer"):
        _job_rng(*key)
