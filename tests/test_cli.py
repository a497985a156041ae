import hashlib
import json
import os
from dataclasses import replace

import pytest

from bbsim import cli
from bbsim.cli import CONFIG_KEYS, build_parser, main
from bbsim.engine import SimConfig, Simulation
from bbsim.metrics import read_records
from bbsim.planner import MAX_ALPHA
from bbsim.platform import DEFAULT_BB_MODEL, PlatformConfig, build_platform
from bbsim.workload import (
    JobSpec, PART_SECONDS, read_workload, synthetic_workload, write_workload,
)

from conftest import TABLE1, table1_job


def swf_line(job_id, submit, runtime, procs, walltime=-1):
    fields = [job_id, submit, 0, runtime, procs, -1, -1, procs, walltime] + [-1] * 9
    return " ".join(str(x) for x in fields)


@pytest.fixture
def swf_file(tmp_path):
    path = tmp_path / "trace.swf"
    lines = ["; test trace", swf_line(1, 0, 100, 2, 200), swf_line(2, 30, 50, 1),
             swf_line(3, 60, -1, 4)]  # job 3 has no runtime and is dropped
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def table1_workload(tmp_path):
    path = tmp_path / "table1.jsonl"
    with open(path, "w") as f:
        write_workload(f, [table1_job(*row) for row in TABLE1])
    return path


@pytest.fixture
def table1_config(tmp_path):
    path = tmp_path / "platform.json"
    path.write_text(json.dumps({
        "platform": {
            "n_compute_nodes": 4, "n_storage_nodes": 1,
            "bb_capacity_total": 10 * 10**12,
        }
    }))
    return path


def simulate_table1(tmp_path, workload, config, out_name, policy="fcfs-easy",
                    manifest_name="manifest.json", trace=None):
    argv = [
        "simulate", "--workload", str(workload), "--config", str(config),
        "--policy", policy, "--io-model", "off", "--tick", "60",
        "-o", str(tmp_path / out_name), "--manifest", str(tmp_path / manifest_name),
    ]
    if trace:
        argv += ["--trace", str(tmp_path / trace)]
    assert main(argv) == 0
    return tmp_path / out_name


def test_convert_roundtrip(tmp_path, swf_file, capsys):
    out = tmp_path / "workload.jsonl"
    assert main(["convert", str(swf_file), "-o", str(out), "--seed", "5"]) == 0
    msg = capsys.readouterr().out
    assert "2 jobs" in msg and "1 records dropped" in msg
    with open(out) as f:
        jobs, meta = read_workload(f)
    assert [j.id for j in jobs] == [1, 2]
    assert jobs[0].walltime == 200
    assert jobs[1].walltime == 50  # falls back to runtime
    assert all(j.bb_per_proc > 0 for j in jobs)
    assert all(1 <= j.n_phases <= 10 for j in jobs)
    assert meta["seed"] == 5


def test_convert_drops_a_negative_job_id(tmp_path, capsys):
    path = tmp_path / "trace.swf"
    path.write_text(swf_line(-1, 0, 100, 2) + "\n" + swf_line(2, 30, 50, 1) + "\n")
    out = tmp_path / "workload.jsonl"
    assert main(["convert", str(path), "-o", str(out)]) == 0
    msg = capsys.readouterr().out
    assert "1 jobs" in msg and "1 records dropped" in msg
    with open(out) as f:
        jobs, _ = read_workload(f)
    assert [j.id for j in jobs] == [2]


def test_convert_is_deterministic(tmp_path, swf_file):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    main(["convert", str(swf_file), "-o", str(a), "--seed", "5"])
    main(["convert", str(swf_file), "-o", str(b), "--seed", "5"])
    assert a.read_bytes().replace(b'"source": "trace.swf", ', b"") \
        == b.read_bytes().replace(b'"source": "trace.swf", ', b"")


def test_convert_corrupt_line_reports_line_number(tmp_path, capsys):
    path = tmp_path / "bad.swf"
    path.write_text(swf_line(1, 0, 100, 2) + "\nnot an swf record\n")
    assert main(["convert", str(path), "-o", str(tmp_path / "out.jsonl")]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err


def test_convert_infinite_field_is_input_error(tmp_path, capsys):
    path = tmp_path / "inf.swf"
    path.write_text(swf_line(1, "inf", 100, 2) + "\n")
    out = tmp_path / "out.jsonl"
    assert main(["convert", str(path), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: line 1: cannot convert float infinity to integer\n"
    assert not out.exists()


def test_convert_missing_file(tmp_path, capsys):
    assert main(["convert", str(tmp_path / "nope.swf"),
                 "-o", str(tmp_path / "out.jsonl")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("mu, message", [
    ("1000", "burst-buffer draw overflows with mu 1000.0"),
    ("nan", "mu must be a real number, got nan"),
])
def test_convert_bad_request_model_is_input_error(tmp_path, swf_file, capsys, mu, message):
    assert main(["convert", str(swf_file), "-o", str(tmp_path / "out.jsonl"),
                 "--mu", mu]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


def test_simulate_golden_fixture(tmp_path, table1_workload, table1_config):
    out = simulate_table1(tmp_path, table1_workload, table1_config, "records.csv")
    with open(out) as f:
        records = read_records(f)
    starts = {r.job_id: r.start for r in records}
    assert starts[1] == 0 and starts[2] == 0
    assert starts[6] == 180
    assert starts[3] == 600 and starts[7] == 600


def test_simulate_reruns_are_byte_identical(tmp_path, table1_workload, table1_config):
    a = simulate_table1(tmp_path, table1_workload, table1_config, "a.csv",
                        manifest_name="a.json")
    b = simulate_table1(tmp_path, table1_workload, table1_config, "b.csv",
                        manifest_name="b.json")
    assert a.read_bytes() == b.read_bytes()


def test_simulate_from_manifest(tmp_path, table1_workload, table1_config):
    first = simulate_table1(tmp_path, table1_workload, table1_config, "first.csv")
    replay = tmp_path / "replay.csv"
    assert main(["simulate", "--from-manifest", str(tmp_path / "manifest.json"),
                 "-o", str(replay)]) == 0
    assert replay.read_bytes() == first.read_bytes()


def test_from_manifest_detects_changed_workload(tmp_path, table1_workload,
                                                table1_config, capsys):
    simulate_table1(tmp_path, table1_workload, table1_config, "first.csv")
    with open(table1_workload, "a") as f:
        f.write("\n")
    assert main(["simulate", "--from-manifest", str(tmp_path / "manifest.json"),
                 "-o", str(tmp_path / "replay.csv")]) == 1
    assert "changed" in capsys.readouterr().err


def test_simulate_trace_keeps_the_lines_written_before_a_failure(
        tmp_path, table1_workload, table1_config, capsys, monkeypatch):
    simulate_table1(tmp_path, table1_workload, table1_config, "full.csv", trace="full.jsonl")
    full = (tmp_path / "full.jsonl").read_text().splitlines()
    finish, calls = Simulation._finish, 0

    def failing_finish(self, rj, now, killed):  # the third job to end fails the run
        nonlocal calls
        calls += 1
        assert calls < 3, "injected failure"
        finish(self, rj, now, killed)

    monkeypatch.setattr(Simulation, "_finish", failing_finish)
    trace = tmp_path / "cut.jsonl"
    assert main(["simulate", "--workload", str(table1_workload), "--config", str(table1_config),
                 "--policy", "fcfs-easy", "--io-model", "off", "--trace", str(trace),
                 "-o", str(tmp_path / "cut.csv"), "--manifest", str(tmp_path / "m.json")]) == 2
    assert "injected failure" in capsys.readouterr().err
    third_end = [i for i, line in enumerate(full) if '"event": "finish"' in line][2]
    assert trace.read_text().splitlines() == full[:third_end]


def test_simulate_bad_trace_path_fails_before_the_run(tmp_path, table1_workload,
                                                      table1_config, capsys):
    records = tmp_path / "r.csv"
    assert main(["simulate", "--workload", str(table1_workload), "--config", str(table1_config),
                 "--trace", str(tmp_path / "no" / "trace.jsonl"), "-o", str(records),
                 "--manifest", str(tmp_path / "m.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not records.exists()


@pytest.mark.parametrize("option", ["-o", "--manifest"])
def test_simulate_bad_output_path_fails_before_the_run(tmp_path, table1_workload,
                                                       table1_config, capsys, monkeypatch,
                                                       option):
    def no_run(self):
        pytest.fail("the simulation ran")

    monkeypatch.setattr(Simulation, "run", no_run)
    paths = {"-o": str(tmp_path / "r.csv"), "--manifest": str(tmp_path / "m.json")}
    paths[option] = str(tmp_path / "nodir" / "out")
    assert main(["simulate", "--workload", str(table1_workload), "--config", str(table1_config),
                 "-o", paths["-o"], "--manifest", paths["--manifest"]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "nodir" in err


@pytest.mark.parametrize("option", ["-o", "--manifest"])
def test_simulate_output_path_that_is_a_directory_fails_before_the_run(
        tmp_path, table1_workload, table1_config, capsys, monkeypatch, option):
    def no_run(self):
        pytest.fail("the simulation ran")

    monkeypatch.setattr(Simulation, "run", no_run)
    paths = {"-o": str(tmp_path / "r.csv"), "--manifest": str(tmp_path / "m.json")}
    paths[option] = str(tmp_path)
    assert main(["simulate", "--workload", str(table1_workload), "--config", str(table1_config),
                 "-o", paths["-o"], "--manifest", paths["--manifest"]]) == 1
    assert capsys.readouterr().err == f"error: {tmp_path} is a directory\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["platform.json", "table1.jsonl"]


@pytest.mark.parametrize("failure", [KeyboardInterrupt, AssertionError])
def test_a_failed_simulate_keeps_the_earlier_records_and_manifest(
        tmp_path, table1_workload, table1_config, monkeypatch, failure):
    """A run stopped by Ctrl-C, or one that exits 2, leaves the records and the
    manifest of the run before it byte for byte, and no temporary file; the
    next run that succeeds replaces them."""
    records = simulate_table1(tmp_path, table1_workload, table1_config, "r.csv")
    manifest = tmp_path / "manifest.json"
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}

    def failing_run(self):
        raise failure("stopped")

    monkeypatch.setattr(Simulation, "run", failing_run)
    argv = ["simulate", "--workload", str(table1_workload), "--config", str(table1_config),
            "--policy", "fcfs", "--io-model", "off", "-o", str(records),
            "--manifest", str(manifest)]
    if failure is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    else:
        assert main(argv) == 2
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before
    monkeypatch.undo()
    assert main(argv) == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(before)
    assert json.loads(manifest.read_text())["config"]["policy"] == "fcfs"


@pytest.mark.parametrize("first, second", [
    ("--workload", "-o"), ("--workload", "--manifest"), ("--workload", "--trace"),
    ("--config", "-o"), ("--config", "--manifest"), ("--config", "--trace"),
    ("-o", "--manifest"), ("-o", "--trace"), ("--manifest", "--trace"),
])
def test_simulate_refuses_an_output_on_another_path_and_touches_no_file(
        tmp_path, table1_workload, table1_config, capsys, first, second):
    """An output on an input or on another output would leave only the file
    written last; the run is refused before any file is opened."""
    paths = {"--workload": str(table1_workload), "--config": str(table1_config),
             "-o": str(tmp_path / "r.csv"), "--manifest": str(tmp_path / "m.json"),
             "--trace": str(tmp_path / "t.jsonl")}
    argv = ["simulate", "--io-model", "off"]
    assert main(argv + [arg for flag_path in paths.items() for arg in flag_path]) == 0
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    directory, name = os.path.split(paths[first])
    paths[second] = os.path.join(directory, ".", name)  # another spelling of the same file
    capsys.readouterr()
    assert main(argv + [arg for flag_path in paths.items() for arg in flag_path]) == 1
    assert capsys.readouterr().err == (
        f"error: {first} and {second} name the same file: {paths[second]}\n")
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


@pytest.mark.parametrize("flag", ["-o", "--trace"])
def test_from_manifest_refuses_an_output_on_the_manifest(tmp_path, table1_workload,
                                                         table1_config, capsys, flag):
    simulate_table1(tmp_path, table1_workload, table1_config, "first.csv")
    manifest = tmp_path / "manifest.json"
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    argv = ["simulate", "--from-manifest", str(manifest), "-o", str(tmp_path / "replay.csv")]
    assert main(argv + [flag, str(manifest)]) == 1
    assert capsys.readouterr().err == (
        f"error: --from-manifest and {flag} name the same file: {manifest}\n")
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


@pytest.mark.parametrize("given", [
    *([flag_value] for flag_value in [
        ("--workload", "table1.jsonl"), ("--config", "platform.json"),
        ("--policy", "fcfs-bb"), ("--alpha", "2.0"), ("--seed", "0"), ("--io-model", "on"),
        ("--tick", "60"), ("--manifest", "manifest.json"),
    ]),
    [("--manifest", "new.json"), ("--policy", "plan"), ("--manifest", "m.json")],
])
def test_from_manifest_refuses_a_flag_it_would_ignore(tmp_path, table1_workload, table1_config,
                                                      capsys, given):
    """The manifest's config is the run's, and a replay writes no manifest: a
    flag that would set either is refused, also when it is given its default."""
    simulate_table1(tmp_path, table1_workload, table1_config, "first.csv")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    capsys.readouterr()
    argv = ["simulate", "--from-manifest", str(tmp_path / "manifest.json"),
            "-o", str(tmp_path / "replay.csv")]
    assert main(argv + [arg for flag_value in given for arg in flag_value]) == 1
    flags = ", ".join(dict.fromkeys(flag for flag, _ in given))
    assert capsys.readouterr().err == (
        f"error: --from-manifest runs the manifest as it is and takes no {flags}\n")
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


@pytest.mark.parametrize("command, source", [("convert", "swf"), ("gantt", "trace")])
def test_convert_and_gantt_refuse_an_output_on_their_input(tmp_path, swf_file, table1_workload,
                                                           table1_config, capsys, monkeypatch,
                                                           command, source):
    """An output on the input would replace it; the command is refused before it
    opens any file."""
    if command == "convert":
        path = swf_file
    else:
        simulate_table1(tmp_path, table1_workload, table1_config, "r.csv", trace="t.jsonl")
        path = tmp_path / "t.jsonl"
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    output = os.path.join(path.parent, ".", path.name)  # another spelling of the same file
    capsys.readouterr()
    monkeypatch.setattr(cli, "open", lambda *args: pytest.fail("opened a file"), raising=False)
    assert main([command, str(path), "-o", output]) == 1
    assert capsys.readouterr().err == f"error: {source} and -o name the same file: {output}\n"
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_manifest_hashes_the_workload_bytes_the_run_read(tmp_path, table1_workload,
                                                         table1_config, capsys, monkeypatch):
    """A workload edited while the run goes does not get into the manifest: its
    hash is that of the bytes the jobs were read from, so a replay of the
    edited file is refused."""
    read = hashlib.sha256(table1_workload.read_bytes()).hexdigest()
    run = Simulation.run

    def run_and_add_a_job(self):
        with open(table1_workload, "a") as f:
            f.write(json.dumps({"id": 99, "submit_time": 0, "runtime": 60, "walltime": 60,
                                "n_procs": 1, "bb_total_bytes": 0}) + "\n")
        return run(self)

    monkeypatch.setattr(Simulation, "run", run_and_add_a_job)
    simulate_table1(tmp_path, table1_workload, table1_config, "first.csv")
    assert json.loads((tmp_path / "manifest.json").read_text())["workload_sha256"] == read
    monkeypatch.undo()
    with open(table1_workload) as f:
        assert 99 in {job.id for job in read_workload(f)[0]}  # the edit is a valid job
    capsys.readouterr()
    assert main(["simulate", "--from-manifest", str(tmp_path / "manifest.json"),
                 "-o", str(tmp_path / "replay.csv")]) == 1
    assert capsys.readouterr().err == (
        "error: workload file changed since the manifest was written\n")
    assert not (tmp_path / "replay.csv").exists()


def test_simulate_non_plan_policy_checks_alpha(tmp_path, table1_workload, capsys):
    """alpha is checked under every policy, so no manifest holds a NaN, which
    is not JSON."""
    assert main(["simulate", "--workload", str(table1_workload), "--policy", "fcfs",
                 "--alpha", "nan", "-o", str(tmp_path / "r.csv"),
                 "--manifest", str(tmp_path / "m.json")]) == 1
    assert capsys.readouterr().err == "error: alpha must be a real number, got nan\n"
    assert [path.name for path in tmp_path.iterdir()] == ["table1.jsonl"]


def test_simulate_defaults_are_the_config_defaults(monkeypatch):
    monkeypatch.setenv("BBSIM_SEED", "7")
    args = build_parser().parse_args(["simulate", "-o", "r.csv"])
    sim = SimConfig()
    assert (args.alpha, args.io_model, args.tick_period_s) == (
        sim.alpha, sim.io_model, sim.tick_period_s)
    assert args.seed == 7


def test_simulate_requires_workload(tmp_path, capsys):
    assert main(["simulate", "-o", str(tmp_path / "out.csv")]) == 1
    assert "--workload" in capsys.readouterr().err


def test_simulate_oversized_job_is_input_error(tmp_path, table1_config, capsys):
    workload = tmp_path / "big.jsonl"
    with open(workload, "w") as f:
        write_workload(f, [table1_job(1, 0, 1, 5, 1)])  # 5 cpus > 4
    assert main(["simulate", "--workload", str(workload), "--config",
                 str(table1_config), "-o", str(tmp_path / "out.csv"),
                 "--manifest", str(tmp_path / "m.json")]) == 1
    assert "exceed" in capsys.readouterr().err


def write_raw_workload(path, header, job_lines):
    lines = [json.dumps(header)] + [json.dumps(job) for job in job_lines]
    path.write_text("\n".join(lines) + "\n")
    return path


def simulate_exit_code(tmp_path, workload, config):
    return main(["simulate", "--workload", str(workload), "--config", str(config),
                 "-o", str(tmp_path / "out.csv"), "--manifest", str(tmp_path / "m.json")])


JOB = {"id": 1, "submit_time": 0, "runtime": 5, "walltime": 5, "n_procs": 1}


def test_simulate_unknown_job_field_is_input_error(tmp_path, table1_config, capsys):
    workload = write_raw_workload(tmp_path / "w.jsonl",
                                  {"format": "bbsim-workload", "version": 1},
                                  [dict(JOB, colour="red")])
    assert simulate_exit_code(tmp_path, workload, table1_config) == 1
    assert "colour" in capsys.readouterr().err


def test_simulate_wrong_workload_version_is_input_error(tmp_path, table1_config, capsys):
    workload = write_raw_workload(tmp_path / "w.jsonl",
                                  {"format": "bbsim-workload", "version": 99}, [JOB])
    assert simulate_exit_code(tmp_path, workload, table1_config) == 1
    assert "version 99" in capsys.readouterr().err


@pytest.mark.parametrize("second_submit", [0, 500])
def test_simulate_duplicate_job_ids_is_input_error(tmp_path, table1_config, capsys,
                                                   second_submit):
    # overlapping duplicates used to fail mid-run; disjoint ones gave two records
    workload = write_raw_workload(tmp_path / "w.jsonl",
                                  {"format": "bbsim-workload", "version": 1},
                                  [JOB, dict(JOB, submit_time=second_submit)])
    assert simulate_exit_code(tmp_path, workload, table1_config) == 1
    assert "duplicate job id 1" in capsys.readouterr().err


def test_simulate_fractional_times_are_input_error(tmp_path, table1_config, capsys):
    # half-second times would otherwise run and reach the records as floats
    workload = write_raw_workload(tmp_path / "w.jsonl",
                                  {"format": "bbsim-workload", "version": 1},
                                  [dict(JOB, submit_time=0.5, runtime=5.5, walltime=6)])
    argv = ["simulate", "--workload", str(workload), "--config", str(table1_config),
            "--io-model", "off", "-o", str(tmp_path / "out.csv"),
            "--manifest", str(tmp_path / "m.json")]
    assert main(argv) == 1
    assert "job 1: submit_time must be an integer" in capsys.readouterr().err


def test_simulate_bandwidth_above_2_to_64_is_input_error(tmp_path, table1_workload, capsys):
    # the lcm of two such bandwidths made event times too large for a float
    config = tmp_path / "platform.json"
    config.write_text(json.dumps({"platform": {
        "n_compute_nodes": 4, "n_storage_nodes": 1, "bb_capacity_total": 10 * 10**12,
        "compute_link_bw": 10**320, "pfs_link_bw": 10**320 + 1,
    }}))
    assert simulate_exit_code(tmp_path, table1_workload, config) == 1
    assert capsys.readouterr().err == "error: bandwidths must be at most 2**64 B/s\n"


def test_simulate_negative_submit_time_is_input_error(tmp_path, table1_config, capsys):
    # the link's clock starts at 0, so with io on this used to end as an internal error
    workload = write_raw_workload(tmp_path / "w.jsonl",
                                  {"format": "bbsim-workload", "version": 1},
                                  [dict(JOB, submit_time=-100)])
    argv = ["simulate", "--workload", str(workload), "--config", str(table1_config),
            "--io-model", "on", "-o", str(tmp_path / "out.csv"),
            "--manifest", str(tmp_path / "m.json")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "job 1: submit_time must be non-negative" in err


@pytest.mark.parametrize("document, message", [
    ({"platform": {"bogus": 1}}, "bogus"),
    ({"platform": {"bb_request_model": {"mu": 1.0}}}, "sigma"),
    ({"platform": {"groups": 3}}, "groups"),
    ({"platform": [4]}, "must be a JSON object"),
    ([4], "must hold a JSON object"),
    ({"platform": {"n_compute_nodes": "96"}}, "n_compute_nodes must be an integer"),
    ({"platform": {"bb_request_model": {"mu": "x", "sigma": 1.0}}}, "mu must be a real number"),
    ({"platform": {"bb_request_model": {"mu": 1000, "sigma": 1.0}}},
     "capacity overflows with mu 1000, sigma 1.0"),
    ({"platfrom": {"n_compute_nodes": 4}}, "unknown key(s) 'platfrom'"),
])
def test_simulate_bad_platform_config_is_input_error(tmp_path, table1_workload, capsys,
                                                     document, message):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(document))
    assert simulate_exit_code(tmp_path, table1_workload, config) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize("manifest", [{}, {"config": {}}, []])
def test_from_manifest_without_config_is_input_error(tmp_path, capsys, manifest):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert main(["simulate", "--from-manifest", str(path),
                 "-o", str(tmp_path / "out.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "workload_sha256" in err


@pytest.mark.parametrize("config, message", [
    ({}, "lacks 'platform', 'workload'"),
    ([], "'config' must be a JSON object"),
])
def test_from_manifest_bad_config_is_input_error(tmp_path, capsys, config, message):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"config": config, "workload_sha256": "x"}))
    assert main(["simulate", "--from-manifest", str(path),
                 "-o", str(tmp_path / "out.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


def test_from_manifest_names_each_missing_key(tmp_path, table1_workload, table1_config,
                                              capsys):
    simulate_table1(tmp_path, table1_workload, table1_config, "first.csv")
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert sorted(manifest["config"]) == sorted(CONFIG_KEYS)
    for key in CONFIG_KEYS:
        config = {k: v for k, v in manifest["config"].items() if k != key}
        path = tmp_path / f"no-{key}.json"
        path.write_text(json.dumps({**manifest, "config": config}))
        assert main(["simulate", "--from-manifest", str(path),
                     "-o", str(tmp_path / "out.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"lacks '{key}'" in err


@pytest.mark.parametrize("key, value", [
    ("tick_period_s", 1.5), ("tick_period_s", True), ("tick_period_s", "60"),
    ("seed", 1.5), ("seed", "abc"), ("seed", True),
])
def test_from_manifest_non_integer_tick_or_seed_is_input_error(
        tmp_path, table1_workload, table1_config, capsys, key, value):
    simulate_table1(tmp_path, table1_workload, table1_config, "first.csv")
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["config"][key] = value
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["simulate", "--from-manifest", str(path),
                 "-o", str(tmp_path / "out.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{key} must be an integer" in err


@pytest.mark.parametrize("key, value, message", [
    ("alpha", "2", "alpha must be a real number"),
    ("alpha", 100.0, f"alpha must be in (0, {MAX_ALPHA}], got 100.0"),
])
def test_from_manifest_wrong_anneal_field_type_is_input_error(
        tmp_path, table1_workload, table1_config, capsys, key, value, message):
    simulate_table1(tmp_path, table1_workload, table1_config, "first.csv", policy="plan")
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["config"][key] = value
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["simulate", "--from-manifest", str(path),
                 "-o", str(tmp_path / "out.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("key, value, message", [
    ("workload", ["table1.jsonl"], "'workload' must be a file path"),
    ("policy", ["fcfs"], "unknown policy ['fcfs']"),
    ("policy", "fifo", "unknown policy 'fifo'"),
])
def test_from_manifest_bad_workload_or_policy_is_input_error(
        tmp_path, table1_workload, table1_config, capsys, key, value, message):
    simulate_table1(tmp_path, table1_workload, table1_config, "first.csv")
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["config"][key] = value
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["simulate", "--from-manifest", str(path),
                 "-o", str(tmp_path / "out.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_from_manifest_unknown_config_key_is_input_error(
        tmp_path, table1_workload, table1_config, capsys):
    """Misspelt keys are refused, not run as if absent, as --config refuses them."""
    simulate_table1(tmp_path, table1_workload, table1_config, "first.csv")
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["config"].update(platfrom={"n_compute_nodes": 4}, io_modle="on")
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["simulate", "--from-manifest", str(path),
                 "-o", str(tmp_path / "out.csv")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: config: unknown key(s) 'io_modle', 'platfrom'\n"
    assert not (tmp_path / "out.csv").exists()


DEEP_JSON = "[" * 200_000 + "]" * 200_000


@pytest.mark.parametrize("kind", ["workload", "config", "manifest"])
def test_simulate_json_nested_too_deep_is_input_error(tmp_path, table1_workload,
                                                      table1_config, capsys, kind):
    path = tmp_path / "deep.json"
    argv = ["simulate", "-o", str(tmp_path / "out.csv")]
    if kind == "workload":
        path.write_text(table1_workload.read_text() + DEEP_JSON + "\n")
        argv += ["--workload", str(path), "--manifest", str(tmp_path / "m.json")]
    else:
        path.write_text(DEEP_JSON)
        argv += (["--workload", str(table1_workload), "--config", str(path),
                  "--manifest", str(tmp_path / "m.json")]
                 if kind == "config" else ["--from-manifest", str(path)])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "maximum recursion depth exceeded" in err
    assert not (tmp_path / "out.csv").exists()


@pytest.fixture
def pressure_prefix(tmp_path):
    """The first 40 jobs of the pressure workload, buffer requests cut to capacity."""
    cap = build_platform(PlatformConfig()).total_bb
    jobs = synthetic_workload(40, seed=42, mean_interarrival=45.0, bb_model=DEFAULT_BB_MODEL)
    path = tmp_path / "pressure40.jsonl"
    with open(path, "w") as f:
        write_workload(f, [replace(j, bb_per_proc=min(j.bb_per_proc, cap // j.n_procs))
                           for j in jobs])
    return path


def simulate_plan(tmp_path, workload, alpha):
    return main(["simulate", "--workload", str(workload), "--policy", "plan",
                 "--io-model", "off", "--alpha", str(alpha),
                 "-o", str(tmp_path / "plan.csv"), "--manifest", str(tmp_path / "m.json")])


def test_plan_alpha_above_bound_is_input_error(tmp_path, pressure_prefix, capsys):
    """Waits of this run to the 100th overflow a float; the run is refused up front."""
    assert simulate_plan(tmp_path, pressure_prefix, 100) == 1
    err = capsys.readouterr().err
    assert err == f"error: alpha must be in (0, {MAX_ALPHA}], got 100.0\n"
    assert not (tmp_path / "plan.csv").exists()


def test_plan_alpha_at_bound_runs(tmp_path, pressure_prefix):
    assert simulate_plan(tmp_path, pressure_prefix, MAX_ALPHA) == 0
    with open(tmp_path / "plan.csv") as f:
        assert len(read_records(f)) == 40


def test_from_manifest_replays_a_manifest_with_the_old_schedule_keys(tmp_path, pressure_prefix,
                                                                    capsys):
    """Manifests written while the annealing schedule could be set carry it;
    they replay if it is the fixed one and are refused, naming the key, if not."""
    assert simulate_plan(tmp_path, pressure_prefix, 2) == 0
    manifest = json.loads((tmp_path / "m.json").read_text())
    manifest["config"].update(sa_r=0.9, sa_n=30, sa_m=6)
    old = tmp_path / "old.json"
    old.write_text(json.dumps(manifest))
    replay = tmp_path / "replay.csv"
    assert main(["simulate", "--from-manifest", str(old), "-o", str(replay)]) == 0
    assert replay.read_bytes() == (tmp_path / "plan.csv").read_bytes()
    manifest["config"]["sa_n"] = 31
    old.write_text(json.dumps(manifest))
    capsys.readouterr()
    replay.unlink()
    assert main(["simulate", "--from-manifest", str(old), "-o", str(replay)]) == 1
    assert capsys.readouterr().err == (
        f"error: {old}: config 'sa_n' must be 30: the annealing schedule is fixed\n")
    assert not replay.exists()


def test_plan_workload_whose_waits_could_reach_2_to_53_is_input_error(tmp_path, capsys):
    """One full-width job of walltime 10**20 s, then seven small jobs: at
    alpha 16 their waits overflow the plan score, so the run is refused."""
    jobs = [JobSpec(id=1, submit_time=0, runtime=10**20, walltime=10**20, n_procs=96)] + [
        JobSpec(id=i, submit_time=i, runtime=60 * i, walltime=60 * i, n_procs=i)
        for i in range(2, 9)
    ]
    workload = tmp_path / "huge.jsonl"
    with open(workload, "w") as f:
        write_workload(f, jobs)
    assert simulate_plan(tmp_path, workload, MAX_ALPHA) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: workload too long: ") and err.count("\n") == 1
    assert not (tmp_path / "plan.csv").exists()


def test_analyze_split_drops_records_past_the_last_part(tmp_path):
    # the second record is submitted in part 17, past the sixteen parts
    records = tmp_path / "r.csv"
    records.write_text(
        "# bbsim-records v1\n"
        "job_id,submit,start,finish,n_procs,bb_total,killed,policy\n"
        "1,0,0,10,1,0,0,fcfs\n"
        f"2,{17 * PART_SECONDS},{17 * PART_SECONDS},{17 * PART_SECONDS + 10},1,0,0,fcfs\n"
    )
    outdir = tmp_path / "analysis"
    assert main(["analyze", str(records), "--split", "-o", str(outdir)]) == 0
    rows = (outdir / "summary.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:4] for row in rows] == [
        ["fcfs", "0", "waiting_time", "1"], ["fcfs", "0", "bounded_slowdown", "1"]]


def test_analyze_outputs(tmp_path, table1_workload, table1_config):
    paths = []
    for policy in ("fcfs-easy", "sjf-bb"):
        paths.append(simulate_table1(tmp_path, table1_workload, table1_config,
                                     f"{policy}.csv", policy=policy,
                                     manifest_name=f"{policy}.json"))
    outdir = tmp_path / "analysis"
    assert main(["analyze", *map(str, paths), "--split", "--reference", "sjf-bb",
                 "-o", str(outdir)]) == 0
    summary = (outdir / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("policy,part,metric,count,mean,ci95,")
    assert any(line.startswith("fcfs-easy,0,waiting_time,8,") for line in summary)
    tail = (outdir / "tail.csv").read_text().splitlines()
    assert tail[0] == "policy,metric,rank,value"
    norm = (outdir / "normalized.csv").read_text().splitlines()
    ref_rows = [l for l in norm[1:] if l.startswith("sjf-bb,")]
    assert ref_rows and all(l.endswith(",1.0") for l in ref_rows)


def analyze_writes_nothing(tmp_path, table1_workload, table1_config, capsys, flags, message):
    path = simulate_table1(tmp_path, table1_workload, table1_config, "r.csv")
    capsys.readouterr()
    outdir = tmp_path / "analysis"
    outdir.mkdir()
    assert main(["analyze", str(path), *flags, "-o", str(outdir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert list(outdir.iterdir()) == []


def test_analyze_reference_requires_split(tmp_path, table1_workload,
                                          table1_config, capsys):
    analyze_writes_nothing(tmp_path, table1_workload, table1_config, capsys,
                           ["--reference", "fcfs-easy"], "--reference requires --split")


def test_analyze_reference_without_records_writes_nothing(tmp_path, table1_workload,
                                                          table1_config, capsys):
    analyze_writes_nothing(tmp_path, table1_workload, table1_config, capsys,
                           ["--split", "--reference", "sjf-bb"],
                           "reference policy 'sjf-bb' has no records")


def test_analyze_no_records(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("# bbsim-records v1\njob_id,submit,start,finish,n_procs,bb_total,killed,policy\n")
    assert main(["analyze", str(empty), "-o", str(tmp_path / "out")]) == 1
    assert "no records" in capsys.readouterr().err


def test_analyze_negative_tail_is_input_error(tmp_path, table1_workload,
                                             table1_config, capsys):
    path = simulate_table1(tmp_path, table1_workload, table1_config, "r.csv")
    capsys.readouterr()
    outdir = tmp_path / "analysis"
    assert main(["analyze", str(path), "--tail", "-2", "-o", str(outdir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "--tail" in err
    assert not outdir.exists()


def test_analyze_impossible_record_is_input_error(tmp_path, capsys):
    records = tmp_path / "r.csv"
    records.write_text("# bbsim-records v1\n"
                       "job_id,submit,start,finish,n_procs,bb_total,killed,policy\n"
                       "1,0,0,10,1,0,0,fcfs\n1,0,0,inf,1,0,0,fcfs\n")
    outdir = tmp_path / "out"
    assert main(["analyze", str(records), "-o", str(outdir)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {records}: records line 4: finish must be finite, got 'inf'\n"
    assert not outdir.exists()


def test_analyze_negative_submit_is_input_error(tmp_path, capsys):
    # no run writes one, and --split would file it in a negative part
    records = tmp_path / "r.csv"
    records.write_text("# bbsim-records v1\n"
                       "job_id,submit,start,finish,n_procs,bb_total,killed,policy\n"
                       "1,-1900000,0,10,1,0,0,fcfs\n")
    outdir = tmp_path / "out"
    assert main(["analyze", str(records), "--split", "-o", str(outdir)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {records}: records line 3: submit must be >= 0, got -1900000\n"
    assert not outdir.exists()


def test_analyze_duplicate_or_procless_job_is_input_error(tmp_path, capsys):
    records = tmp_path / "r.csv"
    records.write_text("# bbsim-records v1\n"
                       "job_id,submit,start,finish,n_procs,bb_total,killed,policy\n"
                       "1,0,0,10,1,0,0,fcfs\n1,0,100,110,1,0,0,fcfs\n2,0,0,10,-5,0,0,fcfs\n")
    outdir = tmp_path / "out"
    assert main(["analyze", str(records), "-o", str(outdir)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {records}: records line 4: duplicate job 1 for policy 'fcfs'\n"
    assert not outdir.exists()


@pytest.mark.parametrize("header, row, line", [
    ("policy", "1,0,0,10,1,0,0," + "x" * 200_000, 4),
    ("x" * 200_000, "", 2),
], ids=["row", "header"])
def test_analyze_field_past_csv_limit_is_input_error(tmp_path, capsys, header, row, line):
    records = tmp_path / "r.csv"
    records.write_text("# bbsim-records v1\n"
                       f"job_id,submit,start,finish,n_procs,bb_total,killed,{header}\n"
                       f"1,0,0,10,1,0,0,fcfs\n{row}\n")
    outdir = tmp_path / "out"
    assert main(["analyze", str(records), "-o", str(outdir)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {records}: records line {line}: "
                   "field larger than field limit (131072)\n")
    assert not outdir.exists()


def test_analyze_missing_columns_is_input_error(tmp_path, capsys):
    records = tmp_path / "r.csv"
    records.write_text("# bbsim-records v1\njob_id,submit,start\n1,0,0\n")
    assert main(["analyze", str(records), "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "finish, n_procs, bb_total, killed, policy" in err


# a platform of four compute nodes and one 100-byte storage pool
PLATFORM = '{"event": "platform", "compute_nodes": [0, 1, 2, 3], "bb_capacity_per_node": {"4": 100}}'


@pytest.mark.parametrize("line", [
    '{"t": 0}', "[1, 2]", '{"event": "finish", "job": 1}',
    PLATFORM,  # a second platform line
    # a launch line as traces before the platform line wrote it, with no n_procs
    '{"t": 0.0, "event": "launch", "job": 1, "nodes": [0], "bb_shares": {}}',
    '{"t": "x", "event": "launch", "job": 1, "n_procs": 1, "bb_total": 0}',
    '{"t": true, "event": "finish", "job": 1}',
    '{"t": NaN, "event": "kill", "job": 1}',
    '{"t": 0, "event": "finish", "job": "1"}',
    '{"t": 0, "event": "kill", "job": 1.0}',
    '{"t": 0, "event": "launch", "job": 1, "n_procs": 1}',
    '{"t": 0, "event": "launch", "job": 1, "n_procs": -1, "bb_total": 0}',
    '{"t": 0, "event": "launch", "job": 1, "n_procs": 1.0, "bb_total": 0}',
    '{"t": 0, "event": "launch", "job": 1, "n_procs": true, "bb_total": 0}',
    '{"t": 0, "event": "launch", "job": 1, "n_procs": 1, "bb_total": "big"}',
    '{"t": 0, "event": "launch", "job": 1, "n_procs": 1, "bb_total": -1}',
    '{"t": 0, "event": "launch", "job": 1, "n_procs": 1, "bb_total": 1.5}',
    '{"t": 0, "event": "launch", "job": 1, "n_procs": 5, "bb_total": 0}',  # 4 nodes
    '{"t": 0, "event": "launch", "job": 1, "n_procs": 1, "bb_total": 101}',  # 100 B
])
def test_gantt_malformed_line_is_input_error(tmp_path, capsys, line):
    trace = tmp_path / "trace.jsonl"
    trace.write_text(PLATFORM + "\n" + line + "\n")
    out = tmp_path / "gantt.csv"
    assert main(["gantt", str(trace), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {trace}: line 2 is not a trace event") and err.count("\n") == 1
    assert not out.exists()


LAUNCH_1 = '{"t": 0, "event": "launch", "job": 1, "n_procs": 1, "bb_total": 0}'
FINISH_1 = '{"t": 9, "event": "finish", "job": 1}'
SUBMIT_1 = '{"t": 0, "event": "submit", "job": 1}'
FIRST_LINE = "the first line, and only it, is the platform line"


@pytest.mark.parametrize("lines, message", [
    ([PLATFORM, LAUNCH_1, LAUNCH_1.replace('"n_procs": 1', '"n_procs": 2')],
     "job 1 is launched twice"),
    ([PLATFORM, LAUNCH_1, '{"t": 9, "event": "finish", "job": 7}'],
     "job 7 ends before it is launched"),
    ([PLATFORM, SUBMIT_1, '{"t": 0, "event": "kill", "job": 1}'],
     "job 1 ends before it is launched"),
    ([PLATFORM, LAUNCH_1, FINISH_1, FINISH_1], "job 1 has already ended"),
    ([PLATFORM, LAUNCH_1, FINISH_1, '{"t": 9, "event": "kill", "job": 1}'],
     "job 1 has already ended"),
    ([PLATFORM, LAUNCH_1, FINISH_1, LAUNCH_1], "job 1 is launched twice"),
    ([PLATFORM, LAUNCH_1, DEEP_JSON], "RecursionError: maximum recursion depth exceeded"),
    ([SUBMIT_1], FIRST_LINE),
    ([LAUNCH_1], FIRST_LINE),
    ([PLATFORM, SUBMIT_1, PLATFORM], FIRST_LINE),
    (['{"event": "platform", "compute_nodes": 4, "bb_capacity_per_node": {}}'],
     "'compute_nodes' must be a list of ints >= 0"),
    (['{"event": "platform", "compute_nodes": [0, "1"], "bb_capacity_per_node": {}}'],
     "'compute_nodes' must be a list of ints >= 0"),
    (['{"event": "platform", "compute_nodes": [-1], "bb_capacity_per_node": {}}'],
     "'compute_nodes' must be a list of ints >= 0"),
    (['{"event": "platform", "compute_nodes": [0], "bb_capacity_per_node": [100]}'],
     "'bb_capacity_per_node' must be an object"),
    (['{"event": "platform", "compute_nodes": [0], "bb_capacity_per_node": {"a": 100}}'],
     "ValueError: invalid literal for int()"),
    (['{"event": "platform", "compute_nodes": [0], "bb_capacity_per_node": {"-4": 100}}'],
     "'bb_capacity_per_node' must map ints >= 0 to ints >= 0"),
    (['{"event": "platform", "compute_nodes": [0], "bb_capacity_per_node": {"4": -1}}'],
     "'bb_capacity_per_node' must map ints >= 0 to ints >= 0"),
    (['{"event": "platform", "compute_nodes": [0], "bb_capacity_per_node": {"4": 1e3}}'],
     "'bb_capacity_per_node' must map ints >= 0 to ints >= 0"),
    (['{"event": "platform", "bb_capacity_per_node": {}}'], "KeyError: 'compute_nodes'"),
    # more than is free, though not more than the platform holds
    ([PLATFORM, LAUNCH_1.replace('"n_procs": 1', '"n_procs": 4'),
      '{"t": 0, "event": "launch", "job": 2, "n_procs": 1, "bb_total": 0}'],
     "AllocationError: need 1 nodes, only 0 free"),
    ([PLATFORM, LAUNCH_1.replace('"bb_total": 0', '"bb_total": 60'),
      '{"t": 0, "event": "launch", "job": 2, "n_procs": 1, "bb_total": 41}'],
     "AllocationError: request 41 exceeds aggregate free capacity 40"),
])
def test_gantt_line_outside_a_jobs_life_is_input_error(tmp_path, capsys, lines, message):
    """A trace is its platform line, then each job launched once and ended once
    after that, on nodes and pool bytes that are free, as a run writes it."""
    trace = tmp_path / "trace.jsonl"
    trace.write_text("\n".join(lines) + "\n")
    out = tmp_path / "gantt.csv"
    assert main(["gantt", str(trace), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {trace}: line {len(lines)} is not a trace event (")
    assert err.count("\n") == 1 and message in err
    assert not out.exists()


def test_gantt_rebinds_what_a_job_releases(tmp_path):
    """Each launch takes the lowest free nodes and the fullest pools' bytes;
    a finish or kill gives them back for the next launch."""
    trace = tmp_path / "trace.jsonl"
    trace.write_text("\n".join([
        '{"event": "platform", "compute_nodes": [0, 1, 3], '
        '"bb_capacity_per_node": {"2": 100, "4": 50}}',
        '{"t": 0, "event": "launch", "job": 1, "n_procs": 2, "bb_total": 120}',
        '{"t": 5, "event": "launch", "job": 2, "n_procs": 1, "bb_total": 30}',
        '{"t": 8, "event": "kill", "job": 1}',
        '{"t": 9, "event": "launch", "job": 3, "n_procs": 2, "bb_total": 0}',
    ]) + "\n")
    out = tmp_path / "gantt.csv"
    assert main(["gantt", str(trace), "-o", str(out)]) == 0
    assert out.read_text().splitlines()[1:] == [
        "1,0,0,8,0", "1,1,0,8,0", "1,2,0,8,85", "1,4,0,8,35",
        "2,3,5,nan,0", "2,2,5,nan,15", "2,4,5,nan,15",
        "3,0,9,nan,0", "3,1,9,nan,0",
    ]


def test_gantt_rows_per_node(tmp_path, table1_config):
    # one 3-processor job with no burst buffer: exactly 3 occupancy rows
    workload = tmp_path / "one.jsonl"
    with open(workload, "w") as f:
        write_workload(f, [table1_job(1, 0, 2, 3, 0)])
    simulate_table1(tmp_path, workload, table1_config, "records.csv",
                    trace="trace.jsonl")
    out = tmp_path / "gantt.csv"
    assert main(["gantt", str(tmp_path / "trace.jsonl"), "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "job_id,node_id,start,finish,bb_bytes"
    assert len(lines) == 4
    assert all(line.startswith("1,") and line.endswith(",0") for line in lines[1:])


def test_gantt_includes_bb_share_rows(tmp_path, table1_workload, table1_config):
    simulate_table1(tmp_path, table1_workload, table1_config, "records.csv",
                    trace="trace.jsonl")
    out = tmp_path / "gantt.csv"
    assert main(["gantt", str(tmp_path / "trace.jsonl"), "-o", str(out),
                 "--first", "1"]) == 0
    lines = out.read_text().splitlines()[1:]
    assert all(line.split(",")[0] == "1" for line in lines)
    bb_rows = [l for l in lines if int(l.split(",")[4]) > 0]
    assert sum(int(l.split(",")[4]) for l in bb_rows) == 4 * 10**12


@pytest.mark.parametrize("first", ["0", "-1"])
def test_gantt_first_below_one_is_input_error(tmp_path, table1_workload, table1_config,
                                              capsys, first):
    simulate_table1(tmp_path, table1_workload, table1_config, "records.csv",
                    trace="trace.jsonl")
    capsys.readouterr()
    out = tmp_path / "gantt.csv"
    assert main(["gantt", str(tmp_path / "trace.jsonl"), "-o", str(out),
                 "--first", first]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "--first" in err
    assert not out.exists()


def test_gantt_empty_trace(tmp_path):
    trace = tmp_path / "trace.jsonl"
    trace.write_text("")
    out = tmp_path / "gantt.csv"
    assert main(["gantt", str(trace), "-o", str(out)]) == 0
    assert out.read_text() == "job_id,node_id,start,finish,bb_bytes\n"


@pytest.mark.parametrize("command, first_line", [
    ("gantt", PLATFORM),
    ("analyze", "# bbsim-records v1"),
    ("convert", "; an SWF comment"),
    ("simulate", '{"format": "bbsim-workload", "version": 1}'),
])
def test_input_that_is_not_utf8_names_its_file_and_line(tmp_path, capsys, command, first_line):
    path = tmp_path / "input"
    path.write_bytes(first_line.encode() + b"\n\xff\xfe{}\n")
    out = tmp_path / "out"
    argv = {
        "gantt": ["gantt", str(path), "-o", str(out)],
        "analyze": ["analyze", str(path), "-o", str(out)],
        "convert": ["convert", str(path), "-o", str(out)],
        "simulate": ["simulate", "--workload", str(path), "-o", str(out),
                     "--manifest", str(tmp_path / "m.json")],
    }[command]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: line 2: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte\n")
    assert not out.exists()


RECORDS_HEAD = "# bbsim-records v1\njob_id,submit,start,finish,n_procs,bb_total,killed,policy\n"
BAD_JOB = '{"format": "bbsim-workload", "version": 1}\n{"id": 1}\n'


@pytest.mark.parametrize("command", ["analyze", "convert", "simulate", "from-manifest"])
def test_reader_errors_name_their_file(tmp_path, capsys, table1_workload, table1_config,
                                       command):
    """A bad line is reported with the path of the file that holds it, and a
    workload job that lacks fields is told which."""
    bad, out = tmp_path / "bad", tmp_path / "out"
    if command == "analyze":  # the second of two records files holds the bad row
        good = tmp_path / "good.csv"
        good.write_text(RECORDS_HEAD + "1,0,0,10,1,0,0,fcfs\n")
        bad.write_text(RECORDS_HEAD + "2,0,5,1,1,0,0,fcfs\n")
        argv = ["analyze", str(good), str(bad), "-o", str(out)]
        message = "records line 3: need submit <= start <= finish, got 0, 5, 1"
    elif command == "convert":
        bad.write_text("1 2\n")
        argv = ["convert", str(bad), "-o", str(out)]
        message = "line 1: expected 18 fields, got 2"
    else:
        bad.write_text(BAD_JOB)
        message = "line 2: missing job field(s) submit_time, runtime, walltime, n_procs"
        argv = ["simulate", "--workload", str(bad), "-o", str(out),
                "--manifest", str(tmp_path / "m.json")]
        if command == "from-manifest":  # a manifest of a good run, pointed at the bad file
            simulate_table1(tmp_path, table1_workload, table1_config, "first.csv")
            manifest = json.loads((tmp_path / "manifest.json").read_text())
            manifest["config"]["workload"] = str(bad)
            manifest["workload_sha256"] = hashlib.sha256(BAD_JOB.encode()).hexdigest()
            (tmp_path / "manifest.json").write_text(json.dumps(manifest))
            argv = ["simulate", "--from-manifest", str(tmp_path / "manifest.json"),
                    "-o", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"
    assert not out.exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("bbsim ")


# -- usage errors: bad flag values and seeds exit 1, as any input error ----------


def usage_error(argv, capsys) -> str:
    """The last stderr line of argv, which must exit 1 through argparse."""
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    return capsys.readouterr().err.splitlines()[-1]


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--tick", "1.5", "-o", "r.csv"], "argument --tick: invalid int value: '1.5'"),
    (["simulate", "--policy", "nope", "-o", "r.csv"], "argument --policy: invalid choice: 'nope'"),
    (["convert", "t.swf", "-o", "w.jsonl", "--seed", "1e3"],
     "argument --seed: must be an integer >= 0, got '1e3'"),
    (["simulate", "-o", "r.csv", "--seed", "x"], "argument --seed: must be an integer, got 'x'"),
], ids=["tick", "policy", "convert-seed", "simulate-seed"])
def test_bad_flag_value_exits_1(argv, message, capsys):
    assert message in usage_error(argv, capsys)


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["convert", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: bbsim convert")


@pytest.mark.parametrize("flag", [["--seed", "-1"], []])
def test_convert_refuses_a_negative_seed_before_reading_the_trace(tmp_path, monkeypatch,
                                                                 capsys, flag):
    monkeypatch.setenv("BBSIM_SEED", "-1")
    swf = tmp_path / "missing.swf"  # read first, it would fail on the path instead
    source = "BBSIM_SEED " if not flag else ""
    assert usage_error(["convert", str(swf), "-o", str(tmp_path / "w.jsonl"), *flag], capsys) == (
        f"bbsim convert: error: argument --seed: {source}must be an integer >= 0, got '-1'")
    assert not (tmp_path / "w.jsonl").exists()


def test_seed_flag_wins_over_a_bad_environment_seed(tmp_path, swf_file, monkeypatch):
    monkeypatch.setenv("BBSIM_SEED", "-1")
    out = tmp_path / "w.jsonl"
    assert main(["convert", str(swf_file), "-o", str(out), "--seed", "5"]) == 0
    with open(out) as f:
        assert read_workload(f)[1]["seed"] == 5


def test_non_integer_environment_seed_fails_only_where_a_seed_is_read(
        tmp_path, table1_workload, table1_config, monkeypatch, capsys):
    path = simulate_table1(tmp_path, table1_workload, table1_config, "r.csv")
    monkeypatch.setenv("BBSIM_SEED", "abc")
    assert main(["analyze", str(path), "-o", str(tmp_path / "analysis")]) == 0
    for argv, rule in ((["convert", "t.swf", "-o", "w.jsonl"], "an integer >= 0"),
                       (["simulate", "-o", "r.csv"], "an integer")):
        assert usage_error(argv, capsys).endswith(
            f"argument --seed: BBSIM_SEED must be {rule}, got 'abc'")
