import json

import pytest

from bbsim.cli import CONFIG_KEYS, main
from bbsim.metrics import read_records
from bbsim.workload import PART_SECONDS, read_workload, write_workload

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
            "groups": 1, "chassis_per_group": 1,
            "routers_per_chassis": 1, "nodes_per_router": 5,
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


def test_convert_missing_file(tmp_path, capsys):
    assert main(["convert", str(tmp_path / "nope.swf"),
                 "-o", str(tmp_path / "out.jsonl")]) == 1
    assert "error:" in capsys.readouterr().err


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


@pytest.mark.parametrize("document, message", [
    ({"platform": {"bogus": 1}}, "bogus"),
    ({"platform": {"bb_request_model": {"mu": 1.0}}}, "sigma"),
    ({"platform": {"n_compute_nodes": 5}}, "topology mismatch"),
    ({"platform": [4]}, "must be a JSON object"),
    ([4], "must hold a JSON object"),
    ({"platform": {"n_compute_nodes": "96"}}, "n_compute_nodes must be an integer"),
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


def test_analyze_reference_requires_split(tmp_path, table1_workload,
                                          table1_config, capsys):
    path = simulate_table1(tmp_path, table1_workload, table1_config, "r.csv")
    assert main(["analyze", str(path), "--reference", "sjf-bb",
                 "-o", str(tmp_path / "analysis")]) == 1
    assert "--split" in capsys.readouterr().err


def test_analyze_no_records(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("# bbsim-records v1\njob_id,submit,start,finish,n_procs,bb_total,killed,policy\n")
    assert main(["analyze", str(empty), "-o", str(tmp_path / "out")]) == 1
    assert "no records" in capsys.readouterr().err


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


def test_gantt_empty_trace(tmp_path):
    trace = tmp_path / "trace.jsonl"
    trace.write_text("")
    out = tmp_path / "gantt.csv"
    assert main(["gantt", str(trace), "-o", str(out)]) == 0
    assert out.read_text() == "job_id,node_id,start,finish,bb_bytes\n"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("bbsim ")
