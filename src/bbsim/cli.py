"""Command-line interface: convert | simulate | analyze | gantt.

Exit codes: 0 success, 1 input error, 2 internal assertion failure.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys

from . import __version__
from .availability import InfeasibleError
from .engine import SimConfig, Simulation
from .metrics import (
    DEFAULT_TAIL_K,
    LETTER_VALUE_LEVELS,
    JobRecord,
    bounded_slowdown,
    read_records,
    summarize,
    waiting_time,
    write_records,
    normalize_by_reference,
)
from .planner import AnnealConfig
from .platform import LogNormalModel, PlatformConfig, build_platform
from .policies import POLICY_NAMES
from .workload import (
    SwfParseError,
    assign_phases,
    parse_swf,
    part_index,
    read_workload,
    synthesize_bb,
    write_workload,
)


class InputError(Exception):
    pass


def _default_seed() -> int:
    return int(os.environ.get("BBSIM_SEED", "0"))


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# -- convert -------------------------------------------------------------------


def cmd_convert(args) -> int:
    model = LogNormalModel(mu=args.mu, sigma=args.sigma)
    try:
        with open(args.swf) as f:
            result = parse_swf(f)
    except OSError as exc:
        raise InputError(str(exc)) from exc
    jobs = synthesize_bb(result.jobs, model, args.seed)
    jobs = assign_phases(jobs, args.seed)
    with open(args.output, "w") as f:
        write_workload(
            f,
            jobs,
            meta={
                "source": os.path.basename(args.swf),
                "mu": args.mu,
                "sigma": args.sigma,
                "seed": args.seed,
            },
        )
    print(f"wrote {len(jobs)} jobs to {args.output} ({result.n_dropped} records dropped)")
    if not jobs:
        print("warning: empty workload", file=sys.stderr)
    return 0


# -- simulate ------------------------------------------------------------------


def _load_json(path: str):
    """The JSON document in path; one that does not parse is an InputError naming path."""
    with open(path) as f:
        try:
            return json.load(f)
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
            raise InputError(f"{path}: {exc}") from exc


def _refuse_unknown_keys(document: dict, known, where: str) -> None:
    unknown = sorted(document.keys() - set(known))
    if unknown:
        raise InputError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))}")


def _from_json(cls, values, where: str):
    """cls(**values), with unknown or missing keys reported as an InputError."""
    if not isinstance(values, dict):
        raise InputError(f"{where} must be a JSON object")
    try:
        return cls(**values)
    except TypeError as exc:
        raise InputError(f"{where}: {exc}") from exc


def _platform_from_config(cfg) -> PlatformConfig:
    if isinstance(cfg, dict) and "bb_request_model" in cfg:
        model = _from_json(LogNormalModel, cfg["bb_request_model"], "bb_request_model")
        cfg = {**cfg, "bb_request_model": model}
    return _from_json(PlatformConfig, cfg, "platform config")


# the keys simulate writes into a manifest's config; --from-manifest needs them all
# and takes no other
CONFIG_KEYS = (
    "platform", "workload", "policy", "alpha", "sa_r", "sa_n", "sa_m", "seed",
    "io_model", "tick_period_s",
)


def _run_simulation(config: dict, records_path: str, trace_path: str | None,
                    manifest_path: str | None = None) -> None:
    """Run config's simulation; write its records, and a manifest if a path is given."""
    platform = build_platform(_platform_from_config(config["platform"]))
    with open(config["workload"]) as f:
        jobs, _ = read_workload(f)
    sim_cfg = SimConfig(
        tick_period_s=config["tick_period_s"],
        io_model=config["io_model"],
        seed=config["seed"],
    )
    anneal_cfg = None
    if config["policy"] == "plan":
        anneal_cfg = AnnealConfig(
            alpha=config["alpha"],
            r=config["sa_r"],
            n_cooling=config["sa_n"],
            m_steps=config["sa_m"],
        )
    sim = Simulation(platform, jobs, config["policy"], sim_cfg, anneal_cfg)
    # every output is opened once the input is accepted and before the run, so
    # a bad path fails before any simulation; the trace is written as the run
    # goes, so a failed run keeps its lines so far
    with contextlib.ExitStack() as outputs:
        trace, records_file, manifest_file = (
            None if path is None else outputs.enter_context(open(path, "w"))
            for path in (trace_path, records_path, manifest_path)
        )
        if trace is not None:
            sim.sink = lambda entry: trace.write(json.dumps(entry) + "\n")
        write_records(records_file, sim.run())
        if manifest_file is not None:
            manifest = {"tool": "bbsim", "version": __version__, "command": "simulate",
                        "config": config, "workload_sha256": _sha256(config["workload"]),
                        "records": records_path, "trace": trace_path}
            json.dump(manifest, manifest_file, indent=2, sort_keys=True)
            manifest_file.write("\n")


def cmd_simulate(args) -> int:
    if args.from_manifest:
        manifest = _load_json(args.from_manifest)
        if not isinstance(manifest, dict) or not {"config", "workload_sha256"} <= manifest.keys():
            raise InputError(
                f"{args.from_manifest}: a manifest needs 'config' and 'workload_sha256'"
            )
        config = manifest["config"]
        if not isinstance(config, dict):
            raise InputError(f"{args.from_manifest}: 'config' must be a JSON object")
        missing = [key for key in CONFIG_KEYS if key not in config]
        if missing:
            raise InputError(
                f"{args.from_manifest}: manifest config lacks {', '.join(map(repr, missing))}"
            )
        _refuse_unknown_keys(config, CONFIG_KEYS, f"{args.from_manifest}: config")
        if not isinstance(config["workload"], str):
            raise InputError(f"{args.from_manifest}: 'workload' must be a file path")
        if config["policy"] not in POLICY_NAMES:
            raise InputError(f"{args.from_manifest}: unknown policy {config['policy']!r}")
        if _sha256(config["workload"]) != manifest["workload_sha256"]:
            raise InputError("workload file changed since the manifest was written")
        _run_simulation(config, args.output, args.trace)
        return 0

    if not args.workload:
        raise InputError("--workload is required (or use --from-manifest)")
    platform_cfg = {}
    if args.config:
        file_cfg = _load_json(args.config)
        if not isinstance(file_cfg, dict):
            raise InputError(f"{args.config} must hold a JSON object")
        _refuse_unknown_keys(file_cfg, ("platform",), args.config)
        platform_cfg = file_cfg.get("platform", {})
    config = {
        "platform": platform_cfg,
        "workload": args.workload,
        "policy": args.policy,
        "alpha": args.alpha,
        "sa_r": args.sa_r,
        "sa_n": args.sa_n,
        "sa_m": args.sa_m,
        "seed": args.seed,
        "io_model": args.io_model,
        "tick_period_s": args.tick,
    }
    _run_simulation(config, args.output, args.trace, args.manifest)
    print(f"wrote {args.output} and {args.manifest}")
    return 0


# -- analyze -------------------------------------------------------------------

METRICS = {"waiting_time": waiting_time, "bounded_slowdown": bounded_slowdown}


def cmd_analyze(args) -> int:
    if args.tail < 0:
        raise InputError(f"--tail must be non-negative, got {args.tail}")
    records: list[JobRecord] = []
    for path in args.records:
        with open(path) as f:
            records.extend(read_records(f))
    if not records:
        raise InputError("no records found")
    policies = sorted({r.policy for r in records})
    if args.reference and not args.split:
        raise InputError("--reference requires --split")
    if args.reference and args.reference not in policies:
        raise InputError(f"reference policy {args.reference!r} has no records")

    by_part: dict[tuple[str, int | None], list[JobRecord]] = {}
    for r in records:
        part = part_index(r.submit) if args.split else None
        if args.split and part is None:
            continue  # past the last three-week part
        by_part.setdefault((r.policy, part), []).append(r)

    os.makedirs(args.outdir, exist_ok=True)
    summary_path = os.path.join(args.outdir, "summary.csv")
    with open(summary_path, "w") as f:
        level_cols = [f"q{lv:.6f}".rstrip("0").rstrip(".") for lv in LETTER_VALUE_LEVELS]
        f.write("policy,part,metric,count,mean,ci95," + ",".join(level_cols) + "\n")
        for (policy, part) in sorted(by_part, key=lambda k: (k[0], -1 if k[1] is None else k[1])):
            for metric_name, metric in METRICS.items():
                s = summarize(by_part[(policy, part)], metric, tail_k=args.tail)
                part_label = "all" if part is None else str(part)
                qs = ",".join(repr(v) for _, v in s.quantiles)
                f.write(
                    f"{policy},{part_label},{metric_name},{s.count},{s.mean!r},{s.ci95!r},{qs}\n"
                )

    tail_path = os.path.join(args.outdir, "tail.csv")
    with open(tail_path, "w") as f:
        f.write("policy,metric,rank,value\n")
        for policy in policies:
            recs = [r for r in records if r.policy == policy]
            for metric_name, metric in METRICS.items():
                s = summarize(recs, metric, tail_k=args.tail)
                for rank, value in enumerate(s.tail, start=1):
                    f.write(f"{policy},{metric_name},{rank},{value!r}\n")

    if args.reference:
        norm_path = os.path.join(args.outdir, "normalized.csv")
        with open(norm_path, "w") as f:
            f.write("policy,part,metric,mean,normalized\n")
            for metric_name, metric in METRICS.items():
                part_means = {
                    (policy, part): sum(map(metric, recs)) / len(recs)
                    for (policy, part), recs in by_part.items()
                }
                normalized = normalize_by_reference(part_means, args.reference)
                for (policy, part) in sorted(part_means):
                    f.write(
                        f"{policy},{part},{metric_name},"
                        f"{part_means[(policy, part)]!r},{normalized[(policy, part)]!r}\n"
                    )
        print(f"wrote {summary_path}, {tail_path}, {norm_path}")
    else:
        print(f"wrote {summary_path}, {tail_path}")
    return 0


# -- gantt ---------------------------------------------------------------------


def cmd_gantt(args) -> int:
    if args.first is not None and args.first < 1:
        raise InputError(f"--first must be at least 1, got {args.first}")
    launches: dict[int, dict] = {}
    ends: dict[int, float] = {}
    try:
        with open(args.trace) as f:
            for line_no, line in enumerate(f, start=1):
                try:
                    entry = json.loads(line)
                    event = entry["event"]
                    if event in ("launch", "finish", "kill"):
                        job, t = entry["job"], entry["t"]
                        if type(job) is not int:
                            raise TypeError("'job' must be an int")
                        if not (type(t) is int or type(t) is float and math.isfinite(t)):
                            raise TypeError("'t' must be a finite number")
                        if event == "launch":
                            nodes = entry.get("nodes", [])
                            if not (isinstance(nodes, list) and all(type(n) is int for n in nodes)):
                                raise TypeError("'nodes' must be a list of ints")
                            shares = entry.get("bb_shares", {})
                            if not isinstance(shares, dict):
                                raise TypeError("'bb_shares' must be an object")
                            entry["bb_shares"] = {int(k): v for k, v in shares.items()}
                            if not all(type(v) is int and v >= 0 for v in shares.values()):
                                raise TypeError("'bb_shares' values must be ints >= 0")
                            if job in launches:
                                raise ValueError(f"job {job} is launched twice")
                            launches[job] = entry
                        elif job not in launches:
                            raise ValueError(f"job {job} ends before it is launched")
                        elif job in ends:
                            raise ValueError(f"job {job} has already ended")
                        else:
                            ends[job] = t
                # RecursionError: JSON nested too deep to parse
                except (ValueError, KeyError, TypeError, RecursionError) as exc:
                    raise InputError(
                        f"{args.trace}: line {line_no} is not a trace event "
                        f"({type(exc).__name__}: {exc})"
                    ) from exc
    except OSError as exc:
        raise InputError(str(exc)) from exc
    for entry in launches.values():
        if "nodes" not in entry:
            raise InputError(
                "trace has no node bindings; re-run simulate with --trace"
            )
    rows = []
    ordered = sorted(launches.values(), key=lambda e: (e["t"], e["job"]))
    for entry in ordered[: args.first]:
        job = entry["job"]
        finish = ends.get(job, math.nan)
        for node in entry["nodes"]:
            rows.append((job, node, entry["t"], finish, 0))
        for node, share in sorted(entry["bb_shares"].items()):
            rows.append((job, node, entry["t"], finish, share))
    with open(args.output, "w") as f:
        f.write("job_id,node_id,start,finish,bb_bytes\n")
        for row in rows:
            f.write(",".join(str(x) for x in row) + "\n")
    print(f"wrote {args.output} ({len(rows)} rows)")
    return 0


# -- entry point -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bbsim",
        description="Burst-buffer-aware job scheduling simulator",
    )
    parser.add_argument("--version", action="version", version=f"bbsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert an SWF trace to a bbsim workload file")
    p.add_argument("swf", help="input SWF trace")
    p.add_argument("-o", "--output", required=True, help="output workload (JSON lines)")
    p.add_argument("--mu", type=float, default=math.log(4e9),
                   help="log-normal mu of per-processor BB request (default ln(4e9))")
    p.add_argument("--sigma", type=float, default=1.0, help="log-normal sigma")
    p.add_argument("--seed", type=int, default=_default_seed())
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("simulate", help="run one policy over a workload")
    p.add_argument("--workload", help="bbsim workload file")
    p.add_argument("--config", help="JSON config file (platform section)")
    p.add_argument("--policy", default="fcfs-bb",
                   choices=POLICY_NAMES)
    anneal, sim = AnnealConfig(), SimConfig()
    p.add_argument("--alpha", type=float, default=anneal.alpha, help="plan policy exponent")
    p.add_argument("--sa-r", type=float, default=anneal.r, dest="sa_r")
    p.add_argument("--sa-n", type=int, default=anneal.n_cooling, dest="sa_n")
    p.add_argument("--sa-m", type=int, default=anneal.m_steps, dest="sa_m")
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--io-model", choices=["on", "off"], default=sim.io_model)
    p.add_argument("--tick", type=int, default=sim.tick_period_s, help="scheduler period [s]")
    p.add_argument("--trace", help="write a JSON-lines event trace here")
    p.add_argument("-o", "--output", required=True, help="records CSV path")
    p.add_argument("--manifest", default="manifest.json", help="run manifest path")
    p.add_argument("--from-manifest", help="re-run a previous simulation bit-for-bit")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="summarize record CSVs")
    p.add_argument("records", nargs="+", help="record CSVs (one or more policies)")
    p.add_argument("--split", action="store_true", help="split into three-week parts")
    p.add_argument("--reference", help="normalize per-part means by this policy")
    p.add_argument("--tail", type=int, default=DEFAULT_TAIL_K)
    p.add_argument("-o", "--outdir", default=".", help="output directory")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("gantt", help="emit per-(job, node) occupancy intervals")
    p.add_argument("trace", help="JSON-lines trace from simulate --trace")
    p.add_argument("-o", "--output", required=True, help="gantt CSV path")
    p.add_argument("--first", type=int, help="limit to the first N jobs by start time")
    p.set_defaults(func=cmd_gantt)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, SwfParseError, InfeasibleError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
