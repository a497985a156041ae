"""Command-line interface: convert | simulate | analyze | gantt.

Exit codes: 0 success, 1 input error, 2 internal assertion failure.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import sys

from . import __version__
from .availability import AllocationError, InfeasibleError
from .engine import NodeBinding, SimConfig, Simulation
from .metrics import (
    DEFAULT_TAIL_K,
    LETTER_VALUE_LEVELS,
    JobRecord,
    bounded_slowdown,
    left_sum,
    read_records,
    summarize,
    waiting_time,
    write_records,
    normalize_by_reference,
)
from .planner import COOLING_RATE, M_STEPS, N_COOLING
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


class _EnvSeed(str):
    """BBSIM_SEED's text as --seed's default, which argparse converts only if no --seed is given."""


def _seed(text: str, least: float = -math.inf) -> int:
    with contextlib.suppress(ValueError):
        if int(text) >= least:
            return int(text)
    rule = "an integer" if least == -math.inf else f"an integer >= {least}"
    source = "BBSIM_SEED " if isinstance(text, _EnvSeed) else ""
    raise argparse.ArgumentTypeError(f"{source}must be {rule}, got {text!r}")


class _Given(argparse.Action):
    """Store the value, and add the flag to the namespace's given: a flag on the
    command line is told apart from one left at its default."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = (*namespace.given, self.option_strings[0])


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is an input error: exit 1, not argparse's 2
        self.exit(1, f"{self.format_usage()}{self.prog}: error: {message}\n")


def _lines(path: str, data: bytes | None = None):
    """path's lines as text (from data, path's bytes, if given); one that is not
    UTF-8 is an InputError naming path and line."""
    with open(path, "rb") if data is None else io.BytesIO(data) as f:
        for line_no, line in enumerate(f, start=1):
            try:
                yield line.decode()
            except UnicodeDecodeError as exc:
                raise InputError(f"{path}: line {line_no}: {exc}") from exc


def _read(path: str, reader, data: bytes | None = None):
    """reader applied to path's lines (from data, if given); an error it reports
    is an InputError naming path."""
    try:
        return reader(_lines(path, data))
    except (ValueError, SwfParseError) as exc:
        raise InputError(f"{path}: {exc}") from exc


# -- convert -------------------------------------------------------------------


def cmd_convert(args) -> int:
    _refuse_shared_paths({"swf": args.swf}, {"-o": args.output})
    model = LogNormalModel(mu=args.mu, sigma=args.sigma)
    result = _read(args.swf, parse_swf)
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


# the keys simulate writes into a manifest's config, each but platform a flag's
# dest; --from-manifest needs them all and takes no other
CONFIG_KEYS = ("platform", "workload", "policy", "alpha", "seed", "io_model", "tick_period_s")
# the annealing schedule's keys in manifests written while it could be set
OLD_SCHEDULE_KEYS = {"sa_r": COOLING_RATE, "sa_n": N_COOLING, "sa_m": M_STEPS}


def _refuse_shared_paths(inputs: dict, outputs: dict) -> None:
    """Refuse an output path that is another output's or an input's file: the
    one written last would be all that is left of both. Keys are the flags."""
    named = {}  # real path -> the flag that named it first
    for flag, path in [*inputs.items(), *outputs.items()]:
        if path is None:
            continue
        real = os.path.realpath(path)
        if real in named and flag in outputs:
            raise InputError(f"{named[real]} and {flag} name the same file: {path}")
        named.setdefault(real, flag)


@contextlib.contextmanager
def _replaced_on_success(path: str):
    """A new file beside path, made at once so that a bad path fails first; it
    replaces path if the block succeeds and is deleted if the block raises."""
    if os.path.isdir(path):
        raise IsADirectoryError(f"{path} is a directory")
    directory, name = os.path.split(path)
    temporary = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    f = open(temporary, "w")
    try:
        with f:
            yield f
        os.replace(temporary, path)
    except BaseException:  # KeyboardInterrupt too
        os.remove(temporary)
        raise


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def _run_simulation(config: dict, workload: bytes, records_path: str,
                    trace_path: str | None, manifest_path: str | None = None) -> None:
    """Run config's simulation on workload, the bytes read from its workload
    file, which its jobs and manifest hash both come from; write its records,
    and a manifest if a path is given."""
    platform = build_platform(_platform_from_config(config["platform"]))
    jobs, _ = _read(config["workload"], read_workload, workload)
    sim_cfg = SimConfig(
        tick_period_s=config["tick_period_s"],
        io_model=config["io_model"],
        seed=config["seed"],
        alpha=config["alpha"],
    )
    sim = Simulation(platform, jobs, config["policy"], sim_cfg)
    # every output is opened once the input is accepted and before the run, so
    # a bad path fails before any simulation; the trace is written as the run
    # goes, so a failed run keeps its lines so far, while the records and then
    # the manifest (entered first, so left last) replace the earlier run's only
    # once this one has succeeded
    with contextlib.ExitStack() as outputs:
        trace = None if trace_path is None else outputs.enter_context(open(trace_path, "w"))
        manifest_file, records_file = (
            None if path is None else outputs.enter_context(_replaced_on_success(path))
            for path in (manifest_path, records_path)
        )
        if trace is not None:  # its first line is the platform, which gantt binds jobs on
            sim.sink = lambda entry: trace.write(json.dumps(entry) + "\n")
            sim.sink({"event": "platform", "compute_nodes": list(platform.compute_nodes),
                      "bb_capacity_per_node": platform.bb_capacity_per_node})
        write_records(records_file, sim.run())
        if manifest_file is not None:
            manifest = {"tool": "bbsim", "version": __version__, "command": "simulate",
                        "config": config, "workload_sha256": hashlib.sha256(workload).hexdigest(),
                        "records": records_path, "trace": trace_path}
            json.dump(manifest, manifest_file, indent=2, sort_keys=True)
            manifest_file.write("\n")


def cmd_simulate(args) -> int:
    if args.from_manifest:
        if args.given:  # each is in the manifest's config, or names the manifest written
            raise InputError(f"--from-manifest runs the manifest as it is and takes no "
                             f"{', '.join(dict.fromkeys(args.given))}")
        manifest = _load_json(args.from_manifest)
        if not isinstance(manifest, dict) or not {"config", "workload_sha256"} <= manifest.keys():
            raise InputError(
                f"{args.from_manifest}: a manifest needs 'config' and 'workload_sha256'"
            )
        config = manifest["config"]
        if not isinstance(config, dict):
            raise InputError(f"{args.from_manifest}: 'config' must be a JSON object")
        for key, value in OLD_SCHEDULE_KEYS.items():
            if key in config and config.pop(key) != value:
                raise InputError(f"{args.from_manifest}: config {key!r} must be {value}: "
                                 "the annealing schedule is fixed")
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
        _refuse_shared_paths({"--from-manifest": args.from_manifest,
                              "the manifest's workload": config["workload"]},
                             {"-o": args.output, "--trace": args.trace})
        workload = _read_bytes(config["workload"])
        if hashlib.sha256(workload).hexdigest() != manifest["workload_sha256"]:
            raise InputError("workload file changed since the manifest was written")
        _run_simulation(config, workload, args.output, args.trace)
        return 0

    if not args.workload:
        raise InputError("--workload is required (or use --from-manifest)")
    _refuse_shared_paths({"--workload": args.workload, "--config": args.config},
                         {"-o": args.output, "--manifest": args.manifest, "--trace": args.trace})
    platform_cfg = {}
    if args.config:
        file_cfg = _load_json(args.config)
        if not isinstance(file_cfg, dict):
            raise InputError(f"{args.config} must hold a JSON object")
        _refuse_unknown_keys(file_cfg, ("platform",), args.config)
        platform_cfg = file_cfg.get("platform", {})
    config = {key: getattr(args, key) for key in CONFIG_KEYS if key != "platform"}
    config["platform"] = platform_cfg
    _run_simulation(config, _read_bytes(args.workload), args.output, args.trace, args.manifest)
    print(f"wrote {args.output} and {args.manifest}")
    return 0


# -- analyze -------------------------------------------------------------------

METRICS = {"waiting_time": waiting_time, "bounded_slowdown": bounded_slowdown}


def cmd_analyze(args) -> int:
    if args.tail < 0:
        raise InputError(f"--tail must be non-negative, got {args.tail}")
    records: list[JobRecord] = []
    for path in args.records:
        records.extend(_read(path, read_records))
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
                    (policy, part): left_sum(map(metric, recs)) / len(recs)
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


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def cmd_gantt(args) -> int:
    _refuse_shared_paths({"trace": args.trace}, {"-o": args.output})
    if args.first is not None and args.first < 1:
        raise InputError(f"--first must be at least 1, got {args.first}")
    binding = None  # the platform line's; launches take from it and ends give back, in file order
    launches: dict[int, tuple] = {}  # job -> (start, job, nodes, shares)
    ends: dict[int, float] = {}
    for line_no, line in enumerate(_lines(args.trace), start=1):
        try:
            entry = json.loads(line)
            event = entry["event"]
            if (event == "platform") != (line_no == 1):
                raise ValueError("the first line, and only it, is the platform line")
            if event == "platform":
                nodes, pools = entry["compute_nodes"], entry["bb_capacity_per_node"]
                if not (isinstance(nodes, list) and all(map(_is_count, nodes))):
                    raise TypeError("'compute_nodes' must be a list of ints >= 0")
                if not isinstance(pools, dict):
                    raise TypeError("'bb_capacity_per_node' must be an object")
                pools = {int(k): v for k, v in pools.items()}
                if not all(map(_is_count, [*pools, *pools.values()])):
                    raise TypeError("'bb_capacity_per_node' must map ints >= 0 to ints >= 0")
                binding = NodeBinding(nodes, pools)
            elif event in ("launch", "finish", "kill"):
                job, t = entry["job"], entry["t"]
                if type(job) is not int:
                    raise TypeError("'job' must be an int")
                if not (type(t) is int or type(t) is float and math.isfinite(t)):
                    raise TypeError("'t' must be a finite number")
                if event == "launch":
                    n_procs, bb_total = entry["n_procs"], entry["bb_total"]
                    if not (_is_count(n_procs) and _is_count(bb_total)):
                        raise TypeError("'n_procs' and 'bb_total' must be ints >= 0")
                    if job in launches:
                        raise ValueError(f"job {job} is launched twice")
                    launches[job] = (t, job, *binding.take(job, n_procs, bb_total))
                elif job not in launches:
                    raise ValueError(f"job {job} ends before it is launched")
                elif job in ends:
                    raise ValueError(f"job {job} has already ended")
                else:
                    ends[job] = t
                    binding.release(job)
        # RecursionError: JSON nested too deep to parse; AllocationError: more than is free
        except (ValueError, KeyError, TypeError, RecursionError, AllocationError) as exc:
            raise InputError(
                f"{args.trace}: line {line_no} is not a trace event "
                f"({type(exc).__name__}: {exc})"
            ) from exc
    rows = []
    for start, job, nodes, shares in sorted(launches.values(), key=lambda e: e[:2])[: args.first]:
        finish = ends.get(job, math.nan)
        rows += [(job, node, start, finish, 0) for node in nodes]
        rows += [(job, node, start, finish, share) for node, share in sorted(shares.items())]
    with open(args.output, "w") as f:
        f.write("job_id,node_id,start,finish,bb_bytes\n")
        for row in rows:
            f.write(",".join(str(x) for x in row) + "\n")
    print(f"wrote {args.output} ({len(rows)} rows)")
    return 0


# -- entry point -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bbsim",
        description="Burst-buffer-aware job scheduling simulator",
    )
    parser.add_argument("--version", action="version", version=f"bbsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    env_seed = _EnvSeed(os.environ.get("BBSIM_SEED", "0"))

    p = sub.add_parser("convert", help="convert an SWF trace to a bbsim workload file")
    p.add_argument("swf", help="input SWF trace")
    p.add_argument("-o", "--output", required=True, help="output workload (JSON lines)")
    p.add_argument("--mu", type=float, default=math.log(4e9),
                   help="log-normal mu of per-processor BB request (default ln(4e9))")
    p.add_argument("--sigma", type=float, default=1.0, help="log-normal sigma")
    p.add_argument("--seed", type=lambda text: _seed(text, least=0), default=env_seed)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("simulate", help="run one policy over a workload")
    # --from-manifest refuses the _Given flags: it reads their values from the manifest
    p.add_argument("--workload", action=_Given, help="bbsim workload file")
    p.add_argument("--config", action=_Given, help="JSON config file (platform section)")
    p.add_argument("--policy", action=_Given, default="fcfs-bb",
                   choices=POLICY_NAMES)
    sim = SimConfig()
    p.add_argument("--alpha", action=_Given, type=float, default=sim.alpha,
                   help="plan policy exponent")
    p.add_argument("--seed", action=_Given, type=_seed, default=env_seed)
    p.add_argument("--io-model", action=_Given, choices=["on", "off"], default=sim.io_model)
    p.add_argument("--tick", action=_Given, type=int, default=sim.tick_period_s,
                   dest="tick_period_s", help="scheduler period [s]")
    p.add_argument("--trace", help="write a JSON-lines event trace here")
    p.add_argument("-o", "--output", required=True, help="records CSV path")
    p.add_argument("--manifest", action=_Given, default="manifest.json",
                   help="run manifest path")
    p.add_argument("--from-manifest", help="re-run a previous simulation bit-for-bit")
    p.set_defaults(func=cmd_simulate, given=())

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
