"""Alternating same-host pairs of benchmarks/run.py: a parent checkout against this tree.

    python3 tools/bench_pairs.py --parent DIR --pairs 10 --seconds 30 -o BENCH.json
        --change TEXT [--workloads backfill-pressure,io-lifecycle,plan-anneal]

DIR is a checkout of the commit to compare against, for example made with
``mkdir DIR && git archive HEAD~1 | tar -x -C DIR``. The change is the tree
this script lives in. Pair k (from 1) of a workload runs
``benchmarks/run.py --seed k`` once in each tree; the parent runs first in
odd pairs and second in even ones, so that a drift in the host's speed does
not favour one side. One workload's pairs finish before the next workload
starts.

The JSON written holds, per workload, each side's failed and attempted jobs
and the policies whose records differ from the checkout's reference hashes,
and per end-to-end metric each side's median and quartiles (inclusive
method), ``change_lower`` (the number of pairs in which the change's value is
lower) and every run's value. At the top level it holds TEXT, what the change
does, as ``change``, and ``checks``: the runs made, their failed jobs summed
over both sides, and every workload/policy whose records differed from the
reference in any run. The file is rewritten after every pair, with
``"complete": false`` until the last pair has run, so a run that stops early
keeps the pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

CHANGE = Path(__file__).resolve().parent.parent
WORKLOADS = ("backfill-pressure", "io-lifecycle", "plan-anneal")
SIDES = ("parent", "change")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmarks/run.py run in tree: its result line, with the records check added."""
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {' '.join(argv[1:])} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    info, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    result["records_differ_from_reference"] = info["records_differ_from_reference"]
    return result


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summarize(runs: dict[str, list[dict]]) -> dict:
    """One workload's summary from each side's run results, in pair order."""
    first = runs["change"][0]["metrics"]
    metrics = {}
    for name, metric in first.items():
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        metrics[name] = {
            "unit": metric["unit"],
            **{side: quartiles(values[side]) for side in SIDES},
            "change_lower": sum(c < p for p, c in zip(values["parent"], values["change"])),
            "runs": {side: [round(v, 4) for v in values[side]] for side in SIDES},
        }
    return {
        "pairs": len(runs["change"]),
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
        "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
        "records_differ_from_reference": {
            side: sorted({p for r in runs[side] for p in r["records_differ_from_reference"] or ()})
            for side in SIDES
        },
        "metrics": metrics,
    }


def checks(summary: dict) -> dict:
    """The runs, failed jobs and records that differ from the reference, over both sides."""
    return {
        "runs": sum(len(SIDES) * wl["pairs"] for wl in summary.values()),
        "failed": sum(n for wl in summary.values() for n in wl["failed"].values()),
        "records_differ_from_reference": sorted(
            {f"{name}/{p}" for name, wl in summary.items()
             for ps in wl["records_differ_from_reference"].values() for p in ps}
        ),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path, help="checkout to compare against")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0, help="--seconds of each run")
    ap.add_argument("--workloads", default=",".join(WORKLOADS),
                    help="comma-separated workload names")
    ap.add_argument("-o", "--output", required=True, type=Path, help="JSON summary path")
    ap.add_argument("--change", required=True, help="what the change does, stored as is")
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")
    unknown = sorted(set(workloads) - set(WORKLOADS))
    if unknown:
        ap.error(f"unknown workload(s): {', '.join(unknown)}")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    if not (args.parent / "benchmarks" / "run.py").is_file():
        ap.error(f"{args.parent} holds no benchmarks/run.py")
    trees = {"parent": args.parent.resolve(), "change": CHANGE}

    summary = {}
    for workload in workloads:
        runs: dict[str, list[dict]] = {side: [] for side in SIDES}
        for k in range(1, args.pairs + 1):
            for side in SIDES if k % 2 else reversed(SIDES):
                runs[side].append(run_once(trees[side], workload, k, args.seconds))
            summary[workload] = summarize(runs)
            complete = workload == workloads[-1] and k == args.pairs
            args.output.write_text(json.dumps(report(args, summary, complete), indent=1) + "\n")
            print(f"{workload}: pair {k} of {args.pairs} done", file=sys.stderr)
    return 0


def report(args, summary: dict, complete: bool) -> dict:
    """The JSON report of the pairs summarized so far; complete once every pair has run."""
    return {
        "change": args.change,
        "complete": complete,
        "command": f"python3 benchmarks/run.py --workload WORKLOAD --seed SEED "
                   f"--seconds {args.seconds:g}",
        "host": f"{platform.system()}, {os.cpu_count()} CPUs, Python "
                f"{platform.python_version()}; times are probe-scaled by benchmarks/run.py",
        "method": f"{args.pairs} pairs per workload, seeds 1-{args.pairs}, "
                  "parent and change run one after the other from separate checkouts, the "
                  "side that runs first alternating by pair (parent first in odd pairs); one "
                  "workload's pairs finish before the next workload starts",
        "summary": "median over the runs of each side, with the parent's and the change's "
                   "quartiles (inclusive method); change_lower counts the pairs in which the "
                   "change's value is lower",
        "workloads": summary,
        "checks": checks(summary),
    }


if __name__ == "__main__":
    sys.exit(main())
