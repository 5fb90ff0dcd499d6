#!/usr/bin/env python3
"""Alternating parent/change pairs of perfbench workloads.

    python3 scripts/ab_pairs.py BASE CHANGE --workload stream-dense \
        --workload stream-demo --workload train-demo --seed 931 --pairs 10

BASE and CHANGE are two checkout directories. For each --workload W in
turn, pair i runs `perfbench/run.py --workload W --seed S+i --seconds T
--trace 0` in each, one after the other: BASE first in even pairs, CHANGE
first in odd ones. T is BENCHMARK.json's run_seconds. The script only calls
perfbench's command line and reads BASE's BENCHMARK.json. `run_perfbench`,
which runs and parses one perfbench run, is also how `bench_snapshot.py`
runs it.

It prints each pair's end-to-end values, then one block per workload: each
side's commit and `wc -l src/fmfdet/*.py` total (`env.git_commit` and
`env.src_lines` of the detail line perfbench prints before its result);
each side's median and quartiles; every metric's median change against its
bound, and its largest relative change within one pair, which for the
per-seed deterministic quality_loss is the change's own effect. The last
line is one JSON object: the first workload's block (both sides' env, every
run and every metric's verdict) at the top level, and every other
workload's block under "no_regression", keyed by its name.

- the first workload's claimed metric (--metric) reads "claim met" only
  when the change is better in at least 9/10 of the pairs run (a tie
  counts for neither side) and its median is better than BASE's by more
  than BASE's interquartile range; otherwise "claim not met";
- every other metric, and on the other workloads every metric, reads
  "unresolved" when BASE's interquartile range, relative to its median, is
  wider than the metric's bound and not every change run is better than
  every BASE run; otherwise "within bound" or "WORSE than bound", by its
  median change.

Medians and pair counts use good runs only: a run that reported, is
correct and had no failed operations. The exit status is 1 when any run
is not good, so a broken run cannot hide behind the others' medians.
"""
from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time


def run_perfbench(checkout, workload, seed, seconds, timeout, trace=0, env=None):
    """One perfbench run in `checkout`, whose environment is `env` (default:
    this process's). Returns {"exit_code", "wall_s", "detail", "result"}:
    the last two lines perfbench printed, and result carries the detail's
    `git_commit` and `src_lines` under "env". A run that printed no such
    pair has "stderr_tail" in place of detail and result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True,
                          timeout=timeout)
    run = {"exit_code": done.returncode, "wall_s": time.perf_counter() - start}
    lines = done.stdout.strip().splitlines()
    try:
        detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
        result["metrics"]
        result["env"] = {key: detail["env"].get(key) for key in ("git_commit", "src_lines")}
    except (IndexError, ValueError, KeyError, TypeError, AttributeError):
        return dict(run, stderr_tail=done.stderr[-2000:])
    return dict(run, detail=detail, result=result)


def quartiles(values):
    """(q1, median, q3) by linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def good(result):
    """Whether a run reported, is correct and had no failed operations."""
    return result is not None and bool(result.get("correct")) and not result.get("failed")


def values_of(runs, name):
    return [r["metrics"][name]["value"] for r in runs
            if good(r) and name in r["metrics"]]


def pair_values(runs, name):
    """(base, change) values of `name` for every pair where both sides are
    good runs that reported it."""
    return [(b["metrics"][name]["value"], c["metrics"][name]["value"])
            for b, c in zip(runs["base"], runs["change"])
            if good(b) and good(c) and name in b["metrics"] and name in c["metrics"]]


def run_pairs(sides, workload, first_seed, pairs, seconds, timeout, metrics):
    """Alternating runs of one workload; prints each pair's end-to-end values
    and returns {"base": [result, ...], "change": [...]}."""
    runs = {"base": [], "change": []}
    for i in range(pairs):
        seed = first_seed + i
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            run = run_perfbench(sides[side], workload, seed, seconds, timeout)
            result = run.get("result")
            runs[side].append(result)
            if not good(result):
                print(f"{workload} pair {i} seed {seed} {side}: exit {run['exit_code']}: "
                      f"{run.get('stderr_tail', '')[-500:]}, result {result}")
        row = "  ".join(
            f"{name} {_fmt(runs['base'][-1], name)} -> {_fmt(runs['change'][-1], name)}"
            for name in metrics)
        print(f"{workload} pair {i} seed {seed} ({order[0]} first): {row}", flush=True)
    return runs


def summarize(workload, runs, metrics, claimed):
    """Prints one workload's block and returns it as a JSON-ready dict. The
    `claimed` metric (None on a no-regression workload) gets the claim
    verdict; every other metric gets a bound verdict."""
    pairs = len(runs["base"])
    envs = {}
    for side in ("base", "change"):
        ok = [r for r in runs[side] if r is not None]
        failed_ops = sum(r.get("failed", 0) for r in ok)
        attempted = sum(r.get("attempted", 0) for r in ok)
        envs[side] = ok[0]["env"] if ok else {}
        print(f"{side}: commit {envs[side].get('git_commit')}, "
              f"src_lines {envs[side].get('src_lines')}; {len(ok)}/{pairs} runs reported, "
              f"{sum(bool(r.get('correct')) for r in ok)} correct, "
              f"failed operations {failed_ops}/{attempted}")
    wins = None
    summary = {}
    for name, m in metrics.items():
        base, change = values_of(runs["base"], name), values_of(runs["change"], name)
        if not base or not change:
            print(f"{name}: no values")
            continue
        bq, cq = quartiles(base), quartiles(change)
        sign = 1.0 if m["better"] == "lower" else -1.0
        worse = sign * (cq[1] - bq[1]) / bq[1] if bq[1] else 0.0
        if name == claimed:
            paired = pair_values(runs, name)
            wins = sum(sign * (b - c) > 0 for b, c in paired)
            losses = sum(sign * (b - c) < 0 for b, c in paired)
            gap, iqr = sign * (bq[1] - cq[1]), bq[2] - bq[0]
            met = wins >= 0.9 * pairs and gap > iqr
            verdict = "claim met" if met else "claim not met"
            print(f"claim {name}: change better in {wins}/{pairs} pairs "
                  f"({losses} worse); median gain {gap:.4g} against base IQR {iqr:.4g}: "
                  f"{verdict}")
        elif bq[2] - bq[0] > m["bound"] * abs(bq[1]) and not (
                max(change) < min(base) if sign > 0 else min(change) > max(base)):
            verdict = "unresolved"   # spread wider than the bound, and runs overlap
        else:
            verdict = "WORSE than bound" if worse > m["bound"] else "within bound"
        pair_changes = [(cv - bv) / bv for bv, cv in pair_values(runs, name) if bv]
        largest = max(pair_changes, key=abs, default=None)
        summary[name] = {"base": bq, "change": cq, "relative_change": (cq[1] - bq[1]) / bq[1]
                         if bq[1] else None, "largest_pair_relative_change": largest,
                         "bound": m["bound"], "verdict": verdict}
        print(f"{name} [{m['unit']}]: base {bq[1]:.4g} [{bq[0]:.4g}, {bq[2]:.4g}]  "
              f"change {cq[1]:.4g} [{cq[0]:.4g}, {cq[2]:.4g}]  "
              f"median {100 * (cq[1] - bq[1]) / bq[1] if bq[1] else 0.0:+.1f}% "
              f"(bound {100 * m['bound']:.0f}% worse): {verdict}; largest pair change "
              f"{'n/a' if largest is None else format(largest, '+.3e')}")
    block = {"workload": workload, "env": envs, "summary": summary, "runs": runs}
    if claimed is not None:
        block.update(wins=wins or 0, claim=summary.get(claimed, {}).get("verdict",
                                                                      "claim not met"))
    return block


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=pathlib.Path, help="parent checkout")
    parser.add_argument("change", type=pathlib.Path, help="changed checkout")
    parser.add_argument("--workload", required=True, action="append",
                        help="a workload to pair; repeat it for more: the first carries "
                             "the --metric claim, the others get no-regression verdicts")
    parser.add_argument("--seed", type=int, required=True, help="first pair's seed")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--metric", default="latency_p50_ms",
                        help="the claimed end-to-end metric")
    args = parser.parse_args(argv)
    spec = json.loads((args.base / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    if args.metric not in metrics:
        parser.error(f"--metric must be one of {sorted(metrics)}")
    for workload in args.workload:
        if workload not in {w["name"] for w in spec["workloads"]}:
            parser.error(f"unknown workload {workload!r}")
    if len(set(args.workload)) < len(args.workload):
        parser.error("each --workload may be given once")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    seconds = spec["run_seconds"]
    timeout = 20 * seconds + 600

    sides = {"base": args.base, "change": args.change}
    blocks = []
    for k, workload in enumerate(args.workload):
        runs = run_pairs(sides, workload, args.seed, args.pairs, seconds, timeout, metrics)
        role = "claim" if k == 0 else "no regression"
        print(f"\n{workload} ({role}), {args.pairs} pairs, seeds {args.seed}-"
              f"{args.seed + args.pairs - 1}, {seconds:g} s runs")
        blocks.append(summarize(workload, runs, metrics, args.metric if k == 0 else None))
        print(flush=True)
    print(json.dumps({"seed": args.seed, "pairs": args.pairs, "seconds": seconds,
                      "metric": args.metric, **blocks[0],
                      "no_regression": {b["workload"]: b for b in blocks[1:]}}))
    bad = sum(not good(r) for b in blocks for side in b["runs"].values() for r in side)
    if bad:
        print(f"{bad} of {2 * args.pairs * len(blocks)} runs missing, incorrect or with "
              f"failed operations; medians leave them out", file=sys.stderr)
        return 1
    return 0


def _fmt(result, name):
    if result is None or name not in result["metrics"]:
        return "n/a"
    return f"{result['metrics'][name]['value']:.4g}"


if __name__ == "__main__":
    sys.exit(main())
