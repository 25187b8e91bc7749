#!/usr/bin/env python3
"""Run paired benchmark runs of this tree and an earlier revision, and write them to a BENCH file.

    python scripts/pairs.py --against REV --workload W [--pairs 10] [--seconds 15] [--out FILE]

REV is checked out with `git worktree add --detach` into a temporary
directory, which is removed at exit.  Each pair runs each tree's own
`perfbench/run.py --workload W --seconds S --trace 0`, one run at a time,
the parent first in even pairs and this tree first in odd ones.  A run that
exits non-zero or fails an op stops the script with exit code 1, and so
does a src/qel/__pycache__ present in one tree and not the other: both sides
must run under one bytecode condition.

The BENCH file (by default BENCH_<short sha of HEAD>.json) holds the fields
command, parent_commit, change, machine, bytecode, design, summary and runs.
Every run is kept with its last stdout line.  The summary gives, per
workload and end-to-end metric, each side's median and quartiles, the
median and quartiles of the paired ratio change/parent, the change's win
count (ties count for neither side) and whether the pair rule holds: wins
in at least nine tenths of the pairs, and medians apart by more than the
parent's quartile spread.  An existing FILE with the same parent keeps its
other workloads, so one file can collect several workloads with their own
pair counts.  Standard library only.
"""
import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True, check=True).stdout.strip()


def quartiles(xs: list[float]) -> list[float]:
    """[q1, median, q3] of xs, by statistics.quantiles' inclusive method."""
    return list(statistics.quantiles(xs, n=4, method="inclusive")) if len(xs) > 1 else xs * 3


def run_once(tree: Path, workload: str, seconds: float) -> tuple[dict, dict, float]:
    """(last stdout line, harness environment, wall seconds) of one untraced run of tree's harness."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        last = None
    if proc.returncode != 0 or last is None or last.get("failed") != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} in {tree} exited {proc.returncode} with last line "
                         f"{lines[-1] if lines else None!r}")
    env = next((json.loads(line.split(" ", 2)[2]) for line in lines
                if line.startswith("# environment ")), {})
    return last, env, wall


def summarize(runs: list[dict], better: dict) -> dict:
    """Per metric: each side's and the paired ratio's [q1, median, q3], the change's wins and the pair rule."""
    by_pair = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["last_line"]["metrics"]
    pairs = [by_pair[k] for k in sorted(by_pair)]
    out = {"pairs": len(pairs)}
    for name in pairs[0]["parent"]:
        parent = [p["parent"][name]["value"] for p in pairs]
        change = [p["change"][name]["value"] for p in pairs]
        entry = {"unit": pairs[0]["parent"][name]["unit"], "parent": quartiles(parent),
                 "change": quartiles(change),
                 "ratio": quartiles([c / p if p else math.nan for p, c in zip(parent, change)])}
        if name in better:
            sign = 1.0 if better[name] == "lower" else -1.0
            entry["better"] = better[name]
            entry["change_wins"] = sum(sign * (p - c) > 0.0 for p, c in zip(parent, change))
            q1, median, q3 = entry["parent"]
            entry["pair_rule_holds"] = (entry["change_wins"] >= 0.9 * len(pairs)
                                        and sign * (median - entry["change"][1]) > q3 - q1)
        out[name] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", required=True, help="the parent revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--out", help="the BENCH file, by default BENCH_<short sha of HEAD>.json")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    parent_commit = git("rev-parse", "--verify", f"{args.against}^{{commit}}")
    head = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    out = Path(args.out or ROOT / f"BENCH_{head[:7]}.json")
    doc = json.loads(out.read_text()) if out.exists() else {}
    if doc and doc["parent_commit"] != parent_commit:
        raise SystemExit(f"{out} holds runs against {doc['parent_commit']}, not {parent_commit}")
    better = {m["name"]: m["better"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}

    scratch = Path(tempfile.mkdtemp(prefix="qel-pairs-"))
    parent_tree = scratch / "parent"
    try:
        git("worktree", "add", "--detach", str(parent_tree), parent_commit)
        trees = {"parent": parent_tree, "change": ROOT}
        cached = {side: (tree / "src" / "qel" / "__pycache__").is_dir() for side, tree in trees.items()}
        if cached["parent"] != cached["change"]:
            raise SystemExit(f"src/qel/__pycache__ is present in one tree only: {cached}; remove it first")
        runs, env = [], {}
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                last, env, wall = run_once(trees[side], args.workload, args.seconds)
                runs.append({"workload": args.workload, "pair": pair, "side": side, "order_in_pair": position,
                             "returncode": 0, "wall_s": round(wall, 2), "last_line": last})
                print(f"{args.workload} pair {pair} {side}: op_s.p50 "
                      f"{last['metrics'].get('op_s.p50', {}).get('value')}", file=sys.stderr)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(parent_tree)], cwd=ROOT, capture_output=True)
        shutil.rmtree(scratch, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)

    bytecode = (f"PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', '')!r}; "
                f"src/qel/__pycache__ {'present' if cached['change'] else 'absent'} in both trees at the start")
    summary = {**doc.get("summary", {}), args.workload: summarize(runs, better)}
    runs = [r for r in doc.get("runs", []) if r["workload"] != args.workload] + runs
    counts = ", ".join(f"{w} {s['pairs']}" for w, s in summary.items())
    doc = {
        "command": f"{Path(sys.executable).name} perfbench/run.py --workload WORKLOAD --seconds "
                   f"{args.seconds:g} --trace 0",
        "parent_commit": parent_commit,
        "change": git("log", "-1", "--format=%h %s") + (" (with uncommitted edits)" if dirty else ""),
        "machine": (f"{env.get('nproc')} CPUs, {env.get('cpu_model')}, Python {env.get('python')}, "
                    f"numpy {env.get('numpy')}"),
        "bytecode": bytecode,
        "design": (f"Paired runs by scripts/pairs.py, one run at a time; pairs per workload: {counts}. "
                   "The parent runs first in even pairs (order_in_pair 0 runs first). The parent side is "
                   "a git worktree of parent_commit; the change side is the working tree. Each summary "
                   "entry gives [q1, median, q3]; ratio is change/parent per pair."),
        "summary": summary,
        "runs": runs,
    }
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
