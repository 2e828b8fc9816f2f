"""Paired benchmark runs of two source trees, written as one BENCH_<n>.json.

    python3 tools/benchpair.py PARENT_TREE CHANGE_TREE --workload ham-spectra,mps-pipeline \\
        --seeds 1-10 --out BENCH_<n>.json

For every workload and seed, each tree's own ``perfbench/run.py --trace 0``
runs once from that tree's root, for the ``run_seconds`` of the
``BENCHMARK.json`` beside this script; odd seeds run the parent first, even
seeds the change first.  Then one ``--trace 1`` pass per side of the first
workload at the first seed gives the per-layer metrics.

The output records the five end-to-end metrics of every run, and per
workload and metric each side's median and quartiles (inclusive method),
how many pairs the change won (a tie counts for neither side) and the ratio
of the medians.  The trees are only read: the runs write nothing but
``perfbench/run.py``'s own ``.perfbench_work/`` (ignored by git), and the
source tree hashes are computed in memory, as git would give them once the
tree's files under ``src/`` (all but ``__pycache__/`` and ``*.pyc``) were
committed.  A tree need not be a git checkout: a plain copy, such as ``git
archive`` output, is hashed too and its commit reads "not a git checkout";
any other git error stops the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
SECONDS = BENCHMARK["run_seconds"]
METRICS = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}


def run(tree: Path, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """The result line (metrics flattened to values) and environment of one run."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    env = json.loads(next(line for line in lines if line.startswith("environment "))[len("environment "):])
    result = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {**metrics, "attempted": result["attempted"], "failed": result["failed"]}, env


def git(tree: Path, *args: str) -> str:
    # LC_ALL=C keeps git's messages untranslated, for commit_of to read
    return subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True,
                          check=True, env={**os.environ, "LC_ALL": "C"}).stdout


def src_tree_hash(tree: Path) -> str:
    """git's tree hash of ``src/`` over every file but ``__pycache__/`` and ``*.pyc``."""
    entries: dict = {}
    for path in (tree / "src").rglob("*"):
        if path.is_file() and "__pycache__" not in path.parts and path.suffix != ".pyc":
            node = entries
            *dirs, name = path.relative_to(tree / "src").parts
            for d in dirs:
                node = node.setdefault(d, {})
            node[name] = path

    def obj(kind: str, body: bytes) -> bytes:
        return hashlib.sha1(f"{kind} {len(body)}\0".encode() + body).digest()

    def tree_obj(node: dict) -> bytes:
        # git sorts a subtree by its name followed by "/"
        items = sorted(node.items(), key=lambda kv: kv[0] + ("/" if isinstance(kv[1], dict) else ""))
        body = b""
        for name, child in items:
            if isinstance(child, dict):
                mode, sha = b"40000", tree_obj(child)
            else:
                mode = b"100755" if child.stat().st_mode & 0o111 else b"100644"
                sha = obj("blob", child.read_bytes())
            body += mode + b" " + name.encode() + b"\0" + sha
        return obj("tree", body)

    return tree_obj(entries).hex()


def commit_of(tree: Path, src_tree: str) -> str:
    try:
        head = git(tree, "rev-parse", "HEAD").strip()
    except subprocess.CalledProcessError as err:
        if "not a git repository" in err.stderr:
            return "not a git checkout"
        raise
    if git(tree, "rev-parse", "HEAD:src").strip() == src_tree:
        return head
    return f"uncommitted, on top of {head}"


def summary(pairs: list[dict]) -> dict:
    out = {}
    for name, better in METRICS.items():
        sides = {side: [p[side][name] for p in pairs] for side in ("parent", "change")}
        q = {side: statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
             for side, xs in sides.items()}
        sign = 1 if better == "lower" else -1
        wins = sum(sign * (c - p) < 0 for p, c in zip(sides["parent"], sides["change"]))
        out[name] = {
            **{side: {"q1": qs[0], "median": qs[1], "q3": qs[2]} for side, qs in q.items()},
            "change_wins": wins,
            "pairs": len(pairs),
            "ratio_of_medians": q["change"][1] / q["parent"][1] if q["parent"][1] else None,
        }
    return out


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="source tree of the parent commit")
    ap.add_argument("change", type=Path, help="source tree of the change")
    ap.add_argument("--workload", required=True, help="comma-separated workload names")
    ap.add_argument("--seeds", default="1-10", help="seeds as ranges and lists, e.g. 1-10 or 1,3,5")
    ap.add_argument("--out", type=Path, required=True, help="the BENCH_<n>.json to write")
    args = ap.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    workloads, seeds = args.workload.split(","), parse_seeds(args.seeds)

    record: dict = {
        "what": f"perfbench/run.py --workload <w> --seed <s> --seconds {SECONDS:g} --trace 0 on the parent "
                "and on the change, each from its own tree, one pair per seed; odd seeds run the parent "
                "first, even seeds the change first",
    }
    for side, tree in trees.items():
        src_tree = src_tree_hash(tree)
        record[f"{side}_sha"], record[f"{side}_src_tree"] = commit_of(tree, src_tree), src_tree
    record["machine"], record["workloads"] = None, {}
    env = {}
    for workload in workloads:
        pairs = []
        for seed in seeds:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side], env = run(trees[side], workload, seed, trace=0)
            pairs.append(pair)
            print(f"{workload} seed {seed}: wall_s parent {pair['parent']['wall_s']:.3f} "
                  f"change {pair['change']['wall_s']:.3f}", flush=True)
        record["workloads"][workload] = {"summary": summary(pairs), "pairs": pairs}
    record["machine"] = {k: v for k, v in env.items() if k not in ("git_sha", "seed")}
    record["traced"] = {side: run(trees[side], workloads[0], seeds[0], trace=1)[0] for side in trees}
    record["traced"]["what"] = (f"perfbench/run.py --workload {workloads[0]} --seed {seeds[0]} "
                                f"--seconds {SECONDS:g} --trace 1, one pass per side")
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
