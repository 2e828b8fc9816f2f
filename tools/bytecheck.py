"""Compare the CLI output of two source trees on the benchmark's workloads.

    python3 tools/bytecheck.py PARENT_TREE CHANGE_TREE --seeds 1,2

For every workload of ``perfbench/workloads.py`` (taken from the tree this
script lives in) and every seed, the workload's inputs are built once with
``workloads.build``, copied into one scratch directory per tree, and the
workload's command list is run there in order as ``python -m symtt.cli`` with
that tree's ``src`` on PYTHONPATH.  The script then lists every stdout line
and exit code that differs between the two trees, and every output file that
is missing on one side or not byte-identical.  It exits 0 when nothing
differs and 1 otherwise.  No file under either tree is written: the scratch
directories are temporary and no bytecode is cached.
"""

from __future__ import annotations

import argparse
import itertools
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402


def run_pass(tree: Path, steps, work: Path) -> list[tuple[int, list[str]]]:
    """Exit code and stdout lines of each command, run in order in ``work``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    out = []
    for step in steps:
        proc = subprocess.run([sys.executable, "-m", "symtt.cli", *step.argv], cwd=work, env=env,
                              capture_output=True, text=True)
        out.append((proc.returncode, proc.stdout.splitlines()))
    return out


def compare(name: str, seed: int, parent: Path, change: Path, scratch: Path) -> list[str]:
    """Differences between the two trees on one workload and seed."""
    inputs = scratch / "inputs"
    inputs.mkdir()
    steps = workloads.build(name, seed, inputs)
    runs = {}
    for side, tree in (("parent", parent), ("change", change)):
        shutil.copytree(inputs, scratch / side)
        runs[side] = run_pass(tree, steps, scratch / side)
    diffs = []
    for step, (rc_a, lines_a), (rc_b, lines_b) in zip(steps, runs["parent"], runs["change"]):
        cmd = " ".join(step.argv)
        if rc_a != rc_b:
            diffs.append(f"{cmd}: exit code {rc_a} -> {rc_b}")
        for a, b in itertools.zip_longest(lines_a, lines_b):
            if a != b:
                diffs.append(f"{cmd}: stdout\n  - {a}\n  + {b}")
    files = sorted({p.name for side in runs for p in (scratch / side).iterdir()})
    for f in files:
        a, b = scratch / "parent" / f, scratch / "change" / f
        if not (a.exists() and b.exists()):
            diffs.append(f"{f}: only in {'parent' if a.exists() else 'change'}")
        elif a.read_bytes() != b.read_bytes():
            diffs.append(f"{f}: contents differ")
    print(f"{name} seed {seed}: {len(steps)} commands, {len(files)} files, {len(diffs)} differences", flush=True)
    return diffs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="source tree of the parent commit")
    ap.add_argument("change", type=Path, help="source tree of the change")
    ap.add_argument("--seeds", default="1,2", help="comma-separated workload seeds (default 1,2)")
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    diffs = []
    for name, seed in itertools.product(workloads.WORKLOADS, seeds):
        with tempfile.TemporaryDirectory(prefix="bytecheck-") as scratch:
            diffs += [f"[{name} seed {seed}] {d}" for d in compare(name, seed, args.parent.resolve(),
                                                                    args.change.resolve(), Path(scratch))]
    print("\n".join(diffs) if diffs else "no differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
