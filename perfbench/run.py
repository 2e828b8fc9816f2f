"""Benchmark of the symtt command-line tool, run the way a user runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root.  Each command of a workload is a fresh
``python -m symtt.cli`` process with ``src`` on PYTHONPATH, so its time covers
interpreter start, import, file parse, kernel, formatting and write.  One
closed-loop client runs one command at a time; BLAS keeps its default thread
count.  Every output is checked against the oracle in ``oracle.py``.

Set-up (seeded inputs, oracle precomputation and one warm-up command) runs
three times and ``setup_s`` is their median.  A pass is the workload's whole
command list.  ``--trace 0`` runs the list in order, over and over: the first
pass in full, then further commands until ``--seconds`` have passed.  Each
command's time is the median of its runs, and the end-to-end metrics are:

* ``wall_s``: the sum of the per-command times, i.e. one pass;
* ``cmd_p50_s``: the median per-command time;
* ``cmd_tail_s``: the per-command time at the highest percentile that has at
  least ten commands beyond it (the summary line names it);
* ``peak_rss_mb``: the largest child ``ru_maxrss``;
* ``setup_s``.

Failed commands (nonzero exit or oracle mismatch) are the ``failed`` count
of the result line; the summary prints ``fail_frac``.

``--trace 1`` runs one pass in which every command runs untraced and then
under ``tracer.py``, checks that both print the same stdout, and reports the
per-layer metrics of the traced runs.  All spans of the run are written to
``.perfbench_work/<workload>-<seed>/spans.jsonl``, and the environment and
per-command records to ``result.json`` beside it; the inputs and outputs in
``io/`` are removed once checked.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import tracer
import workloads

HERE = Path(__file__).resolve().parent
SETUPS = 3
#: a command running longer than this is killed and counted as failed
COMMAND_TIMEOUT_S = 60.0
WARM_UP = ["sym", "orbits", "--bits", "0110"]
UNITS = {"wall_s": "s", "cmd_p50_s": "s", "cmd_tail_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class Run:
    argv: list[str]
    start: float
    end: float
    rc: int
    stdout: str
    stderr: str
    rss_mb: float
    checks: int = 0
    check_s: float = 0.0
    failures: tuple[str, ...] = ()

    @property
    def wall(self) -> float:
        return self.end - self.start


class Launcher:
    """Handle on ``launcher.py``, the small process that starts each command."""

    def __init__(self, src: Path):
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, env=dict(os.environ, PYTHONPATH=path))

    def run(self, cmd: list[str], cwd: Path, stdout: Path, stderr: Path) -> dict:
        request = {"argv": cmd, "cwd": str(cwd), "stdout": str(stdout), "stderr": str(stderr),
                   "timeout": COMMAND_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the command launcher exited")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=COMMAND_TIMEOUT_S)
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def run_cli(argv: list[str], work: Path, launcher: Launcher, trace: tuple[int, Path] | None = None) -> Run:
    """Run one CLI command to completion; time it and take its peak RSS."""
    if trace is None:
        cmd = [sys.executable, "-m", "symtt.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "tracer.py"), str(trace[0]), str(trace[1]), *argv]
    out_path, err_path = work / ".stdout", work / ".stderr"
    reply = launcher.run(cmd, work, out_path, err_path)
    return Run(argv, reply["start"], reply["end"], reply["rc"], out_path.read_text(encoding="utf-8"),
               err_path.read_text(encoding="utf-8"), reply["maxrss_kb"] / 1024)


def evaluate(step: workloads.Step, run: Run, extra_failures: tuple[str, ...] = ()) -> Run:
    """Apply the step's oracle to a finished command."""
    start = time.perf_counter()
    ck = workloads.Checker()
    ck.true(run.rc == 0, f"exit code {run.rc}: {run.stderr.strip()[-300:]}")
    if run.rc == 0:
        try:
            step.check(ck, run.stdout)
        except Exception as exc:  # unreadable or missing output is a mismatch
            ck.failures.append(f"oracle could not read the output: {exc!r}")
    run.checks, run.failures = ck.n, tuple(ck.failures) + extra_failures
    run.check_s = time.perf_counter() - start
    return run


def setup(name: str, seed: int, work: Path, launcher: Launcher) -> tuple[list[workloads.Step], float]:
    start = time.perf_counter()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    steps = workloads.build(name, seed, work)
    warm = run_cli(WARM_UP, work, launcher)
    if warm.rc != 0:
        raise RuntimeError(f"warm-up command failed: {warm.stderr.strip()}")
    return steps, time.perf_counter() - start


def measure(steps: list[workloads.Step], seconds: float, work: Path, launcher: Launcher) -> list[list[Run]]:
    """Run the command list in order, over and over: the first pass in full,
    then further commands until ``seconds`` have passed; returns the runs of
    each command."""
    samples: list[list[Run]] = [[] for _ in steps]
    start = time.perf_counter()
    for k in itertools.count():
        if k >= len(steps) and time.perf_counter() - start >= seconds:
            return samples
        step = steps[k % len(steps)]
        samples[k % len(steps)].append(evaluate(step, run_cli(step.argv, work, launcher)))


def end_to_end(samples: list[list[Run]], setup_s: float) -> tuple[dict, str]:
    typical = sorted(statistics.median(r.wall for r in runs) for runs in samples)
    n = len(typical)
    rank = max(n - 11, 0)  # ten commands lie beyond it
    metrics = {
        "wall_s": sum(typical),
        "cmd_p50_s": statistics.median(typical),
        "cmd_tail_s": typical[rank],
        "peak_rss_mb": max(r.rss_mb for runs in samples for r in runs),
        "setup_s": setup_s,
    }
    note = (f"cmd_tail_s is p{100 * (rank + 1) / n:.0f} of the {n} per-command medians "
            f"({sum(map(len, samples))} command runs)")
    return metrics, note


def traced_pass(steps: list[workloads.Step], work: Path, launcher: Launcher, spans_dir: Path) -> tuple[list[Run], dict, list]:
    spans_dir.mkdir()
    runs, spans_by_cmd, plain_walls = [], [], []
    for i, step in enumerate(steps):
        spans_file = spans_dir / f"{i}.json"
        # alternate which runs first, so that neither gains from warm caches
        if i % 2:
            traced = run_cli(step.argv, work, launcher, trace=(i, spans_file))
            plain = run_cli(step.argv, work, launcher)
        else:
            plain = run_cli(step.argv, work, launcher)
            traced = run_cli(step.argv, work, launcher, trace=(i, spans_file))
        same = () if (plain.rc, plain.stdout) == (traced.rc, traced.stdout) else ("traced stdout differs",)
        runs.append(evaluate(step, traced, same))
        plain_walls.append(plain.wall)
        record = json.loads(spans_file.read_text()) if spans_file.exists() else {"entered": traced.start, "spans": []}
        spans_by_cmd.append(tracer.process_spans(record, traced.start, traced.end, i))
    metrics = tracer.layer_metrics(spans_by_cmd, [r.wall for r in runs], plain_walls)
    shutil.rmtree(spans_dir)
    return runs, metrics, spans_by_cmd


def _blas_threads():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var):
            return f"{var}={os.environ[var]}"
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return f"default ({fn()})"
    return None


def _git_sha(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = root / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else ref


def environment(seed: int, root: Path) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    ram = next((line.split()[1] for line in Path("/proc/meminfo").read_text().splitlines()
                if line.startswith("MemTotal:")), None)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "ram_gb": round(int(ram) / 2**20, 1) if ram else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_sha": _git_sha(root),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "symtt" / "cli.py").is_file():
        print(f"error: {src / 'symtt' / 'cli.py'} not found; run from the repository root", file=sys.stderr)
        return 2
    base = root / ".perfbench_work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(base, ignore_errors=True)
    work = base / "io"

    with Launcher(src) as launcher:
        setup_times = []
        for _ in range(SETUPS):
            steps, elapsed = setup(args.workload, args.seed, work, launcher)
            setup_times.append(elapsed)
        setup_s = statistics.median(setup_times)

        if args.trace:
            runs, metrics, spans_by_cmd = traced_pass(steps, work, launcher, base / "spans")
            with open(base / "spans.jsonl", "w", encoding="utf-8") as fh:
                for spans in spans_by_cmd:
                    fh.writelines(json.dumps(s) + "\n" for s in spans)
            note = f"trace.overhead_s over {len(runs)} paired commands"
        else:
            samples = measure(steps, args.seconds, work, launcher)
            runs = [r for per_command in samples for r in per_command]
            metrics, note = end_to_end(samples, setup_s)

    shutil.rmtree(work)
    failed = [r for r in runs if r.failures]
    env_info = environment(args.seed, root)
    (base / "result.json").write_text(json.dumps({
        "workload": args.workload,
        "trace": args.trace,
        "environment": env_info,
        "setup_times_s": setup_times,
        "metrics": metrics,
        "commands": [{"argv": r.argv, "wall_s": r.wall, "rc": r.rc, "rss_mb": r.rss_mb,
                      "checks": r.checks, "check_s": r.check_s, "failures": list(r.failures)} for r in runs],
    }, indent=1))

    for r in failed:
        print(f"FAILED {' '.join(r.argv)}: {'; '.join(r.failures)}")
    print("environment " + json.dumps(env_info))
    print(f"{args.workload}: {len(runs)} commands, {sum(r.checks for r in runs)} oracle checks, "
          f"fail_frac={len(failed) / len(runs):.4g}; {note}")
    unit = tracer.unit if args.trace else UNITS.__getitem__
    for name, value in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit(name)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
