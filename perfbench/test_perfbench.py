"""Self-tests of the benchmark: seeded inputs, oracle failure counting, and
the span tracer.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

import oracle
import run
import tracer
import workloads

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def launcher():
    with run.Launcher(SRC) as launcher:
        yield launcher


def _files(d: Path) -> dict[str, bytes]:
    return {f.name: f.read_bytes() for f in sorted(d.iterdir())}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(tmp_path, name):
    dirs = [tmp_path / k for k in ("a", "b", "c")]
    for d, seed in zip(dirs, (5, 5, 6)):
        d.mkdir()
        workloads.build(name, seed, d)
    first, second, other = (_files(d) for d in dirs)
    assert first and first == second
    assert other.keys() == first.keys() and other != first


def _step(steps, *words):
    return next(s for s in steps if all(w in s.argv for w in words))


def test_corrupted_output_counts_as_failed(tmp_path, launcher):
    steps = workloads.build("mps-pipeline", 3, tmp_path)
    step = _step(steps, "from-vector", "l16.vec")
    good = run.evaluate(step, run.run_cli(step.argv, tmp_path, launcher))
    assert good.rc == 0 and good.checks > 0 and not good.failures

    chain = tmp_path / "l16.mps"
    lines = chain.read_text().splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith("A1"))
    lines[k + 1] = "0.25 0"
    chain.write_text("\n".join(lines) + "\n")
    assert run.evaluate(step, good).failures

    garbled = run.Run(good.argv, good.start, good.end, 0, good.stdout.replace("dims=", "dimz="), "", good.rss_mb)
    assert run.evaluate(step, garbled).failures
    crashed = run.Run(good.argv, good.start, good.end, 1, "", "error: boom", good.rss_mb)
    assert run.evaluate(step, crashed).failures


def test_wrong_count_counts_as_failed(tmp_path):
    step = _step(workloads.build("sym-suite", 3, tmp_path), "dof", "16")
    counts = oracle.dof_counts(16)
    lines = [f"count_{k}={v}" for k, v in counts.items()] + [f"reduction_{k}={2**16 / v!r}" for k, v in counts.items()]
    ok = run.evaluate(step, run.Run(step.argv, 0.0, 1.0, 0, "\n".join(lines), "", 1.0))
    assert ok.checks == 9 and not ok.failures
    lines[0] = f"count_bitflip={counts['bitflip'] + 1}"
    assert run.evaluate(step, run.Run(step.argv, 0.0, 1.0, 0, "\n".join(lines), "", 1.0)).failures


@pytest.mark.parametrize("words", [("from-vector", "l16.vec"), ("check", "l16_right.mps")])
def test_traced_stdout_is_identical(tmp_path, launcher, words):
    steps = [s for s in workloads.build("mps-pipeline", 4, tmp_path) if any(a.startswith("l16") for a in s.argv)]
    step = _step(steps, *words)
    for before in steps[: steps.index(step)]:
        assert run.run_cli(before.argv, tmp_path, launcher).rc == 0
    plain = run.run_cli(step.argv, tmp_path, launcher)
    traced = run.run_cli(step.argv, tmp_path, launcher, trace=(7, tmp_path / "spans.json"))
    assert plain.rc == traced.rc == 0
    assert plain.stdout == traced.stdout and plain.stdout
    spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
    names = [s[0] for s in spans]
    assert names[:2] == ["cli.import", "cli.main"] and all(s[6] == 7 for s in spans)
    # svd is bound in mps by `from .linalg import svd`; those calls are caught
    svd = [s for s in spans if s[0] == "linalg.svd"]
    assert all(spans[s[3]][0] == "mps.from_vector" for s in svd)
    assert len(svd) == (15 if "from-vector" in words else 0)


def test_layer_self_times_and_coverage():
    spans = [
        ["cli.import", 0.0, 0.4, -1, 0, None, 0],
        ["cli.main", 0.4, 1.0, -1, 0, None, 0],
        ["mps.from_vector", 0.5, 0.9, 1, 0, [3, 6], 0],
        ["linalg.svd", 0.6, 0.7, 2, 0, 8, 0],
        ["linalg.svd", 0.7, 0.75, 2, 1, 8, 0],
        ["fileio.read_vec", 0.45, 0.5, 1, 0, 100, 0],
    ]
    m = tracer.layer_metrics([spans], [1.05], [1.0])
    assert m["cli.import_s"] == pytest.approx(0.4)
    assert m["cli.self_s"] == pytest.approx(0.6 - 0.4 - 0.05)
    assert m["mps.decompose_s"] == pytest.approx(0.4 - 0.15)
    assert m["linalg.svd_s"] == pytest.approx(0.15)
    assert (m["linalg.svd_calls"], m["linalg.svd_flops"], m["fileio.read_bytes"]) == (2, 16, 100)
    assert m["mps.bond_fill"] == 0.5
    assert (m["linalg.errors"], m["mps.errors"]) == (1, 0)
    assert m["trace.overhead_s"] == pytest.approx(0.05)
    assert m["trace.coverage"] == pytest.approx(1.0 / 1.05)


def test_contract_matches_component_products():
    rng = np.random.default_rng(0)
    for p, boundary in itertools.product((1, 2, 5), ("open", "periodic")):
        dims = [1] + [3] * (p - 1) + [1] if boundary == "open" else [3] * (p + 1)
        sites = [tuple(rng.standard_normal((2, dims[j], dims[j + 1])) + 0j) for j in range(p)]
        want = [np.trace(np.linalg.multi_dot([np.eye(dims[0])] + [sites[j][b] for j, b in enumerate(bits)] +
                                             [np.eye(dims[-1])]))
                for bits in itertools.product((0, 1), repeat=p)]
        assert np.allclose(oracle.contract(sites), want)


@pytest.mark.parametrize("p", range(2, 10))
def test_dof_formulas_match_brute_force(p):
    strings = ["".join(b) for b in itertools.product("01", repeat=p)]
    flip = str.maketrans("01", "10")

    def orbit(s, moves):
        seen, todo = {s}, [s]
        while todo:
            current = todo.pop()
            for t in (m(current) for m in moves):
                if t not in seen:
                    seen.add(t)
                    todo.append(t)
        return frozenset(seen)

    moves = {"bitshift": lambda s: s[1:] + s[0], "bitflip": lambda s: s.translate(flip), "reverse": lambda s: s[::-1]}
    want = {k: len({orbit(s, [m]) for s in strings}) for k, m in moves.items()}
    want["combined"] = len({orbit(s, list(moves.values())) for s in strings})
    assert oracle.dof_counts(p) == want
