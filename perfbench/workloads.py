"""The three workloads: seeded inputs, the CLI command list of one pass, and
the oracle check of every command.

The seed changes values only (couplings, random states, bit strings), never
sizes or the command list, so every seed asks for the same amount of work.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial, reduce
from pathlib import Path
from typing import Callable

import numpy as np

import oracle as o

TOL = 1e-8


class Checker:
    """Counts the oracle checks one command runs and the ones that fail."""

    def __init__(self):
        self.n = 0
        self.failures: list[str] = []

    def true(self, cond, what: str) -> None:
        self.n += 1
        if not cond:
            self.failures.append(what)

    def close(self, got, want, what: str, tol: float = 1e-10) -> None:
        got, want = np.asarray(got), np.asarray(want)
        ok = got.shape == want.shape and np.linalg.norm(got - want) <= tol * max(np.linalg.norm(want), 1.0)
        self.true(ok, what)


@dataclass
class Step:
    """One CLI command and the oracle check of its stdout and output files."""

    argv: list[str]
    check: Callable[[Checker, str], None]


def _bits(rng, p: int) -> str:
    return "".join(str(b) for b in rng.integers(0, 2, p))


def _random_state(rng, p: int) -> np.ndarray:
    x = rng.standard_normal(2**p) + 1j * rng.standard_normal(2**p)
    return x / np.linalg.norm(x)


def _dims(report: dict[str, str]) -> list[int]:
    return [int(d) for d in report["dims"].split(",")]


def _check_chain(ck: Checker, path: Path, x: np.ndarray, gauge: str | None = None):
    """The chain in ``path`` contracts to x and meets its gauge at every
    site but the one carrying the norm; returns its sites."""
    sites, _ = o.read_mps(path)
    ck.close(o.contract(sites), x, f"{path.name} contracts to the source vector")
    if gauge == "right":
        ck.true(max(o.gauge_residuals(sites[1:], "right"), default=0.0) <= TOL, f"{path.name} right gauge")
    elif gauge is not None:
        ck.true(max(o.gauge_residuals(sites[:-1], gauge), default=0.0) <= TOL, f"{path.name} {gauge} gauge")
    return sites


# -------------------------------------------------------------- ham-spectra


def ham_spectra(rng, work: Path) -> list[Step]:
    """Dense assembly, eigh and classify on spin chains; small file IO."""

    def couplings() -> dict[str, float]:
        return {key: float(rng.uniform(0.5, 1.5)) for key in ("jx", "jy", "jz", "lam")}

    def model_argv(name, p, params, bc) -> list[str]:
        flags = {"jx": "--jx", "jy": "--jy", "jz": "--jz", "lam": "--lambda", "theta": "--theta"}
        argv = ["--model", name, "--p", str(p), "--bc", bc]
        for key, val in params.items():
            argv += [flags[key], repr(val)]
        return argv

    def ground(name, p, params, bc) -> Step:
        out = work / f"ground_{name}_{p}_{bc}.mat"

        def check(ck: Checker, stdout: str) -> None:
            h = o.model_matrix(name, p, params, bc)
            values = o.eigvalsh(h)
            rep = o.parse_report(stdout)
            scale = max(1.0, abs(values).max())
            ck.close(float(rep["energy"]), values[0], "ground energy", TOL)
            ck.close(float(rep["gap"]), values[1] - values[0], "spectral gap", TOL * scale)
            v = o.read_mat(out).reshape(-1)
            ck.true(abs(np.linalg.norm(v) - 1.0) <= TOL, "ground vector has unit norm")
            ck.true(np.linalg.norm(h @ v - values[0] * v) <= TOL * scale, "ground vector eigen-residual")

        return Step(["ham", "ground", *model_argv(name, p, params, bc), "--out", out.name], check)

    steps = []
    for i, name in enumerate(o.TABLE_MODELS):
        steps.append(ground(name, 9, couplings(), ("open", "periodic")[i % 2]))
    steps.append(ground("heis_xyz", 10, couplings(), "periodic"))
    steps.append(ground("aklt", 6, {}, "open"))
    steps.append(ground("bilinear_biquadratic", 6, {"theta": float(rng.uniform(-1.5, 1.5))}, "periodic"))

    def flags_check(matrix: Callable[[], np.ndarray]):
        def check(ck: Checker, stdout: str) -> None:
            want = o.structure_flags(matrix())
            rep = o.parse_report(stdout)
            for name, value in want.items():
                if name != "omega":
                    ck.true(rep.get(name) == str(value).lower(), f"flag {name}")
            ck.true(("omega" in rep) == (want["omega"] is not None), "omega reported iff omega-circulant")
            if want["omega"] is not None and "omega" in rep:
                ck.close(complex(rep["omega"]), want["omega"], "omega value", TOL)

        return check

    params = couplings()
    steps.append(Step(["ham", "certify", *model_argv("heis_xxz", 11, params, "periodic")],
                      flags_check(lambda: o.model_matrix("heis_xxz", 11, params, "periodic"))))

    params = couplings()

    def check_spectrum(ck: Checker, stdout: str) -> None:
        spectrum = o.eigvalsh(o.model_matrix("heis_xz", 10, params, "open"))
        got = np.array([float(v) for v in (work / "spectrum.txt").read_text().split()])
        ck.close(got, spectrum, "full spectrum", TOL)
        ck.true(o.parse_report(stdout).get("dim") == str(len(spectrum)), "spectrum dim")

    steps.append(Step(["ham", "spectrum", *model_argv("heis_xz", 10, params, "open"), "--out", "spectrum.txt"],
                      check_spectrum))

    h8 = o.model_matrix("heis_xxz", 8, couplings(), "periodic")
    o.write_mat(work / "h8.mat", h8)
    steps.append(Step(["struct", "classify", "h8.mat"], flags_check(lambda: h8)))
    half = len(h8) // 2
    b, jc = h8[:half, :half], h8[half:, :half][::-1]

    def check_blocks(ck: Checker, stdout: str) -> None:
        h8_values = o.eigvalsh(h8)
        plus, minus = o.read_mat(work / "h8_plus.mat"), o.read_mat(work / "h8_minus.mat")
        ck.close(plus, b + jc, "B + JC block")
        ck.close(minus, b - jc, "B - JC block")
        both = np.sort(np.concatenate([o.eigvalsh(plus), o.eigvalsh(minus)]))
        ck.close(both, h8_values, "blocks keep the spectrum", TOL)

    steps.append(Step(["struct", "blockdiag", "h8.mat", "--out-plus", "h8_plus.mat", "--out-minus", "h8_minus.mat"],
                      check_blocks))
    return steps


# ------------------------------------------------------------- mps-pipeline


def mps_pipeline(rng, work: Path) -> list[Step]:
    """TT-SVD, sweeps, truncation and contraction, with MB-sized text IO.

    Full-rank states make the SVDs large; sums of four product states keep
    every bond at most 4, so parsing and formatting the vector dominate.
    """
    inputs = {}  # tag -> (vector, its Schmidt values when first needed)
    for tag, p in (("f14", 14), ("f16", 16)):
        x = _random_state(rng, p)
        inputs[tag] = (x, cache(partial(o.schmidt_values, x)))
    for tag, p in (("l16", 16), ("l18", 18)):
        factors = rng.standard_normal((4, p, 2)) + 1j * rng.standard_normal((4, p, 2))
        coeffs = rng.uniform(0.5, 1.5, 4)
        x = sum(c * reduce(np.kron, f) for c, f in zip(coeffs, factors))
        norm = np.linalg.norm(x)
        inputs[tag] = (x / norm, cache(partial(o.product_sum_schmidt, factors, coeffs / norm)))
    for tag, (x, _) in inputs.items():
        o.write_vec(work / f"{tag}.vec", x)

    def ranks(sigmas) -> list[int]:
        return [1] + [int(np.sum(s > 1e-12 * s[0])) for s in sigmas] + [1]

    def from_vector(tag) -> Step:
        x, sigmas = inputs[tag]

        def check(ck: Checker, stdout: str) -> None:
            sites = _check_chain(ck, work / f"{tag}.mps", x, "left")
            dims = [1] + [a0.shape[1] for a0, _ in sites]
            ck.true(dims == _dims(o.parse_report(stdout)), "reported dims match the file")
            ck.true(dims == ranks(sigmas()), "bond dims are the Schmidt ranks")

        return Step(["mps", "from-vector", f"{tag}.vec", "--out", f"{tag}.mps"], check)

    def normalize(tag, form) -> Step:
        x, sigmas = inputs[tag]
        out = work / f"{tag}_{form}.mps"

        def check(ck: Checker, stdout: str) -> None:
            sites = _check_chain(ck, out, x, "left" if form == "vidal" else form)
            if form == "strong" and sites[0][0].shape == (1, 2):
                ck.close(np.vstack(sites[0]), np.eye(2), "strong form pins site 1")
            if form == "vidal":
                rep = o.parse_report(stdout)
                for j, s in enumerate(sigmas(), start=1):
                    want = s[s > 1e-12 * s[0]]
                    ck.close(o.floats(rep[f"lambda_{j}"]), want, f"Schmidt values at bond {j}", TOL)

        return Step(["mps", "normalize", f"{tag}.mps", "--form", form, "--out", out.name], check)

    def gauge_check(name, gauge) -> Step:
        def check(ck: Checker, stdout: str) -> None:
            rep = o.parse_report(stdout)
            want = o.gauge_residuals(o.read_mps(work / name)[0], gauge)
            got = [float(rep[f"site_{j}"]) for j in range(1, len(want) + 1)]
            ck.true(np.allclose(got, want, rtol=1e-6, atol=1e-12), f"{gauge} residuals per site")
            ck.true(abs(float(rep["max_residual"]) - max(want)) <= 1e-6 * max(want) + 1e-12, "max residual")

        return Step(["mps", "check", name, "--gauge", gauge], check)

    def evaluate(tag, name) -> Step:
        x, _ = inputs[tag]
        bits = _bits(rng, len(x).bit_length() - 1)

        def check(ck: Checker, stdout: str) -> None:
            rep = o.parse_report(stdout)
            got = complex(float(rep["re"]), float(rep["im"]))
            ck.true(abs(got - x[int(bits, 2)]) <= 1e-12, f"component {bits}")

        return Step(["mps", "eval", name, "--bits", bits], check)

    def truncate(tag, d_max) -> Step:
        x, sigmas = inputs[tag]
        out = work / f"{tag}_d{d_max}.mps"

        def check(ck: Checker, stdout: str) -> None:
            bound = sum(float(np.sum(s[d_max:] ** 2)) for s in sigmas())
            sites, _ = o.read_mps(out)
            ck.true(max(a0.shape[1] for a0, _ in sites) <= d_max, "bond dims within d_max")
            err2 = float(np.linalg.norm(o.contract(sites) - x) ** 2)
            ck.true(err2 <= bound * (1 + 1e-9) + 1e-20, "error^2 <= sum of discarded Schmidt values^2")

        return Step(["mps", "truncate", f"{tag}.mps", "--dmax", str(d_max), "--out", out.name], check)

    def to_vector(tag, name) -> Step:
        x, _ = inputs[tag]
        out = work / f"{Path(name).stem}.out.vec"

        def check(ck: Checker, stdout: str) -> None:
            ck.close(o.read_vec(out), x, f"{name} expands to the source vector")

        return Step(["mps", "to-vector", name, "--out", out.name], check)

    return [
        from_vector("f14"),
        normalize("f14", "strong"),
        gauge_check("f14_strong.mps", "strong"),
        evaluate("f14", "f14.mps"),
        from_vector("f16"),
        normalize("f16", "left"),
        gauge_check("f16_left.mps", "left"),
        truncate("f16", 16),
        to_vector("f16", "f16_left.mps"),
        from_vector("l16"),
        normalize("l16", "right"),
        gauge_check("l16_right.mps", "right"),
        evaluate("l16", "l16_right.mps"),
        from_vector("l18"),
        normalize("l18", "vidal"),
        truncate("l18", 2),
        to_vector("l18", "l18_vidal.mps"),
    ]


# ---------------------------------------------------------------- sym-suite


def _relation_residual(kind: str, sign: int, sites, mats) -> float:
    """Largest residual of the site relations a witness certifies."""
    p = len(sites)
    res = []
    if kind == "bitshift":
        res = [np.linalg.norm(np.stack(s) - np.stack(sites[0])) for s in sites]
    elif kind == "bitflip":
        for j, (a0, a1) in enumerate(sites):
            lead = sign if j == 0 else 1
            res.append(np.linalg.norm(a1 - lead * mats[j] @ a0 @ mats[(j + 1) % p]))
    else:  # reverse: A_j^H = S_{p-j}^{-1} A_{p+1-j} S_{p+1-j}, with S_0 = S_p
        for j in range(1, p + 1):
            s_left, s_right = mats[p - j - 1], mats[p - j]  # S_{p-j}, S_{p+1-j}; mats[-1] is S_p = S_0
            for a, m in zip(sites[j - 1], sites[p - j]):
                res.append(np.linalg.norm(a.conj().T - np.linalg.solve(s_left, m @ s_right)))
    return float(max(res))


def sym_suite(rng, work: Path) -> list[Step]:
    """Symmetry detection, constructions with witness IO, normal forms
    (Schur), orbits and orbit counting."""
    y = _random_state(rng, 16)
    y = y + y[::-1]
    detect_x = (y + np.conj(y[o.reverse_index(16)])) / 2
    rev_x = _random_state(rng, 14)
    rev_x = rev_x + np.conj(rev_x[o.reverse_index(14)])
    sign = int(rng.choice([-1, 1]))
    flip_x = _random_state(rng, 12)
    flip_x = flip_x + sign * flip_x[::-1]
    shift_x, idx = 0, np.arange(2**10)
    base = _random_state(rng, 10)
    for _ in range(10):
        shift_x, idx = shift_x + base[idx], idx[o.shift_index(10)]
    vectors = {"d16": detect_x, "r14": rev_x, "b12": flip_x, "s10": shift_x}
    vectors = {tag: x / np.linalg.norm(x) for tag, x in vectors.items()}
    for tag, x in vectors.items():
        o.write_vec(work / f"{tag}.vec", x)
    kinds = o.vector_symmetries(vectors["d16"])
    r14_sigma = np.linalg.svd(vectors["r14"].reshape(2**7, 2**7), compute_uv=False)
    orbit_bits = _bits(rng, 12)

    def detect(ck: Checker, stdout: str) -> None:
        ck.true(set(o.parse_report(stdout)["kinds"].split(",")) == kinds, "detected kinds")

    steps = [Step(["sym", "detect", "d16.vec"], detect)]

    def construct(tag, kind) -> list[Step]:
        x = vectors[tag]
        extra = ["--sign", str(sign)] if kind == "bitflip" else []

        def check_construct(ck: Checker, stdout: str) -> None:
            sites = _check_chain(ck, work / f"{tag}.mps", x)
            ck.true(_dims(o.parse_report(stdout)) == [sites[0][0].shape[0]] + [a0.shape[1] for a0, _ in sites],
                    "reported dims match the file")
            wkind, wsign, mats = o.read_witness(work / f"{tag}.wit")
            scale = max(np.linalg.norm(a) for pair in sites for a in pair)
            ck.true(wkind == kind and _relation_residual(kind, wsign, sites, mats) <= TOL * scale,
                    f"{kind} witness relations")

        def check_verify(ck: Checker, stdout: str) -> None:
            rep = o.parse_report(stdout)
            ck.true(rep["kind"] == kind and float(rep["max_residual"]) <= TOL, f"verify {kind} residual")

        return [
            Step(["sym", "construct", "--kind", kind, "--vec", f"{tag}.vec", *extra,
                  "--out", f"{tag}.mps", "--wit", f"{tag}.wit"], check_construct),
            Step(["sym", "verify", f"{tag}.mps", "--wit", f"{tag}.wit"], check_verify),
        ]

    steps += construct("r14", "reverse") + construct("b12", "bitflip") + construct("s10", "bitshift")

    def reverse_nf(ck: Checker, stdout: str) -> None:
        rep = o.parse_report(stdout)
        ck.true(float(rep["reconstruction_error"]) <= TOL, "reverse normal form reconstructs")
        unitarity = [float(v) for k, v in rep.items() if k.startswith("unitarity_")]
        ck.true(bool(unitarity) and max(unitarity) <= TOL, "reverse normal form factors are isometries")
        sigma = np.sort(np.abs(o.floats(rep["sigma"])))[::-1]
        padded = np.zeros(max(len(sigma), len(r14_sigma)))
        padded[: len(r14_sigma)] = r14_sigma
        ck.close(sigma, padded[: len(sigma)], "|Sigma| are the half-chain Schmidt values", TOL)

    def bitflip_nf(ck: Checker, stdout: str) -> None:
        sites = _check_chain(ck, work / "b12_nf.mps", vectors["b12"])
        _, wsign, mats = o.read_witness(work / "b12_nf.wit")
        ck.true(all(np.array_equal(m, np.diag(np.diag(m))) and set(np.diag(m).real) <= {1.0, -1.0} for m in mats),
                "normal-form witnesses are +-1 diagonals")
        scale = max(np.linalg.norm(a) for pair in sites for a in pair)
        ck.true(_relation_residual("bitflip", wsign, sites, mats) <= TOL * scale, "diagonal witness relations")

    def ti_nf(ck: Checker, stdout: str) -> None:
        sites = _check_chain(ck, work / "s10_nf.mps", vectors["s10"])
        ck.true(_relation_residual("bitshift", 1, sites, None) == 0.0, "ti normal form is site-independent")
        a0 = sites[0][0]
        ck.true(np.linalg.norm(np.tril(a0, -1)) <= TOL * np.linalg.norm(a0), "ti normal form A0 is triangular")

    steps += [
        Step(["sym", "normal-form", "--kind", "reverse", "--vec", "r14.vec"], reverse_nf),
        Step(["sym", "normal-form", "--kind", "bitflip", "--mps", "b12.mps", "--wit", "b12.wit",
              "--out", "b12_nf.mps", "--wit-out", "b12_nf.wit"], bitflip_nf),
        Step(["sym", "normal-form", "--kind", "ti", "--mps", "s10.mps", "--out", "s10_nf.mps"], ti_nf),
    ]

    want_orbits = o.orbit_sets(orbit_bits)

    def orbits(ck: Checker, stdout: str) -> None:
        got: dict[str, list[str]] = {}
        for line in stdout.split():
            if line.endswith("_orbit"):
                section = got.setdefault(line, [])
            else:
                section.append(line)
        ck.true(got == want_orbits, "orbit sets")

    steps.append(Step(["sym", "orbits", "--bits", orbit_bits], orbits))

    def dof(p: int) -> Step:
        want = o.dof_counts(p)

        def check(ck: Checker, stdout: str) -> None:
            rep = o.parse_report(stdout)
            for kind, count in want.items():
                ck.true(rep.get(f"count_{kind}") == str(count), f"dof count {kind} at p={p}")
                ck.close(float(rep[f"reduction_{kind}"]), 2**p / count, f"reduction {kind} at p={p}", 1e-15)

        return Step(["sym", "dof", "--p", str(p), "--kinds", "bitshift,bitflip,reverse"], check)

    return steps + [dof(16), dof(18)]


WORKLOADS = {"ham-spectra": ham_spectra, "mps-pipeline": mps_pipeline, "sym-suite": sym_suite}


def build(name: str, seed: int, work: Path) -> list[Step]:
    """Write the seeded inputs of a workload into ``work``; return its pass."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    return WORKLOADS[name](rng, work)
