"""Command-line interface.

Verb grammar:

    symtt ham    {build, certify, spectrum, ground}
    symtt mps    {from-vector, to-vector, eval, normalize, truncate, check}
    symtt sym    {detect, construct, normal-form, verify, orbits, dof}
    symtt struct {classify, split, blockdiag, circulant-eig}

Each group's parser names the function that runs its verbs.  Reports go to
stdout as key=value lines, or with --json as one JSON object, in which the
lines that ``ham spectrum`` and ``sym orbits`` print become lists; matrices,
vectors, chains, and witnesses go to files in the documented MAT1 / VEC1 /
MPS1 / WIT formats.  Exit codes: 0 success, 1 domain error, 2 usage.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import sys

if "numpy" not in sys.modules:
    # A CLI process runs OpenBLAS with one thread, whatever the caller's
    # setting: the kernels are small, a second thread only adds start-up cost
    # and memory, and the output bytes must not depend on the thread count.
    # OpenBLAS reads the variable once, when numpy loads it; a process that
    # loaded numpy first keeps its own setting.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from ._constants import EPS_STRUCT, EPS_SYM, MODEL_NAMES, MODEL_PARAMS, SYMMETRY_KINDS
from .errors import ShapeMismatchError, SymttError


def _lazy(name: str):
    """The library module ``symtt.<name>``, unless it is imported already:
    registered in ``sys.modules`` and on the package as an import would, but
    executed on its first attribute use."""
    full = f"{__package__}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec(full)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


# a command executes only the modules its verb uses; an import statement
# would execute the module it names, so the modules are bound from here
linalg, structured, hamiltonian, mps, symmetry, fileio = map(
    _lazy, ("linalg", "structured", "hamiltonian", "mps", "symmetry", "fileio")
)


def _g17(value: float) -> str:
    return f"{value:.17g}"


class Report:
    """Ordered key=value collector with a --json rendering."""

    def __init__(self):
        self.items: list[tuple[str, object]] = []

    def add(self, key: str, value) -> None:
        self.items.append((key, value))

    def emit(self, as_json: bool) -> None:
        if as_json:
            import json  # only --json needs it

            print(json.dumps(dict(self.items), default=str))
            return
        for key, value in self.items:
            if isinstance(value, float):
                value = _g17(value)
            print(f"{key}={value}")


def _spec_from_args(args) -> hamiltonian.HamiltonianSpec:
    params = {key: getattr(args, key) for key in MODEL_PARAMS if getattr(args, key) is not None}
    return hamiltonian.model(args.model, args.p, params, boundary=args.bc)


def _add_model_args(sub, required: bool) -> None:
    sub.add_argument("--model", required=required, choices=MODEL_NAMES)
    sub.add_argument("--p", type=int, required=required)
    for key, flag in MODEL_PARAMS.items():
        sub.add_argument(flag, dest=key, type=float)
    sub.add_argument("--bc", choices=("open", "periodic"), default="open")


def _flags_report(rep: Report, flags: structured.StructureFlags) -> None:
    for name in structured._FLAG_NAMES:
        rep.add(name, str(getattr(flags, name)).lower())
    if flags.omega is not None:
        rep.add("omega", f"{flags.omega.real:.17g}{flags.omega.imag:+.17g}j")


def _write_chain(rep: Report, path: str, state: mps.MPSState, dims: bool = True) -> None:
    """Write ``state`` to ``path`` as MPS1; report ``written`` and, with ``dims``, its bond dimensions."""
    fileio.write_mps(path, state)
    rep.add("written", path)
    if dims:
        rep.add("dims", ",".join(str(d) for d in state.dims))


# ------------------------------------------------------------------- ham verbs

def _run_ham(args, rep: Report) -> None:
    if args.verb == "build":
        h = hamiltonian.assemble(_spec_from_args(args))
        fileio.write_mat(args.out, h)
        rep.add("written", args.out)
        rep.add("dim", h.shape[0])
    elif args.verb == "certify":
        if args.matrix is not None:
            flags = structured.classify(fileio.read_mat(args.matrix), tol=args.tol)
        else:
            flags = hamiltonian.certify_structure(_spec_from_args(args), tol=args.tol)
        _flags_report(rep, flags)
    elif args.verb == "spectrum":
        values, _, _ = hamiltonian._solve_sectors(_spec_from_args(args), vector=False)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write("\n".join(_g17(v) for v in values) + "\n")
            rep.add("written", args.out)
        elif args.json:
            rep.add("values", values.tolist())
        else:
            for v in values:
                print(_g17(v))
        rep.add("dim", len(values))
    elif args.verb == "ground":
        report = hamiltonian.ground_state(_spec_from_args(args))
        rep.add("energy", report.ground_energy)
        rep.add("gap", report.gap)
        if args.out:
            fileio.write_mat(args.out, report.ground_vector.reshape(-1, 1))
            rep.add("written", args.out)


# ------------------------------------------------------------------- mps verbs

def _run_mps(args, rep: Report) -> None:
    if args.verb == "from-vector":
        state = mps.from_vector(fileio.read_vec(args.vec), tol=args.tol)
        _write_chain(rep, args.out, state)
    elif args.verb == "to-vector":
        x = mps.to_vector(fileio.read_mps(args.mps))
        fileio.write_vec(args.out, x)
        rep.add("written", args.out)
    elif args.verb == "eval":
        z = mps.eval_component(fileio.read_mps(args.mps), args.bits)
        rep.add("re", z.real)
        rep.add("im", z.imag)
    elif args.verb == "normalize":
        state = fileio.read_mps(args.mps)
        if args.form in ("left", "right"):
            out = mps.two_site_sweep(state, args.form)
        elif args.form == "strong":
            out = mps.strong_normalize(mps.two_site_sweep(state, "left"))
        else:  # vidal
            vform = mps.vidal_from_vector(mps.to_vector(state))
            for j, lam in enumerate(vform.lambdas, start=1):
                rep.add(f"lambda_{j}", ",".join(_g17(v) for v in lam))
            out = mps.vidal_to_a(vform, "left")
        _write_chain(rep, args.out, out)
    elif args.verb == "truncate":
        state = fileio.read_mps(args.mps)
        out = mps.truncate(state, d_max=args.dmax, tol=args.tol)
        _write_chain(rep, args.out, out)
    elif args.verb == "check":
        state = fileio.read_mps(args.mps)
        report = mps.check_gauge(state)
        residuals = getattr(report, args.gauge)
        for j, r in enumerate(residuals, start=1):
            rep.add(f"site_{j}", r)
        rep.add("max_residual", max(residuals))


# ------------------------------------------------------------------- sym verbs

def _run_sym(args, rep: Report) -> None:
    if args.verb == "detect":
        kinds = symmetry.detect_vector_symmetries(fileio.read_vec(args.vec), tol=args.tol)
        rep.add("kinds", ",".join(sorted(kinds)) or "none")
    elif args.verb == "construct":
        _run_sym_construct(args, rep)
    elif args.verb == "normal-form":
        _run_sym_normal_form(args, rep)
    elif args.verb == "verify":
        state = fileio.read_mps(args.mps)
        witness = fileio.read_witness(args.wit)
        report = symmetry.verify_relation(state, witness)
        rep.add("kind", report.kind)
        rep.add("max_residual", report.max_residual)
        for j, r in enumerate(report.site_residuals, start=1):
            rep.add(f"site_{j}", r)
        for j, r in enumerate(report.consistency_residuals, start=1):
            rep.add(f"consistency_{j}", r)
    elif args.verb == "orbits":
        report = symmetry.orbits(args.bits)
        # orbit reports are newline-delimited sorted bit strings per section
        for name in ("shift_orbit", "flip_orbit", "reverse_orbit"):
            orbit = sorted(getattr(report, name))
            if args.json:
                rep.add(name, orbit)
            else:
                print(name, *orbit, sep="\n")
    elif args.verb == "dof":
        kinds = [k for k in args.kinds.split(",") if k]
        report = symmetry.dof_count(args.p, kinds)
        for name, count in report.counts.items():
            rep.add(f"count_{name}", count)
        for name, factor in report.reduction_factors.items():
            rep.add(f"reduction_{name}", factor)


def _run_sym_construct(args, rep: Report) -> None:
    kind = args.kind
    if kind == "fullbit":
        m = fileio.read_mat(args.mat)
        # refuse a chain too large to write before building it
        fileio._require_writable(args.out, args.p, args.p * 2 * m.size)
        state = symmetry.fullbit_state(m, args.p)
        witness = symmetry.SymmetryWitness(kind="fullbit")
    elif kind in ("firstsite", "lastsite"):
        build = symmetry.firstsite_construct if kind == "firstsite" else symmetry.lastsite_construct
        state = build(fileio.read_vec(args.vec), sign=args.sign)
        witness = symmetry.SymmetryWitness(kind=kind, sign=args.sign)
    else:
        base = mps.from_vector(fileio.read_vec(args.vec))
        if kind == "bitshift":
            # refuse a chain too large to write before building it
            q, d = symmetry.ti_shape(base, args.block_len)
            fileio._require_writable(args.out, base.p, base.p * 2 * (q * d) ** 2)
            state = symmetry.ti_construct(base, block_len=args.block_len)
            witness = symmetry.SymmetryWitness(kind="bitshift", block_len=args.block_len)
        elif kind == "reverse":
            state, witness = symmetry.reverse_construct(base)
        else:  # bitflip
            state, witness = symmetry.bitflip_construct(base, sign=args.sign)
    _write_chain(rep, args.out, state)
    if args.wit:
        fileio.write_witness(args.wit, witness)
        rep.add("witness", args.wit)


def _run_sym_normal_form(args, rep: Report) -> None:
    kind = args.kind
    if kind == "reverse":
        x = fileio.read_vec(args.vec)
        nf = symmetry.reverse_normal_form(x)
        err = float(np.linalg.norm(nf.to_vector() - x))
        rep.add("reconstruction_error", err)
        for j, u in enumerate(nf.us, start=1):
            rep.add(f"unitarity_{j}", linalg.frob(u.conj().T @ u - np.eye(u.shape[1])))
        rep.add("sigma", ",".join(_g17(v) for v in nf.sigma))
        rep.add("lambda", ",".join(_g17(v) for v in nf.lam))
    elif kind == "bitflip":
        state = fileio.read_mps(args.mps)
        witness = fileio.read_witness(args.wit)
        out, diag = symmetry.bitflip_normal_form(state, witness)
        _write_chain(rep, args.out, out, dims=False)
        if args.wit_out:
            fileio.write_witness(args.wit_out, diag)
            rep.add("witness", args.wit_out)
    elif kind == "ti":
        out = symmetry.ti_chain_normal_form(fileio.read_mps(args.mps))
        _write_chain(rep, args.out, out, dims=False)
    else:  # fullbit
        lam, b = symmetry.fullbit_normal_form(fileio.read_mat(args.mat))
        fileio.write_mat(args.out, lam)
        fileio.write_mat(args.out2, b)
        rep.add("written", args.out)
        rep.add("written_b", args.out2)


# ---------------------------------------------------------------- struct verbs

def _run_struct(args, rep: Report) -> None:
    if args.verb == "classify":
        _flags_report(rep, structured.classify(fileio.read_mat(args.mat), tol=args.tol))
    elif args.verb == "split":
        persym, skew = structured.persym_split(fileio.read_mat(args.mat))
        fileio.write_mat(args.out_p, persym)
        fileio.write_mat(args.out_s, skew)
        rep.add("written_p", args.out_p)
        rep.add("written_s", args.out_s)
    elif args.verb == "blockdiag":
        pair = structured.block_diagonalize(fileio.read_mat(args.mat))
        fileio.write_mat(args.out_plus, pair.b_plus)
        fileio.write_mat(args.out_minus, pair.b_minus)
        rep.add("written_plus", args.out_plus)
        rep.add("written_minus", args.out_minus)
        if args.out_q:
            fileio.write_mat(args.out_q, pair.q)
            rep.add("written_q", args.out_q)
    elif args.verb == "circulant-eig":
        row = fileio.read_mat(args.mat)
        if min(row.shape) != 1:
            raise ShapeMismatchError(f"circulant-eig needs a 1 x n or n x 1 first row, got shape {row.shape}")
        values = structured.circulant_eigenvalues(row)
        for k, z in enumerate(values):
            rep.add(f"ev_{k}", f"{z.real:.17g}{z.imag:+.17g}j")


# --------------------------------------------------------------------- parser

def _verb_group(groups, name: str, help: str, run):
    """The verbs of group ``name``, whose commands ``main`` runs with ``run``."""
    group = groups.add_parser(name, help=help)
    group.set_defaults(run=run)
    return group.add_subparsers(dest="verb", required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="symtt", description=__doc__.splitlines()[0])
    parser.add_argument("--json", action="store_true", help="emit one JSON object instead of key=value lines")
    parser.add_argument("--seed", type=int, default=0, help="seed for any randomized checks (default 0)")
    groups = parser.add_subparsers(dest="group", required=True)

    ham = _verb_group(groups, "ham", "Hamiltonian builders", _run_ham)
    sub = ham.add_parser("build")
    _add_model_args(sub, required=True)
    sub.add_argument("--out", required=True)
    sub = ham.add_parser("certify")
    sub.add_argument("matrix", nargs="?", help="MAT1 file; omit to certify a model")
    _add_model_args(sub, required=False)
    sub.add_argument("--tol", type=float, default=EPS_STRUCT)
    sub = ham.add_parser("spectrum")
    _add_model_args(sub, required=True)
    sub.add_argument("--out")
    sub = ham.add_parser("ground")
    _add_model_args(sub, required=True)
    sub.add_argument("--out")

    mpsg = _verb_group(groups, "mps", "matrix product state operations", _run_mps)
    sub = mpsg.add_parser("from-vector")
    sub.add_argument("vec")
    sub.add_argument("--tol", type=float, default=0.0)
    sub.add_argument("--out", required=True)
    sub = mpsg.add_parser("to-vector")
    sub.add_argument("mps")
    sub.add_argument("--out", required=True)
    sub = mpsg.add_parser("eval")
    sub.add_argument("mps")
    sub.add_argument("--bits", required=True)
    sub = mpsg.add_parser("normalize")
    sub.add_argument("mps")
    sub.add_argument("--form", choices=("left", "right", "vidal", "strong"), required=True)
    sub.add_argument("--out", required=True)
    sub = mpsg.add_parser("truncate")
    sub.add_argument("mps")
    sub.add_argument("--dmax", type=int)
    sub.add_argument("--tol", type=float, default=0.0)
    sub.add_argument("--out", required=True)
    sub = mpsg.add_parser("check")
    sub.add_argument("mps")
    sub.add_argument("--gauge", choices=("left", "right", "strong"), default="left")

    symg = _verb_group(groups, "sym", "symmetry detection and constructions", _run_sym)
    sub = symg.add_parser("detect")
    sub.add_argument("vec")
    sub.add_argument("--tol", type=float, default=EPS_SYM)
    sub = symg.add_parser("construct")
    sub.add_argument("--kind", choices=SYMMETRY_KINDS, required=True)
    sub.add_argument("--vec", help="VEC1 input (all kinds except fullbit)")
    sub.add_argument("--mat", help="MAT1 input (fullbit)")
    sub.add_argument("--p", type=int, help="site count (fullbit)")
    sub.add_argument("--sign", type=int, choices=(1, -1), default=1)
    sub.add_argument("--block-len", dest="block_len", type=int, default=1)
    sub.add_argument("--out", required=True)
    sub.add_argument("--wit")
    sub = symg.add_parser("normal-form")
    sub.add_argument("--kind", choices=("reverse", "bitflip", "ti", "fullbit"), required=True)
    sub.add_argument("--vec", help="VEC1 input (reverse)")
    sub.add_argument("--mps", help="MPS1 input (bitflip, ti)")
    sub.add_argument("--mat", help="MAT1 input (fullbit)")
    sub.add_argument("--wit", help="witness input (bitflip)")
    sub.add_argument("--out")
    sub.add_argument("--out2", help="second output matrix (fullbit)")
    sub.add_argument("--wit-out", dest="wit_out")
    sub = symg.add_parser("verify")
    sub.add_argument("mps")
    sub.add_argument("--wit", required=True)
    sub = symg.add_parser("orbits")
    sub.add_argument("--bits", required=True)
    sub = symg.add_parser("dof")
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--kinds", required=True, help="comma-separated: bitshift,bitflip,reverse")

    structg = _verb_group(groups, "struct", "structured-matrix transforms", _run_struct)
    sub = structg.add_parser("classify")
    sub.add_argument("mat")
    sub.add_argument("--tol", type=float, default=EPS_STRUCT)
    sub = structg.add_parser("split")
    sub.add_argument("mat")
    sub.add_argument("--out-p", dest="out_p", required=True)
    sub.add_argument("--out-s", dest="out_s", required=True)
    sub = structg.add_parser("blockdiag")
    sub.add_argument("mat")
    sub.add_argument("--out-plus", dest="out_plus", required=True)
    sub.add_argument("--out-minus", dest="out_minus", required=True)
    sub.add_argument("--out-q", dest="out_q")
    sub = structg.add_parser("circulant-eig")
    sub.add_argument("mat", help="MAT1 file holding the first row (1 x n or n x 1)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # verb names are unique across the groups
    if args.verb == "certify" and args.matrix is None and args.model is None:
        parser.error("ham certify needs a MAT1 file or --model")
    if args.verb == "construct":
        if args.kind == "fullbit" and (args.mat is None or args.p is None):
            parser.error("sym construct --kind fullbit needs --mat and --p")
        if args.kind != "fullbit" and args.vec is None:
            parser.error(f"sym construct --kind {args.kind} needs --vec")
    if args.verb == "normal-form":
        needed = {"reverse": ("vec",), "bitflip": ("mps", "wit", "out"), "ti": ("mps", "out"), "fullbit": ("mat", "out", "out2")}
        for field in needed[args.kind]:
            if getattr(args, field) is None:
                parser.error(f"sym normal-form --kind {args.kind} needs --{field}")
    rep = Report()
    try:
        args.run(args, rep)
    except (SymttError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rep.emit(args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
