"""Span tracing of one symtt CLI command, and the per-layer breakdown of spans.

Run as a script, this is the traced stand-in for ``python -m symtt.cli``:

    python tracer.py <command id> <spans file> <symtt argv...>

It times the import of ``symtt.cli``, wraps every public function of the six
library modules at every symtt module that binds it (so ``from .linalg import
svd`` call sites are caught too), calls ``symtt.cli.main(argv)`` and, when the
command ends, writes its spans as JSON.  A span is ``[name, start, end,
parent, error, value, command id]``; ``parent`` indexes the enclosing span of
the same command (-1 at top level) and ``value`` is the span's exact count:
bytes for fileio, m*n*min(m,n) for svd, the matrix order for eigh, dense
bytes for assemble, ``[kept, width]`` bond sums for mps results and the
process peak RSS in MB for dof_count.

Only the standard library is imported before ``symtt.cli``, so the import
span includes numpy and scipy.  The file also records when the script was
entered; the benchmark turns that into a ``cli.startup`` span (spawn,
interpreter start, ``site``) and the time from the end of ``main`` to the
reap into ``cli.exit`` (writing the spans, interpreter teardown).
"""

import time

ENTERED = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402

LAYERS = ("fileio", "hamiltonian", "linalg", "structured", "mps", "symmetry")

#: public methods traced besides the module-level functions
METHODS = (("symmetry", "ReverseNormalForm", "to_vector"),)


def _shape(args, kwargs, key):
    a = args[0] if args else kwargs[key]
    return getattr(a, "shape", None) or (len(a), len(a[0]))


def _value(module: str, name: str, args, kwargs, result):
    """The exact count a span carries, or None."""
    if module == "fileio":
        return os.path.getsize(args[0] if args else kwargs["path"])
    if (module, name) == ("linalg", "svd"):
        m, n = _shape(args, kwargs, "a")
        return m * n * min(m, n)
    if (module, name) == ("linalg", "eigh"):
        return _shape(args, kwargs, "a")[0]
    if (module, name) == ("hamiltonian", "assemble"):
        spec = args[0] if args else kwargs["spec"]
        return len(spec.terms) * (spec.d**spec.p) ** 2 * 16
    if (module, name) == ("symmetry", "dof_count"):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if module == "mps" and type(result).__name__ == "MPSState" and result.boundary == "open":
        dims, p = result.dims, result.p
        return [sum(dims[1:-1]), sum(min(2**j, 2 ** (p - j)) for j in range(1, p))]
    return None


class Tracer:
    """Records spans in memory; one instance per traced command."""

    def __init__(self, cmd_id: int):
        self.cmd_id = cmd_id
        self.spans: list = []
        self.stack: list[int] = []

    def wrap(self, fn, module: str, name: str):
        spans, stack, cmd_id = self.spans, self.stack, self.cmd_id
        clock = time.perf_counter
        label = f"{module}.{name}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [label, 0.0, 0.0, stack[-1] if stack else -1, 1, None, cmd_id]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            record[4] = 0
            record[5] = _value(module, name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace each public layer function at every symtt module binding it."""
        loaded = {n: m for n, m in sys.modules.items() if n == "symtt" or n.startswith("symtt.")}
        wrapped = {}
        for layer in LAYERS:
            mod = loaded[f"symtt.{layer}"]
            for name, obj in vars(mod).items():
                if isinstance(obj, types.FunctionType) and not name.startswith("_") and obj.__module__ == mod.__name__:
                    wrapped[id(obj)] = self.wrap(obj, layer, name)
        for mod in loaded.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, name, wrapped[id(obj)])
        for layer, cls, meth in METHODS:
            owner = getattr(loaded[f"symtt.{layer}"], cls)
            setattr(owner, meth, self.wrap(getattr(owner, meth), layer, f"{cls}.{meth}"))


def main(argv: list[str]) -> int:
    cmd_id, spans_path, cli_argv = int(argv[0]), argv[1], argv[2:]
    tracer = Tracer(cmd_id)
    t0 = time.perf_counter()
    import symtt.cli

    tracer.spans.append(["cli.import", t0, time.perf_counter(), -1, 0, None, cmd_id])
    tracer.install()
    try:
        rc = tracer.wrap(symtt.cli.main, "cli", "main")(cli_argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"entered": ENTERED, "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))


# ------------------------------------------------- per-layer aggregation

#: time metrics: metric name -> the spans whose self time it sums
TIMES = {
    "fileio.read_s": ("fileio.read_mat", "fileio.read_vec", "fileio.read_mps", "fileio.read_witness"),
    "fileio.write_s": ("fileio.write_mat", "fileio.write_vec", "fileio.write_mps", "fileio.write_witness"),
    "hamiltonian.assemble_s": ("hamiltonian.assemble",),
    "hamiltonian.ground_state_s": ("hamiltonian.ground_state",),
    "linalg.kron_s": ("linalg.kron", "linalg.kron_chain"),
    "linalg.eigh_s": ("linalg.eigh",),
    "linalg.svd_s": ("linalg.svd",),
    "linalg.schur_s": ("linalg.schur",),
    "structured.classify_s": ("structured.classify",),
    "structured.block_diagonalize_s": ("structured.block_diagonalize",),
    "mps.decompose_s": ("mps.from_vector", "mps.vidal_from_vector"),
    "mps.sweep_s": ("mps.two_site_sweep", "mps.strong_normalize"),
    "mps.truncate_s": ("mps.truncate",),
    "mps.contract_s": ("mps.to_vector", "mps.eval_component"),
    "mps.check_s": ("mps.check_gauge", "mps.check_vidal"),
    "symmetry.detect_s": ("symmetry.detect_vector_symmetries",),
    "symmetry.construct_s": ("symmetry.ti_construct", "symmetry.reverse_construct", "symmetry.bitflip_construct",
                             "symmetry.fullbit_state", "symmetry.firstsite_construct", "symmetry.lastsite_construct"),
    "symmetry.verify_s": ("symmetry.verify_relation",),
    "symmetry.normal_form_s": ("symmetry.reverse_normal_form", "symmetry.ReverseNormalForm.to_vector",
                               "symmetry.bitflip_normal_form", "symmetry.ti_normal_form",
                               "symmetry.fullbit_normal_form"),
    "symmetry.dof_s": ("symmetry.dof_count",),
}

#: count metrics: metric name -> (spans, "calls" | "sum" | "max" of their value)
COUNTS = {
    "fileio.read_calls": (TIMES["fileio.read_s"], "calls"),
    "fileio.write_calls": (TIMES["fileio.write_s"], "calls"),
    "fileio.read_bytes": (TIMES["fileio.read_s"], "sum"),
    "fileio.write_bytes": (TIMES["fileio.write_s"], "sum"),
    "hamiltonian.assemble_calls": (("hamiltonian.assemble",), "calls"),
    "hamiltonian.assemble_bytes": (("hamiltonian.assemble",), "sum"),
    "linalg.eigh_calls": (("linalg.eigh",), "calls"),
    "linalg.eigh_max_dim": (("linalg.eigh",), "max"),
    "linalg.svd_calls": (("linalg.svd",), "calls"),
    "linalg.svd_flops": (("linalg.svd",), "sum"),
    "structured.classify_calls": (("structured.classify",), "calls"),
    "symmetry.dof_rss_mb": (("symmetry.dof_count",), "max"),
}



def process_spans(record: dict, start: float, end: float, cmd_id: int) -> list:
    """A command's spans plus ``cli.startup`` and ``cli.exit``, from the
    spawn and reap times the benchmark measured."""
    spans = list(record["spans"])
    spans.append(["cli.startup", start, record["entered"], -1, 0, None, cmd_id])
    main = next((s for s in spans if s[0] == "cli.main"), None)
    if main is not None:
        spans.append(["cli.exit", main[2], end, -1, 0, None, cmd_id])
    return spans


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, *_ in spans]
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(spans_by_cmd: list[list], traced_walls: list[float], untraced_walls: list[float]) -> dict:
    """Per-layer metrics of one traced pass.

    ``spans_by_cmd`` holds each command's span list (parents index within
    it); the walls are the parent-measured command times of the traced and
    the untraced run of the same commands.
    """
    sums: dict[str, float] = {}
    values: dict[str, list] = {}
    layer_self = {layer: 0.0 for layer in ("cli",) + LAYERS}
    phases = {"cli.startup": 0.0, "cli.import": 0.0, "cli.exit": 0.0}
    errors = dict.fromkeys(layer_self, 0)
    covered = 0.0
    for spans in spans_by_cmd:
        selfs = self_times(spans)
        for (name, start, end, parent, error, value, _), own in zip(spans, selfs):
            layer = name.split(".")[0]
            if name in phases:
                phases[name] += own
                continue
            sums[name] = sums.get(name, 0.0) + own
            values.setdefault(name, []).append(value)
            layer_self[layer] += own
            if error and (parent < 0 or spans[parent][0].split(".")[0] != layer):
                errors[layer] += 1
            if name == "cli.main":
                covered += end - start
    covered += phases["cli.startup"] + phases["cli.import"]
    metrics = {f"{name}_s": t for name, t in phases.items()}
    for metric, names in TIMES.items():
        metrics[metric] = sum(sums.get(n, 0.0) for n in names)
    for metric, (names, how) in COUNTS.items():
        vals = [v for n in names for v in values.get(n, [])]
        metrics[metric] = len(vals) if how == "calls" else (max(vals, default=0) if how == "max" else sum(vals))
    fills = [v for n, vs in values.items() if n.startswith("mps.") for v in vs if isinstance(v, list)]
    metrics["mps.bond_fill"] = sum(k for k, _ in fills) / sum(w for _, w in fills) if fills else 0.0
    for layer in layer_self:
        metrics[f"{layer}.self_s"] = layer_self[layer]
        metrics[f"{layer}.errors"] = errors[layer]
    metrics["trace.overhead_s"] = sum(traced_walls) - sum(untraced_walls)
    metrics["trace.coverage"] = covered / sum(traced_walls)
    return metrics


def unit(metric: str) -> str:
    suffix = metric.rsplit(".", 1)[-1].rsplit("_", 1)[-1]
    return {"s": "s", "bytes": "B", "flops": "flop", "mb": "MB", "fill": "ratio", "coverage": "ratio"}.get(suffix, "count")
