"""Spin-chain Hamiltonians, structured-matrix transforms, and
symmetry-adapted matrix product states, verified by brute-force oracles at
desk scale.

The public names load on first use (PEP 562), so ``import symtt`` does not
import numpy.  ``symtt.cli`` relies on that: it must set the BLAS thread
count before numpy loads.
"""

import importlib

from .errors import SymttError

_EXPORTS = {
    "hamiltonian": (
        "HamiltonianSpec",
        "LocalTermSpec",
        "SpectrumReport",
        "anisotropic_xy_transform",
        "assemble",
        "certify_structure",
        "closed_form_hx_spectrum",
        "fourier_conjugate",
        "ground_state",
        "model",
        "pauli",
        "spin1",
    ),
    "linalg": (
        "EPS_LIN",
        "EPS_RANK",
        "EighResult",
        "SvdResult",
        "eigh",
        "exchange_matrix",
        "fourier_matrix",
        "kron",
        "schur",
        "svd",
    ),
    "mps": (
        "GaugeReport",
        "MPSState",
        "VidalForm",
        "check_gauge",
        "check_vidal",
        "eval_component",
        "from_vector",
        "strong_normalize",
        "to_vector",
        "truncate",
        "two_site_sweep",
        "vidal_from_vector",
        "vidal_to_a",
    ),
    "structured": (
        "EPS_STRUCT",
        "BlockPair",
        "ClassifiedEigenbasis",
        "StructureFlags",
        "block_diagonalize",
        "circulant_eigenvalues",
        "classified_eigenbasis",
        "classify",
        "corner_blocks",
        "omega_to_circulant",
        "persym_split",
    ),
    "symmetry": (
        "EPS_SYM",
        "DofReport",
        "OrbitReport",
        "ReverseNormalForm",
        "SymmetryWitness",
        "bitflip_construct",
        "bitflip_normal_form",
        "detect_vector_symmetries",
        "dof_count",
        "firstsite_construct",
        "fullbit_normal_form",
        "fullbit_state",
        "lastsite_construct",
        "orbits",
        "reverse_construct",
        "reverse_normal_form",
        "symmetrize_flip",
        "symmetrize_reverse",
        "symmetrize_shift",
        "ti_construct",
        "ti_normal_form",
        "verify_relation",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_SOURCE, *_EXPORTS, "SymttError", "errors"])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
