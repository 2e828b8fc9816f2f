"""The model table and parameters, symmetry kinds and tolerances, free of numpy.

The library modules import these, and the CLI builds its parser from them
without executing a library module.
"""

#: default relative tolerance for structure decisions
EPS_STRUCT = 1e-10

#: default relative tolerance for symmetry detection and verification
EPS_SYM = 1e-10

SYMMETRY_KINDS = ("bitshift", "reverse", "bitflip", "fullbit", "firstsite", "lastsite")

#: the parameter keys of ``hamiltonian.model`` and the CLI flag of each
MODEL_PARAMS = {"jx": "--jx", "jy": "--jy", "jz": "--jz", "lam": "--lambda", "theta": "--theta"}

#: spin-1/2 models: the (Pauli axis, coupling key) of each bond sum, in term
#: order, and the (Pauli axis, default lam) of the field after them, or None
_MODELS = {
    "ising_zz": ((("z", "jz"),), ("x", 0.0)),
    "heis_xx": ((("x", "jx"), ("y", "jx")), ("x", 0.0)),
    "heis_xy": ((("x", "jx"), ("y", "jy")), ("x", 0.0)),
    "heis_xz": ((("x", "jx"), ("z", "jz")), ("x", 0.0)),
    "heis_xxx": ((("x", "jx"), ("y", "jx"), ("z", "jx")), ("x", 0.0)),
    "heis_xxz": ((("x", "jx"), ("y", "jx"), ("z", "jz")), ("x", 0.0)),
    "heis_xyz": ((("x", "jx"), ("y", "jy"), ("z", "jz")), ("x", 0.0)),
    "hx": ((), ("x", 1.0)),
    "hy": ((), ("y", 1.0)),
    "hz": ((), ("z", 1.0)),
    "hxx": ((("x", "jx"),), None),
    "hyy": ((("y", "jy"),), None),
    "hzz": ((("z", "jz"),), None),
}

MODEL_NAMES = tuple(_MODELS) + ("aklt", "bilinear_biquadratic")
