"""The model names, symmetry kinds and default tolerances, free of numpy.

The library modules import these, and the CLI builds its parser from them
without executing a library module.
"""

#: default relative tolerance for structure decisions
EPS_STRUCT = 1e-10

#: default relative tolerance for symmetry detection and verification
EPS_SYM = 1e-10

SYMMETRY_KINDS = ("bitshift", "reverse", "bitflip", "fullbit", "firstsite", "lastsite")

#: spin-1/2 chain models: the (Pauli axis, coupling key) of each bond sum, in
#: term order; every one of them ends with the x field of strength lam
_CHAIN_MODELS = {
    "ising_zz": (("z", "jz"),),
    "heis_xx": (("x", "jx"), ("y", "jx")),
    "heis_xy": (("x", "jx"), ("y", "jy")),
    "heis_xz": (("x", "jx"), ("z", "jz")),
    "heis_xxx": (("x", "jx"), ("y", "jx"), ("z", "jx")),
    "heis_xxz": (("x", "jx"), ("y", "jx"), ("z", "jz")),
    "heis_xyz": (("x", "jx"), ("y", "jy"), ("z", "jz")),
}

MODEL_NAMES = tuple(_CHAIN_MODELS) + (
    "hx",
    "hy",
    "hz",
    "hxx",
    "hyy",
    "hzz",
    "aklt",
    "bilinear_biquadratic",
)
