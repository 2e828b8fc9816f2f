import numpy as np
import pytest

from symtt import MPSState
from symtt.linalg import kron_chain


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unit_vector(rng, n):
    v = random_complex(rng, n)
    return v / np.linalg.norm(v)


def random_hermitian(rng, n):
    a = random_complex(rng, n, n)
    return 0.5 * (a + a.conj().T)


def random_sym_persym(rng, n, complex_ok=False):
    """Random (real by default) symmetric persymmetric matrix."""
    a = random_complex(rng, n, n) if complex_ok else rng.standard_normal((n, n))
    a = 0.5 * (a + a.T)
    return 0.5 * (a + a[::-1, ::-1])


def random_sym_skew_persym(rng, n):
    a = rng.standard_normal((n, n))
    a = 0.5 * (a + a.T)
    return 0.5 * (a - a[::-1, ::-1])


def random_mps(rng, p, d, boundary="open"):
    """Random chain with uniform interior bond dimension d."""
    dims = [1] + [d] * (p - 1) + [1] if boundary == "open" else [d] * (p + 1)
    sites = [
        (random_complex(rng, dims[j], dims[j + 1]), random_complex(rng, dims[j], dims[j + 1]))
        for j in range(p)
    ]
    return MPSState(sites, boundary=boundary)


def brute_force_vector(m):
    """Oracle: every component as its own left-to-right product and trace."""
    out = np.empty(2**m.p, dtype=complex)
    for idx in range(2**m.p):
        prod = np.eye(m.dims[0], dtype=complex)
        for j, pair in enumerate(m.sites):
            prod = prod @ pair[(idx >> (m.p - 1 - j)) & 1]
        out[idx] = np.trace(prod)
    return out


def dense_reference(spec):
    """Oracle: the term sum with every term a dense left-to-right Kronecker fold."""
    ident = np.eye(spec.d, dtype=np.complex128)
    h = np.zeros((spec.d**spec.p,) * 2, dtype=np.complex128)
    for term in spec.terms:
        h += term.coeff * kron_chain(ident if f is None else f for f in term.factors)
    return h


def group_orbit_count(p, kinds):
    """Oracle: orbits of the p-bit strings under the group the kinds generate,
    found by breadth-first closure of the generators' index permutations."""
    idx = np.arange(2**p, dtype=np.int64)
    gens = []
    if "bitshift" in kinds:
        gens.append(((idx << 1) & (2**p - 1)) | (idx >> (p - 1)))
    if "bitflip" in kinds:
        gens.append(idx[::-1].copy())
    if "reverse" in kinds:
        gens.append(np.array([int(format(i, f"0{p}b")[::-1], 2) for i in range(2**p)], dtype=np.int64))
    seen = {idx.tobytes(): idx}
    frontier = [idx]
    while frontier:
        nxt = []
        for g in frontier:
            for gen in gens:
                h = g[gen]
                if h.tobytes() not in seen:
                    seen[h.tobytes()] = h
                    nxt.append(h)
        frontier = nxt
    return len(np.unique(np.stack(list(seen.values())).min(axis=0)))
