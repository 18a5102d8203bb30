"""Shared oracles for the test suite.

Everything here is deliberately independent of the package internals:
the RNG is retyped from the published algorithm, dense operators are
materialized by column probing, and instances are built through the
public assembly path only.
"""

import numpy as np
import scipy.sparse as sp

from kktprec.harness import generate_observations, synth_source
from kktprec.kkt import assemble_problem, build_kkt, synthesize_data
from kktprec.mesh import build_mesh

MASK64 = (1 << 64) - 1


class Factors(list):
    """SuperLU factors in the order they were made; inputs[k] is the
    matrix that factors[k] was made from, and kwargs[k] the keyword
    arguments splu got with it."""

    def __init__(self):
        super().__init__()
        self.inputs = []
        self.kwargs = []

    def clear(self):
        super().clear()
        self.inputs.clear()
        self.kwargs.clear()


def record_factors(monkeypatch):
    """Route every SuperLU factorization through a recorder; returns the
    Factors that fills as they are made."""
    import scipy.sparse.linalg as spla

    made = Factors()
    splu = spla.splu

    def recording_splu(m, *args, **kwargs):
        made.append(splu(m, *args, **kwargs))
        made.inputs.append(m)
        made.kwargs.append(kwargs)
        return made[-1]

    monkeypatch.setattr(spla, "splu", recording_splu)
    return made


def splitmix64_reference(seed, count):
    """Reference SplitMix64 stream, written out step by step."""
    out = []
    state = seed & MASK64
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


def probe_columns(apply_fn, n):
    """Materialize a length-n linear map column by column."""
    cols = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        cols.append(np.asarray(apply_fn(e), dtype=float))
    return np.column_stack(cols)


def make_instance(nx=4, ny=4, n_obs=6, alpha=1e-2, seed=1, lx=1.45, ly=1.0,
                  t=0.1, gamma0=10.0):
    """Assemble one source-inversion KKT instance with synthetic data."""
    mesh = build_mesh(lx, ly, nx, ny)
    obs = generate_observations(seed, n_obs, lx, ly)
    ops = assemble_problem(mesh, obs, t=t, gamma0=gamma0)
    q_true = synth_source(mesh).values
    y = synthesize_data(ops, q_true)
    return build_kkt(ops, alpha, y)


def assembled_kkt(sys):
    """The 3n x 3n KKT matrix in CSR, assembled by scipy from the system's
    blocks; the package itself never assembles K."""
    return sp.bmat(sys.blocks(), format="csr")


def sqrt_psd(m):
    """Symmetric square root of a PSD matrix from its eigendecomposition,
    with negative rounding-level eigenvalues clipped to zero."""
    vals, q = np.linalg.eigh(m)
    return (q * np.sqrt(np.clip(vals, 0.0, None))) @ q.T


def random_spd(n, rng, shift=1.0):
    a = rng.standard_normal((n, n))
    return a.T @ a + shift * np.eye(n)


def random_symmetric(n, rng):
    a = rng.standard_normal((n, n))
    return 0.5 * (a + a.T)
