"""kktprec: block-diagonal augmented-Lagrangian preconditioning for the KKT
systems of PDE-constrained source inversion, with a P1 finite element
benchmark and numerical verification of the provable spectral bounds."""

import importlib
import os
import sys

# OpenBLAS reads its thread count once, when it is loaded, and starts its
# thread pool then. Set before the first import that loads numpy, so a
# process that imports the package first starts no pool. Whether OpenBLAS
# loads (or loaded) with one thread is recorded for parallel.map_in_order,
# which forks workers only then.
_ONE_BLAS_THREAD = "numpy" not in sys.modules or os.environ.get("OPENBLAS_NUM_THREADS") == "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .config import (
    BDAL_EXACT,
    BDAL_LUMPED_EXACT,
    BDAL_LUMPED_INEXACT,
    REDUCED_REGULARIZATION,
    ConfigError,
    ExperimentConfig,
    load_config,
)

__version__ = "0.1.0"

# Every other public name, by its home module. A name is imported on first
# access (PEP 562), so `import kktprec` and load_config load neither numpy
# nor scipy; the first numerical name loads them, with OpenBLAS at the one
# thread set above.
_NAMES = {
    "fem": (
        "assemble_mass",
        "assemble_observation",
        "assemble_regularization",
        "assemble_stiffness_nitsche",
        "interpolate_image",
        "lump_mass",
    ),
    "harness": ("generate_observations", "synth_source"),
    "kkt": (
        "apply_kkt",
        "assemble_problem",
        "build_kkt",
        "build_preconditioner",
        "reduced_hessian",
        "reference_solution",
        "synthesize_data",
    ),
    "krylov": ("minres", "pcg"),
    "mesh": ("ObservationSet", "build_mesh"),
    "spectral": ("AmGmConstants", "cond_bound", "sigma_min_bound", "verify_spectral_bounds"),
}
_HOMES = {name: home for home, names in _NAMES.items() for name in names}

__all__ = [
    "BDAL_EXACT",
    "BDAL_LUMPED_EXACT",
    "BDAL_LUMPED_INEXACT",
    "REDUCED_REGULARIZATION",
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    *_HOMES,
]


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
