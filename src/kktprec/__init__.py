"""kktprec: block-diagonal augmented-Lagrangian preconditioning for the KKT
systems of PDE-constrained source inversion, with a P1 finite element
benchmark and numerical verification of the provable spectral bounds."""

import os
import sys

# OpenBLAS reads its thread count once, when it is loaded, and starts its
# thread pool then. Set before the first import that loads numpy, so a
# process that imports the package first starts no pool. Whether OpenBLAS
# loads (or loaded) with one thread is recorded for parallel.map_in_order,
# which forks workers only then.
_ONE_BLAS_THREAD = "numpy" not in sys.modules or os.environ.get("OPENBLAS_NUM_THREADS") == "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .config import ConfigError, ExperimentConfig, load_config
from .fem import (
    assemble_mass,
    assemble_observation,
    assemble_regularization,
    assemble_stiffness_nitsche,
    interpolate_image,
    lump_mass,
)
from .harness import generate_observations, synth_source
from .kkt import (
    BDAL_EXACT,
    BDAL_LUMPED_EXACT,
    BDAL_LUMPED_INEXACT,
    REDUCED_REGULARIZATION,
    apply_kkt,
    assemble_problem,
    build_kkt,
    build_preconditioner,
    reduced_hessian,
    reference_solution,
    synthesize_data,
)
from .krylov import minres, pcg
from .mesh import ObservationSet, build_mesh
from .spectral import AmGmConstants, cond_bound, sigma_min_bound, verify_spectral_bounds

__version__ = "0.1.0"
