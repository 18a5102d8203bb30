"""kktprec: block-diagonal augmented-Lagrangian preconditioning for the KKT
systems of PDE-constrained source inversion, with a P1 finite element
benchmark and numerical verification of the provable spectral bounds."""

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
from .spectral import (
    AmGmConstants,
    SpectralFilterModel,
    amgm_constants_exact,
    amgm_constants_from_filter,
    cond_bound,
    laplacian_source_model,
    preconditioned_kkt_dense,
    reconstruction_error_modes,
    sigma_min_bound,
    stability_sigma_max,
    verify_spectral_bounds,
)

__version__ = "0.1.0"
