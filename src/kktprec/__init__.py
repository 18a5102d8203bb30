"""kktprec: block-diagonal augmented-Lagrangian preconditioning for the KKT
systems of PDE-constrained source inversion, with a P1 finite element
benchmark and numerical verification of the provable spectral bounds.

The root names only the config, so `import kktprec` loads neither numpy
nor scipy; every numerical name is imported from its own module."""

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
