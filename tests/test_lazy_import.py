"""scipy.sparse.linalg (SuperLU, ARPACK, PROPACK) is loaded by the first
factorization, not by the package import, so verify-theory, which never
factors, never loads it. Checked in fresh interpreters: this one has it
loaded by the test modules already."""

import os
import subprocess
import sys

import kktprec

_IMPORT_THEN_FACTOR = """
import sys
import kktprec
loaded = lambda: any(m.startswith("scipy.sparse.linalg") for m in sys.modules)
assert not loaded(), "import kktprec loaded scipy.sparse.linalg"
import numpy as np
import scipy.sparse as sp
from kktprec.sparse import SparseLU
m = sp.csr_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
x = SparseLU(m, "probe", 1e-12)(np.array([1.0, 2.0]))
assert loaded(), "SparseLU did not load scipy.sparse.linalg"
assert np.allclose(m @ x, [1.0, 2.0], rtol=0.0, atol=1e-14)
"""

_VERIFY_THEORY = """
import runpy, sys
sys.argv = ["kktprec.cli", "verify-theory", "--out", sys.argv[1],
            "--set", "nx = 4", "--set", "ny = 3", "--set", "alpha = 1e-2", "--set", "n_obs = 20"]
try:
    runpy.run_module("kktprec.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
assert not any(m.startswith("scipy.sparse.linalg") for m in sys.modules), "verify-theory loaded it"
"""


def _run(code, *args):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(kktprec.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_package_import_leaves_superlu_to_the_first_factorization():
    out = _run(_IMPORT_THEN_FACTOR)
    assert out.returncode == 0, out.stderr


def test_verify_theory_never_loads_superlu(tmp_path):
    out = _run(_VERIFY_THEORY, str(tmp_path))
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "theory.csv").exists()
