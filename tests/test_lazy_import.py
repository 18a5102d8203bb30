"""What each entry point loads. `import kktprec` and load_config load
neither numpy nor scipy: the package root names only the config, and every
numerical name is imported from its own module. scipy.sparse.linalg
(SuperLU, ARPACK, PROPACK) is loaded by the first factorization, so
verify-theory, which never factors, never loads it. The CLI freezes the
import-time heap out of the cyclic collector once per process, and defers
the numpy submodules that scipy's array-API shim touches to their first
attribute access, so the ones no run reads never execute. The verifier
calls LAPACK without scipy.linalg's input check, so verify-theory never
runs numpy.ma, and its worker map imports neither multiprocessing nor
concurrent.futures. Checked in fresh interpreters: this one has the modules loaded and the heap frozen by
the test modules already."""

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
x = SparseLU(m, "probe")(np.array([1.0, 2.0]))
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
# One instance is verified in this process, through LAPACK directly: no
# scipy.linalg input check runs numpy.ma.
assert "numpy.ma.core" not in sys.modules, "verifying ran numpy.ma"
"""

_NUMERICAL = """
import sys
def numerical():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))
"""

_LOAD_CONFIG = _NUMERICAL + """
import kktprec
kktprec.load_config(sys.argv[1])
assert not numerical(), numerical()[:5]
"""

_CONFIG_ERROR = _NUMERICAL + """
import runpy
sys.argv = ["kktprec.cli", "sweep", "--set", "bogus=1"]
try:
    runpy.run_module("kktprec.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 1, exc.code
else:
    raise AssertionError("no exit")
assert not numerical(), numerical()[:5]
"""

_ROOT_NAMES = """
import types
import kktprec
public = {name for name, value in vars(kktprec).items()
          if not name.startswith("_") and not isinstance(value, types.ModuleType)}
assert public == {"BDAL_EXACT", "BDAL_LUMPED_EXACT", "BDAL_LUMPED_INEXACT", "REDUCED_REGULARIZATION",
                  "ConfigError", "ExperimentConfig", "load_config"}, sorted(public)
assert isinstance(kktprec.__version__, str)
try:
    kktprec.build_kkt
except AttributeError:
    pass
else:
    raise AssertionError("the root resolved build_kkt")
"""

_FREEZE = """
import gc, sys
from kktprec.cli import main
argv = ["sweep", "--out", sys.argv[1], "--set", "nx = 4", "--set", "ny = 3",
        "--set", "alpha = 1e-2", "--set", "n_obs = 5", "--set", "maxit = 50"]
assert gc.get_freeze_count() == 0
assert main(argv) == 0
frozen = gc.get_freeze_count()
assert frozen > 0 and gc.isenabled(), (frozen, gc.isenabled())
assert main(argv) == 0
assert gc.get_freeze_count() == frozen, "a second run froze more objects"
"""

# argv after the command and the output directory names modules that a CLI
# run must never execute. Deferred numpy submodules still load on first
# use, and a second run in the process registers no new module.
_DEFERRED = """
import sys
from kktprec.cli import main
import numpy
command, out, unread = sys.argv[1], sys.argv[2], sys.argv[3:]
argv = [command, "--out", out, "--set", "nx = 4", "--set", "ny = 3",
        "--set", "alpha = 1e-2, 1e-3", "--set", "n_obs = 5", "--set", "maxit = 50"]
assert main(argv) == 0
loaded = [name for name in unread if name in sys.modules]
assert not loaded, loaded
assert numpy.ma.masked_array([1.0, 2.0]).sum() == 3.0
numpy.testing.assert_equal(1, 1)
submodules = {name: module for name, module in sys.modules.items() if name.startswith("numpy.")}
assert main(argv) == 0
assert set(dir(numpy)) <= set(vars(numpy)), "a numpy submodule is left to defer"
again = [name for name, module in sys.modules.items()
         if name.startswith("numpy.") and submodules.get(name) is not module]
assert not again, again
"""

_UNREAD = ("numpy.f2py.crackfortran", "numpy.testing._private.utils", "charset_normalizer")


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


def test_load_config_loads_no_numpy_or_scipy():
    config = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs", "sweep.cfg")
    out = _run(_LOAD_CONFIG, config)
    assert out.returncode == 0, out.stderr


def test_root_names_only_the_config():
    out = _run(_ROOT_NAMES)
    assert out.returncode == 0, out.stderr


def test_config_error_exits_before_numpy_loads():
    out = _run(_CONFIG_ERROR)
    assert out.returncode == 0, out.stderr
    assert "error: <override>:1: unknown config key 'bogus'" in out.stderr


def test_cli_freezes_the_import_heap_once(tmp_path):
    out = _run(_FREEZE, str(tmp_path))
    assert out.returncode == 0, out.stderr


def test_sweep_never_runs_the_deferred_numpy_submodules(tmp_path):
    out = _run(_DEFERRED, "sweep", str(tmp_path), *_UNREAD, "numpy.ma.core")
    assert out.returncode == 0, out.stderr


def test_verify_theory_never_runs_the_deferred_numpy_submodules(tmp_path):
    # Two instances, so where there are two cores they are verified in
    # forked workers, which inherit the lazy modules; the map that forks
    # them imports neither multiprocessing nor concurrent.futures. The
    # verifier calls LAPACK without scipy.linalg's input check, which reads
    # numpy.ma.isMaskedArray, so numpy.ma runs in no process.
    out = _run(_DEFERRED, "verify-theory", str(tmp_path), *_UNREAD, "numpy.ma.core",
               "multiprocessing", "concurrent.futures")
    assert out.returncode == 0, out.stderr
