"""Peak memory of the dense spectral verifier, measured in a fresh process
so that no other test's allocations set the high-water mark."""

import json
import os
import subprocess
import sys

import pytest

import kktprec

# The verification runs in a forked child: a new process's ru_maxrss starts
# at the resident size it was forked with, whereas this interpreter's starts
# at whatever the process that launched it held.
_PROBE = """
import kktprec
import json, os, resource
import numpy as np
from kktprec.config import BDAL_EXACT
from kktprec.harness import generate_observations
from kktprec.kkt import assemble_problem, build_kkt, build_preconditioner
from kktprec.mesh import build_mesh
from kktprec.spectral import verify_spectral_bounds

def verify(nx, ny):
    mesh = build_mesh(1.45, 1.0, nx, ny)
    ops = assemble_problem(mesh, generate_observations(1, 200, 1.45, 1.0))
    kkt = build_kkt(ops, 1e-6, np.zeros(200))
    verify_spectral_bounds(kkt, build_preconditioner(kkt, BDAL_EXACT))
    return kkt.n

verify(2, 2)  # lazy set-up and allocator pools come first
read, write = os.pipe()
if os.fork() == 0:
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    n = verify(20, 14)
    growth_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
    os.write(write, json.dumps(growth_kib * 1024 / (8 * n * n)).encode())
    os._exit(0)
os.close(write)
print(os.read(read, 64).decode())
os.wait()
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux only")
def test_verifier_peak_rss_growth_in_n_squared_doubles():
    # E alone is 9 n^2 doubles. The growth reads 25.1-25.4 n^2 at 20x14,
    # with the peak in the n x n checks on views of E (E, their products,
    # dense factors and temporaries freed to the allocator while E was
    # formed); it read 26.2-26.4 with each n x n check a full eigensolve.
    # With every factor of E alive until E was full and a copy of Y held
    # through the eigensolve it read 26.9-27.1, and with a second copy of E
    # for the eigensolve 33.7.
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(kktprec.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    assert json.loads(out.stdout) < 30.0
