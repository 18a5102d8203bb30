"""The one-thread OpenBLAS set at import, the ordered process map that
forks workers only where it holds, and the exception that crosses its
worker boundary."""

import concurrent.futures
import json
import os
import pickle
import subprocess
import sys

import pytest

import kktprec
from kktprec import parallel
from kktprec.spectral import ConditionReport, TheoryViolationError

_REPORT = ConditionReport(*(float(k) for k in range(1, 10)))


def _job(k):
    return k * k, os.getpid()


def _run_python(args, blas_threads, **kwargs):
    """Run this interpreter on args with the package importable and
    OPENBLAS_NUM_THREADS set to blas_threads."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(kktprec.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    return subprocess.run(
        [sys.executable] + args,
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
        **kwargs,
    )


_PROBE = """
import json, os
{before}
import kktprec
tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(json.dumps([kktprec._ONE_BLAS_THREAD, tasks]))
"""


def test_import_starts_no_blas_thread_pool():
    # OpenBLAS reads its thread count when it is loaded; importing the
    # package before numpy must load it with one thread, whatever the
    # environment asked for, so no server thread is started.
    _, tasks = json.loads(_run_python(["-c", _PROBE.format(before="")], blas_threads=2).stdout)
    if tasks is None:
        pytest.skip("no /proc/self/task")
    assert tasks == 1


@pytest.mark.parametrize(
    "before, blas_threads, one_thread",
    [("", 2, True), ("import numpy", 2, False), ("import numpy", 1, True)],
)
def test_import_records_whether_blas_loads_one_thread(before, blas_threads, one_thread):
    # numpy imported first has loaded OpenBLAS with the environment's count
    probe = _PROBE.format(before=before)
    recorded, _ = json.loads(_run_python(["-c", probe], blas_threads).stdout)
    assert recorded is one_thread


def test_verify_theory_output_independent_of_blas_env(tmp_path):
    args = [
        "-m", "kktprec.cli", "verify-theory",
        "--set", "nx = 10",
        "--set", "ny = 7",
        "--set", "alpha = 1e-4",
        "--set", "n_obs = 50",
    ]
    outputs = []
    for threads in (1, 2):
        out = tmp_path / f"blas{threads}"
        _run_python(args + ["--out", str(out)], blas_threads=threads, cwd=tmp_path)
        outputs.append((out / "theory.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_map_in_order_runs_in_workers_when_capped(monkeypatch):
    if not (parallel._built_on_openblas(parallel.np) and parallel._built_on_openblas(parallel.scipy)):
        pytest.skip("numpy or scipy is not an OpenBLAS build")
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one core available")
    monkeypatch.setattr(parallel, "_ONE_BLAS_THREAD", True)
    results = parallel.map_in_order(_job, range(6))
    assert [value for value, _ in results] == [k * k for k in range(6)]
    assert os.getpid() not in {pid for _, pid in results}


def test_map_in_order_is_serial_without_cap(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started with more than one BLAS thread")

    monkeypatch.setattr(parallel, "_ONE_BLAS_THREAD", False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert parallel.map_in_order(_job, range(4)) == [(k * k, os.getpid()) for k in range(4)]


@pytest.mark.parametrize(
    "exc, attr",
    [
        (TheoryViolationError("sigma_max(E) = 2.5 <= 2", _REPORT), "report"),
    ],
)
def test_exceptions_survive_pickling(exc, attr):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert getattr(back, attr) == getattr(exc, attr)
