"""The one-thread BLAS cap, set at import and held at run time, the
ordered process map built on it, and the exceptions that cross its worker
boundary."""

import concurrent.futures
import json
import os
import pickle
import subprocess
import sys

import pytest

from filter_model import AssumptionViolationError
import kktprec
from kktprec import parallel
from kktprec.spectral import ConditionReport, TheoryViolationError

_REPORT = ConditionReport(*(float(k) for k in range(1, 10)))


def _controls_or_skip():
    controls = parallel._openblas_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread control in this process")
    return controls


def _counts(controls):
    return [get_threads() for _, get_threads in controls]


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
import kktprec
from kktprec import parallel
tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(json.dumps([tasks, [get_threads() for _, get_threads in parallel._openblas_controls()]]))
"""


def test_cap_holds_inside_and_restores_previous_counts():
    controls = _controls_or_skip()
    original = _counts(controls)
    try:
        for set_threads, _ in controls:
            set_threads(2)
        previous = _counts(controls)
        with parallel.single_threaded_blas() as capped:
            assert capped
            assert _counts(controls) == [1] * len(controls)
        assert _counts(controls) == previous
        with pytest.raises(KeyError):
            with parallel.single_threaded_blas():
                raise KeyError("body failed")
        assert _counts(controls) == previous
    finally:
        for (set_threads, _), count in zip(controls, original):
            set_threads(count)


def test_import_starts_no_blas_thread_pool():
    # OpenBLAS reads its thread count when it is loaded; importing the
    # package before numpy must load it with one thread, whatever the
    # environment asked for, so no server thread is started.
    tasks, counts = json.loads(_run_python(["-c", _PROBE], blas_threads=2).stdout)
    if tasks is None:
        pytest.skip("no /proc/self/task")
    if not counts:
        pytest.skip("no OpenBLAS thread control in this process")
    assert tasks == 1
    assert counts == [1] * len(counts)


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


def test_map_in_order_runs_in_workers_when_capped():
    _controls_or_skip()
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one core available")
    results = parallel.map_in_order(_job, range(6))
    assert [value for value, _ in results] == [k * k for k in range(6)]
    assert os.getpid() not in {pid for _, pid in results}


def test_map_in_order_is_serial_without_cap(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started without the BLAS cap")

    monkeypatch.setattr(parallel, "_openblas_controls", lambda: [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    with parallel.single_threaded_blas() as capped:
        assert not capped
    assert parallel.map_in_order(_job, range(4)) == [(k * k, os.getpid()) for k in range(4)]


@pytest.mark.parametrize(
    "exc, attr",
    [
        (TheoryViolationError("sigma_max(E) = 2.5 <= 2", _REPORT), "report"),
        (AssumptionViolationError("mode 3: d * r = 2 > c_over = 1", mode=3), "mode"),
    ],
)
def test_exceptions_survive_pickling(exc, attr):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert getattr(back, attr) == getattr(exc, attr)
