"""The one-thread OpenBLAS set at import, the ordered process map that
forks workers only where it holds, its contract for results, exceptions
and dead workers, and the exception that crosses its worker boundary."""

import json
import os
import pickle
import subprocess
import sys
import time

import pytest

import kktprec
from kktprec import harness, parallel
from kktprec.cli import EXIT_ERROR, main
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


def test_map_in_order_is_serial_without_cap(monkeypatch):
    def no_fork():
        raise AssertionError("a worker was forked with more than one BLAS thread")

    monkeypatch.setattr(parallel, "_ONE_BLAS_THREAD", False)
    monkeypatch.setattr(parallel.os, "fork", no_fork)
    assert parallel.map_in_order(_job, range(4)) == [(k * k, os.getpid()) for k in range(4)]


@pytest.fixture
def pooled(monkeypatch):
    """Turn the pool on in this process (pytest loaded numpy first), or skip
    where it cannot run."""
    if not (parallel._built_on_openblas(parallel.np) and parallel._built_on_openblas(parallel.scipy)):
        pytest.skip("numpy or scipy is not an OpenBLAS build")
    if len(os.sched_getaffinity(0)) < 2 or not hasattr(os, "fork"):
        pytest.skip("one core available, or no os.fork")
    monkeypatch.setattr(parallel, "_ONE_BLAS_THREAD", True)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_map_in_order_runs_in_workers_when_capped(pooled):
    # On two cores worker 0 gets the slow jobs, so worker 1 finishes first.
    # fn is a closure, which the fork passes without pickling.
    def uneven(k):
        time.sleep(0.05 if k % 2 == 0 else 0.0)
        return k * k, os.getpid()

    results = parallel.map_in_order(uneven, range(7))
    assert [value for value, _ in results] == [k * k for k in range(7)]
    pids = {pid for _, pid in results}
    assert os.getpid() not in pids and len(pids) == min(7, len(os.sched_getaffinity(0)))
    _no_child_left()


def test_map_in_order_raises_lowest_failing_index(pooled):
    # On two cores worker 0 runs 0, 2, 4 and fails at 4; worker 1 runs 1, 3
    # and fails at 3. Worker 0 is read first, yet job 3's exception is the
    # one raised, as it would be serially.
    def fail_from_3(k):
        if k >= 3:
            raise ValueError(f"job {k}")
        return k

    with pytest.raises(ValueError, match="^job 3$"):
        parallel.map_in_order(fail_from_3, range(6))
    _no_child_left()


def test_map_in_order_names_a_worker_that_dies(pooled):
    def die_at_1(k):
        if k == 1:
            os._exit(3)
        return k

    with pytest.raises(RuntimeError, match=r"^worker 1 of \d+ \(pid \d+\) ended without a result: wait status 768$"):
        parallel.map_in_order(die_at_1, range(4))
    _no_child_left()


def test_verify_theory_reports_a_dead_worker(pooled, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(harness, "verify_spectral_bounds", lambda sys, prec: os._exit(3))
    argv = ["verify-theory", "--out", str(tmp_path), "--set", "nx = 3", "--set", "ny = 2",
            "--set", "alpha = 1e-2, 1e-4", "--set", "n_obs = 4"]
    assert main(argv) == EXIT_ERROR
    assert "error: worker 0 of 2" in capsys.readouterr().err
    _no_child_left()


_UNFLUSHED = """
import os, sys
import kktprec
from kktprec import harness, parallel
sys.stdout.write("left in the buffer\\n")
pids = parallel.map_in_order(lambda k: os.getpid(), range(2))
assert os.getpid() not in pids, "no worker was forked"
"""


def test_map_in_order_prints_unflushed_parent_text_once(pooled):
    # stdout is a pipe, so block-buffered; forked workers leave by os._exit
    # without flushing their inherited copy of the buffer.
    out = _run_python(["-c", _UNFLUSHED], blas_threads=1)
    assert out.stdout == "left in the buffer\n"


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
