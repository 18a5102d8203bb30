"""The one-thread BLAS cap, the ordered process map built on it, and the
exceptions that cross its worker boundary."""

import concurrent.futures
import os
import pickle

import pytest

from kktprec import parallel
from kktprec.spectral import AssumptionViolationError, ConditionReport, TheoryViolationError

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
