"""Tests of the benchmark's own logic: metric names, spans and self time,
the growth exponent, failure counting and the ladder skip guard.

    python3 -m pytest perfbench
"""

import importlib
import json
import math
import os

import pytest

import layers
import run
from layers import growth
from tracing import Span, Tracer, self_times
from workloads import (
    Outcome,
    check_ladder,
    check_pass,
    check_sweep,
    check_theory,
    failed_frac,
    ladder_plan,
    rung_vertices,
    skip_reason,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_metric_names_and_units_are_valid_and_unique():
    bench = _benchmark_json()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert layers.NAME_RE.match(name), name
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert layers.UNIT_RE.match(metric["unit"]), metric
    for name in list(run.END_TO_END) + list(run.REPORTED) + layers.PER_LAYER:
        assert layers.NAME_RE.match(name), name


@pytest.mark.parametrize("bad", ["", ".lead", "has space", "slash/name", "x" * 65, "kkt.apply(us)"])
def test_name_pattern_rejects_invalid_names(bad):
    assert not layers.NAME_RE.match(bad)


def test_benchmark_json_matches_the_metrics_the_code_reports():
    bench = _benchmark_json()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in bench["per_layer"]] == layers.PER_LAYER
    for metric in bench["per_layer"]:
        assert metric["unit"] == layers.unit_of(metric["name"])
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)


def _spans():
    # harness [0, 10] with children a [1, 4] and b [5, 9]; a has child c
    # [2, 3]; d [3.5, 6] overlaps both a's end and b's start under harness.
    return [
        Span("harness", 0.0, 10.0, None, "w"),
        Span("a", 1.0, 4.0, 0, "w"),
        Span("c", 2.0, 3.0, 1, "w"),
        Span("b", 5.0, 9.0, 0, "w"),
        Span("d", 3.5, 6.0, 0, "w"),
    ]


def test_self_time_subtracts_the_union_of_direct_children():
    selfs = self_times(_spans())
    # harness: children cover [1, 9] -> 8 of 10.
    assert selfs == pytest.approx([2.0, 2.0, 1.0, 4.0, 2.5])


def test_tracer_nests_spans_and_records_run_ids():
    tr = Tracer()
    tr.run_id = "29x20/alpha=1e-06"
    with tr.span("outer"):
        doubled = tr.wrap("inner", lambda x: 2 * x)
        assert doubled(3) == 6
        assert doubled(4) == 8
    tr.count("iters", 5)
    tr.count("iters", 2)
    outer, first, second = tr.spans
    assert outer.parent is None and first.parent == 0 and second.parent == 0
    assert outer.start <= first.start <= first.end <= second.start <= second.end <= outer.end
    assert {s.run_id for s in tr.spans} == {"29x20/alpha=1e-06"}
    assert tr.counters[("iters", "29x20/alpha=1e-06")] == 7
    assert self_times(tr.spans)[0] == pytest.approx(outer.duration - first.duration - second.duration)


def test_span_is_closed_when_the_call_raises():
    tr = Tracer()
    with pytest.raises(ValueError):
        with tr.span("boom"):
            raise ValueError("x")
    assert tr.spans[0].end >= tr.spans[0].start > 0.0
    with tr.span("after"):
        pass
    assert tr.spans[1].parent is None


def test_growth_is_the_exponent_between_rungs():
    n29, n58 = rung_vertices(29, 20), rung_vertices(58, 40)
    assert (n29, n58) == (630, 2419)
    assert growth(1.0, 2419 / 630, n29, n58) == pytest.approx(1.0)
    assert growth(1.3, 22.7, n29, n58) == pytest.approx(math.log(22.7 / 1.3) / math.log(2419 / 630))
    assert growth(0.0, 5.0, n29, n58) == 0.0


def test_per_layer_reports_rungs_and_growth():
    tr = Tracer()
    tr.run_id = "ladder"
    with tr.span("harness"):
        for label, ref_s in (("29x20", 0.5), ("58x40", 8.0)):
            tr.run_id = f"{label}/alpha=1e-06/obs=500"
            with tr.span("kkt.reference"):
                pass
            tr.spans[-1].end = tr.spans[-1].start + ref_s
            tr.count("krylov.minres_iters.bdal-lumped-exact", 40)
    values = layers.per_layer(tr.spans, tr.counters, 0.05)
    assert set(values) == set(layers.PER_LAYER)
    assert values["kkt.reference_s.29x20"] == pytest.approx(0.5)
    assert values["kkt.reference_s.58x40"] == pytest.approx(8.0)
    assert values["kkt.reference_s"] == pytest.approx(8.5)
    assert values["kkt.reference_s.growth"] == pytest.approx(math.log(16) / math.log(2419 / 630))
    assert values["krylov.minres_iters.bdal-lumped-exact.growth"] == 0.0
    assert values["krylov.minres_iters.bdal-lumped-exact"] == 80
    assert values["spectral.verify_s"] == 0.0
    assert values["tracing.overhead_frac"] == 0.05


def _write(path, text):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _ladder_outputs(tmp_path, converged="true", final_error="4e-09"):
    _write(
        tmp_path / "mesh-study.csv",
        "run-id,nx,ny,h,n-vertices,iters-to-target,converged\n"
        "minres-bdal-lumped-exact-nx29-ny20-alpha1e-06-obs500,29,20,0.07,630,45,true\n"
        f"cg-hess-reduced-regularization-nx29-ny20-alpha1e-06-obs500,29,20,0.07,630,130,{converged}\n",
    )
    _write(
        tmp_path / "mesh-study-iterations.csv",
        "run-id,iteration,rel-param-error,precond-residual,wall-s\n"
        "minres-bdal-lumped-exact-nx29-ny20-alpha1e-06-obs500,0,1,1,0.01\n"
        "minres-bdal-lumped-exact-nx29-ny20-alpha1e-06-obs500,71,5e-09,1e-10,0.13\n"
        f"cg-hess-reduced-regularization-nx29-ny20-alpha1e-06-obs500,139,{final_error},1e-10,0.73\n",
    )


def test_ladder_outputs_count_iterations_and_solve_time(tmp_path):
    _ladder_outputs(tmp_path)
    outcome = check_ladder(str(tmp_path), 1e-5, attempted=2)
    assert outcome.failures == []
    assert outcome.krylov_iters == 71 + 139
    assert outcome.solve_s == {"bdal-lumped-exact": 0.13, "reduced-regularization": 0.73}


@pytest.mark.parametrize(
    "converged, final_error, attempted, failed",
    [
        ("false", "4e-09", 2, 1),  # unconverged solve
        ("true", "2e-05", 2, 1),  # final error above target_error
        ("true", "4e-09", 3, 1),  # a row the CLI never wrote
    ],
)
def test_injected_ladder_failure_counts_in_failed_frac(tmp_path, converged, final_error, attempted, failed):
    _ladder_outputs(tmp_path, converged, final_error)
    outcome = check_ladder(str(tmp_path), 1e-5, attempted)
    assert outcome.failed == failed
    assert failed_frac([outcome, Outcome(attempted=4)]) == failed / (attempted + 4)


def test_sweep_cell_of_minus_one_fails(tmp_path):
    _write(tmp_path / "sweep.csv", "alpha,100,200\n0.01,26,26\n1e-08,-1,123\n")
    outcome = check_sweep(str(tmp_path), attempted=4)
    assert outcome.failed == 1
    assert outcome.krylov_iters == 26 + 26 + 123


def test_theory_violation_and_exit_code_fail(tmp_path):
    _write(tmp_path / "theory.csv", "run-id,pass\nt1,true\nt2,false\n")
    assert check_theory(str(tmp_path), attempted=2).failed == 1
    config = tmp_path / "theory.cfg"
    _write(config, "nx = 10\nny = 7\nalpha = 1e-2, 1e-4\nn_obs = 50\n")
    outcome = check_pass("verify-theory", str(config), str(tmp_path), exit_code=2)
    assert (outcome.attempted, outcome.failed) == (2, 2)


def test_skip_guard_decides_from_n_alone():
    run_rungs, skipped = ladder_plan()
    assert run_rungs == [(29, 20), (58, 40)]
    assert set(skipped) == {"116x80", "232x160"}
    assert "6.5 GB per copy" in skipped["116x80"]
    assert "InnerSolveError" in skipped["232x160"]
    assert skip_reason(58, 40) is None
    assert layers.LADDER_RUN_RUNGS == run_rungs


def test_run_exits_nonzero_without_a_source_tree(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"]) == 2
    assert capsys.readouterr().out == ""
    assert os.listdir(tmp_path) == []


def test_traced_gate_counts_unconverged_solves_and_reference_mismatch(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    traced = importlib.import_module("traced")
    from kktprec.config import load_config

    cfg = load_config(None, nx=(6,), ny=(4,), alpha=(1e-2,), n_obs=(20,), seed=3)
    tr = Tracer()
    tr.run_id = "6x4/alpha=0.01/obs=20"
    outcome = Outcome(attempted=0)
    obs_path = traced.write_obs(cfg, 20, str(tmp_path), tr)
    sys, y, q_ref = traced.instance(cfg, 6, 4, 1e-2, obs_path, tr, outcome)
    traced.solve(cfg, sys, y, "bdal-lumped-exact", q_ref, tr, outcome)
    traced.solve(cfg, sys, y, "reduced-regularization", q_ref, tr, outcome)
    assert (outcome.attempted, outcome.failures) == (3, [])

    starved = load_config(None, nx=(6,), ny=(4,), alpha=(1e-2,), n_obs=(20,), seed=3, maxit=2)
    traced.solve(starved, sys, y, "bdal-lumped-exact", q_ref, tr, outcome)
    traced.check_reference(sys, 1.01 * q_ref, outcome, tr.run_id)
    assert outcome.attempted == 5
    assert [f.split(": ", 1)[1].split(" ")[:2] for f in outcome.failures] == [
        ["not", "converged"],
        ["reference", "q"],
    ]
