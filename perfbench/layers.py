"""Per-layer metrics computed from the spans and counters of one traced pass.

Metrics without a rung suffix cover the whole workload. Metrics with a
ladder rung suffix (``.29x20``, ``.58x40``) cover that rung's instance,
and ``.growth`` is log(t_58x40 / t_29x20) / log(n_58x40 / n_29x20). A
layer that a workload never calls reads 0 there.
"""

from __future__ import annotations

import math
import re
from collections import defaultdict

from tracing import Span, self_times
from workloads import LADDER_KINDS, ladder_plan, rung_label, rung_vertices

BUILT_KINDS = LADDER_KINDS + ("bdal-exact",)
MINRES_KINDS = ("bdal-lumped-exact", "bdal-lumped-inexact")

WORKLOAD_METRICS = (
    ["fem.assemble_s", "formats.obs_io_s", "kkt.build_kkt_s", "kkt.synthesize_s"]
    + ["kkt.reference_s", "kkt.reference_alloc_mb"]
    + [f"kkt.prec_build_s.{kind}" for kind in BUILT_KINDS]
    + ["kkt.kkt_apply_us", "kkt.kkt_apply_calls", "kkt.kkt_apply_bytes"]
    + [f"kkt.prec_apply_us.{kind}" for kind in MINRES_KINDS]
    + [f"kkt.prec_apply_calls.{kind}" for kind in MINRES_KINDS]
    + ["kkt.hessian_apply_us", "kkt.hessian_apply_calls", "kkt.reg_prec_apply_us"]
    + [f"krylov.minres_iters.{kind}" for kind in MINRES_KINDS]
    + ["krylov.pcg_iters", "krylov.minres_self_us_per_iter", "krylov.pcg_self_us_per_iter"]
    + ["spectral.verify_s", "harness.self_s", "tracing.overhead_frac"]
)

RUNG_METRICS = (
    ["fem.assemble_s", "kkt.synthesize_s", "kkt.reference_s", "kkt.reference_alloc_mb"]
    + [f"kkt.prec_build_s.{kind}" for kind in LADDER_KINDS]
    + ["kkt.kkt_apply_us"]
    + [f"kkt.prec_apply_us.{kind}" for kind in MINRES_KINDS]
    + ["kkt.hessian_apply_us", "kkt.reg_prec_apply_us"]
    + ["krylov.minres_self_us_per_iter", "krylov.pcg_self_us_per_iter"]
    + [f"krylov.minres_iters.{kind}" for kind in MINRES_KINDS]
    + ["krylov.pcg_iters"]
)

LADDER_RUN_RUNGS, _ = ladder_plan()
SMALL, LARGE = LADDER_RUN_RUNGS[0], LADDER_RUN_RUNGS[-1]
RUNG_SUFFIXES = [rung_label(*r) for r in LADDER_RUN_RUNGS] + ["growth"]

PER_LAYER = WORKLOAD_METRICS + [f"{m}.{s}" for m in RUNG_METRICS for s in RUNG_SUFFIXES]

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

_UNITS = (
    ("_s", "s"),
    ("_us", "us"),
    ("_per_iter", "us"),
    ("_mb", "MB"),
    ("_bytes", "B"),
    ("_calls", "count"),
    ("_iters", "count"),
    ("_frac", "ratio"),
)


def unit_of(name: str) -> str:
    if name.endswith(".growth"):
        return "exponent"
    base = name
    for suffixes in (RUNG_SUFFIXES, BUILT_KINDS):
        for suffix in suffixes:
            base = base.removesuffix("." + suffix)
    for suffix, unit in _UNITS:
        if base.endswith(suffix):
            return unit
    raise ValueError(f"no unit for metric {name!r}")


def growth(t_small: float, t_large: float, n_small: int, n_large: int) -> float:
    """Exponent p in t ~ n^p between two rungs; 0.0 when either value is 0."""
    if t_small <= 0.0 or t_large <= 0.0:
        return 0.0
    return math.log(t_large / t_small) / math.log(n_large / n_small)


def rung_of(run_id: str) -> str:
    """Run ids are '<nx>x<ny>/...'; the rung is the mesh part."""
    return run_id.split("/", 1)[0]


def layer_values(spans: list[Span], counters: dict[tuple[str, str], float], keep) -> dict[str, float]:
    """WORKLOAD_METRICS (except tracing.overhead_frac) over the spans and
    counters whose run id satisfies keep."""
    selfs = self_times(spans)
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    for span, self_s in zip(spans, selfs):
        if keep(span.run_id):
            total[span.name] += span.duration
            own[span.name] += self_s
            calls[span.name] += 1
    count = defaultdict(float)
    peak = defaultdict(float)
    for (name, run_id), value in counters.items():
        if keep(run_id):
            count[name] += value
            peak[name] = max(peak[name], value)

    def per_call_us(name):
        return 1e6 * total[name] / calls[name] if calls[name] else 0.0

    def per_iter_us(seconds, iters):
        return 1e6 * seconds / iters if iters else 0.0

    v = {
        "fem.assemble_s": total["fem.assemble"],
        "formats.obs_io_s": total["formats.obs_io"],
        "kkt.build_kkt_s": total["kkt.build_kkt"],
        "kkt.synthesize_s": total["kkt.synthesize"],
        "kkt.reference_s": total["kkt.reference"],
        "kkt.reference_alloc_mb": peak["kkt.reference_alloc_mb"],
        "kkt.kkt_apply_us": per_call_us("kkt.kkt_apply"),
        "kkt.kkt_apply_calls": calls["kkt.kkt_apply"],
        "kkt.kkt_apply_bytes": count["kkt.kkt_apply_bytes"],
        "kkt.hessian_apply_us": per_call_us("kkt.hessian_apply"),
        "kkt.hessian_apply_calls": calls["kkt.hessian_apply"],
        "kkt.reg_prec_apply_us": per_call_us("kkt.reg_prec_apply"),
        "krylov.pcg_iters": count["krylov.pcg_iters"],
        "krylov.pcg_self_us_per_iter": per_iter_us(own["krylov.pcg"], count["krylov.pcg_iters"]),
        "spectral.verify_s": total["spectral.verify"],
        "harness.self_s": own["harness"],
    }
    for kind in BUILT_KINDS:
        v[f"kkt.prec_build_s.{kind}"] = total[f"kkt.prec_build.{kind}"]
    for kind in MINRES_KINDS:
        v[f"kkt.prec_apply_us.{kind}"] = per_call_us(f"kkt.prec_apply.{kind}")
        v[f"kkt.prec_apply_calls.{kind}"] = calls[f"kkt.prec_apply.{kind}"]
        v[f"krylov.minres_iters.{kind}"] = count[f"krylov.minres_iters.{kind}"]
    minres_self = sum(own[f"krylov.minres.{kind}"] for kind in MINRES_KINDS)
    minres_iters = sum(count[f"krylov.minres_iters.{kind}"] for kind in MINRES_KINDS)
    v["krylov.minres_self_us_per_iter"] = per_iter_us(minres_self, minres_iters)
    return v


def per_layer(spans: list[Span], counters: dict[tuple[str, str], float], overhead_frac: float) -> dict[str, float]:
    """Every PER_LAYER metric of one traced pass."""
    values = layer_values(spans, counters, lambda run_id: True)
    values["tracing.overhead_frac"] = overhead_frac
    by_rung = {
        r: layer_values(spans, counters, lambda run_id, label=rung_label(*r): rung_of(run_id) == label)
        for r in LADDER_RUN_RUNGS
    }
    for name in RUNG_METRICS:
        for r in LADDER_RUN_RUNGS:
            values[f"{name}.{rung_label(*r)}"] = by_rung[r][name]
        values[f"{name}.growth"] = growth(
            by_rung[SMALL][name], by_rung[LARGE][name], rung_vertices(*SMALL), rung_vertices(*LARGE)
        )
    return {name: float(values[name]) for name in PER_LAYER}
