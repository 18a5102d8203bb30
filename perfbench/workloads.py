"""The benchmark's workloads: the CLI argv of each, the ladder's skip
guard, and the checks that turn the CLI's CSV outputs into operation
counts.

One operation is one solve (ladder, sweep) or one verification instance
(verify-theory). An operation fails if its row is missing, if the solve
ended unconverged or above ``target_error``, if its sweep cell is -1, if
its bound check failed, or if the CLI process exited non-zero.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

LADDER_KINDS = ("bdal-lumped-exact", "bdal-lumped-inexact", "reduced-regularization")

# Every rung of the mesh ladder; the guard below decides which ones run.
LADDER_RUNGS = ((29, 20), (58, 40), (116, 80), (232, 160))

# The dense 3n x 3n reference solve holds about three copies of the matrix
# at its peak (1.3 GB peak RSS against 0.42 GB for one copy at 58x40). A
# fixed cap keeps the workload the same on every machine.
DENSE_COPIES_AT_PEAK = 3
DENSE_PEAK_CAP_BYTES = 2 * 1024**3

KNOWN_FAILURES = {
    (232, 160): "synthesize_data raises InnerSolveError after about 350 s: its forward "
    "Jacobi-CG cannot reach a 1e-12 true residual at n=37513",
}

LADDER_ALPHA = 1e-6
LADDER_N_OBS = 500
LADDER_TOL = 1e-10
LADDER_MAXIT = 200
LADDER_TARGET_ERROR = 1e-5

WORKLOADS = {
    "ladder": "mesh-study on rungs 29x20 and 58x40 with all three solvers: one large "
    "instance per rung, so per-instance cost follows how each layer grows with n",
    "sweep": "sweep on 20x14 over 4 alphas x 3 observation counts: many small "
    "instances, so per-instance set-up, Krylov overhead and iteration counts dominate",
    "verify-theory": "verify-theory on 12 dense instances: the only workload where the "
    "spectral layer and dense eigensolves do the work; no Krylov or reference solve",
}

CHECKED_IN_CONFIG = {"sweep": "configs/sweep.cfg", "verify-theory": "configs/theory.cfg"}


def rung_label(nx: int, ny: int) -> str:
    return f"{nx}x{ny}"


def rung_vertices(nx: int, ny: int) -> int:
    return (nx + 1) * (ny + 1)


def skip_reason(nx: int, ny: int) -> str | None:
    """Why a ladder rung cannot run, decided from its vertex count alone."""
    n = rung_vertices(nx, ny)
    one_copy = (3 * n) ** 2 * 8
    reasons = []
    if DENSE_COPIES_AT_PEAK * one_copy > DENSE_PEAK_CAP_BYTES:
        reasons.append(
            f"the dense 3n x 3n reference at n={n} needs {one_copy / 1e9:.1f} GB per copy, "
            f"about {DENSE_COPIES_AT_PEAK * one_copy / 1e9:.1f} GB at peak, over the "
            f"{DENSE_PEAK_CAP_BYTES / 2**30:.0f} GiB cap"
        )
    if (nx, ny) in KNOWN_FAILURES:
        reasons.append(KNOWN_FAILURES[(nx, ny)])
    return "; ".join(reasons) or None


def ladder_plan() -> tuple[list[tuple[int, int]], dict[str, str]]:
    """(rungs to run, {rung label: skip reason} for the others)."""
    run, skipped = [], {}
    for nx, ny in LADDER_RUNGS:
        reason = skip_reason(nx, ny)
        if reason is None:
            run.append((nx, ny))
        else:
            skipped[rung_label(nx, ny)] = reason
    return run, skipped


def ladder_config_text(rungs: list[tuple[int, int]]) -> str:
    return "\n".join(
        [
            "nx = " + ", ".join(str(nx) for nx, _ in rungs),
            "ny = " + ", ".join(str(ny) for _, ny in rungs),
            f"alpha = {LADDER_ALPHA:g}",
            f"n_obs = {LADDER_N_OBS}",
            "preconditioners = " + ", ".join(LADDER_KINDS),
            f"tol = {LADDER_TOL:g}",
            f"maxit = {LADDER_MAXIT}",
            f"target_error = {LADDER_TARGET_ERROR:g}",
            "timing = true",
            "",
        ]
    )


def prepare_config(workload: str, root: str, run_dir: str) -> str:
    """Path of the config file the CLI reads for this workload."""
    if workload == "ladder":
        rungs, _ = ladder_plan()
        path = os.path.join(run_dir, "ladder.cfg")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(ladder_config_text(rungs))
        return path
    path = os.path.join(root, CHECKED_IN_CONFIG[workload])
    if not os.path.isfile(path):
        raise FileNotFoundError(f"{path} is missing")
    return path


def cli_argv(workload: str, config: str, seed: int, out_dir: str) -> list[str]:
    """Arguments after the interpreter: the program's own CLI entry point."""
    subcommand = "mesh-study" if workload == "ladder" else workload
    return ["-m", "kktprec.cli", subcommand, "--config", config, "--seed", str(seed), "--out", out_dir]


def read_config(path: str) -> dict[str, list[str]]:
    """key = a, b, c lines of a CLI config, as lists of raw strings."""
    values = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            stripped = line.split("#", 1)[0].strip()
            if "=" in stripped:
                key, raw = stripped.split("=", 1)
                values[key.strip()] = [v.strip() for v in raw.split(",")]
    return values


@dataclass
class Outcome:
    """Operations of one workload pass and what the CLI's CSVs say."""

    attempted: int
    failures: list[str] = field(default_factory=list)
    krylov_iters: int = 0
    solve_s: dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.failures)


def failed_frac(outcomes: list[Outcome]) -> float:
    attempted = sum(o.attempted for o in outcomes)
    return sum(o.failed for o in outcomes) / attempted if attempted else 1.0


def _read_rows(path: str) -> list[dict[str, str]]:
    if not os.path.isfile(path):
        return []
    with open(path, "r", encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def _kind_of(run_id: str) -> str:
    for prefix in ("minres-", "cg-hess-"):
        if run_id.startswith(prefix):
            return run_id[len(prefix) :].split("-nx", 1)[0]
    return run_id


def _with_missing(outcome: Outcome, seen: int, what: str) -> Outcome:
    outcome.failures.extend(f"missing {what}" for _ in range(outcome.attempted - seen))
    return outcome


def check_ladder(out_dir: str, target_error: float, attempted: int) -> Outcome:
    outcome = Outcome(attempted=attempted)
    last = {}
    for row in _read_rows(os.path.join(out_dir, "mesh-study-iterations.csv")):
        last[row["run-id"]] = row
    summary = _read_rows(os.path.join(out_dir, "mesh-study.csv"))
    for row in summary:
        run_id = row["run-id"]
        final = last.get(run_id)
        if row["converged"] != "true":
            outcome.failures.append(f"{run_id}: not converged")
        elif not row["iters-to-target"]:
            outcome.failures.append(f"{run_id}: target error never reached")
        elif final is None:
            outcome.failures.append(f"{run_id}: no iteration rows")
        elif not float(final["rel-param-error"]) <= target_error:
            outcome.failures.append(
                f"{run_id}: final rel-param-error {final['rel-param-error']} > {target_error:g}"
            )
        if final is not None:
            outcome.krylov_iters += int(final["iteration"])
            kind = _kind_of(run_id)
            outcome.solve_s[kind] = outcome.solve_s.get(kind, 0.0) + float(final["wall-s"])
    return _with_missing(outcome, len(summary), "mesh-study row")


def check_sweep(out_dir: str, attempted: int) -> Outcome:
    outcome = Outcome(attempted=attempted)
    seen = 0
    for row in _read_rows(os.path.join(out_dir, "sweep.csv")):
        alpha = row.pop("alpha")
        for n_obs, cell in row.items():
            seen += 1
            if int(cell) < 0:
                outcome.failures.append(f"sweep alpha={alpha} n_obs={n_obs}: target not reached")
            else:
                outcome.krylov_iters += int(cell)
    return _with_missing(outcome, seen, "sweep cell")


def check_theory(out_dir: str, attempted: int) -> Outcome:
    outcome = Outcome(attempted=attempted)
    rows = _read_rows(os.path.join(out_dir, "theory.csv"))
    for row in rows:
        if row["pass"] != "true":
            outcome.failures.append(f"{row['run-id']}: spectral bound violated")
    return _with_missing(outcome, len(rows), "theory row")


def operations_per_pass(workload: str, cfg: dict[str, list[str]]) -> int:
    if workload == "ladder":
        return len(cfg["nx"]) * len(cfg["preconditioners"])
    if workload == "sweep":
        return len(cfg["alpha"]) * len(cfg["n_obs"])
    return len(cfg["nx"]) * len(cfg["alpha"]) * len(cfg["n_obs"])


def check_pass(workload: str, config: str, out_dir: str, exit_code: int) -> Outcome:
    """Operation outcome of one CLI pass, from its exit code and CSVs."""
    cfg = read_config(config)
    attempted = operations_per_pass(workload, cfg)
    if workload == "ladder":
        outcome = check_ladder(out_dir, float(cfg["target_error"][0]), attempted)
    elif workload == "sweep":
        outcome = check_sweep(out_dir, attempted)
    else:
        outcome = check_theory(out_dir, attempted)
    if exit_code != 0:
        outcome.failures = [f"CLI exited with code {exit_code}"] * attempted
    return outcome
