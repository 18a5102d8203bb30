"""Benchmark of kktprec, run from the root of a checkout:

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

Every pass is a fresh process with a fresh, empty output directory under
.perfbench_runs/. With --trace 0 the program's own CLI runs the workload,
untraced, pass after pass until --seconds is used (at least one pass), and
the end-to-end metrics are medians over the passes. With --trace 1 each
step is one untraced CLI pass and one traced pass (perfbench/traced.py),
and the per-layer metrics are medians over the traced passes.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Exits 2 without a result when the directory
holds no kktprec source tree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

from layers import PER_LAYER, per_layer, unit_of
from tracing import counters_from_json, spans_from_json
from workloads import (
    LADDER_KINDS,
    WORKLOADS,
    Outcome,
    check_pass,
    cli_argv,
    failed_frac,
    ladder_plan,
    operations_per_pass,
    prepare_config,
    read_config,
)

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# Reported with the end-to-end metrics but not bounded: each reads 0 on
# some workload or at this commit.
REPORTED = {"krylov_iters": "count", "failed_frac": "ratio"} | {
    f"solve_s.{kind}": "s" for kind in LADDER_KINDS
}

SETUP_SAMPLES = 7
SETUP_CODE = "import sys, kktprec; kktprec.load_config(sys.argv[1])"
VERSIONS_CODE = SETUP_CODE + (
    "; import json, numpy, scipy; "
    "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']; "
    "print(json.dumps({'python': sys.version.split()[0], 'numpy': numpy.__version__, "
    "'scipy': scipy.__version__, 'blas': blas.get('name'), 'blas_version': blas.get('version')}))"
)

# Every run ends within 180 s; a pass still running at this point is killed
# and its operations count as failed.
RUN_DEADLINE_S = 170.0

RUNS_DIR = ".perfbench_runs"


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int


def run_child(argv: list[str], env: dict, log_dir: str, timeout: float) -> Child:
    """Run argv to completion in its own process; wall time, CPU time and
    peak RSS come from wait4 on that process alone."""
    with open(os.path.join(log_dir, "stdout.txt"), "wb") as out, open(
        os.path.join(log_dir, "stderr.txt"), "wb"
    ) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


def child_env(root: str, nproc: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    return env


def source_digest(root: str) -> str:
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def git_commit(root: str) -> str | None:
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


class Run:
    """One benchmark run: its directory, child environment and outcomes."""

    def __init__(self, root: str, workload: str, seed: int, trace: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        base = os.path.join(root, RUNS_DIR)
        os.makedirs(base, exist_ok=True)
        self.dir = os.path.relpath(
            tempfile.mkdtemp(prefix=f"{workload}-seed{seed}-trace{trace}-", dir=base), root
        )
        self.nproc = len(os.sched_getaffinity(0))
        self.env = child_env(root, self.nproc)
        self.config = os.path.relpath(prepare_config(workload, root, self.dir), root)
        self.ops_per_pass = operations_per_pass(workload, read_config(self.config))
        self.outcomes: list[Outcome] = []
        self.argvs: list[list[str]] = []
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.passes = 0

    def _child(self, argv: list[str], out_dir: str) -> Child:
        os.makedirs(out_dir)
        return run_child([sys.executable] + argv, self.env, out_dir, self.deadline - time.perf_counter())

    def _workload_child(self, argv: list[str], out_dir: str) -> Child:
        self.argvs.append([sys.executable] + argv)
        return self._child(argv, out_dir)

    def warm_up(self) -> dict:
        """One untimed import plus config load: fills the bytecode cache and
        reports the versions the children run with."""
        out = os.path.join(self.dir, "setup-warm")
        if self._child(["-c", VERSIONS_CODE, self.config], out).exit_code != 0:
            raise RuntimeError(f"importing kktprec failed; see {out}/stderr.txt")
        with open(os.path.join(out, "stdout.txt"), encoding="utf-8") as handle:
            return json.loads(handle.read())

    def setup_sample(self, k: int) -> float:
        """Wall time of a fresh process that imports kktprec and loads the
        workload config."""
        return self._child(["-c", SETUP_CODE, self.config], os.path.join(self.dir, f"setup-{k}")).wall_s

    def cli_pass(self) -> tuple[Child, Outcome]:
        self.passes += 1
        out = os.path.join(self.dir, f"pass-{self.passes}")
        child = self._workload_child(cli_argv(self.workload, self.config, self.seed, out), out)
        outcome = check_pass(self.workload, self.config, out, child.exit_code)
        self.outcomes.append(outcome)
        return child, outcome

    def traced_pass(self) -> tuple[Child, dict]:
        out = os.path.join(self.dir, f"trace-{self.passes}")
        script = os.path.relpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), "traced.py"), self.root)
        argv = [script, "--workload", self.workload, "--config", self.config, "--seed", str(self.seed), "--out", out]
        child = self._workload_child(argv, out)
        path = os.path.join(out, "trace.json")
        if child.exit_code != 0 or not os.path.isfile(path):
            failure = f"traced pass exited with code {child.exit_code}; see {out}/stderr.txt"
            self.outcomes.append(Outcome(self.ops_per_pass, [failure] * self.ops_per_pass))
            return child, {}
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        self.outcomes.append(Outcome(payload["attempted"], payload["failures"]))
        return child, payload

    def record(self, versions: dict) -> dict:
        _, skipped = ladder_plan()
        return {
            "workload": self.workload,
            "seed": self.seed,
            "git_commit": git_commit(self.root),
            "source_sha256": source_digest(self.root),
            "nproc": self.nproc,
            "blas_threads": int(self.env["OPENBLAS_NUM_THREADS"]),
            **versions,
            "setup_argv": [sys.executable, "-c", SETUP_CODE, self.config],
            "argv": self.argvs,
            "skipped_rungs": skipped if self.workload == "ladder" else {},
            "run_dir": self.dir,
        }


def measure_untraced(run: Run, seconds: float) -> tuple[dict, dict]:
    versions = run.warm_up()
    # Set-up samples are spread over the run, one before each pass, so
    # that they see the same machine as the passes do.
    setup: list[float] = []
    passes: list[tuple[Child, Outcome]] = []
    start = time.perf_counter()
    while True:
        setup.append(run.setup_sample(len(setup)))
        passes.append(run.cli_pass())
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(c.wall_s for c, _ in passes) > seconds:
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(run.setup_sample(len(setup)))
    outcomes = [o for _, o in passes]
    stats = {
        "setup_s": summary(setup),
        "wall_s": summary([c.wall_s for c, _ in passes]),
        "cpu_s": summary([c.cpu_s for c, _ in passes]),
        "peak_rss_mb": summary([c.rss_mb for c, _ in passes]),
        "krylov_iters": summary([o.krylov_iters for o in outcomes]),
        "failed_frac": summary([failed_frac(outcomes)]),
    }
    for kind in LADDER_KINDS:
        if all(kind in o.solve_s for o in outcomes):
            stats[f"solve_s.{kind}"] = summary([o.solve_s[kind] for o in outcomes])
    return stats, versions


def measure_traced(run: Run, seconds: float) -> tuple[dict, dict]:
    versions = run.warm_up()
    rows = []
    steps = []
    start = time.perf_counter()
    while True:
        step_start = time.perf_counter()
        cli, _ = run.cli_pass()
        traced, payload = run.traced_pass()
        steps.append(time.perf_counter() - step_start)
        if payload:
            spans = spans_from_json(payload)
            gate_s = sum(s.duration for s in spans if s.name.startswith("gate."))
            overhead = (traced.wall_s - gate_s) / cli.wall_s - 1.0
            rows.append(per_layer(spans, counters_from_json(payload), overhead))
        if time.perf_counter() - start + statistics.median(steps) > seconds:
            break
    if not rows:
        return {}, versions
    return {name: summary([row[name] for row in rows]) for name in PER_LAYER}, versions


def print_report(run: Run, stats: dict, units: dict, record: dict) -> None:
    attempted = sum(o.attempted for o in run.outcomes)
    failures = [f for o in run.outcomes for f in o.failures]
    print(f"workload {run.workload}: {WORKLOADS[run.workload]}")
    idle = []
    for name, unit in units.items():
        s = stats.get(name)
        if s is None:
            print(f"  {name:46s} n/a (not run on this workload)")
        elif name in PER_LAYER and s["q3"] == 0.0:
            idle.append(name)
        else:
            print(f"  {name:46s} {s['median']:.6g} {unit} (median of {s['n']}; q1 {s['q1']:.6g}, q3 {s['q3']:.6g})")
    if idle:
        print(f"  {len(idle)} per-layer metrics read 0 (layer or rung not run on this workload)")
    verdict = "ok" if not failures else "FAILED"
    print(f"correctness gate: {verdict}, {len(failures)} of {attempted} operations failed")
    for failure in failures:
        print(f"  failed: {failure}")
    print("record: " + json.dumps(record))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="kktprec benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "kktprec", "__init__.py")):
        print("error: no kktprec source tree at src/kktprec; run from the repository root", file=sys.stderr)
        return 2
    try:
        run = Run(root, args.workload, args.seed, args.trace)
        measure = measure_traced if args.trace else measure_untraced
        stats, versions = measure(run, args.seconds)
    except (OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    units = {name: unit_of(name) for name in PER_LAYER} if args.trace else END_TO_END | REPORTED
    reported = PER_LAYER if args.trace else list(END_TO_END)
    record = run.record(versions)
    print_report(run, stats, units, record)

    attempted = sum(o.attempted for o in run.outcomes)
    failed = sum(o.failed for o in run.outcomes)
    metrics = {
        name: {"value": stats[name]["median"] if name in stats else 0.0, "unit": units[name]}
        for name in reported
    }
    result = {"correct": failed == 0 and bool(stats), "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(run.dir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump({"result": result, "stats": stats, "record": record}, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
