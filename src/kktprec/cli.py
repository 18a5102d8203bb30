"""Command-line entry point.

Subcommands: convergence, mesh-study, sweep, verify-theory, gen-obs,
synth-source. Exit codes: 0 on success, 2 when a provable spectral bound
fails verification, 1 on configuration or solver errors. Importing the
package before numpy loads OpenBLAS with one thread (see parallel).

The arguments are parsed and the config is loaded before the numerical
modules are imported, so `--help` and a bad config exit without loading
numpy or scipy. A command that runs loads them as before.

Right after it imports the numerical modules, main freezes the objects
the process holds (gc.freeze), unless something in the process is frozen
already. Most of them are numpy's, scipy's and this package's import-time
objects, which live until exit. The cyclic collector then never walks
them again, during the run or at exit; objects made later are collected
as before. It changes no output.

Just before that import, main registers each numpy submodule that numpy
loads only on attribute access (numpy.f2py, numpy.testing, numpy.ma,
numpy.polynomial, ...) as a lazy module (importlib.util.LazyLoader).
scipy's array-API shim touches every name numpy lists, which would import
all of them; a lazy module satisfies it without running. A submodule that
something reads still runs on its first attribute access; the rest never
run. It changes no output.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import os
import sys as _sys

from .config import ConfigError, ExperimentConfig, load_config

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_THEORY_VIOLATION = 2


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="key=value config file")
    parser.add_argument("--seed", type=int, metavar="N", help="override the RNG seed")
    parser.add_argument("--out", metavar="DIR", help="output directory")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        metavar="KEY=VALUE",
        help="override any config key (repeatable)",
    )


def _config_from(args) -> ExperimentConfig:
    return load_config(
        args.config, overrides=args.overrides, seed=args.seed, out_dir=args.out
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kktprec",
        description="Source-inversion KKT solves with block-diagonal "
        "augmented-Lagrangian preconditioning, plus spectral verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("convergence", "error-vs-iteration comparison of the configured solvers"),
        ("mesh-study", "iteration counts across a mesh refinement sequence"),
        ("sweep", "iteration counts over the (alpha, n_obs) grid"),
        ("verify-theory", "check the provable spectral bounds on assembled instances"),
        ("gen-obs", "write an observation point file from the seed"),
        ("synth-source", "write the synthetic source as a PGM image"),
    ):
        _add_common(sub.add_parser(name, help=text))
    return parser


def _defer_numpy_submodules() -> None:
    """Register each numpy submodule not yet imported that numpy resolves
    only on attribute access (listed by dir(numpy), absent from its
    namespace) as a lazy module. A second call finds none left."""
    import numpy

    for name in sorted(set(dir(numpy)) - set(vars(numpy))):
        fullname = f"numpy.{name}"
        if fullname in _sys.modules:
            continue
        spec = importlib.util.find_spec(fullname)
        if spec is None:
            continue
        # LazyLoader is not safe when two threads first touch one module at
        # once; the CLI runs one thread, and verify-theory's workers are
        # forked processes, each with its own copy of the module.
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        _sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(numpy, name, module)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_ERROR

    _defer_numpy_submodules()
    from . import harness
    from .formats import write_field_pgm, write_observations
    from .mesh import build_mesh

    if gc.get_freeze_count() == 0:  # once: a later call would freeze an earlier run's garbage
        gc.freeze()

    try:
        if args.command == "convergence":
            records = harness.run_convergence(cfg)
            for rec in records:
                iters = rec.iterations_to_target
                reached = f"target at iteration {iters}" if iters is not None else "target not reached"
                print(f"{rec.run_id}: {reached}")
        elif args.command == "mesh-study":
            for row in harness.run_mesh_study(cfg):
                print(
                    f"{row['run-id']}: iters-to-target="
                    f"{row['iters-to-target'] if row['iters-to-target'] is not None else 'none'}"
                )
        elif args.command == "sweep":
            matrix = harness.run_reg_data_sweep(cfg)
            print(f"sweep matrix ({len(cfg.alpha)} alphas x {len(cfg.n_obs)} sizes):")
            print(matrix)
        elif args.command == "verify-theory":
            rows, all_ok = harness.run_theory_verification(cfg)
            for row in rows:
                rep = row["report"]
                status = "ok" if row["pass"] else "VIOLATION"
                print(
                    f"{row['run-id']}: {status} cond(E)={rep.cond_e:.6g} "
                    f"bound={rep.bound_cond:.6g}"
                )
            if not all_ok:
                return EXIT_THEORY_VIOLATION
        elif args.command == "gen-obs":
            os.makedirs(cfg.out_dir, exist_ok=True)
            obs = harness.generate_observations(cfg.seed, cfg.n_obs[0], cfg.lx, cfg.ly)
            path = os.path.join(cfg.out_dir, f"observations-n{cfg.n_obs[0]}.txt")
            write_observations(path, obs)
            print(path)
        elif args.command == "synth-source":
            os.makedirs(cfg.out_dir, exist_ok=True)
            mesh = build_mesh(cfg.lx, cfg.ly, cfg.nx[0], cfg.ny[0])
            field = harness.synth_source(mesh)
            path = os.path.join(cfg.out_dir, f"source-nx{cfg.nx[0]}-ny{cfg.ny[0]}.pgm")
            write_field_pgm(
                path,
                mesh,
                field.values,
                comments=(
                    "synthetic source, vertex grid raster, min->0 max->255",
                    harness.SYNTH_SOURCE_FORMULA,
                ),
            )
            print(path)
    except (ConfigError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
