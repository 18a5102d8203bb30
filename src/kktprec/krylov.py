"""Krylov solvers: preconditioned MINRES and preconditioned CG.

minres and pcg never form matrices. The operator and the preconditioner's
inverse are plain callables x -> y on 1-D float64 arrays; the problem
dimension is read from the right-hand side. Each iteration applies each of
them once. Convergence is measured in the preconditioned residual norm
sqrt(r^T M^{-1} r), which for MINRES is the quantity its recurrence
minimizes. The custom loops exist for what scipy's solvers do not return:
the per-iterate residual and error histories.

Both solvers share one bookkeeping path. It checks the right-hand side and
the error reference, starts from x0 = 0 with r0 = b and z0 = M^{-1} r0,
records each iterate's residual and error and calls the callback. It
stops at the first of three rules: the preconditioned residual has
dropped below tol times its initial value, maxit iterations are done, or,
when a target is given, the recorded error of an iterate is below it. The
last rule ends a solve whose caller reads only the first iterate below a
target error; the histories then end at that iterate. Each solver
supplies only its recurrence and its own breakdown tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

Operator = Callable[[np.ndarray], np.ndarray]


class PreconditionerNotSpdError(ValueError):
    """r^T M^{-1} r went negative: the preconditioner is not SPD."""


class IndefiniteOperatorError(ValueError):
    """CG hit nonpositive curvature: the operator is not positive definite."""


@dataclass(frozen=True)
class LinearOperator:
    """A callable with declared input and output lengths, checked on every
    call; minres and pcg accept it like any other callable."""

    dim_in: int
    dim_out: int
    apply: Operator

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dim_in,):
            raise ValueError(f"operator expects length {self.dim_in}, got {x.shape}")
        y = np.asarray(self.apply(x), dtype=np.float64)
        if y.shape != (self.dim_out,):
            raise ValueError(f"operator returned length {y.shape}, expected {self.dim_out}")
        return y


@dataclass
class SolveReport:
    """Outcome of one Krylov solve.

    residual_history holds preconditioned residual norms, entry 0 being the
    initial residual, so its length is iterations + 1. error_history is
    populated only when a reference solution was supplied and holds
    ||ref - select(x_k)|| / ||ref|| per iterate, select being the identity
    unless minres is given one.
    """

    iterations: int
    converged: bool
    residual_history: np.ndarray
    error_history: np.ndarray | None
    solution: np.ndarray
    breakdown: bool = field(default=False)


_BREAKDOWN_REL = 1e-14

_TINY = np.finfo(np.float64).tiny


def _solve(
    prec: Operator,
    b: np.ndarray,
    tol: float,
    maxit: int,
    reference: np.ndarray | None,
    select: Operator | None,
    callback: Callable[[int, np.ndarray], None] | None,
    target: float | None,
    steps: Callable[..., Iterator[tuple[np.ndarray, float, bool]]],
) -> SolveReport:
    """Run one solver's recurrence from x0 = 0 and record every iterate.

    steps(x0, r0, z0, r0^T z0) yields, for k = 1, 2, ..., the iterate x_k,
    its preconditioned residual norm and whether the recurrence broke down.
    A breakdown ends the solve unconverged unless the same iterate met the
    tolerance. The target test comes after both, so it ends a solve without
    changing its converged and breakdown flags.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 1:
        raise ValueError(f"rhs must be a vector, got shape {b.shape}")
    if target is not None and reference is None:
        raise ValueError("a target error needs an error reference")
    if reference is not None:
        ref = np.asarray(reference, dtype=np.float64)
        norm_ref = float(np.linalg.norm(ref))
        if norm_ref == 0.0:
            raise ValueError("error reference must be nonzero")
        pick = select if select is not None else (lambda x: x)

    x = np.zeros(b.size)
    r = b.copy()
    z = prec(r)
    rz = float(r @ z)
    if rz < 0.0:
        raise PreconditionerNotSpdError("negative r^T M^{-1} r at start")
    res0 = math.sqrt(rz)

    res_hist: list[float] = []
    err_hist: list[float] = []

    def record(k, x, res):
        res_hist.append(res)
        if reference is not None:
            e = ref - pick(x)
            err_hist.append(math.sqrt(e @ e) / norm_ref)
        if callback:
            callback(k, x)

    def reached_target():
        return target is not None and err_hist[-1] < target

    record(0, x, res0)
    iterations = 0
    converged = res0 == 0.0
    breakdown = False
    if not converged and not reached_target():
        iterates = steps(x, r, z, rz)
        while iterations < maxit:
            x, res, broke = next(iterates)
            iterations += 1
            record(iterations, x, res)
            if res <= tol * res0:
                converged = True
                break
            if broke:
                breakdown = True
                break
            if reached_target():
                break

    return SolveReport(
        iterations=iterations,
        converged=converged,
        residual_history=np.array(res_hist),
        error_history=np.array(err_hist) if reference is not None else None,
        solution=x,
        breakdown=breakdown,
    )


def minres(
    op: Operator,
    prec: Operator,
    b: np.ndarray,
    tol: float = 1e-10,
    maxit: int = 500,
    reference: np.ndarray | None = None,
    select: Operator | None = None,
    callback: Callable[[int, np.ndarray], None] | None = None,
    target: float | None = None,
) -> SolveReport:
    """Preconditioned MINRES for symmetric (possibly indefinite) systems.

    prec must apply the inverse of an SPD preconditioner. Stops when the
    preconditioned residual drops below tol times its initial value, or,
    given a target (which needs a reference), at the first iterate whose
    relative error is below it. Lanczos breakdown with a nonconverged
    residual is reported on the SolveReport, not raised.
    """

    def steps(x, r1, y, beta1_sq):
        # Lanczos + Givens recurrences; phibar tracks the preconditioned
        # residual norm exactly and can only shrink (sn lies in [0, 1]).
        beta1 = math.sqrt(beta1_sq)
        oldb = 0.0
        beta = beta1
        dbar = 0.0
        epsln = 0.0
        phibar = beta1
        cs = -1.0
        sn = 0.0
        w = np.zeros(x.size)
        w2 = np.zeros(x.size)
        r2 = r1

        for k in itertools.count(1):
            v = y / beta
            y = op(v)
            if k >= 2:
                y = y - (beta / oldb) * r1
            alfa = float(v @ y)
            y = y - (alfa / beta) * r2
            r1 = r2
            r2 = y
            y = prec(r2)
            oldb = beta
            beta_sq = float(r2 @ y)
            if beta_sq < 0.0:
                raise PreconditionerNotSpdError("negative r^T M^{-1} r in Lanczos step")
            beta = math.sqrt(beta_sq)

            oldeps = epsln
            delta = cs * dbar + sn * alfa
            gbar = sn * dbar - cs * alfa
            epsln = sn * beta
            dbar = -cs * beta
            gamma = math.hypot(gbar, beta)
            gamma = max(gamma, _TINY)
            cs = gbar / gamma
            sn = beta / gamma
            phi = cs * phibar
            phibar = sn * phibar

            w1 = w2
            w2 = w
            w = (v - oldeps * w1 - delta * w2) / gamma
            x = x + phi * w
            # beta ~ 0: invariant Krylov subspace reached; the residual
            # test before this flag says whether it was a happy breakdown.
            yield x, phibar, beta <= _BREAKDOWN_REL * beta1

    return _solve(prec, b, tol, maxit, reference, select, callback, target, steps)


def pcg(
    op: Operator,
    prec: Operator,
    b: np.ndarray,
    tol: float = 1e-10,
    maxit: int = 500,
    reference: np.ndarray | None = None,
    callback: Callable[[int, np.ndarray], None] | None = None,
    target: float | None = None,
) -> SolveReport:
    """Preconditioned conjugate gradients for SPD systems.

    Stops on tol, maxit or target as minres does. Raises
    IndefiniteOperatorError on nonpositive curvature p^T A p.
    """

    def steps(x, r, z, rz):
        p = z.copy()
        for k in itertools.count(1):
            ap = op(p)
            pap = float(p @ ap)
            if pap <= 0.0:
                raise IndefiniteOperatorError(f"curvature p^T A p = {pap:.3e} at iteration {k}")
            step = rz / pap
            x = x + step * p
            r = r - step * ap
            z = prec(r)
            rz_new = float(r @ z)
            if rz_new < 0.0:
                raise PreconditionerNotSpdError("negative r^T M^{-1} r during iteration")
            yield x, math.sqrt(rz_new), False
            p = z + (rz_new / rz) * p
            rz = rz_new

    return _solve(prec, b, tol, maxit, reference, None, callback, target, steps)
