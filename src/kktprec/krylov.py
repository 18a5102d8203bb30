"""Krylov solvers: preconditioned MINRES and preconditioned CG.

minres and pcg never form matrices. The operator and the preconditioner's
inverse are plain callables x -> y on 1-D float64 arrays; the problem
dimension is read from the right-hand side. Each iteration applies each of
them once. Convergence is measured in the preconditioned residual norm
sqrt(r^T M^{-1} r), which for MINRES is the quantity its recurrence
minimizes. The custom loops exist for what scipy's solvers do not return:
the per-iterate residual and error histories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

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
    ||ref - select(x_k)|| / ||ref|| per iterate.
    """

    track_error: bool
    iterations: int
    converged: bool
    residual_history: np.ndarray
    error_history: np.ndarray | None
    solution: np.ndarray
    breakdown: bool = field(default=False)


_BREAKDOWN_REL = 1e-14


def _error_tracker(reference, select):
    if reference is None:
        return None
    ref = np.asarray(reference, dtype=np.float64)
    norm_ref = float(np.linalg.norm(ref))
    if norm_ref == 0.0:
        raise ValueError("error reference must be nonzero")
    pick = select if select is not None else (lambda x: x)

    def err(x):
        return float(np.linalg.norm(ref - pick(x))) / norm_ref

    return err


def minres(
    op: Operator,
    prec: Operator,
    b: np.ndarray,
    tol: float = 1e-10,
    maxit: int = 500,
    reference: np.ndarray | None = None,
    select: Operator | None = None,
    callback: Callable[[int, np.ndarray], None] | None = None,
) -> SolveReport:
    """Preconditioned MINRES for symmetric (possibly indefinite) systems.

    prec must apply the inverse of an SPD preconditioner. Stops when the
    preconditioned residual drops below tol times its initial value. Lanczos
    breakdown with a nonconverged residual is reported on the SolveReport,
    not raised.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 1:
        raise ValueError(f"rhs must be a vector, got shape {b.shape}")
    n = b.size

    err = _error_tracker(reference, select)
    x = np.zeros(n)

    r1 = b.copy()
    y = prec(r1)
    beta1_sq = float(r1 @ y)
    if beta1_sq < 0.0:
        raise PreconditionerNotSpdError("negative r^T M^{-1} r at start")
    beta1 = math.sqrt(beta1_sq)

    res_hist = [beta1]
    err_hist = [err(x)] if err else None
    if callback:
        callback(0, x)

    if beta1 == 0.0:
        return SolveReport(
            track_error=err is not None,
            iterations=0,
            converged=True,
            residual_history=np.array(res_hist),
            error_history=np.array(err_hist) if err_hist is not None else None,
            solution=x,
        )

    # Lanczos + Givens recurrences; phibar tracks the preconditioned
    # residual norm exactly and can only shrink (sn lies in [0, 1]).
    oldb = 0.0
    beta = beta1
    dbar = 0.0
    epsln = 0.0
    phibar = beta1
    cs = -1.0
    sn = 0.0
    w = np.zeros(n)
    w2 = np.zeros(n)
    r2 = r1

    iterations = 0
    converged = False
    breakdown = False

    while iterations < maxit:
        iterations += 1
        v = y / beta
        y = op(v)
        if iterations >= 2:
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
        gamma = max(gamma, np.finfo(np.float64).tiny)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar

        w1 = w2
        w2 = w
        w = (v - oldeps * w1 - delta * w2) / gamma
        x = x + phi * w

        res_hist.append(phibar)
        if err:
            err_hist.append(err(x))
        if callback:
            callback(iterations, x)

        if phibar <= tol * beta1:
            converged = True
            break
        if beta <= _BREAKDOWN_REL * beta1:
            # Invariant Krylov subspace reached; residual says whether this
            # is a happy breakdown.
            breakdown = True
            converged = phibar <= tol * beta1
            break

    return SolveReport(
        track_error=err is not None,
        iterations=iterations,
        converged=converged,
        residual_history=np.array(res_hist),
        error_history=np.array(err_hist) if err_hist is not None else None,
        solution=x,
        breakdown=breakdown,
    )


def pcg(
    op: Operator,
    prec: Operator,
    b: np.ndarray,
    tol: float = 1e-10,
    maxit: int = 500,
    reference: np.ndarray | None = None,
    select: Operator | None = None,
    callback: Callable[[int, np.ndarray], None] | None = None,
) -> SolveReport:
    """Preconditioned conjugate gradients for SPD systems.

    Raises IndefiniteOperatorError on nonpositive curvature p^T A p.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 1:
        raise ValueError(f"rhs must be a vector, got shape {b.shape}")
    n = b.size

    err = _error_tracker(reference, select)
    x = np.zeros(n)
    r = b.copy()
    z = prec(r)
    rz = float(r @ z)
    if rz < 0.0:
        raise PreconditionerNotSpdError("negative r^T M^{-1} r at start")
    res0 = math.sqrt(rz)

    res_hist = [res0]
    err_hist = [err(x)] if err else None
    if callback:
        callback(0, x)

    if res0 == 0.0:
        return SolveReport(
            track_error=err is not None,
            iterations=0,
            converged=True,
            residual_history=np.array(res_hist),
            error_history=np.array(err_hist) if err_hist is not None else None,
            solution=x,
        )

    p = z.copy()
    iterations = 0
    converged = False
    while iterations < maxit:
        iterations += 1
        ap = op(p)
        pap = float(p @ ap)
        if pap <= 0.0:
            raise IndefiniteOperatorError(f"curvature p^T A p = {pap:.3e} at iteration {iterations}")
        step = rz / pap
        x = x + step * p
        r = r - step * ap
        z = prec(r)
        rz_new = float(r @ z)
        if rz_new < 0.0:
            raise PreconditionerNotSpdError("negative r^T M^{-1} r during iteration")
        res = math.sqrt(rz_new)

        res_hist.append(res)
        if err:
            err_hist.append(err(x))
        if callback:
            callback(iterations, x)

        if res <= tol * res0:
            converged = True
            break
        p = z + (rz_new / rz) * p
        rz = rz_new

    return SolveReport(
        track_error=err is not None,
        iterations=iterations,
        converged=converged,
        residual_history=np.array(res_hist),
        error_history=np.array(err_hist) if err_hist is not None else None,
        solution=x,
    )
