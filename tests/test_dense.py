"""Dense factorizations behind the spectral checks: the eigenvalue square
root of a PSD matrix (the test oracle for beta, in helpers) and the Cholesky
factor the verifier takes of each preconditioner block."""

import math

import numpy as np
import pytest

from helpers import random_spd
from helpers import sqrt_psd as _sqrt_psd
from kktprec.spectral import NotSpdError, _cholesky


def test_eig_diagonal_sorted():
    # eigh sorts the eigenvalues; the square root must keep the input order
    s = _sqrt_psd(np.diag([9.0, 1.0, 4.0]))
    assert np.allclose(s, np.diag([3.0, 1.0, 2.0]), rtol=0, atol=1e-14)


def test_eig_identity():
    assert np.allclose(_sqrt_psd(np.eye(5)), np.eye(5), rtol=0, atol=1e-14)


def test_eig_2x2_quadratic_formula():
    # trace 3, det -2: lambda = (3 +- sqrt(17)) / 2; the negative one is clipped
    s = _sqrt_psd(np.array([[1.0, 2.0], [2.0, 2.0]]))
    hi = (3.0 + math.sqrt(17.0)) / 2.0
    assert np.allclose(np.linalg.eigvalsh(s), [0.0, math.sqrt(hi)], rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("n", [2, 10, 60, 200])
def test_eig_reconstruction(n):
    rng = np.random.default_rng(n)
    m = random_spd(n, rng)
    s = _sqrt_psd(m)
    assert np.linalg.norm(s @ s - m) / np.linalg.norm(m) <= 1e-10
    assert np.linalg.norm(s - s.T) <= 1e-10 * np.linalg.norm(s)
    assert np.all(np.linalg.eigvalsh(s) >= 0.0)


def test_spd_solve_rejects_indefinite():
    with pytest.raises(NotSpdError, match="block P1"):
        _cholesky(np.diag([1.0, -1.0]), "P1")
