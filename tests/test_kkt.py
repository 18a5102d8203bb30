import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve

from helpers import assembled_kkt, make_instance, probe_columns, record_factors
from kktprec import kkt, sparse
from kktprec.config import (
    BDAL_EXACT,
    BDAL_KINDS,
    BDAL_LUMPED_EXACT,
    BDAL_LUMPED_INEXACT,
    REDUCED_REGULARIZATION,
    ExperimentConfig,
)
from kktprec.formats import write_observations
from kktprec.harness import generate_observations, run_mesh_study, solve_one, synth_source
from kktprec.kkt import (
    DimensionMismatchError,
    UnknownPreconditionerError,
    apply_kkt,
    assemble_problem,
    build_kkt,
    build_preconditioner,
    reduced_hessian,
    reference_solution,
    regularization_prec_operator,
    synthesize_data,
)
from kktprec.krylov import minres, pcg
from kktprec.mesh import build_mesh, nested_dissection_order
from kktprec.sparse import RefinementError, SingularMatrixError, SparseLU


def test_zero_data_zero_solution(kkt_2x2):
    sys = build_kkt(kkt_2x2.ops, alpha=1e-2, y=np.zeros(3))
    assert np.all(sys.rhs == 0.0)
    assert np.all(reference_solution(sys) == 0.0)


def test_rhs_blocks(kkt_2x2):
    n = kkt_2x2.n
    assert np.all(kkt_2x2.rhs[:n] == 0.0)
    assert np.all(kkt_2x2.rhs[2 * n:] == 0.0)
    assert np.linalg.norm(kkt_2x2.rhs[n:2 * n]) > 0.0


def test_build_kkt_rejects_bad_inputs(kkt_2x2):
    with pytest.raises(ValueError):
        build_kkt(kkt_2x2.ops, alpha=0.0, y=np.zeros(3))
    with pytest.raises(DimensionMismatchError):
        build_kkt(kkt_2x2.ops, alpha=1e-2, y=np.zeros(5))


def test_apply_multiplier_unit_vector(kkt_2x2):
    n = kkt_2x2.n
    for k in (0, n // 2, n - 1):
        z = np.zeros(3 * n)
        z[2 * n + k] = 1.0
        out = apply_kkt(kkt_2x2, z)
        e_k = np.zeros(n)
        e_k[k] = 1.0
        assert np.allclose(out[:n], -(kkt_2x2.mass @ e_k), atol=1e-15)
        assert np.allclose(out[n:2 * n], kkt_2x2.forward @ e_k, atol=1e-15)
        assert np.all(out[2 * n:] == 0.0)


def test_apply_zero(kkt_2x2):
    assert np.all(apply_kkt(kkt_2x2, np.zeros(kkt_2x2.dim)) == 0.0)


def test_apply_symmetry(kkt_2x2):
    rng = np.random.default_rng(6)
    z1 = rng.standard_normal(kkt_2x2.dim)
    z2 = rng.standard_normal(kkt_2x2.dim)
    lhs = z1 @ apply_kkt(kkt_2x2, z2)
    rhs = z2 @ apply_kkt(kkt_2x2, z1)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


@settings(max_examples=25, deadline=None)
@given(
    nx=st.integers(2, 10),
    ny=st.integers(2, 8),
    log_alpha=st.floats(-12.0, 0.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(nx=2, ny=2, log_alpha=-2.0, seed=0)
def test_dense_matches_operator_probing(nx, ny, log_alpha, seed):
    # apply_kkt works block by block; scipy's assembly of the same blocks is
    # the K it must apply
    sys = make_instance(nx=nx, ny=ny, n_obs=3, alpha=10.0**log_alpha)
    k_csr = assembled_kkt(sys)
    k = k_csr.toarray()
    probed = probe_columns(lambda z: apply_kkt(sys, z), sys.dim)
    scale = np.max(np.abs(k))
    assert np.max(np.abs(k - probed)) <= 1e-13 * scale
    assert np.max(np.abs(k - k.T)) <= 1e-13 * scale
    z = np.random.default_rng(seed).standard_normal(sys.dim)
    want = k_csr @ z
    assert np.linalg.norm(apply_kkt(sys, z) - want) <= 1e-14 * np.linalg.norm(want)


def test_bdal_zero_maps_to_zero(kkt_2x2):
    p = build_preconditioner(kkt_2x2, BDAL_LUMPED_EXACT)
    assert np.all(p.apply_inverse(np.zeros(kkt_2x2.dim)) == 0.0)


def test_bdal_lumped_third_block_closed_form(kkt_2x2):
    p = build_preconditioner(kkt_2x2, BDAL_LUMPED_EXACT)
    n = kkt_2x2.n
    rng = np.random.default_rng(13)
    w = rng.standard_normal(n)
    r = np.zeros(3 * n)
    r[2 * n:] = w
    out = p.apply_inverse(r)
    assert np.all(out[:2 * n] == 0.0)
    expected = p.rho * w / kkt_2x2.ops.mass_lumped
    assert np.allclose(out[2 * n:], expected, rtol=5e-15, atol=0.0)


def test_bdal_spd_quadratic_form(kkt_4x4):
    p = build_preconditioner(kkt_4x4, BDAL_LUMPED_EXACT)
    rng = np.random.default_rng(14)
    for _ in range(100):
        r = rng.standard_normal(kkt_4x4.dim)
        assert r @ p.apply_inverse(r) > 0.0


def test_bdal_apply_symmetric(kkt_4x4):
    for kind in (BDAL_EXACT, BDAL_LUMPED_EXACT):
        p = build_preconditioner(kkt_4x4, kind)
        rng = np.random.default_rng(15)
        r1 = rng.standard_normal(kkt_4x4.dim)
        r2 = rng.standard_normal(kkt_4x4.dim)
        lhs = r1 @ p.apply_inverse(r2)
        rhs = r2 @ p.apply_inverse(r1)
        assert abs(lhs - rhs) <= 1e-11 * max(abs(lhs), 1.0)


def test_bdal_linear(kkt_2x2):
    p = build_preconditioner(kkt_2x2, BDAL_LUMPED_EXACT)
    rng = np.random.default_rng(16)
    r1 = rng.standard_normal(kkt_2x2.dim)
    r2 = rng.standard_normal(kkt_2x2.dim)
    combined = p.apply_inverse(2.0 * r1 - 3.0 * r2)
    parts = 2.0 * p.apply_inverse(r1) - 3.0 * p.apply_inverse(r2)
    assert np.allclose(combined, parts, rtol=1e-12, atol=1e-14)


def test_rho_default_scaling_with_alpha(kkt_2x2):
    # rho defaults to sqrt(alpha): on a fixed third-block input, doubling
    # alpha scales the inverse-apply output by exactly sqrt(2)
    n = kkt_2x2.n
    r = np.zeros(3 * n)
    r[2 * n:] = 1.0
    outs = {}
    for alpha in (1e-2, 2e-2):
        sys = build_kkt(kkt_2x2.ops, alpha=alpha, y=np.zeros(3))
        p = build_preconditioner(sys, BDAL_LUMPED_EXACT)
        outs[alpha] = p.apply_inverse(r)[2 * n:]
    ratio = outs[2e-2] / outs[1e-2]
    assert np.allclose(ratio, np.sqrt(2.0), rtol=1e-14, atol=0.0)


def test_bdal_variants_reach_same_solution(kkt_2x2):
    ref = reference_solution(kkt_2x2)
    sols = {}
    for kind in (BDAL_EXACT, BDAL_LUMPED_EXACT, BDAL_LUMPED_INEXACT):
        p = build_preconditioner(kkt_2x2, kind)
        report = minres(
            _kkt_op(kkt_2x2), p.as_operator(), kkt_2x2.rhs, tol=1e-12, maxit=300)
        assert report.converged, kind
        sols[kind] = report.solution
    for kind, sol in sols.items():
        assert np.linalg.norm(sol - ref) <= 1e-6 * np.linalg.norm(ref), kind


def _kkt_op(sys):
    from kktprec.kkt import kkt_operator

    return kkt_operator(sys)


def test_build_preconditioner_rejects_unknown(kkt_2x2):
    with pytest.raises(UnknownPreconditionerError):
        build_preconditioner(kkt_2x2, "block-jacobi")
    with pytest.raises(UnknownPreconditionerError):
        build_preconditioner(kkt_2x2, REDUCED_REGULARIZATION)


def test_solve_one_rejects_unknown_kind_before_factoring(kkt_2x2, factors):
    with pytest.raises(ValueError, match="'block-jacobi'"):
        solve_one(ExperimentConfig(), kkt_2x2, "block-jacobi", np.zeros(kkt_2x2.n))
    assert factors == []


@pytest.mark.parametrize("kind", BDAL_KINDS)
def test_a_solve_never_forms_p3(kkt_4x4, monkeypatch, kind):
    # only the dense verifier reads P3; every kind applies P3^-1 without it
    formed = []
    monkeypatch.setattr(kkt.Preconditioner, "p3", property(lambda p: formed.append(p.kind)))
    q_ref = reference_solution(kkt_4x4)[: kkt_4x4.n]
    record = solve_one(ExperimentConfig(maxit=20), kkt_4x4, kind, q_ref)
    assert record.rel_param_error.size > 1
    assert formed == []


@pytest.mark.parametrize("kind", BDAL_KINDS)
def test_outer_blocks_are_p1_and_p3_of_the_kinds_mass(kind):
    # Wt is the mass matrix for bdal-exact and its row-sum lumping for the
    # lumped kinds; Wt / rho is formed as (1 / rho) Wt
    sys = make_instance(nx=10, ny=7, n_obs=50, alpha=1e-6)
    p = build_preconditioner(sys, kind)
    wt = sys.mass.toarray() if kind == BDAL_EXACT else np.diag(sys.ops.mass_lumped)
    assert p.p1.format == p.p3.format == "csr"
    assert np.array_equal(p.p1.toarray(), sys.alpha * sys.reg.toarray() + p.rho * wt)
    assert np.array_equal(p.p3.toarray(), (1.0 / p.rho) * wt)


def test_build_preconditioner_validates_parameters(kkt_2x2):
    with pytest.raises(ValueError):
        build_preconditioner(kkt_2x2, BDAL_LUMPED_EXACT, rho=-1.0)
    # inner_tol is read by no kind, so any value builds the same map.
    r = np.ones(kkt_2x2.dim)
    unread = build_preconditioner(kkt_2x2, BDAL_LUMPED_INEXACT, inner_tol=2.0)
    assert np.array_equal(unread.apply_inverse(r), build_preconditioner(kkt_2x2, BDAL_LUMPED_INEXACT).apply_inverse(r))


def _operator_and_length(sys, name):
    if name in BDAL_KINDS:
        return build_preconditioner(sys, name).apply_inverse, sys.dim
    h = reduced_hessian(sys)
    if name == "reduced-hessian":
        return h.apply, sys.n
    if name == "regularization":
        return regularization_prec_operator(h), sys.n
    return (lambda z: apply_kkt(sys, z)), sys.dim


@pytest.mark.parametrize("name", ["kkt", *BDAL_KINDS, "reduced-hessian", "regularization"])
def test_operators_reject_a_vector_one_entry_short(kkt_2x2, factors, name):
    apply, length = _operator_and_length(kkt_2x2, name)
    built = len(factors)
    with pytest.raises(DimensionMismatchError):
        apply(np.ones(length - 1))
    assert len(factors) == built  # the length is checked before any factorization


def test_reduced_hessian_alpha_dominance(kkt_2x2):
    rng = np.random.default_rng(18)
    q = rng.standard_normal(kkt_2x2.n)
    ratios = []
    for alpha in (1.0, 1e4, 1e8):
        sys = build_kkt(kkt_2x2.ops, alpha=alpha, y=np.zeros(3))
        h = reduced_hessian(sys)
        reg_part = alpha * (sys.reg @ q)
        ratios.append(np.linalg.norm(h.apply(q) - reg_part)
                      / np.linalg.norm(reg_part))
    assert ratios[2] < ratios[1] < ratios[0]
    assert ratios[2] <= 1e-6


def test_reduced_hessian_symmetric(kkt_2x2):
    h = reduced_hessian(kkt_2x2)
    rng = np.random.default_rng(19)
    x = rng.standard_normal(h.n)
    y = rng.standard_normal(h.n)
    lhs = x @ h.apply(y)
    rhs = y @ h.apply(x)
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


def test_reduced_hessian_matches_dense_oracle(kkt_2x2):
    h = reduced_hessian(kkt_2x2)
    n = h.n
    a = kkt_2x2.forward.toarray()
    w = kkt_2x2.mass.toarray()
    b = kkt_2x2.ops.observation.toarray()
    j = b @ np.linalg.solve(a, w)
    dense_h = j.T @ j + kkt_2x2.alpha * kkt_2x2.reg.toarray()
    probed = probe_columns(h.apply, n)
    assert np.max(np.abs(probed - dense_h)) <= 1e-9 * np.max(np.abs(dense_h))


def test_regularization_prec_inverse_pairing(kkt_2x2):
    h = reduced_hessian(kkt_2x2)
    rng = np.random.default_rng(20)
    v = rng.standard_normal(h.n)
    r = kkt_2x2.alpha * (kkt_2x2.reg @ v)
    back = regularization_prec_operator(h)(r)
    assert np.linalg.norm(back - v) <= 1e-10 * np.linalg.norm(v)


def test_regularization_prec_linear_and_positive(kkt_2x2):
    h = reduced_hessian(kkt_2x2)
    rng = np.random.default_rng(22)
    r1 = rng.standard_normal(h.n)
    r2 = rng.standard_normal(h.n)
    prec = regularization_prec_operator(h)
    combined = prec(r1 + 0.5 * r2)
    parts = prec(r1) + 0.5 * prec(r2)
    assert np.allclose(combined, parts, rtol=1e-12, atol=1e-14)
    for _ in range(20):
        r = rng.standard_normal(h.n)
        assert r @ prec(r) > 0.0


def test_reference_solution_residual(kkt_4x4):
    z = reference_solution(kkt_4x4)
    k = assembled_kkt(kkt_4x4).toarray()
    assert np.linalg.norm(k @ z - kkt_4x4.rhs) <= 1e-10 * np.linalg.norm(kkt_4x4.rhs)


def test_reference_matches_converged_minres(kkt_2x2):
    ref = reference_solution(kkt_2x2)
    p = build_preconditioner(kkt_2x2, BDAL_LUMPED_EXACT)
    report = minres(_kkt_op(kkt_2x2), p.as_operator(), kkt_2x2.rhs,
                    tol=1e-13, maxit=400)
    n = kkt_2x2.n
    q_ref, q_it = ref[:n], report.solution[:n]
    assert np.linalg.norm(q_it - q_ref) <= 1e-8 * np.linalg.norm(q_ref)


def test_minres_and_reduced_cg_agree(kkt_4x4):
    # the full KKT system and the reduced normal equations share the
    # parameter block
    n = kkt_4x4.n
    p = build_preconditioner(kkt_4x4, BDAL_LUMPED_EXACT)
    q_minres = minres(_kkt_op(kkt_4x4), p.as_operator(), kkt_4x4.rhs,
                      tol=1e-12, maxit=500).solution[:n]
    h = reduced_hessian(kkt_4x4)
    bty = kkt_4x4.rhs[n:2 * n]
    rhs = kkt_4x4.mass @ _forward_solve(kkt_4x4, bty)
    q_cg = pcg(h.as_operator(), regularization_prec_operator(h), rhs,
               tol=1e-12, maxit=500).solution
    assert np.linalg.norm(q_minres - q_cg) <= 1e-6 * np.linalg.norm(q_cg)


def _forward_solve(sys, b):
    return spsolve(sys.forward, b)


@pytest.mark.parametrize("shape", [(4, 4), (10, 7)])
def test_reference_solution_matches_dense_ldlt(kkt_4x4, shape):
    sys = kkt_4x4 if shape == (4, 4) else make_instance(nx=10, ny=7, n_obs=20, alpha=1e-4)
    z = reference_solution(sys)
    z_dense = sla.solve(assembled_kkt(sys).toarray(), sys.rhs, assume_a="sym")
    assert np.linalg.norm(z - z_dense) <= 1e-10 * np.linalg.norm(z_dense)


def test_reference_factor_is_matched_pair_sized(factors):
    # COLAMD with partial pivoting on K itself stores about 1.75e6 entries
    sys = make_instance(nx=58, ny=40, n_obs=500, alpha=1e-6)
    factors.clear()
    reference_solution(sys)
    (lu,) = factors
    assert lu.L.nnz + lu.U.nnz <= 1.0e6


def test_reference_factor_is_nested_dissection_sized(factors):
    # minimum degree on the same matched-pair matrix stores 5,157,560 entries
    sys = make_instance(nx=116, ny=80, n_obs=500, alpha=1e-6)
    factors.clear()
    reference_solution(sys)
    (lu,) = factors
    assert lu.L.nnz + lu.U.nnz <= 4.5e6


@pytest.mark.parametrize("alpha", [1e-2, 1e-6])
@pytest.mark.parametrize("shape", [(20, 14), (29, 20)])
def test_reference_solution_matches_colamd_lu(shape, alpha):
    # scipy's own SuperLU solve: COLAMD with partial pivoting on K as assembled
    nx, ny = shape
    sys = make_instance(nx=nx, ny=ny, n_obs=200, alpha=alpha)
    n = sys.n
    q = reference_solution(sys)[:n]
    q_colamd = spsolve(assembled_kkt(sys).tocsc(), sys.rhs, permc_spec="COLAMD", use_umfpack=False)[:n]
    assert np.linalg.norm(q - q_colamd) <= 1e-9 * np.linalg.norm(q_colamd)


def test_every_factorization_runs_in_symmetric_mode(factors):
    cfg = ExperimentConfig(maxit=3)
    sys = make_instance(nx=29, ny=20, n_obs=200, alpha=1e-6)  # synthesize_data factors A
    q_ref = reference_solution(sys)[: sys.n]
    for kind in BDAL_KINDS + (REDUCED_REGULARIZATION,):
        solve_one(cfg, sys, kind, q_ref)
    # synthesis's A; the reference; bdal-exact's block 1, mass and P2
    # system; two lumped blocks; two coarse levels; A for the CG; R*R
    assert len(factors.kwargs) == 11
    for kwargs in factors.kwargs:
        assert kwargs["options"] == {"SymmetricMode": True}
        assert kwargs["diag_pivot_thresh"] == 0.0
    # the two permuted systems, the CSC ones, keep their nested-dissection
    # order; every symmetric CSR is ordered by minimum degree
    specs = [(m.shape[0], kwargs["permc_spec"]) for m, kwargs in zip(factors.inputs, factors.kwargs)]
    natural = [size for size, spec in specs if spec == "NATURAL"]
    assert sorted(natural) == [2 * sys.n, 3 * sys.n]
    assert [spec for _, spec in specs].count("MMD_AT_PLUS_A") == 9


def test_each_factored_matrix_exists_once(factors, monkeypatch):
    lus = []
    init = SparseLU.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        lus.append(self)

    monkeypatch.setattr(SparseLU, "__init__", recording_init)
    sys = make_instance(nx=29, ny=20, n_obs=200, alpha=1e-6)
    for kind in BDAL_KINDS:
        build_preconditioner(sys, kind).apply_inverse(np.ones(sys.dim))
    h = reduced_hessian(sys)
    h.apply(regularization_prec_operator(h)(np.ones(sys.n)))
    reference_solution(sys)
    # A in synthesis and again for the CG; bdal-exact's block 1, mass and
    # P2 system; two lumped blocks; two coarse levels (29x20 cannot be
    # halved); R*R; the reference
    assert len(lus) == len(factors.inputs) == 11
    assert [lu.name for lu in lus if lu.single] == ["KKT"]
    for lu, m, factor in zip(lus, factors.inputs, factors):
        dtype = np.float32 if lu.single else np.float64
        assert m.dtype == factor.L.dtype == factor.U.dtype == dtype, lu.name
        if lu.single:
            # refined against K's blocks: the LU holds no sparse matrix
            assert not any(sp.issparse(v) for v in vars(lu).values())
            assert not sp.issparse(getattr(lu._apply, "__self__", None))
        else:
            # refined against the very matrix SuperLU factored
            assert np.shares_memory(lu._apply.__self__.data, m.data), lu.name


def test_no_float64_kkt_matrix_exists_while_the_reference_is_factored(monkeypatch):
    import gc

    import scipy.sparse.linalg as spla

    sys = make_instance(nx=13, ny=9, n_obs=50, alpha=1e-6)
    shape, alive = (sys.dim, sys.dim), []
    splu = spla.splu

    def scanning_splu(m, *args, **kwargs):
        if m.shape == shape:
            gc.collect()  # what is left alive is referenced
            alive.extend(
                o.dtype for o in gc.get_objects() if sp.issparse(o) and o.shape == shape and o is not m
            )
            alive.append(m.dtype)
        return splu(m, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", scanning_splu)
    reference_solution(sys)
    assert alive == [np.float32]  # the factored CSC alone


def _same_arrays(a, b):
    return all(np.array_equal(getattr(a, k), getattr(b, k)) for k in ("data", "indices", "indptr"))


@settings(max_examples=25, deadline=None)
@given(nx=st.integers(2, 12), ny=st.integers(2, 9), log_alpha=st.floats(-8.0, 0.0))
def test_permuted_systems_are_built_straight_into_csc(nx, ny, log_alpha):
    with pytest.MonkeyPatch.context() as mp:
        made = record_factors(mp)
        sys = make_instance(nx=nx, ny=ny, n_obs=10, alpha=10.0**log_alpha)
        reference_solution(sys)
        for kind in BDAL_KINDS:
            p = build_preconditioner(sys, kind)
            p.apply_inverse(np.ones(sys.dim))
        reduced_hessian(sys).reg_solver
    n = sys.n
    order = nested_dissection_order(nx, ny)[:, None]
    rows, cols = (order + [2 * n, n, 0]).ravel(), (order + [n, 2 * n, 0]).ravel()
    pairs = (order + [0, n]).ravel()
    rho = float(np.sqrt(sys.alpha))
    reference = assembled_kkt(sys)[rows][:, cols].tocsc()
    reference.data = reference.data.astype(np.float32)  # the one float32 LU
    augmented = sp.bmat([[sys.forward, sys.mass / -rho], [sys.btb, sys.forward]], format="csr")
    expected = {3 * n: reference, 2 * n: augmented[pairs][:, pairs].tocsc()}
    for size, want in expected.items():
        (got,) = [m for m in made.inputs if m.shape[0] == size]
        assert got.format == "csc" and got.dtype == want.dtype and _same_arrays(got, want)
    views = [m for m in made.inputs if m.shape[0] <= n]
    assert len(views) == len(made.inputs) - 2
    for m in views:
        assert m.format == "csc" and (m != m.T).nnz == 0


def test_reference_solution_holds_the_exact_solve_contract(kkt_2x2, monkeypatch):
    # The reference has no tolerance of its own: below what float64 can
    # reach, the shared contract makes it raise, naming the KKT system.
    monkeypatch.setattr(sparse, "EXACT_SOLVE_TOL", 1e-30)
    stalled = r"^KKT solve: refinement stalled at backward error .* \(target 1\.0e-30\)$"
    with pytest.raises(RefinementError, match=stalled):
        reference_solution(kkt_2x2)


def test_default_rho_is_one_rule_for_config_and_library(kkt_2x2):
    # alpha ** 0.5 (libm pow) gives 0.0014063597863825362 here, one ulp
    # above the correctly rounded sqrt.
    alpha = 1.9778478487539325e-06
    sys = build_kkt(kkt_2x2.ops, alpha=alpha, y=kkt_2x2.y)
    cfg = ExperimentConfig()
    for kind in BDAL_KINDS:
        assert cfg.rho_for(alpha) == build_preconditioner(sys, kind).rho == math.sqrt(alpha), kind


def test_reference_solution_backward_error_small_alpha():
    sys = make_instance(nx=20, ny=14, n_obs=200, alpha=1e-8)
    z = reference_solution(sys)
    k = assembled_kkt(sys)
    r = np.linalg.norm(k @ z - sys.rhs)
    norm_k = np.linalg.norm(k.data)
    assert r <= 1e-10 * (norm_k * np.linalg.norm(z) + np.linalg.norm(sys.rhs))


_OBS = {(4, 4): 6, (10, 7): 50, (20, 14): 200, (29, 20): 500, (116, 80): 500}


@pytest.mark.parametrize(
    "shape, alpha, bound",
    [
        # at 4x4 and alpha 1e-12 two float64 solves of K already differ
        # by 1.1e-9 in q
        pytest.param(s, a, 2e-9 if (s, a) == ((4, 4), 1e-12) else 1e-9, id=f"{s[0]}x{s[1]}-{a:g}")
        for s, a in [(s, a) for s in ((4, 4), (10, 7), (20, 14)) for a in (1e-2, 1e-6, 1e-8, 1e-10, 1e-12)]
        + [((29, 20), 1e-12), ((116, 80), 1e-12)]
    ],
)
def test_single_precision_reference_matches_a_double_precision_lu(shape, alpha, bound):
    # The float32 LU refined in float64 meets the exact-solve contract and
    # is as accurate in q as a float64 LU: q is held against a float64
    # solve, COLAMD with partial pivoting refined ten times. Stopping at
    # the contract left q 1.7e-3 away at 4x4 and 4e-6 at 29x20 (alpha
    # 1e-12).
    nx, ny = shape
    sys = make_instance(nx=nx, ny=ny, n_obs=_OBS[shape], alpha=alpha)
    z = reference_solution(sys)
    k = assembled_kkt(sys)
    residual = np.linalg.norm(k @ z - sys.rhs)
    norm_k = sp.linalg.norm(k)
    assert residual <= sparse.EXACT_SOLVE_TOL * (norm_k * np.linalg.norm(z) + np.linalg.norm(sys.rhs))
    lu = sp.linalg.splu(k.tocsc(), permc_spec="COLAMD")
    x = lu.solve(sys.rhs)
    for _ in range(10):
        x = x + lu.solve(sys.rhs - k @ x)
    q, q_double = z[: sys.n], x[: sys.n]
    assert np.linalg.norm(q - q_double) <= bound * np.linalg.norm(q_double)


def test_minres_builds_no_3n_matrix(monkeypatch):
    import scipy.sparse._base as sparse_base

    sys = make_instance(nx=10, ny=7, n_obs=50, alpha=1e-4)
    prec = build_preconditioner(sys, BDAL_LUMPED_EXACT)
    made = []
    init = sparse_base._spbase.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(sparse_base._spbase, "__init__", recording_init)
    report = minres(_kkt_op(sys), prec.as_operator(), sys.rhs, tol=1e-10, maxit=200)
    assert report.converged
    assert [m.shape for m in made if max(m.shape) > sys.n] == []
    reference_solution(sys)  # the recorder sees the reference's 3n matrix
    assert (sys.dim, sys.dim) in [m.shape for m in made]


def test_synthesize_data_forward_residual_large_mesh():
    # n = 37513: Jacobi-CG could not reach the 1e-12 true residual here
    mesh = build_mesh(1.45, 1.0, 232, 160)
    ops = assemble_problem(mesh, generate_observations(1, 500, 1.45, 1.0))
    q_true = synth_source(mesh).values
    y = synthesize_data(ops, q_true)
    b = ops.mass @ q_true
    u = ops.forward_solver(b)
    assert np.array_equal(y, ops.observation @ u)
    assert np.linalg.norm(ops.forward @ u - b) <= 1e-12 * np.linalg.norm(b)


def test_singular_blocks_raise_named_errors(kkt_2x2):
    n = kkt_2x2.n
    empty = sp.csr_matrix((n, n))
    # Without A, block 2 = BtB has empty columns away from the observations.
    # The system's blocks and the lumped kinds' A^T W_L^-1 A both come from
    # the operators, so A goes from the operators.
    ops = dataclasses.replace(kkt_2x2.ops, forward=empty)
    no_forward = dataclasses.replace(kkt_2x2, ops=ops)
    with pytest.raises(SingularMatrixError, match="block 2"):
        build_preconditioner(no_forward, BDAL_LUMPED_EXACT)
    lazy = build_preconditioner(no_forward, BDAL_EXACT)
    with pytest.raises(SingularMatrixError, match="block 2"):
        lazy.apply_inverse(np.ones(3 * n))
    with pytest.raises(SingularMatrixError, match="KKT"):
        reference_solution(dataclasses.replace(no_forward, ops=dataclasses.replace(ops, mass=empty)))


def test_bdal_exact_factors_once_on_first_apply(kkt_2x2, factors):
    p = build_preconditioner(kkt_2x2, BDAL_EXACT)
    assert factors == []
    r = np.ones(kkt_2x2.dim)
    first = p.apply_inverse(r)
    assert len(factors) == 3  # block 1, mass, augmented block 2
    assert np.array_equal(p.apply_inverse(r), first)
    assert len(factors) == 3


@pytest.mark.parametrize("shape", [(10, 7), (20, 14)])
def test_bdal_exact_second_block_is_a_direct_solve(shape):
    nx, ny = shape
    sys = make_instance(nx=nx, ny=ny, n_obs=50, alpha=1e-6)
    n = sys.n
    p = build_preconditioner(sys, BDAL_EXACT)
    a, w = sys.forward.toarray(), sys.mass.toarray()
    p2 = sys.btb.toarray() + p.rho * a @ np.linalg.solve(w, a)
    r = np.random.default_rng(17).standard_normal(n)
    z = np.zeros(3 * n)
    z[n : 2 * n] = r
    expected = np.linalg.solve(p2, r)
    got = p.apply_inverse(z)[n : 2 * n]
    assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)


def test_bdal_exact_mesh_study_counts(tmp_path):
    obs_path = str(tmp_path / "observations.txt")
    write_observations(obs_path, generate_observations(1, 200, 1.45, 1.0))
    cfg = ExperimentConfig(
        nx=(10, 20, 40, 80),
        ny=(7, 14, 28, 56),
        alpha=(1e-6,),
        n_obs=(200,),
        obs_file=obs_path,
        preconditioners=(BDAL_EXACT,),
        out_dir=str(tmp_path),
    )
    counts = [row["iters-to-target"] for row in run_mesh_study(cfg)]
    assert counts == [47, 45, 44, 44]




def test_alpha_independent_products_formed_once(kkt_2x2, monkeypatch):
    ops = assemble_problem(kkt_2x2.ops.mesh, kkt_2x2.ops.obs)
    triple = kkt._triple_product
    calls = []

    def counting(a, d):
        calls.append(a)
        return triple(a, d)

    monkeypatch.setattr(kkt, "_triple_product", counting)
    for alpha in (1e-2, 1e-6):
        sys = build_kkt(ops, alpha, kkt_2x2.y)
        assert sys.btb is ops.btb
        for kind in (BDAL_LUMPED_EXACT, BDAL_LUMPED_INEXACT):
            build_preconditioner(sys, kind)
    assert len(calls) == 2
    assert calls[0] is ops.observation and calls[1] is ops.forward
    n_obs = ops.observation.shape[0]
    assert _same_arrays(ops.btb, triple(ops.observation, np.ones(n_obs)))
    assert _same_arrays(ops.at_lumped_inv_a, triple(ops.forward, 1.0 / ops.mass_lumped))


def test_reduced_hessian_factors_forward_once(kkt_2x2, factors):
    ops = assemble_problem(kkt_2x2.ops.mesh, kkt_2x2.ops.obs)
    sys = build_kkt(ops, alpha=1e-2, y=kkt_2x2.y)
    h = reduced_hessian(sys)
    rhs = h.rhs(sys.y, ops.observation)
    for _ in range(3):
        h.apply(rhs)
    reduced_hessian(sys).apply(rhs)
    assert len(factors) == 1
    synthesize_data(ops, rhs)  # factors an LU of its own, freed on return
    assert len(factors) == 2
    assert vars(ops)["forward_solver"] is h.sys.ops.forward_solver


def test_reduced_regularization_solve_factors_a_once(factors):
    sys = make_instance(nx=10, ny=7, n_obs=50, alpha=1e-4)
    assert "forward_solver" not in vars(sys.ops)  # synthesis kept no LU of A
    factors.clear()
    h = reduced_hessian(sys)
    b = h.rhs(sys.y, sys.ops.observation)
    report = pcg(h.as_operator(), regularization_prec_operator(h), b, tol=1e-8, maxit=200)
    assert report.iterations > 1
    a_inputs = [m for m in factors.inputs if np.shares_memory(m.data, sys.forward.data)]
    assert len(a_inputs) == 1 and len(factors) == 2  # A, shared by h.rhs and every apply; R*R
