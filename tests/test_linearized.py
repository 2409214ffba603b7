import functools

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from qcond.conductivity import make_preset, preset_constant, preset_p_gauss, preset_s_gauss
from qcond.forward import (KRYLOV_MAX_ITER, assemble_jacobian, assemble_linear, coefficient_fields,
                           factor_interior, harmonic_extension, solve_dirichlet)
from qcond.geometry import build_disk_mesh
from qcond.linearized import (LinearizedOperator, _recycled_start, fd_derivative_check,
                              jacobian_check)

C1 = preset_constant(1.0)
PG = preset_p_gauss(0.25)


def boundary_angles(m):
    return np.arctan2(m.vertices[m.boundary_loop, 1], m.vertices[m.boundary_loop, 0])


def fd_rows(cond, m, f, h, t_list):
    """fd_derivative_check (rows, ok) at the cold solve of data f and its operator."""
    base = solve_dirichlet(cond, m, f)
    return fd_derivative_check(base, LinearizedOperator.at_base(cond, base), h, t_list)


def test_laplace_linearization_is_harmonic_extension():
    m = build_disk_mesh(1.0, 0.1)
    th = boundary_angles(m)
    base = solve_dirichlet(C1, m, 0.3 * np.cos(2 * th))
    h = np.sin(th)
    v = LinearizedOperator.at_base(C1, base).solve(h)
    assert np.abs(v - harmonic_extension(m, h)).max() < 1e-10


def test_zero_data_zero_solution():
    m = build_disk_mesh(1.0, 0.1)
    base = solve_dirichlet(PG, m, 0.4 * np.cos(2 * boundary_angles(m)))
    v = LinearizedOperator.at_base(PG, base).solve(np.zeros(len(m.boundary_loop)))
    assert np.abs(v).max() == 0.0


def test_constant_base_state_only_model_reduces_to_laplace():
    # at a constant base the drift dies and (eqL) is a scaled Laplacian
    m = build_disk_mesh(1.0, 0.1)
    sg = preset_s_gauss(0.25)
    base = solve_dirichlet(sg, m, np.full(len(m.boundary_loop), 0.6))
    h = np.cos(boundary_angles(m))
    v = LinearizedOperator.at_base(sg, base).solve(h)
    assert np.abs(v - harmonic_extension(m, h)).max() < 1e-10


def test_linearized_dn_harmonic_oracle():
    m = build_disk_mesh(1.0, 0.05)
    th = boundary_angles(m)
    base = solve_dirichlet(C1, m, 0.2 * np.cos(2 * th))
    op = LinearizedOperator.at_base(C1, base)
    density = op.dn_flux(np.cos(th)) / m.vertex_weights
    assert np.abs(density - np.cos(th)).max() < 3.0 * m.h ** 2
    assert np.abs(op.dn_flux(np.zeros(len(th))) / m.vertex_weights).max() == 0.0


def test_linearized_flux_total_vanishes():
    m = build_disk_mesh(1.0, 0.05)
    th = boundary_angles(m)
    base = solve_dirichlet(PG, m, 0.5 * np.cos(2 * th))
    assert abs(LinearizedOperator.at_base(PG, base).dn_flux(np.sin(3 * th)).sum()) < 1e-9


def test_symmetry_at_constant_base():
    # with a independent of s and a constant base, the form is symmetric
    m = build_disk_mesh(1.0, 0.1)
    th = boundary_angles(m)
    base = solve_dirichlet(PG, m, np.full(len(th), 0.3))
    op = LinearizedOperator.at_base(PG, base)
    h1, h2 = np.cos(th), np.sin(2 * th)
    p12 = np.sum(op.dn_flux(h1) * h2)
    p21 = np.sum(op.dn_flux(h2) * h1)
    assert abs(p12 - p21) < 1e-8 * max(abs(p12), 1.0)


def test_stiffness_equals_newton_jacobian():
    # the operator's J is the derivative of the residual; without the drift
    # a_s grad u, a state-dependent model's J is not
    m = build_disk_mesh(1.0, 0.1)
    th = boundary_angles(m)
    dm = make_preset("decay_mix(0.2,0.05,0.1)")
    for cond, f in ((PG, 0.6 * np.cos(2 * th)), (dm, 0.6 + 0.3 * np.cos(th))):
        base = solve_dirichlet(cond, m, f)
        errs, ok = jacobian_check(base, LinearizedOperator.at_base(cond, base))
        assert ok and errs[1] <= 1e-6, errs
    # the last base is decay_mix's: its J without the drift fails the check
    M = coefficient_fields(dm, m, base.u)[2]
    errs, ok = jacobian_check(base, LinearizedOperator(m, assemble_linear(m, M), krylov=True))
    assert not ok, errs


def test_fd_derivative_check_first_order():
    m = build_disk_mesh(1.0, 0.1)
    th = boundary_angles(m)
    f = 0.5 * np.cos(2 * th)
    h = np.cos(th)
    rows, ok = fd_rows(PG, m, f, h, (1e-1, 1e-2, 1e-3))
    ratios = [r for _, _, r in rows[1:]]
    assert ok and all(5.0 < r < 15.0 for r in ratios), ratios


def test_fd_check_fails_without_the_drift():
    # decay_mix's operator without the drift a_s grad u is not the
    # derivative of the forward map: its errors stall as t falls
    m = build_disk_mesh(1.0, 0.1)
    th = boundary_angles(m)
    dm = make_preset("decay_mix(0.2,0.05,0.1)")
    base = solve_dirichlet(dm, m, 0.6 + 0.3 * np.cos(th))
    M = coefficient_fields(dm, m, base.u)[2]
    for op, passes in ((LinearizedOperator.at_base(dm, base), True),
                       (LinearizedOperator(m, assemble_linear(m, M)), False)):
        rows, ok = fd_derivative_check(base, op, np.cos(2 * th), (1e-1, 1e-2, 1e-3))
        assert ok == passes, rows


def test_fd_check_linear_problem_floor():
    m = build_disk_mesh(1.0, 0.1)
    th = boundary_angles(m)
    rows, ok = fd_rows(C1, m, 0.3 * np.cos(th), np.sin(th), (1e-1, 1e-2))
    assert ok and all(e < 1e-9 for _, e, _ in rows)      # exactly linear: solver floor only


def test_fd_check_zero_direction():
    m = build_disk_mesh(1.0, 0.1)
    rows, _ = fd_rows(PG, m, 0.3 * np.cos(2 * boundary_angles(m)),
                      np.zeros(len(m.boundary_loop)), (1e-1,))
    assert rows[0][1] < 1e-12


def test_at_base_leaves_the_base_alone():
    # the operator solves on the mesh's Laplace LU and factors nothing;
    # every field of the base keeps its object
    m = build_disk_mesh(1.0, 0.05)
    base = solve_dirichlet(PG, m, 0.4 * np.cos(2 * boundary_angles(m)))
    fields = dict(vars(base))
    op = LinearizedOperator.at_base(PG, base)
    op.dn_flux(probe_block(m))
    assert vars(base).keys() == fields.keys()
    assert all(vars(base)[k] is v for k, v in fields.items())
    assert op.factorizations == 0 and op.krylov_iters > 0


def test_preconditioned_miss_factors_once():
    # a 10:1 anisotropic operator is too far from the Laplacian for GMRES
    # to reach its target: the first block misses, the operator factors
    # its own block once, and from then on solves directly
    m = build_disk_mesh(1.0, 0.05)
    aniso = np.diag([1.0, 10.0])
    J = assemble_linear(m, aniso)
    op = LinearizedOperator(m, J, krylov=True)
    exact = LinearizedOperator.from_fields(m, aniso)
    H = probe_block(m)
    V = op.solve(H)
    # every real column ran to the iteration cap
    assert op.factorizations == 1 and op.krylov_iters == KRYLOV_MAX_ITER * 2 * H.shape[1]
    for block, v in ((H, V), (H, op.solve(H)), (H[:, 1].real, op.solve(H[:, 1].real))):
        ref = exact.solve(block)
        assert np.linalg.norm(v - ref) <= 1e-12 * np.linalg.norm(ref)
    assert op.factorizations == 1 and op.krylov_iters == KRYLOV_MAX_ITER * 2 * H.shape[1]


def test_complex_data_two_real_solves():
    m = build_disk_mesh(1.0, 0.1)
    th = boundary_angles(m)
    base = solve_dirichlet(PG, m, 0.4 * np.cos(2 * th))
    op = LinearizedOperator.at_base(PG, base)
    h = np.cos(th) + 1j * np.sin(th)
    combined = op.dn_flux(h)
    split = op.dn_flux(np.cos(th)) + 1j * op.dn_flux(np.sin(th))
    assert np.abs(combined - split).max() < 1e-12


def decay_jacobian(m):
    # affine data s + p.x solves the equation exactly; |p| = 5 is the top of
    # the decay-regime grid, where the drift a_s grad u is strongest
    u = 0.6 + m.vertices @ np.array([3.0, 4.0])
    return assemble_jacobian(make_preset("decay_mix(0.2,0.05,0.1)"), m, u)


def nonsymmetric_fields(m):
    M = np.array([[1.3, 0.4 + 0.3], [0.4 - 0.3, 0.9]])
    return LinearizedOperator.from_fields(m, M, np.array([0.5, -0.2])).J


def bitwise_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def nonsymmetric_operator(m):
    return LinearizedOperator(m, nonsymmetric_fields(m))


def decay_base_operator(m):
    # a converged decay_mix base with gradient near |p| = 1 and a curved part
    cond = make_preset("decay_mix(0.2,0.05,0.1)")
    th = boundary_angles(m)
    base = solve_dirichlet(cond, m, 0.6 + 0.6 * np.cos(th) + 0.8 * np.sin(th)
                           + 0.2 * np.cos(2 * th))
    return LinearizedOperator.at_base(cond, base)


@pytest.mark.parametrize("make_op", [nonsymmetric_operator, decay_base_operator])
def test_dn_flux_commutes_with_conjugation(make_op):
    # a real operator: conjugate data give exactly the conjugate pairings,
    # which is what lets a probe sweep solve one orientation per frequency
    m = build_disk_mesh(1.0, 0.05)
    op = make_op(m)
    th = boundary_angles(m)
    for h in (np.exp(5j * th) * (1.0 + 0.3 * np.cos(th)), np.exp(-2j * th) + 0.4,
              probe_block(m)):
        assert bitwise_equal(op.dn_flux(np.conj(h)), np.conj(op.dn_flux(h)))


def probe_block(m):
    # an (n_boundary, 3) block of oscillatory data, one column per frequency
    th = boundary_angles(m)[:, None]
    return np.exp(1j * np.array([4.0, 8.0, 16.0]) * th) * (1.0 + 0.3 * np.cos(th))


@pytest.mark.parametrize("make_op", [nonsymmetric_operator, decay_base_operator])
def test_block_solve_matches_columns(make_op):
    # one multi-column solve rounds differently from K one-column solves,
    # so the agreement is to roundoff, not bitwise; the base operator
    # solves by GMRES on the Laplace LU, the other by its own LU
    m = build_disk_mesh(1.0, 0.05)
    op = make_op(m)
    H = probe_block(m)
    for block in (H, H.real):
        V = op.solve(block)
        F = op.dn_flux(block)
        assert V.shape == (len(m.vertices), 3) and F.shape == (len(m.boundary_loop), 3)
        for k in range(block.shape[1]):
            v, f = op.solve(block[:, k]), op.dn_flux(block[:, k])
            assert np.linalg.norm(V[:, k] - v) <= 1e-13 * np.linalg.norm(v)
            assert np.linalg.norm(F[:, k] - f) <= 1e-13 * np.linalg.norm(f)
    assert op.factorizations == (make_op is nonsymmetric_operator)


def chain_pair(m):
    """A p_gauss base and the interior probe solution of a neighbouring
    base's operator, as at two consecutive nodes of a chain."""
    th = boundary_angles(m)
    first = LinearizedOperator.at_base(PG, solve_dirichlet(PG, m, 0.4 * np.cos(2 * th)))
    first.dn_flux(probe_block(m))
    return solve_dirichlet(PG, m, 0.4 * np.cos(2 * th) + 0.02 * np.sin(th)), first.solution


@functools.lru_cache(maxsize=None)
def coarse_decay_block():
    m = build_disk_mesh(1.0, 0.2)
    return decay_jacobian(m)[:m.n_interior, :m.n_interior].tocsr()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 4), zero_col=st.booleans(),
       kinds=st.lists(st.sampled_from(["random", "zero", "repeat", "other", "near"]),
                      max_size=6))
def test_recycled_start_property(seed, width, zero_col, kinds):
    # y = 0 is feasible, so no column starts worse than cold, whatever the
    # history; and a block starts each column as that column alone would
    A = coarse_decay_block()
    n = A.shape[0]
    rng = np.random.default_rng(seed)
    rhs = rng.normal(size=(n, width))
    if zero_col:
        rhs[:, -1] = 0.0
    exact = spla.spsolve(A.tocsc(), rhs).reshape(n, width)
    history = []
    for kind in kinds:
        if kind == "repeat" and history:
            history.append(history[rng.integers(len(history))])
        elif kind == "zero":
            history.append(np.zeros((n, width)))
        elif kind == "other":
            history.append(rng.normal(size=(n, width + 1)))
        elif kind == "near":
            history.append(exact + 1e-3 * rng.normal(size=(n, width)))
        else:
            history.append(rng.normal(size=(n, width)))
    x0 = _recycled_start(A, rhs, history)
    if x0 is None:
        assert all(G.shape != rhs.shape for G in history)
        return
    start = np.linalg.norm(rhs - A @ x0, axis=0)
    assert np.all(start <= (1.0 + 1e-12) * np.linalg.norm(rhs, axis=0)), start
    for c in range(width):
        col = _recycled_start(A, rhs[:, c], [G[:, c] for G in history if G.shape == rhs.shape])
        assert bitwise_equal(x0[:, c], col)


@pytest.mark.parametrize("case", ["repeated", "zero", "zero newest", "other width"])
def test_recycled_start_failure_paths(case):
    # a degenerate history still meets LINEAR_RTOL by GMRES, with no
    # exception and no LU: a singular least-squares system keeps the newest
    # blocks before its first negligible pivot, and a block of another
    # width is ignored
    m = build_disk_mesh(1.0, 0.05)
    base, sol = chain_pair(m)
    zero = np.zeros_like(sol)
    history = {"repeated": [sol, sol, sol], "zero": [zero, sol], "zero newest": [sol, zero],
               "other width": [sol[:, :2]]}[case]
    H = probe_block(m)
    cold = LinearizedOperator.at_base(PG, base)
    op = LinearizedOperator.at_base(PG, base, history)
    V, ref = op.solve(H), cold.solve(H)
    exact = LinearizedOperator(m, cold.J).solve(H)
    assert op.factorizations == 0 and cold.factorizations == 0
    assert op.solution.shape == sol.shape
    assert np.linalg.norm(V - exact) <= 1e-9 * np.linalg.norm(exact)
    if case in ("zero newest", "other width"):
        # no usable block: the cold start, bit for bit
        assert op.krylov_iters == cold.krylov_iters and bitwise_equal(V, ref)
    else:
        assert 0 < op.krylov_iters < cold.krylov_iters


@pytest.mark.parametrize("make_op", [nonsymmetric_operator, decay_base_operator])
def test_flux_coeffs_are_boundary_rows_of_full_product(make_op):
    m = build_disk_mesh(1.0, 0.05)
    op = make_op(m)
    rng = np.random.default_rng(7)
    v_real = rng.normal(size=len(m.vertices))
    v_complex = v_real + 1j * rng.normal(size=len(m.vertices))
    for v in (v_real, v_complex, op.solve(np.exp(3j * boundary_angles(m)))):
        assert bitwise_equal(op.flux_coeffs(v), (op.J @ v)[m.boundary_loop])


def test_solve_of_integer_data_is_not_truncated():
    m = build_disk_mesh(1.0, 0.2)
    op = LinearizedOperator.from_fields(m, np.eye(2))
    h = np.arange(len(m.boundary_loop)) % 3
    assert np.array_equal(op.solve(h), op.solve(h.astype(float)))


@pytest.mark.parametrize("block", [decay_jacobian, nonsymmetric_fields])
def test_factor_interior_residual_fill_and_order(block):
    m = build_disk_mesh(1.0, 0.05)
    J = block(m)
    ii, bb = m.interior_idx, m.boundary_loop
    # one LU of the leading block, in the mesh's nested-dissection numbering
    lu = factor_interior(m, J)
    assert isinstance(lu, spla.SuperLU) and lu.shape == (len(ii), len(ii))
    colamd = spla.splu(J[ii][:, ii].tocsc())
    assert lu.L.nnz + lu.U.nnz < colamd.L.nnz + colamd.U.nnz
    A = J[ii][:, ii]
    b = np.random.default_rng(3).normal(size=len(ii))
    assert np.linalg.norm(A @ lu.solve(b) - b) <= 1e-12 * np.linalg.norm(b)
    # complex boundary data: the interior rows of J v vanish
    op = LinearizedOperator(m, J)
    h = np.exp(3j * boundary_angles(m))
    v = op.solve(h)
    assert np.linalg.norm((J @ v)[ii]) <= 1e-12 * np.linalg.norm(J[ii][:, bb] @ h)
