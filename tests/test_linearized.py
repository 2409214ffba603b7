import numpy as np
import pytest
import scipy.sparse.linalg as spla

from qcond.conductivity import make_preset, preset_constant, preset_p_gauss, preset_s_gauss
from qcond.forward import (assemble_jacobian, factor_interior, harmonic_extension,
                           solve_dirichlet)
from qcond.geometry import build_disk_mesh
from qcond.linearized import (LinearizedOperator, fd_derivative_check, linearized_dn,
                              solve_linearized)

C1 = preset_constant(1.0)
PG = preset_p_gauss(0.25)


def boundary_angles(m):
    return np.arctan2(m.vertices[m.boundary_loop, 1], m.vertices[m.boundary_loop, 0])


def test_laplace_linearization_is_harmonic_extension():
    m = build_disk_mesh(1.0, 0.1)
    th = boundary_angles(m)
    base = solve_dirichlet(C1, m, 0.3 * np.cos(2 * th))
    h = np.sin(th)
    lin = solve_linearized(C1, base, h)
    assert np.abs(lin.v - harmonic_extension(m, h)).max() < 1e-10


def test_zero_data_zero_solution():
    m = build_disk_mesh(1.0, 0.1)
    base = solve_dirichlet(PG, m, 0.4 * np.cos(2 * boundary_angles(m)))
    lin = solve_linearized(PG, base, np.zeros(len(m.boundary_loop)))
    assert np.abs(lin.v).max() == 0.0


def test_constant_base_state_only_model_reduces_to_laplace():
    # at a constant base the drift dies and (eqL) is a scaled Laplacian
    m = build_disk_mesh(1.0, 0.1)
    sg = preset_s_gauss(0.25)
    base = solve_dirichlet(sg, m, np.full(len(m.boundary_loop), 0.6))
    h = np.cos(boundary_angles(m))
    lin = solve_linearized(sg, base, h)
    assert np.abs(lin.v - harmonic_extension(m, h)).max() < 1e-10


def test_linearized_dn_harmonic_oracle():
    m = build_disk_mesh(1.0, 0.05)
    th = boundary_angles(m)
    base = solve_dirichlet(C1, m, 0.2 * np.cos(2 * th))
    lin = solve_linearized(C1, base, np.cos(th))
    flux = linearized_dn(C1, lin)
    assert np.abs(flux.density - np.cos(th)).max() < 3.0 * m.h ** 2
    lin0 = solve_linearized(C1, base, np.zeros(len(th)))
    assert np.abs(linearized_dn(C1, lin0).density).max() == 0.0


def test_linearized_flux_total_vanishes():
    m = build_disk_mesh(1.0, 0.05)
    th = boundary_angles(m)
    base = solve_dirichlet(PG, m, 0.5 * np.cos(2 * th))
    lin = solve_linearized(PG, base, np.sin(3 * th))
    assert abs(linearized_dn(PG, lin).coeffs.sum()) < 1e-9


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
    m = build_disk_mesh(1.0, 0.1)
    base = solve_dirichlet(PG, m, 0.6 * np.cos(2 * boundary_angles(m)))
    J_lin = LinearizedOperator.at_base(PG, base).J
    J_fresh = assemble_jacobian(PG, m, base.u)
    diff = (J_lin - J_fresh)
    gap = np.abs(diff.data).max() if diff.nnz else 0.0
    assert gap <= 1e-12


def test_fd_derivative_check_first_order():
    m = build_disk_mesh(1.0, 0.1)
    th = boundary_angles(m)
    f = 0.5 * np.cos(2 * th)
    h = np.cos(th)
    rows = fd_derivative_check(PG, m, f, h, (1e-1, 1e-2, 1e-3))
    errs = [e for _, e in rows]
    assert 5.0 < errs[0] / errs[1] < 15.0
    assert 5.0 < errs[1] / errs[2] < 15.0


def test_fd_check_linear_problem_floor():
    m = build_disk_mesh(1.0, 0.1)
    th = boundary_angles(m)
    rows = fd_derivative_check(C1, m, 0.3 * np.cos(th), np.sin(th), (1e-1, 1e-2))
    assert all(e < 1e-9 for _, e in rows)      # exactly linear: solver floor only


def test_fd_check_zero_direction():
    m = build_disk_mesh(1.0, 0.1)
    rows = fd_derivative_check(PG, m, 0.3 * np.cos(2 * boundary_angles(m)),
                               np.zeros(len(m.boundary_loop)), (1e-1,))
    assert rows[0][1] < 1e-12


def test_condition_estimate_and_gate():
    m = build_disk_mesh(1.0, 0.1)
    base = solve_dirichlet(PG, m, 0.4 * np.cos(2 * boundary_angles(m)))
    op = LinearizedOperator.at_base(PG, base)
    est = op.condition_estimate()
    assert 1.0 < est < 1e9
    # the gate passes for a healthy base
    solve_linearized(PG, base, np.cos(boundary_angles(m)),
                     operator=op, check_condition=True)


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


@pytest.mark.parametrize("block", [decay_jacobian, nonsymmetric_fields])
def test_factor_interior_residual_fill_and_order(block):
    m = build_disk_mesh(1.0, 0.05)
    J = block(m)
    ii, bb = m.interior_idx, m.boundary_loop
    lu, order = factor_interior(m, J)
    assert np.array_equal(np.sort(order), ii)
    colamd = spla.splu(J[ii][:, ii].tocsc())
    assert lu.L.nnz + lu.U.nnz < colamd.L.nnz + colamd.U.nnz
    A = J[order][:, order]
    b = np.random.default_rng(3).normal(size=len(ii))
    assert np.linalg.norm(A @ lu.solve(b) - b) <= 1e-12 * np.linalg.norm(b)
    # complex boundary data: the interior rows of J v vanish
    op = LinearizedOperator(m, J)
    h = np.exp(3j * boundary_angles(m))
    v = op.solve(h)
    assert np.linalg.norm((J @ v)[ii]) <= 1e-12 * np.linalg.norm(J[ii][:, bb] @ h)
