import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scipy.sparse as sp

from qcond.barriers import JetRequest, prescribe_jet
from qcond import forward
from qcond.conductivity import (ConductivityError, ConductivitySpec, evaluate_with_derivatives,
                                make_preset, preset_constant, preset_one_plus_s2,
                                preset_p_gauss, preset_p_lorentz)
from qcond.forward import (KRYLOV_MAX_ITER, SolveError, _gmres, _laplace_factor, assemble_jacobian,
                           assemble_linear, assemble_residual, boundary_jet_of, coefficient_fields,
                           convergence_order, dn_map, harmonic_extension, load_vector,
                           manufactured_solution, solve_dirichlet)
from qcond.geometry import Isometry, boundary_frame_at, build_disk_mesh, transform_mesh
from test_geometry import polygon_mesh

C1 = preset_constant(1.0)
PG = preset_p_gauss(0.25)


def test_affine_data_exact():
    m = build_disk_mesh(1.0, 0.1)
    sol = solve_dirichlet(C1, m, lambda x: x[:, 0])
    assert np.abs(sol.u - m.vertices[:, 0]).max() < 1e-12


def test_constant_data_exact_for_state_dependent_model():
    m = build_disk_mesh(1.0, 0.1)
    sol = solve_dirichlet(preset_one_plus_s2(), m, np.full(len(m.boundary_loop), 0.7))
    assert np.abs(sol.u - 0.7).max() < 1e-12
    assert np.abs(dn_map(sol)).max() < 1e-10


def test_manufactured_convergence_order():
    meshes = [build_disk_mesh(1.0, h) for h in (0.1, 0.05)]
    errs, order, ok = convergence_order(PG, meshes, *manufactured_solution(PG))
    assert ok and order > 1.7, (errs, order)


def test_convergence_order_fails_without_the_source():
    # without its source u* solves another problem: the error stalls
    meshes = [build_disk_mesh(1.0, h) for h in (0.1, 0.05)]
    errs, order, ok = convergence_order(PG, meshes, manufactured_solution(PG)[0])
    assert not ok, (errs, order)


def test_dn_map_harmonic_oracles():
    m = build_disk_mesh(1.0, 0.05)
    th = np.arctan2(m.vertices[m.boundary_loop, 1], m.vertices[m.boundary_loop, 0])
    sol = solve_dirichlet(C1, m, lambda x: x[:, 0])
    assert np.abs(dn_map(sol) - np.cos(th)).max() < 3.0 * m.h ** 2
    sol2 = solve_dirichlet(C1, m, lambda x: x[:, 0] ** 2 - x[:, 1] ** 2)
    assert np.abs(dn_map(sol2) - 2.0 * np.cos(2.0 * th)).max() < 10.0 * m.h ** 2


def test_flux_conservation():
    m = build_disk_mesh(1.0, 0.05)
    fb = 0.3 * np.sin(2 * np.arctan2(m.vertices[m.boundary_loop, 1],
                                     m.vertices[m.boundary_loop, 0]))
    sol = solve_dirichlet(PG, m, fb)
    assert abs(sol.flux_coeffs.sum()) < 1e-9


@pytest.mark.parametrize("with_source", [False, True])
def test_dn_map_reads_the_converged_residual(with_source):
    m = build_disk_mesh(1.0, 0.1)
    source = manufactured_solution(PG)[1] if with_source else None
    sol = solve_dirichlet(PG, m, 0.3 * np.sin(2 * m.vertices[m.boundary_loop, 0]),
                          source=source)
    R, _ = assemble_residual(PG, m, sol.u, source)
    assert np.array_equal(dn_map(sol), R[m.boundary_loop] / m.vertex_weights)


def test_boundary_jet_of_assembles_no_residual(monkeypatch):
    m = build_disk_mesh(1.0, 0.1)
    sol = solve_dirichlet(PG, m, 0.3 * m.vertices[m.boundary_loop, 0] ** 2)
    calls = []
    assemble = forward.assemble_residual
    monkeypatch.setattr(forward, "assemble_residual",
                        lambda *args, **kw: calls.append(1) or assemble(*args, **kw))
    boundary_jet_of(sol, boundary_frame_at(m, 0.4))
    assert calls == []


def test_comparison_principle_sample():
    m = build_disk_mesh(1.0, 0.1)
    rng = np.random.default_rng(11)
    th = np.arctan2(m.vertices[m.boundary_loop, 1], m.vertices[m.boundary_loop, 0])
    for _ in range(5):
        c = rng.normal(scale=0.15, size=3)
        f1 = c[0] + c[1] * np.cos(th) + c[2] * np.sin(2 * th)
        gap = 0.05 + 0.05 * (1 + np.cos(th - rng.uniform(0, 2 * np.pi)))
        u1 = solve_dirichlet(PG, m, f1).u
        u2 = solve_dirichlet(PG, m, f1 + gap).u
        assert np.all(u1 <= u2 + 1e-8)


def test_newton_quadratic_tail(monkeypatch):
    # cos(2 theta) data: affine traces would solve gradient-only models exactly
    m = build_disk_mesh(1.0, 0.1)
    th = np.arctan2(m.vertices[m.boundary_loop, 1], m.vertices[m.boundary_loop, 0])
    # the interior residual of every iterate Newton assembles: with no
    # backtracking, its history
    norms = []
    assemble = forward.assemble_residual

    def recording(*args, **kw):
        R, scale = assemble(*args, **kw)
        norms.append(float(np.linalg.norm(R[:m.n_interior])))
        return R, scale

    monkeypatch.setattr(forward, "assemble_residual", recording)
    sol = solve_dirichlet(PG, m, np.cos(2 * th), tol=1e-13)
    assert len(norms) == sol.newton_iters
    hist = [r for r in norms if r > 1e-14]
    assert len(hist) >= 3
    orders = [math.log(hist[i + 1] / hist[i]) / math.log(hist[i] / hist[i - 1])
              for i in range(1, len(hist) - 1) if hist[i] < hist[i - 1]]
    assert max(orders) >= 1.8, (hist, orders)


def test_newton_failure_reported():
    # an iteration cap below what the data needs must be reported, not hidden
    m = build_disk_mesh(1.0, 0.2)
    th = np.arctan2(m.vertices[m.boundary_loop, 1], m.vertices[m.boundary_loop, 0])
    with pytest.raises(SolveError):
        solve_dirichlet(PG, m, np.cos(2 * th), max_iter=1)


def reference_state(m, u):
    """_triangle_state by a (T, 3) gather and an einsum over (T, 3, 2)."""
    ut = u[m.triangles]
    return ut.mean(axis=1), np.einsum("ti,tik->tk", ut, m.hat_gradients)


def reference_linear(m, M, w):
    """assemble_linear by (T, 3, 3) element blocks and a COO sum, for
    M of shape (T, 2, 2) and w of shape (T, 2)."""
    tri, g, area = m.triangles, m.hat_gradients, m.areas
    blocks = np.einsum("t,tik,tkl,tjl->tij", area, g, M, g)
    blocks += (area / 3.0)[:, None, None] * np.einsum("tk,tik->ti", w, g)[:, :, None]
    n = len(m.vertices)
    return sp.csr_matrix((blocks.ravel(), (np.repeat(tri, 3, axis=1).ravel(),
                                           np.tile(tri, (1, 3)).ravel())), shape=(n, n))


def reference_residual(m, a, grad):
    """assemble_residual's rows from per-triangle a and (T, 2) grad u."""
    r_loc = np.einsum("t,tk,tik->ti", m.areas, a[:, None] * grad, m.hat_gradients)
    R = np.zeros(len(m.vertices))
    np.add.at(R, m.triangles.ravel(), r_loc.ravel())
    return R


def test_scatter_assembly_matches_coo_reference():
    m = build_disk_mesh(1.0, 0.1)
    T = len(m.triangles)
    M = np.array([[1.3, 0.7], [0.1, 0.9]])
    w = np.random.default_rng(5).normal(size=(2, T))
    ref = reference_linear(m, np.broadcast_to(M, (T, 2, 2)), w.T)
    A = assemble_linear(m, M, w)
    assert abs(A - ref).max() <= 1e-13 * abs(ref).max()

    u = 0.3 * np.sin(3.0 * m.vertices[:, 0]) + m.vertices[:, 1] ** 2
    _, source = manufactured_solution(PG)
    a, grad, _, _ = coefficient_fields(PG, m, u)
    R_ref = reference_residual(m, a, grad.T)
    R, _ = assemble_residual(PG, m, u)
    assert np.abs(R - R_ref).max() <= 1e-13 * np.abs(R_ref).max()
    R_src, _ = assemble_residual(PG, m, u, source)
    assert np.abs(R_src - R - load_vector(m, source)).max() <= 1e-13 * np.abs(R_src).max()


KERNEL_MESHES = {"disk 0.2": lambda: build_disk_mesh(1.0, 0.2),
                 "disk 0.1": lambda: build_disk_mesh(1.0, 0.1),
                 "hexagon 0.15": lambda: polygon_mesh(6, 0.15)}


@pytest.fixture(scope="module")
def kernel_meshes():
    return {name: build() for name, build in KERNEL_MESHES.items()}


def relative_gap(x, ref):
    return float(np.abs(x - ref).max() / np.abs(ref).max())


# grad_p a is never parallel to p, so a I + p (x) grad_p a is not symmetric
SKEW = ConductivitySpec(
    name="skew",
    fn=lambda s, p: 2.0 + 0.1 * np.sin(s) + 0.3 * np.tanh(p[..., 0] + 2.0 * p[..., 1]),
    grad=lambda s, p: (0.1 * np.cos(s), (0.3 / np.cosh(p[..., 0] + 2.0 * p[..., 1]) ** 2)[..., None]
                       * np.array([1.0, 2.0])))


@settings(max_examples=12, deadline=None)
@given(name=st.sampled_from(sorted(KERNEL_MESHES)), seed=st.integers(0, 2**32 - 1),
       drift=st.booleans())
def test_p1_kernels_match_references(kernel_meshes, name, seed, drift):
    # M is non-symmetric and different on every triangle, so a kernel that
    # pairs one triangle's hat rows with another's coefficients is caught
    m = kernel_meshes[name]
    T = len(m.triangles)
    rng = np.random.default_rng(seed)
    u = 0.05 * rng.normal(size=len(m.vertices))
    M = rng.normal(size=(2, 2, T)) + 2.0 * np.eye(2)[:, :, None]
    w = rng.normal(size=(2, T)) if drift else None

    ubar, grad = forward._triangle_state(m, u)
    ubar_ref, grad_ref = reference_state(m, u)
    assert grad.shape == (2, T)
    assert relative_gap(ubar, ubar_ref) <= 1e-13 and relative_gap(grad.T, grad_ref) <= 1e-13

    ref = reference_linear(m, M.transpose(2, 0, 1), np.zeros((T, 2)) if w is None else w.T)
    A = assemble_linear(m, M, w)
    assert abs(A - ref).max() <= 1e-13 * abs(ref).max()

    a, a_s, gp = evaluate_with_derivatives(SKEW, ubar_ref, grad_ref)
    R, _ = assemble_residual(SKEW, m, u)
    assert relative_gap(R, reference_residual(m, a, grad_ref)) <= 1e-13
    M_ref = a[:, None, None] * np.eye(2) + grad_ref[:, :, None] * gp[:, None, :]
    J_ref = reference_linear(m, M_ref, a_s[:, None] * grad_ref)
    assert abs(assemble_jacobian(SKEW, m, u) - J_ref).max() <= 1e-13 * abs(J_ref).max()
    # the kernels read the mesh's row storage; the (T, ...) attributes are views of it
    assert np.shares_memory(m.hat_gradients, m.hat_t) and m.hat_t.flags.c_contiguous
    assert np.shares_memory(m.triangles, m.tri_t) and m.tri_t.flags.c_contiguous


@pytest.mark.parametrize("expr", ["decay_mix(0.2,0.05,0.1)", "p_lorentz(0.2)"])
def test_residual_evaluates_values_only(expr):
    m = build_disk_mesh(1.0, 0.025)
    cond = make_preset(expr)
    u = 0.3 * np.sin(3.0 * m.vertices[:, 0]) + m.vertices[:, 1] ** 2
    a, grad, _, _ = coefficient_fields(cond, m, u)
    R_ref = reference_residual(m, a, grad.T)
    scale_ref = np.sqrt(np.sum(m.areas * a * a * np.sum(grad * grad, axis=0)))
    # derivatives that are NaN everywhere must not reach the residual
    R, scale = assemble_residual(replace(cond, grad=lambda s, p: (np.nan, np.nan)), m, u)
    assert np.abs(R - R_ref).max() <= 1e-14 * np.abs(R_ref).max()
    assert abs(scale - scale_ref) <= 1e-14 * scale_ref
    with pytest.raises(ConductivityError):
        assemble_residual(replace(cond, fn=lambda s, p: np.where(s > 0.5, np.nan, 1.0)), m, u)


def test_warm_start_imposes_the_data_bitwise():
    m = build_disk_mesh(1.0, 0.1)
    th = np.arctan2(m.vertices[m.boundary_loop, 1], m.vertices[m.boundary_loop, 0])
    prev = solve_dirichlet(PG, m, np.cos(2 * th))
    fb = 0.7 * np.cos(2 * th) + 0.1 * np.sin(3 * th) + 0.3
    warm = solve_dirichlet(PG, m, fb, warm_start=prev)
    assert np.array_equal(warm.u[m.boundary_loop], fb)
    # the data a solve reports is the boundary block of its u
    assert np.array_equal(warm.f, fb) and np.array_equal(prev.f, np.cos(2 * th))


def _neighbour_jets(cond, s):
    """A base solution at jet p = 0.03 tau and the data of the
    neighbouring jet p = 0.035 tau."""
    m = build_disk_mesh(1.0, 0.05)
    fr = boundary_frame_at(m, 0.0)
    base = prescribe_jet(cond, m, JetRequest(frame=fr, s=s, p=0.03 * fr.tau)).sol
    f = prescribe_jet(cond, m, JetRequest(frame=fr, s=s, p=0.035 * fr.tau)).sol.f
    return m, base, f


def test_warm_start_lift_solves_affine_data_without_a_step():
    # p_lorentz depends on the gradient only and both jets' data are
    # affine, so the lifted start is already the solution
    cond = preset_p_lorentz(0.2)
    m, base, f = _neighbour_jets(cond, 0.0)
    warm = solve_dirichlet(cond, m, f, warm_start=base)
    cold = solve_dirichlet(cond, m, f)
    assert warm.newton_iters == 1 and warm.krylov_iters == 0
    assert np.abs(warm.u - cold.u).max() <= 1e-10 * np.abs(cold.u).max()


def test_warm_start_steps_on_the_laplace_lu():
    cond = make_preset("decay_mix(0.2,0.05,0.1)")
    m, base, f = _neighbour_jets(cond, 0.6)
    warm = solve_dirichlet(cond, m, f, warm_start=base)
    cold = solve_dirichlet(cond, m, f)
    assert warm.newton_iters > 1
    assert warm.factorizations == 0 and warm.krylov_iters > 0
    assert np.abs(warm.u - cold.u).max() <= 1e-10 * np.abs(cold.u).max()


def test_cold_solve_steps_on_the_laplace_lu():
    # a cold solve preconditions with the mesh's Laplace LU and, near the
    # Laplacian, factors nothing
    cond = make_preset("decay_mix(0.2,0.05,0.1)")
    m = build_disk_mesh(1.0, 0.05)
    th = np.arctan2(m.vertices[m.boundary_loop, 1], m.vertices[m.boundary_loop, 0])
    sol = solve_dirichlet(cond, m, 0.6 + 0.3 * np.cos(th) + 0.2 * np.sin(2 * th))
    assert sol.newton_iters > 1
    assert sol.factorizations == 0 and sol.krylov_iters > 0


def _gmres_problem():
    """A non-symmetric decay_mix Jacobian block, the Laplace LU, a random
    block with a zero middle column and one target per column."""
    m = build_disk_mesh(1.0, 0.1)
    ni = m.n_interior
    u = 0.6 + m.vertices @ np.array([3.0, 4.0])
    A = assemble_jacobian(make_preset("decay_mix(0.2,0.05,0.1)"), m, u)[:ni, :ni]
    B = np.random.default_rng(5).normal(size=(ni, 3))
    B[:, 1] = 0.0
    targets = np.array([1e-4, 1e-8, 1e-10]) * np.linalg.norm(B[:, 0])
    return A, _laplace_factor(m)[0], np.asfortranarray(B), targets


def test_gmres_block_equals_its_columns():
    # each column stops at its own target's first iteration, as it would
    # alone; a zero column is solved by 0 in no iteration.  The same holds
    # started from x0: the zero column then has work to do
    A, lu, B, targets = _gmres_problem()
    X, total, met = _gmres(A, B, lu, targets)
    iters = []
    for c in range(3):
        x, k, _ = _gmres(A, B[:, c], lu, targets[c])
        iters.append(k)
        assert np.linalg.norm(X[:, c] - x) <= 1e-13 * max(np.linalg.norm(x), 1.0)
    assert met and total == sum(iters) and iters[1] == 0 and iters[0] < iters[2]
    assert np.all(X[:, 1] == 0.0)
    assert np.linalg.norm(A @ X[:, 2] - B[:, 2]) <= targets[2]
    # the Givens rotations change the arithmetic, not the Krylov space: the
    # counts of the least-squares-per-iteration GMRES this replaced
    assert iters == [2, 0, 5]
    X0 = np.asfortranarray(np.random.default_rng(6).normal(size=B.shape) * 1e-2)
    X, total, met = _gmres(A, B, lu, targets, X0)
    iters = []
    for c in range(3):
        x, k, _ = _gmres(A, B[:, c], lu, targets[c], X0[:, c])
        iters.append(k)
        assert np.linalg.norm(X[:, c] - x) <= 1e-13 * max(np.linalg.norm(x), 1.0)
    assert met and total == sum(iters) and min(iters) > 0
    assert np.all(np.linalg.norm(A @ X - B, axis=0) <= targets)


def test_gmres_start():
    A, lu, B, targets = _gmres_problem()
    X, total, _ = _gmres(A, B, lu, targets)
    # a zero start is the cold call, bit for bit
    X0, total0, met0 = _gmres(A, B, lu, targets, np.zeros_like(B))
    assert met0 and total0 == total and X0.tobytes() == X.tobytes()
    # a start that already meets its target comes back as it went in
    Xs, k, met = _gmres(A, B, lu, targets, X)
    assert met and k == 0 and Xs.tobytes() == X.tobytes()
    # a start meeting one column's target leaves the others running
    start = X.copy()
    start[:, 2] = 0.0
    Xs, k, met = _gmres(A, B, lu, targets, start)
    assert met and k == 5 and np.all(Xs[:, :2] == X[:, :2])


class _CountingMatrix:
    """A matrix that counts its products."""

    def __init__(self, A):
        self.A, self.products = A, 0

    def __matmul__(self, x):
        self.products += 1
        return self.A @ x


def test_gmres_checks_the_residual_of_iterated_columns_only():
    # a start meeting every target costs its residual, one product: a
    # column that took no iteration keeps that residual for the final check
    A, lu, B, targets = _gmres_problem()
    X, _, _ = _gmres(A, B, lu, targets)
    counted = _CountingMatrix(A)
    Xs, k, met = _gmres(counted, B, lu, targets, X)
    assert met and k == 0 and counted.products == 1 and Xs.tobytes() == X.tobytes()
    # one column left running: the start's residual, one product per
    # iteration and the check of that column
    start = X.copy()
    start[:, 2] = 0.0
    counted.products = 0
    Xs, k, met = _gmres(counted, B, lu, targets, start)
    assert met and k == 5 and counted.products == 1 + 5 + 1
    # a miss is still reported: the check is a true residual, not the estimate
    _, _, met = _gmres(counted, B, lu, targets * 1e-12, start)
    assert not met


def test_newton_step_factors_when_the_laplace_lu_misses():
    # a = 1 + s^2 ranges over [1, 2.69] on data up to |u| = 1.3, with the
    # drift 2 s grad u: too far from the Laplacian for GMRES to meet the
    # Krylov target, so a step factors its own block for the rest of the solve
    m = build_disk_mesh(1.0, 0.05)
    cond = preset_one_plus_s2()
    th = np.arctan2(m.vertices[m.boundary_loop, 1], m.vertices[m.boundary_loop, 0])
    far = solve_dirichlet(cond, m, np.cos(th) + 0.5 * np.sin(2 * th))
    assert far.factorizations >= 1 and far.krylov_iters >= KRYLOV_MAX_ITER
    f = np.cos(th) + 0.6 * np.sin(2 * th)
    warm = solve_dirichlet(cond, m, f, warm_start=far)
    cold = solve_dirichlet(cond, m, f)
    assert np.abs(warm.u - cold.u).max() <= 1e-10 * np.abs(cold.u).max()
    with pytest.raises(ValueError, match="another mesh"):
        solve_dirichlet(cond, build_disk_mesh(1.0, 0.1), lambda x: x[:, 0], warm_start=far)


def test_boundary_jet_extraction():
    m = build_disk_mesh(1.0, 0.05)
    sol = solve_dirichlet(C1, m, lambda x: x[:, 0])
    fr = boundary_frame_at(m, 0.0)
    s, p = boundary_jet_of(sol, fr)
    assert abs(s - fr.x0[0]) < 1e-12          # boundary value is nodal
    assert np.linalg.norm(p - [1.0, 0.0]) < 5.0 * m.h ** 2
    sol2 = solve_dirichlet(C1, m, np.full(len(m.boundary_loop), 0.4))
    s2, p2 = boundary_jet_of(sol2, fr)
    assert abs(s2 - 0.4) < 1e-12 and np.linalg.norm(p2) < 1e-9


def test_isometry_invariance():
    m = build_disk_mesh(1.0, 0.1)
    th = 0.8
    R = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    iso = Isometry(R=R, t=np.array([0.2, -0.5]))
    m2 = transform_mesh(m, iso)
    fb = 0.4 * m.vertices[m.boundary_loop, 0] + 0.1
    sol = solve_dirichlet(PG, m, fb)
    # the pushforward (R_* a)(s, p) = a(s, R^T p), and the pulled-back data
    # on the moved mesh
    def grad(s, p):
        a_s, gp = PG.grad(s, p @ R)
        return a_s, gp @ R.T       # chain rule

    cond2 = replace(PG, fn=lambda s, p: PG.fn(s, p @ R), grad=grad)
    sol2 = solve_dirichlet(cond2, m2, fb)
    assert np.abs(sol.u - sol2.u).max() < 1e-10


def test_harmonic_extension_warm_start():
    m = build_disk_mesh(1.0, 0.1)
    fb = m.vertices[m.boundary_loop, 0]
    u = harmonic_extension(m, fb)
    assert np.abs(u - m.vertices[:, 0]).max() < 1e-12
