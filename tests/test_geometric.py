import numpy as np
import pytest

from qcond.geometric import (alpha_tensor, dictionary_check, geometric_data,
                             magnetic_coefficients, metric_from_linearized,
                             normal_identity_residual, operator_equivalence_residual,
                             recovered_gradient)
from qcond.geometry import build_disk_mesh


def test_metric_identity_cases():
    G, g, sigma = metric_from_linearized(np.eye(2))
    assert sigma == 1.0
    assert np.allclose(G, np.eye(2)) and np.allclose(g, np.eye(2))


def test_metric_diag_example():
    # det a = 4: G normalizes to unit determinant, sigma carries the rest
    G, g, sigma = metric_from_linearized(np.diag([4.0, 1.0]))
    assert sigma ** 2 == pytest.approx(4.0)
    assert np.allclose(G, np.diag([2.0, 0.5]))
    assert np.linalg.det(G) == pytest.approx(1.0)
    assert np.allclose(g, np.diag([0.5, 2.0]))
    assert np.allclose(sigma * G, np.diag([4.0, 1.0]))    # sigma G = a_ij


def test_metric_n3_round_trip():
    a = np.diag([1.0, 1.0, 4.0])
    G, g, sigma = metric_from_linearized(a)
    assert sigma is None
    assert np.allclose(G, np.diag([0.25, 0.25, 1.0]))
    # round trip: (det G)^{-1/2} G recovers a
    assert np.allclose(np.linalg.det(G) ** -0.5 * G, a)


def test_metric_rejects_indefinite():
    with pytest.raises(ValueError):
        metric_from_linearized(np.diag([1.0, -1.0]))


def test_alpha_examples_and_antisymmetry():
    assert np.allclose(alpha_tensor(np.zeros((2, 2)), np.eye(2)), 0.0)
    al = alpha_tensor(np.array([[0.0, 0.7], [-0.7, 0.0]]), np.eye(2))
    assert np.allclose(al, [[0.0, 0.7], [-0.7, 0.0]])


def test_normal_identity_pointwise():
    # a = I: both sides reduce to the plain normal derivative; random
    # points are dictionary_check's normal_identity metric
    assert normal_identity_residual(np.eye(2), np.zeros((2, 2)),
                                    np.array([0.0, -1.0])) < 1e-15
    # the functional vanishes on e1 (S_21 + A_21 = 0): its roundoff there
    # counts against the functional's size, not against zero
    S, A = np.array([[1.7, 0.45], [0.45, 2.9]]), np.array([[0.0, 0.45], [-0.45, 0.0]])
    assert normal_identity_residual(S, A, np.array([0.0, 1.0])) < 1e-12


def test_tangential_data_only_property():
    # the antisymmetric flux annihilates the normal part of the gradient
    S = np.diag([2.0, 0.7])
    m = 0.4
    A = np.array([[0.0, m], [-m, 0.0]])
    nu = np.array([0.0, -1.0])
    assert abs(nu @ A @ nu) < 1e-15
    tau = np.array([1.0, 0.0])
    assert abs(nu @ A @ tau - m * (nu[0] * tau[1] - nu[1] * tau[0])) < 1e-15


def test_recovered_gradient_linear_exact():
    m = build_disk_mesh(1.0, 0.1)
    x = m.centroids
    f = 0.3 + 2.0 * x[:, 0] - 1.1 * x[:, 1]
    g = recovered_gradient(m, f)
    interior = np.linalg.norm(x, axis=1) < 0.8
    assert np.abs(g[interior] - [2.0, -1.1]).max() < 1e-9


def test_magnetic_coefficients_hand_formula():
    # b = 0, a_ij = c(x) I: sigma = c, G = I, A = grad(c) / (2c), q ~ 0 residual
    m = build_disk_mesh(1.0, 0.1)
    x = m.centroids
    c = 1.0 + 0.3 * x[:, 0] + 0.1 * x[:, 1] ** 2
    aij = c[:, None, None] * np.eye(2)
    G, g, sigma = metric_from_linearized(aij)
    A_lower, q = magnetic_coefficients(m, np.zeros((len(x), 2)), sigma, g, G)
    grad_c = np.stack([0.3 * np.ones(len(x)), 0.2 * x[:, 1]], axis=1)
    interior = np.linalg.norm(x, axis=1) < 0.8
    assert np.abs(A_lower - grad_c / (2 * c[:, None]))[interior].max() < 5e-3
    # trivial fields give trivial coefficients
    A0, q0 = magnetic_coefficients(m, np.zeros((len(x), 2)), np.ones(len(x)),
                                   np.broadcast_to(np.eye(2), (len(x), 2, 2)),
                                   np.broadcast_to(np.eye(2), (len(x), 2, 2)))
    assert np.abs(A0).max() < 1e-11 and np.abs(q0).max() < 1e-11


def synthetic_fields(m):
    x = m.centroids
    aij = np.empty((len(x), 2, 2))
    aij[:, 0, 0] = 2.0 + 0.3 * x[:, 0]
    aij[:, 1, 1] = 1.5 + 0.2 * x[:, 1]
    aij[:, 0, 1] = aij[:, 1, 0] = 0.1 * x[:, 0] * x[:, 1]
    b = np.stack([0.05 * x[:, 1], -0.04 * x[:, 0]], axis=1)
    return aij, b


def test_operator_equivalence_refines():
    res = []
    for h in (0.1, 0.05):
        m = build_disk_mesh(1.0, h)
        res.append(operator_equivalence_residual(m, *synthetic_fields(m)))
    assert res[0] < 1e-2
    assert res[1] < 0.75 * res[0]


def test_det_G_normalized_on_solution_fields():
    from qcond.conductivity import preset_p_gauss, linearized_conductivity
    from qcond.forward import _triangle_state, solve_dirichlet
    pg = preset_p_gauss(0.25)
    m = build_disk_mesh(1.0, 0.1)
    th = np.arctan2(m.vertices[m.boundary_loop, 1], m.vertices[m.boundary_loop, 0])
    sol = solve_dirichlet(pg, m, 0.5 * np.cos(2 * th))
    ubar, gradu = _triangle_state(m, sol.u)
    aij = linearized_conductivity(pg, ubar, gradu.T)
    b = np.zeros((len(m.triangles), 2))
    metrics, ok = dictionary_check(m, aij, b, np.random.default_rng(8))
    assert ok, metrics
    assert metrics["det_G"] < 1e-10 and metrics["sigma_G"] < 1e-12
    assert metrics["normal_identity"] < 1e-12
    assert geometric_data(m, aij, b).q.shape == (len(m.triangles),)


def test_dictionary_check_fails_on_a_rough_field():
    # patch recovery cannot differentiate a per-triangle random a11, so the
    # two operator forms disagree while the pointwise algebra still holds
    m = build_disk_mesh(1.0, 0.1)
    rng = np.random.default_rng(0)
    aij = np.tile(np.eye(2), (len(m.triangles), 1, 1))
    aij[:, 0, 0] = rng.uniform(1.0, 1.5, len(m.triangles))
    metrics, ok = dictionary_check(m, aij, np.zeros((len(m.triangles), 2)), rng)
    assert not ok and metrics["operator_equivalence"] > 1e-2, metrics
    assert metrics["det_G"] < 1e-10 and metrics["normal_identity"] < 1e-12
