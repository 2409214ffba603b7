"""Metric and effective-conductivity dictionary for the linearized operator.

The linearized divergence-form operator is algebraically equivalent to a
magnetic Schrodinger operator: a dual metric G built from the symmetric
coefficient matrix (so that det G = 1 in 2D, with the leftover scalar
sigma = det a_ij acting as an effective conductivity), a magnetic
covector absorbing the drift, a scalar potential, and an antisymmetric
(1,1) tensor carrying the skew part of the flux.  These are pointwise
formulas per triangle; derivatives of the per-triangle fields are
obtained by least-squares patch recovery over vertex stars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Mesh


# ---------------------------------------------------------------------------
# pointwise metric algebra
# ---------------------------------------------------------------------------

def metric_from_linearized(aij: np.ndarray):
    """(G, g, sigma) from the symmetric linearized matrix field.

    2D: sigma = sqrt(det a) and G = a / sigma, so that det G = 1 and
    sigma G = a hold simultaneously; the effective conductivity is the
    square root of the determinant invariant (det a = sigma^2), which is
    the normalization under which the divergence identity
    d_i(a_ij v_j) = div_g(sigma grad_g v) and the boundary flux identity
    close exactly.
    n >= 3: G = (det a)^{1/(2-n)} a, g = G^{-1}, sigma = None; this path
    is pure matrix algebra for synthetic inputs.
    """
    a = np.asarray(aij, dtype=float)
    n = a.shape[-1]
    det = np.linalg.det(a)
    if np.any(det <= 0) or np.any(np.linalg.eigvalsh(a)[..., 0] <= 0):
        raise ValueError("metric_from_linearized: matrix field is not positive definite")
    if n == 2:
        sigma = np.sqrt(det)
        G = a / sigma[..., None, None]
        return G, np.linalg.inv(G), sigma
    G = det[..., None, None] ** (1.0 / (2.0 - n)) * a
    return G, np.linalg.inv(G), None


def alpha_tensor(A_anti: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(1,1) tensor alpha^i_j = g_jk A_ik / sqrt(det g)."""
    A = np.asarray(A_anti, dtype=float)
    g = np.asarray(g, dtype=float)
    sqrt_g = np.sqrt(np.linalg.det(g))
    return np.einsum("...ik,...jk->...ij", A, g) / sqrt_g[..., None, None]


def normal_identity_residual(aij: np.ndarray, A_anti: np.ndarray, nu: np.ndarray) -> float:
    """Residual of the boundary flux identity at one point (n = 2).

    Both sides of

        (a_ij nu_i v_j + A_ij nu_i v_j) dS
            = <sigma grad_g v + alpha . grad_g v, nu_g>_g dS_g

    are evaluated independently as linear functionals of grad v on the
    Euclidean basis; the residual is the max norm of their difference
    over the larger functional's max norm, since a component that nearly
    vanishes would magnify roundoff relative to itself.  The identity is
    exact algebra, so the residual is roundoff-level when the dictionary
    is implemented correctly.
    """
    aij = np.asarray(aij, dtype=float)
    A = np.asarray(A_anti, dtype=float)
    nu = np.asarray(nu, dtype=float)
    G, g, sigma = metric_from_linearized(aij)
    alpha = alpha_tensor(A, g)
    nu_G = G @ nu
    norm_G = float(np.sqrt(nu @ nu_G))
    area_ratio = float(np.sqrt(np.linalg.det(g))) * norm_G     # dS_g / dS
    lhs = nu @ (aij + A)
    # column j of G is grad_g of the basis gradient e_j; pair with nu_g in g
    rhs = (sigma * G + alpha @ G).T @ g @ (nu_G / norm_G) * area_ratio
    return float(np.abs(lhs - rhs).max() / max(np.abs(lhs).max(), np.abs(rhs).max(), 1e-30))


def alpha_antisymmetry_residual(rng: np.random.Generator) -> float:
    """Worst failure of alpha to be g-antisymmetric over 100 random trials.

    Each trial draws a metric g = B B^T + 0.3 I, a skew A and vectors V,
    W, and scores |<alpha V, W>_g + <V, alpha W>_g| and the self-pairing
    |<alpha V, V>_g| / (1 + |V|^2); both vanish up to roundoff.
    """
    worst = 0.0
    for _ in range(100):
        B = rng.normal(size=(2, 2))
        g = B @ B.T + 0.3 * np.eye(2)
        m = rng.normal()
        al = alpha_tensor(np.array([[0.0, m], [-m, 0.0]]), g)
        V, W = rng.normal(size=2), rng.normal(size=2)
        worst = max(worst, abs((al @ V) @ g @ W + V @ g @ (al @ W)),
                    abs((al @ V) @ g @ V) / (1 + V @ V))
    return worst


# ---------------------------------------------------------------------------
# least-squares patch recovery of derivatives
# ---------------------------------------------------------------------------

def _recovery_operator(mesh: Mesh):
    """Sparse (n_vertices x n_triangles) map from barycenter values to
    vertex values by area-weighted plane fits over vertex stars.

    The fit structure depends only on the mesh, so one sparse operator
    serves every field; stars too flat for a plane fit (boundary
    corners) degrade to the area-weighted mean.
    """
    if "patch_recovery" in mesh._cache:
        return mesh._cache["patch_recovery"]
    import scipy.sparse as sp

    nv = len(mesh.vertices)
    tri_flat = mesh.triangles.ravel()
    t_idx = np.repeat(np.arange(len(mesh.triangles)), 3)
    w = mesh.areas[t_idx]
    dx = mesh.centroids[t_idx] - mesh.vertices[tri_flat]
    rows = np.stack([np.ones_like(w), dx[:, 0], dx[:, 1]], axis=1)   # (3T, 3)

    N = np.zeros((nv, 3, 3))
    outer = w[:, None, None] * rows[:, :, None] * rows[:, None, :]
    np.add.at(N, tri_flat, outer)
    counts = np.zeros(nv)
    np.add.at(counts, tri_flat, 1.0)

    e0 = np.zeros((nv, 3))
    e0[:, 0] = 1.0
    ok = (counts >= 3) & (np.linalg.det(N) > 1e-14 * np.maximum(counts, 1.0) ** 3
         * np.maximum(N[:, 0, 0], 1e-300) * mesh.h ** 4)
    z = np.zeros((nv, 3))
    if ok.any():
        z[ok] = np.linalg.solve(N[ok], e0[ok][:, :, None])[:, :, 0]
    # fallback: plain area-weighted mean
    wsum = np.zeros(nv)
    np.add.at(wsum, tri_flat, w)
    coeff = np.where(ok[tri_flat], w * np.einsum("ei,ei->e", z[tri_flat], rows),
                     w / wsum[tri_flat])
    R = sp.csr_matrix((coeff, (tri_flat, t_idx)), shape=(nv, len(mesh.triangles)))
    mesh._cache["patch_recovery"] = R
    return R


def recover_vertex_values(mesh: Mesh, tri_field: np.ndarray) -> np.ndarray:
    """Vertex values from a per-triangle field by weighted plane fits."""
    return _recovery_operator(mesh) @ np.asarray(tri_field, dtype=float)


def recovered_gradient(mesh: Mesh, tri_field: np.ndarray) -> np.ndarray:
    """Per-triangle gradient of a per-triangle field via patch recovery."""
    vv = recover_vertex_values(mesh, tri_field)
    return mesh.p1_gradient(vv[mesh.tri_t]).T


# ---------------------------------------------------------------------------
# magnetic Schrodinger coefficients (n = 2 field version)
# ---------------------------------------------------------------------------

@dataclass
class GeometricData:
    """Per-triangle geometric dictionary of a linearized operator."""
    G: np.ndarray
    g: np.ndarray
    sigma: np.ndarray
    A_lower: np.ndarray
    q: np.ndarray


def magnetic_coefficients(mesh: Mesh, b_field: np.ndarray, sigma: np.ndarray,
                          g: np.ndarray, G: np.ndarray):
    """Solve the coefficient system for the magnetic covector and potential.

    2D relations: b^i + G^{ij} d_j sigma = 2 sigma G^{ij} A_j  and
    div b = sigma (div_g A# + |A|_g^2 + q).  Derivatives use patch
    recovery; det g = 1 makes the metric divergence Euclidean.
    """
    b = np.asarray(b_field, dtype=float)
    grad_sigma = recovered_gradient(mesh, sigma)
    rhs = b + np.einsum("tij,tj->ti", G, grad_sigma)
    A_lower = np.einsum("tij,tj->ti", g, rhs) / (2.0 * sigma[:, None])
    A_sharp = np.einsum("tij,tj->ti", G, A_lower)
    div_b = recovered_gradient(mesh, b[:, 0])[:, 0] + recovered_gradient(mesh, b[:, 1])[:, 1]
    div_A = (recovered_gradient(mesh, A_sharp[:, 0])[:, 0]
             + recovered_gradient(mesh, A_sharp[:, 1])[:, 1])
    A_norm2 = np.einsum("ti,ti->t", A_sharp, A_lower)
    q = div_b / sigma - div_A - A_norm2
    return A_lower, q


def geometric_data(mesh: Mesh, aij_field: np.ndarray, b_field: np.ndarray) -> GeometricData:
    G, g, sigma = metric_from_linearized(aij_field)
    A_lower, q = magnetic_coefficients(mesh, b_field, sigma, g, G)
    return GeometricData(G=G, g=g, sigma=sigma, A_lower=A_lower, q=q)


def divergence_form_apply(mesh: Mesh, aij_field: np.ndarray, b_field: np.ndarray,
                          v_grad: np.ndarray, v_hess: np.ndarray, v_val: np.ndarray) -> np.ndarray:
    """L v = d_i(a_ij v_j + b^i v) per triangle, for closed-form v.

    Coefficient derivatives come from patch recovery; v enters through
    its exact gradient/Hessian/value at barycenters.
    """
    a = np.asarray(aij_field, dtype=float)
    b = np.asarray(b_field, dtype=float)
    out = np.einsum("tij,tij->t", a, v_hess)
    for i in range(2):
        for j in range(2):
            out += recovered_gradient(mesh, a[:, i, j])[:, i] * v_grad[:, j]
    div_b = recovered_gradient(mesh, b[:, 0])[:, 0] + recovered_gradient(mesh, b[:, 1])[:, 1]
    out += div_b * v_val + np.einsum("ti,ti->t", b, v_grad)
    return out


def magnetic_form_apply(mesh: Mesh, data: GeometricData,
                        v_grad: np.ndarray, v_hess: np.ndarray, v_val: np.ndarray) -> np.ndarray:
    """sigma Delta_{g,A,q} v per triangle, for closed-form v (n = 2).

    Delta_{g,A,q} v = Delta_g v + 2 <A#, grad_g v> + (div_g A# + |A|^2 + q) v
    with Delta_g v = G^{ij} v_ij + (d_i G^{ij}) v_j since det g = 1.
    """
    G, g, sigma = data.G, data.g, data.sigma
    lap = np.einsum("tij,tij->t", G, v_hess)
    for i in range(2):
        for j in range(2):
            lap += recovered_gradient(mesh, G[:, i, j])[:, i] * v_grad[:, j]
    A_sharp = np.einsum("tij,tj->ti", G, data.A_lower)
    grad_g_v = np.einsum("tij,tj->ti", G, v_grad)
    pairing = 2.0 * np.einsum("ti,tij,tj->t", A_sharp, g, grad_g_v)
    div_A = (recovered_gradient(mesh, A_sharp[:, 0])[:, 0]
             + recovered_gradient(mesh, A_sharp[:, 1])[:, 1])
    A_norm2 = np.einsum("ti,tij,tj->t", A_sharp, g, A_sharp)
    return sigma * (lap + pairing + (div_A + A_norm2 + data.q) * v_val)


def operator_equivalence_residual(mesh: Mesh, aij_field, b_field) -> float:
    """Relative L2 mismatch of the two operator forms on the test function
    v = x1^2/2 + x1 x2 - x2^2/3, evaluated at the barycenters."""
    x = mesh.centroids
    v_val = 0.5 * x[:, 0] ** 2 + x[:, 0] * x[:, 1] - x[:, 1] ** 2 / 3
    v_grad = np.stack([x[:, 0] + x[:, 1], x[:, 0] - 2 * x[:, 1] / 3], axis=1)
    v_hess = np.broadcast_to(np.array([[1.0, 1.0], [1.0, -2.0 / 3.0]]), (len(x), 2, 2))
    lhs = divergence_form_apply(mesh, aij_field, b_field, v_grad, v_hess, v_val)
    data = geometric_data(mesh, aij_field, b_field)
    rhs = magnetic_form_apply(mesh, data, v_grad, v_hess, v_val)
    w = mesh.areas
    num = float(np.sqrt(np.sum(w * (lhs - rhs) ** 2)))
    den = float(np.sqrt(np.sum(w * lhs ** 2)))
    return num / max(den, 1e-30)


# dictionary_check's gate on each metric; sigma G - a_ij is reported only
DICTIONARY_BOUNDS = {"det_G": 1e-10, "normal_identity": 1e-12, "antisymmetry": 1e-12,
                     "operator_equivalence": 1e-2}


def dictionary_check(mesh: Mesh, aij: np.ndarray, b: np.ndarray, rng: np.random.Generator):
    """Metrics of the dictionary of d_i(a_ij v_j + b^i v), for symmetric
    per-triangle ``aij`` (T, 2, 2) and ``b`` (T, 2), and whether each is
    below its DICTIONARY_BOUNDS entry: max |det G - 1| and |sigma G - a_ij|
    over the triangles, the worst normal_identity_residual over 100 random
    points (S, A, nu) drawn from ``rng`` (the identity is pure algebra),
    alpha_antisymmetry_residual of ``rng`` after them, and
    operator_equivalence_residual."""
    G, _, sigma = metric_from_linearized(aij)
    worst_nid = 0.0
    for _ in range(100):
        B = rng.normal(size=(2, 2))
        m = rng.normal()
        ang = rng.uniform(0, 2 * math.pi)
        worst_nid = max(worst_nid, normal_identity_residual(
            B @ B.T + 0.5 * np.eye(2), np.array([[0.0, m], [-m, 0.0]]),
            np.array([math.cos(ang), math.sin(ang)])))
    metrics = {"det_G": float(np.abs(np.linalg.det(G) - 1.0).max()),
               "sigma_G": float(np.abs(sigma[:, None, None] * G - aij).max()),
               "normal_identity": worst_nid,
               "antisymmetry": float(alpha_antisymmetry_residual(rng)),
               "operator_equivalence": operator_equivalence_residual(mesh, aij, b)}
    return metrics, all(metrics[k] < bound for k, bound in DICTIONARY_BOUNDS.items())
