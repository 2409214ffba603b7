"""P1 finite-element solver for the quasilinear Dirichlet problem.

Solves div(a(u, grad u) grad u) = source with strong Dirichlet data by a
damped Newton iteration.  The Newton Jacobian is assembled exactly from
the linearized coefficient fields (the symmetric matrix a_ij plus the
a_s drift), so it coincides with the linearized operator used by the
measurement layer.

One-point quadrature per triangle: grad u is triangle-constant and u is
taken as the vertex average, which keeps the Jacobian exact and sparse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .conductivity import ConductivitySpec, evaluate_with_derivatives
from .geometry import Mesh, BoundaryFrame


class SolveError(RuntimeError):
    """Newton failed to converge; the jet/data is outside the solvable regime."""


def boundary_values(mesh: Mesh, f) -> np.ndarray:
    """Boundary data as values over mesh.boundary_loop (callable or array)."""
    if callable(f):
        return np.asarray(f(mesh.vertices[mesh.boundary_loop]), dtype=float)
    f = np.asarray(f, dtype=float)
    if f.shape != mesh.boundary_loop.shape:
        raise ValueError("boundary data length does not match the boundary loop")
    return f


def coefficient_fields(cond: ConductivitySpec, mesh: Mesh, u: np.ndarray):
    """Per-triangle (a, M, w): flux matrix M = a I + grad_u (x) grad_p a
    and drift w = a_s grad_u, evaluated at vertex-average u and the
    triangle-constant gradient."""
    tri = mesh.triangles
    ubar = u[tri].mean(axis=1)
    grad = np.einsum("ti,tik->tk", u[tri], mesh.hat_gradients)
    a, a_s, gp = evaluate_with_derivatives(cond, ubar, grad)
    M = a[:, None, None] * np.eye(2) + grad[:, :, None] * gp[:, None, :]
    w = a_s[:, None] * grad
    return a, grad, M, w


def assemble_linear(mesh: Mesh, M: np.ndarray, w: Optional[np.ndarray] = None) -> sp.csr_matrix:
    """Stiffness of v -> -div(M grad v + w v) with per-triangle M, w.

    Row i, column j carries  area * [g_i . (M g_j) + (w . g_i)/3].
    """
    g = mesh.hat_gradients
    area = mesh.areas
    blocks = np.einsum("t,tik,tkl,tjl->tij", area, g, M, g)
    if w is not None:
        blocks = blocks + (area / 3.0)[:, None, None] * np.einsum("tk,tik->ti", w, g)[:, :, None] * np.ones((1, 1, 3))
    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    n = len(mesh.vertices)
    return sp.csr_matrix((blocks.ravel(), (rows, cols)), shape=(n, n))


def assemble_residual(cond: ConductivitySpec, mesh: Mesh, u: np.ndarray,
                      source: Optional[Callable] = None):
    """Galerkin residual of the quasilinear operator at u, all rows.

    With a source g the equation solved is div(a(u, grad u) grad u) = g,
    whose weak interior form is <a grad u, grad phi> + <g, phi> = 0; the
    boundary rows then carry exactly the outward flux pairings.

    Returns (R, flux_scale) where flux_scale is the L2 norm of the flux
    field a grad u, the natural scale for relative tolerances.
    """
    a, grad, _, _ = coefficient_fields(cond, mesh, u)
    flux = a[:, None] * grad
    r_loc = np.einsum("t,tk,tik->ti", mesh.areas, flux, mesh.hat_gradients)
    R = np.zeros(len(mesh.vertices))
    np.add.at(R, mesh.triangles.ravel(), r_loc.ravel())
    if source is not None:
        R += load_vector(mesh, source)
    scale = float(np.sqrt(np.sum(mesh.areas * np.sum(flux * flux, axis=1))))
    return R, scale


def assemble_jacobian(cond: ConductivitySpec, mesh: Mesh, u: np.ndarray) -> sp.csr_matrix:
    """Exact Newton Jacobian at u; equals the linearized stiffness."""
    _, _, M, w = coefficient_fields(cond, mesh, u)
    return assemble_linear(mesh, M, w)


def load_vector(mesh: Mesh, source: Callable) -> np.ndarray:
    """<source, hat_i> by the edge-midpoint rule (degree-2 exact)."""
    v = mesh.vertices[mesh.triangles]            # (T, 3, 2)
    mids = 0.5 * (v + np.roll(v, -1, axis=1))    # midpoint m_k opposite vertex k+2
    gvals = np.asarray(source(mids.reshape(-1, 2)), dtype=float).reshape(mids.shape[:2])
    # hat_i = 1/2 on the two midpoints adjacent to vertex i, 0 opposite
    loc = (mesh.areas / 3.0)[:, None] * 0.5 * (gvals + np.roll(gvals, 1, axis=1))
    b = np.zeros(len(mesh.vertices))
    np.add.at(b, mesh.triangles.ravel(), loc.ravel())
    return b


def _splu(block, permc_spec: str):
    # threshold pivoting keeps the diagonal pivots of the near-symmetric
    # P1 blocks, so the column order decides the fill
    return spla.splu(block.tocsc(), permc_spec=permc_spec, diag_pivot_thresh=0.1,
                     options=dict(SymmetricMode=True))


def _laplace_factor(mesh: Mesh):
    """Laplace LU of the interior block, its boundary coupling, and the
    interior vertices in the LU's fill-reducing order.

    Every interior block on the mesh has the P1 pattern of this one, so
    its minimum-degree ordering on A^T + A serves them all.
    """
    if "laplace_lu" not in mesh._cache:
        K = assemble_linear(mesh, np.broadcast_to(np.eye(2), (len(mesh.triangles), 2, 2)))
        ii = mesh.interior_idx
        bb = mesh.boundary_loop
        lu = _splu(K[ii][:, ii], "MMD_AT_PLUS_A")
        mesh._cache["laplace_lu"] = (lu, K[ii][:, bb], ii[np.argsort(lu.perm_c)])
    return mesh._cache["laplace_lu"]


def factor_interior(mesh: Mesh, A: sp.spmatrix):
    """LU of the interior block of a full-mesh matrix in the mesh's order.

    Returns (lu, order): ``lu`` factors ``A[order][:, order]``, so
    right-hand sides are taken, and solutions scattered, at ``order``.
    """
    order = _laplace_factor(mesh)[2]
    return _splu(A[order][:, order], "NATURAL"), order


def harmonic_extension(mesh: Mesh, f) -> np.ndarray:
    """Discrete harmonic extension of boundary data (Newton warm start)."""
    fb = boundary_values(mesh, f)
    lu, K_ib, _ = _laplace_factor(mesh)
    u = np.zeros(len(mesh.vertices))
    u[mesh.boundary_loop] = fb
    if len(mesh.interior_idx):
        u[mesh.interior_idx] = lu.solve(-K_ib @ fb)
    return u


@dataclass
class DiscreteSolution:
    """Converged FEM solution with its boundary data and diagnostics."""
    mesh: Mesh
    cond: ConductivitySpec
    u: np.ndarray
    f: np.ndarray                      # boundary values over boundary_loop
    newton_iters: int
    residual_norm: float
    converged: bool
    source: Optional[Callable] = None
    jacobian: Optional[sp.csr_matrix] = field(default=None, repr=False)
    history: list = field(default_factory=list, repr=False)


def solve_dirichlet(cond: ConductivitySpec, mesh: Mesh, f,
                    source: Optional[Callable] = None,
                    tol: float = 1e-10, max_iter: int = 50,
                    initial_guess: Optional[np.ndarray] = None,
                    raise_on_fail: bool = True) -> DiscreteSolution:
    """Damped Newton solve of the quasilinear Dirichlet problem.

    Boundary data is imposed strongly.  The iteration starts from the
    discrete harmonic extension of f (or a caller-provided guess) and
    backtracks on the interior residual norm.  Non-convergence signals
    data outside the solvable regime; it raises SolveError unless
    ``raise_on_fail`` is cleared, in which case the partial state is
    returned with ``converged=False``.
    """
    fb = boundary_values(mesh, f)
    ii = mesh.interior_idx
    if initial_guess is not None:
        u = initial_guess.copy()
        u[mesh.boundary_loop] = fb
    else:
        u = harmonic_extension(mesh, fb)

    R, scale = assemble_residual(cond, mesh, u, source)
    rnorm = np.linalg.norm(R[ii])
    history = [float(rnorm)]
    # roundoff floor: constants make the flux scale vanish identically
    atol = 1e-13 * (1.0 + np.abs(fb).max())
    J = None
    it = 0
    for it in range(1, max_iter + 1):
        if rnorm <= tol * scale + atol:
            break
        J = assemble_jacobian(cond, mesh, u)
        lu, order = factor_interior(mesh, J)
        du = lu.solve(-R[order])
        alpha = 1.0
        for _ in range(12):
            u_try = u.copy()
            u_try[order] += alpha * du
            R_try, scale_try = assemble_residual(cond, mesh, u_try, source)
            r_try = np.linalg.norm(R_try[ii])
            if r_try <= (1.0 - 1e-4 * alpha) * rnorm:
                break
            alpha *= 0.5
        else:
            break  # no decrease at the smallest step: stop and report
        u, R, rnorm, scale = u_try, R_try, r_try, scale_try
        history.append(float(rnorm))
    converged = rnorm <= tol * scale + atol
    if not converged and raise_on_fail:
        raise SolveError(f"Newton stalled after {it} iterations, "
                         f"residual {rnorm:.3e} vs scale {scale:.3e}")
    # the loop's J lags one update; the linearization layer needs the
    # operator at the converged state
    J = assemble_jacobian(cond, mesh, u)
    return DiscreteSolution(mesh=mesh, cond=cond, u=u, f=fb, newton_iters=it,
                            residual_norm=float(rnorm), converged=converged,
                            source=source, jacobian=J, history=history)


@dataclass
class FluxDensity:
    """Boundary flux of a solution: a(u, grad u) du/dnu per unit arclength.

    ``coeffs`` are the variational pairings against boundary hats (the
    residual rows at boundary vertices); ``density`` divides by the hat
    arclength masses.  Both follow boundary_loop order.
    """
    mesh: Mesh
    coeffs: np.ndarray
    density: np.ndarray

    def total(self) -> float:
        return float(self.coeffs.sum())

    def edge_values(self) -> np.ndarray:
        return 0.5 * (self.density + np.roll(self.density, -1))


def dn_map(cond: ConductivitySpec, sol: DiscreteSolution) -> FluxDensity:
    """Boundary flux density of a converged solution (variational form)."""
    R, _ = assemble_residual(cond, sol.mesh, sol.u, sol.source)
    coeffs = R[sol.mesh.boundary_loop]
    return FluxDensity(sol.mesh, coeffs, coeffs / sol.mesh.vertex_weights)


def _tangential_derivative(mesh: Mesh, values: np.ndarray, loop_pos: int) -> float:
    """d(values)/d(arclength) at a loop vertex via a local quadratic fit."""
    npts = len(mesh.boundary_loop)
    arc = mesh.arclength
    per = mesh.perimeter
    idx = [(loop_pos - 1) % npts, loop_pos, (loop_pos + 1) % npts]
    s = np.array([arc[i] for i in idx])
    # unwrap across the arclength origin
    s = np.where(s - arc[loop_pos] > per / 2, s - per, s)
    s = np.where(s - arc[loop_pos] < -per / 2, s + per, s)
    c = np.polyfit(s - arc[loop_pos], values[idx], 2)
    return float(c[1])


def boundary_jet_of(sol: DiscreteSolution, frame: BoundaryFrame,
                    flux: Optional[FluxDensity] = None):
    """Recover the solution jet (s, p) at a boundary frame.

    s and the tangential slope come from the boundary data itself; the
    normal slope q solves  a(s, p_t tau + q nu) q = flux density, a
    scalar equation that is strictly increasing in q by ellipticity.
    """
    mesh = sol.mesh
    s = float(sol.u[frame.vertex])
    p_t = _tangential_derivative(mesh, sol.u[mesh.boundary_loop], frame.loop_pos)
    if flux is None:
        flux = dn_map(sol.cond, sol)
    rho = float(flux.density[frame.loop_pos])

    def a_of(q):
        p = p_t * frame.tau + q * frame.nu
        a, _, gp = evaluate_with_derivatives(sol.cond, s, p)
        return float(a), float(gp @ frame.nu)

    a0, _ = a_of(0.0)
    q = rho / a0
    for _ in range(50):
        a, dq = a_of(q)
        F = a * q - rho
        if abs(F) <= 1e-13 * (1.0 + abs(rho)):
            break
        dF = a + q * dq
        if dF <= 0:
            raise SolveError("normal-slope extraction lost monotonicity (a_nn <= 0)")
        q -= F / dF
    else:
        raise SolveError("normal-slope fixed point did not converge")
    return s, p_t * frame.tau + q * frame.nu


def save_solution(sol: DiscreteSolution, path):
    """Plain-text dump: `u <vertex-index> <value>` lines."""
    with open(path, "w") as fh:
        for i, val in enumerate(sol.u):
            fh.write(f"u {i} {float(val)!r}\n")


def save_flux(flux: FluxDensity, path):
    """Plain-text dump: `flux <edge-index> <value>` lines."""
    vals = flux.edge_values()
    with open(path, "w") as fh:
        for i, val in enumerate(vals):
            fh.write(f"flux {i} {float(val)!r}\n")
