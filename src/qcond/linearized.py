"""Linearized Dirichlet solves and the linearized boundary flux map.

The linearized stiffness at a base solution is the forward Newton
Jacobian; it is assembled once, factorized, and reused across many
boundary data (the probe sweep pairs hundreds of right-hand sides with
one factorization).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse.linalg as spla

from .conductivity import ConductivitySpec
from .forward import (DiscreteSolution, FluxDensity, SolveError, assemble_jacobian,
                      assemble_linear, boundary_values, factor_interior)
from .geometry import Mesh


class LinearizedOperator:
    """Factorized linearized operator with a many-RHS flux evaluator."""

    def __init__(self, mesh: Mesh, J_full):
        self.mesh = mesh
        self.J = J_full.tocsr()
        # interior rows and columns in the mesh's fill-reducing order
        self._lu, self._order = factor_interior(mesh, self.J)
        self._J_ib = self.J[self._order][:, mesh.boundary_loop].tocsr()
        self._cond_est = None

    @classmethod
    def at_base(cls, cond: ConductivitySpec, base: DiscreteSolution) -> "LinearizedOperator":
        J = base.jacobian if base.jacobian is not None else assemble_jacobian(cond, base.mesh, base.u)
        return cls(base.mesh, J)

    @classmethod
    def from_fields(cls, mesh: Mesh, M: np.ndarray, w: Optional[np.ndarray] = None) -> "LinearizedOperator":
        """Operator with prescribed per-triangle coefficients (probing/tests)."""
        M = np.broadcast_to(np.asarray(M, dtype=float), (len(mesh.triangles), 2, 2))
        if w is not None:
            w = np.broadcast_to(np.asarray(w, dtype=float), (len(mesh.triangles), 2))
        return cls(mesh, assemble_linear(mesh, M, w))

    def solve(self, h) -> np.ndarray:
        """Nodal solution with boundary data h (loop order, real or complex)."""
        mesh = self.mesh
        hb = np.asarray(h)
        v = np.zeros(len(mesh.vertices), dtype=hb.dtype)
        v[mesh.boundary_loop] = hb
        rhs = -self._J_ib @ hb
        if np.iscomplexobj(hb):
            # real and imaginary parts as one two-column solve; the
            # transpose is the column-major layout SuperLU reads uncopied
            x = self._lu.solve(np.vstack((rhs.real, rhs.imag)).T)
            v[self._order] = x[:, 0] + 1j * x[:, 1]
        else:
            v[self._order] = self._lu.solve(rhs)
        return v

    def flux_coeffs(self, v) -> np.ndarray:
        """Variational flux pairings (J v restricted to boundary rows)."""
        return (self.J @ v)[self.mesh.boundary_loop]

    def dn_flux(self, h) -> np.ndarray:
        return self.flux_coeffs(self.solve(h))

    def condition_estimate(self) -> float:
        """1-norm condition estimate of the interior block (solvability proxy)."""
        if self._cond_est is None:
            A = self.J[self._order][:, self._order]
            n = len(self._order)
            inv = spla.LinearOperator((n, n), matvec=self._lu.solve,
                                      rmatvec=lambda x: self._lu.solve(x, trans="T"))
            self._cond_est = float(spla.onenormest(A) * spla.onenormest(inv))
        return self._cond_est


@dataclass
class LinearizedSolve:
    """Solution of the linearized Dirichlet problem at a base solution."""
    base: DiscreteSolution
    operator: LinearizedOperator
    h: np.ndarray
    v: np.ndarray


def solve_linearized(cond: ConductivitySpec, base: DiscreteSolution, h,
                     operator: Optional[LinearizedOperator] = None,
                     max_condition: float = 1e12,
                     check_condition: bool = False) -> LinearizedSolve:
    """Solve the linearized problem at a converged base solution.

    The stiffness is the Newton Jacobian at the base.  An ill-conditioned
    interior block (estimate beyond ``max_condition``) marks the base as
    outside the solvable regime.
    """
    if not base.converged:
        raise SolveError("solve_linearized: base solution did not converge")
    op = operator or LinearizedOperator.at_base(cond, base)
    if check_condition and op.condition_estimate() > max_condition:
        raise SolveError(f"linearized system too ill-conditioned "
                         f"(estimate {op.condition_estimate():.2e})")
    hb = boundary_values(base.mesh, h) if not np.iscomplexobj(h) else np.asarray(h)
    return LinearizedSolve(base=base, operator=op, h=hb, v=op.solve(hb))


def linearized_dn(cond: ConductivitySpec, lin: LinearizedSolve) -> FluxDensity:
    """Linearized boundary flux density (the derivative of the DN map)."""
    coeffs = lin.operator.flux_coeffs(lin.v)
    return FluxDensity(lin.base.mesh, coeffs, coeffs / lin.base.mesh.vertex_weights)


def fd_derivative_check(cond: ConductivitySpec, mesh: Mesh, f, h, t_list,
                        tol: float = 1e-10):
    """Compare the linearized solution against difference quotients.

    Returns a list of (t, max-norm error of (u[f+th]-u[f])/t - v); the
    error decays O(t) down to the forward solver floor.
    """
    from .forward import solve_dirichlet
    fb = boundary_values(mesh, f)
    hb = boundary_values(mesh, h)
    base = solve_dirichlet(cond, mesh, fb, tol=tol)
    lin = solve_linearized(cond, base, hb)
    rows = []
    for t in t_list:
        pert = solve_dirichlet(cond, mesh, fb + t * hb, tol=tol, initial_guess=base.u.copy())
        quot = (pert.u - base.u) / t
        rows.append((float(t), float(np.abs(quot - lin.v).max())))
    return rows
