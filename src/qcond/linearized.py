"""Linearized Dirichlet solves and the linearized boundary flux map.

The linearized stiffness at a base solution is the forward Newton
Jacobian; it is assembled once, its interior block (the leading block of
the mesh's numbering) factorized, and reused across many boundary data.
Data come one vector or one (n_boundary, K) block at a time: a frame's
probes at all frequencies are one multi-column solve, their real and
imaginary parts side by side.  The factorization then stays on the base
and preconditions the Newton steps of the next solve warm-started from
it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .conductivity import ConductivitySpec
from .forward import (DiscreteSolution, SolveError, assemble_jacobian, assemble_linear,
                      boundary_values, factor_interior, lift, solve_dirichlet)
from .geometry import Mesh


class LinearizedOperator:
    """Factorized linearized operator with a many-RHS flux evaluator."""

    def __init__(self, mesh: Mesh, J_full):
        self.mesh = mesh
        self.J = J_full.tocsr()
        ni = mesh.n_interior
        self._lu = factor_interior(mesh, self.J)
        self._J_ib = self.J[:ni, ni:]
        self._J_b = self.J[ni:]

    @classmethod
    def at_base(cls, cond: ConductivitySpec, base: DiscreteSolution) -> "LinearizedOperator":
        """Operator at a converged base; its exact LU is left on the base
        to precondition the Newton steps of solves warm-started from it.
        A base that did not converge is outside the solvable regime."""
        if not base.converged:
            raise SolveError("at_base: base solution did not converge")
        op = cls(base.mesh, assemble_jacobian(cond, base.mesh, base.u))
        base.lu = op._lu
        return op

    @classmethod
    def from_fields(cls, mesh: Mesh, M: np.ndarray, w: Optional[np.ndarray] = None) -> "LinearizedOperator":
        """Operator with prescribed per-triangle coefficients (probing/tests)."""
        M = np.broadcast_to(np.asarray(M, dtype=float), (len(mesh.triangles), 2, 2))
        if w is not None:
            w = np.broadcast_to(np.asarray(w, dtype=float), (len(mesh.triangles), 2))
        return cls(mesh, assemble_linear(mesh, M, w))

    def solve(self, h) -> np.ndarray:
        """Nodal solution with boundary data h, real or complex: one
        vector in loop order, or an (n_boundary, K) block of K columns."""
        return lift(self.mesh, self._lu, self._J_ib, h)

    def flux_coeffs(self, v) -> np.ndarray:
        """Variational flux pairings: the boundary rows of J, times v."""
        return self._J_b @ v

    def dn_flux(self, h) -> np.ndarray:
        """Linearized flux pairings of boundary data h (a vector or an
        (n_boundary, K) block): the derivative of the DN map at the base,
        applied to h."""
        return self.flux_coeffs(self.solve(h))


def fd_derivative_check(base: DiscreteSolution, op: LinearizedOperator, h, t_list,
                        tol: float = 1e-10):
    """Compare the linearized solution at a converged base, ``op`` being
    its operator, against difference quotients of the forward solver.

    Returns a list of (t, max-norm error of (u[f+th]-u[f])/t - v); the
    error decays O(t) down to the forward solver floor.
    """
    hb = boundary_values(base.mesh, h)
    v = op.solve(hb)
    rows = []
    for t in t_list:
        pert = solve_dirichlet(base.cond, base.mesh, base.f + t * hb, tol=tol,
                               warm_start=base)
        quot = (pert.u - base.u) / t
        rows.append((float(t), float(np.abs(quot - v).max())))
    return rows
