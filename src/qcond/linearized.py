"""Linearized Dirichlet solves and the linearized boundary flux map.

The linearized stiffness at a base solution is the forward Newton
Jacobian.  It is assembled once and reused across many boundary data.
Data come one vector or one (n_boundary, K) block at a time: a frame's
probes at all frequencies are one multi-column solve, their real and
imaginary parts side by side.  At a base the interior block is solved by
GMRES preconditioned with the mesh's Laplace LU, which the operator
a I + grad u (x) grad_p a stays spectrally close to along a
reconstruction chain (it equals a(s, 0) K at q = 0).  Right-preconditioned
GMRES is invariant when the preconditioner is scaled, so a(s, 0) needs
no estimate.  A chain then factors nothing beyond that one LU per mesh,
unless a block misses its target.

Along a chain every node probes the same block of data while the
operator changes a little, so the chain's earlier block solutions are
recycled: each column starts from the least-squares combination of the
same column of the last RECYCLE_DEPTH solutions, the projection start of
Fischer (CMAME 163, 1998), the simplest form of Krylov recycling (Parks,
de Sturler et al., SIAM J. Sci. Comput. 28, 2006).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .conductivity import ConductivitySpec
from .forward import (DiscreteSolution, _laplace_factor, assemble_jacobian,
                      assemble_linear, assemble_residual, boundary_values, factor_interior,
                      krylov_or_factor, lift, solve_dirichlet)
from .geometry import Mesh

# A preconditioned solve must bring every column's interior residual
# below LINEAR_RTOL times that column's right-hand side within
# forward.KRYLOV_MAX_ITER iterations; on the first block that misses, the
# operator factors its own interior block and solves directly from then on.
LINEAR_RTOL = 1e-10
# a chain's GMRES operators start from its latest RECYCLE_DEPTH block
# solutions
RECYCLE_DEPTH = 3
# fd_derivative_check passes when each error falls FD_MIN_RATIO-fold per
# step of t (O(t) gives 10 per decade) or is below the solver's FD_FLOOR
FD_MIN_RATIO = 5.0
FD_FLOOR = 1e-9


def _recycled_start(A, rhs: np.ndarray, history) -> Optional[np.ndarray]:
    """GMRES start for A x = rhs from earlier solutions of like blocks.

    Column c starts from G y, G holding column c of the history blocks of
    rhs's shape, newest first (blocks of another shape are ignored), and
    y minimizing |rhs_c - A G y|: one Householder QR of [A G, rhs_c] per
    column, batched over the columns, leaves y's triangular system in its
    R.  Where R is singular to working precision y keeps only the blocks
    before the first negligible pivot, since that leading block of R is
    the QR of those blocks alone.  A node whose start met its target adds
    a solution in the span of its history, so this is common; repeated
    or zero blocks are the extreme cases, and a zero newest block gives
    the start 0.  None when no block fits.
    """
    blocks = [G for G in reversed(history) if G.shape == rhs.shape][:RECYCLE_DEPTH]
    if not blocks:
        return None
    n, d = len(rhs), len(blocks)
    B = rhs.reshape(n, -1)
    # [A G, rhs_c] for every column c as a (d + 1, n) slab: the matrix in
    # the column-major layout LAPACK factors
    M = np.empty((B.shape[1], d + 1, n))
    for j, blk in enumerate(blocks):
        M[:, j] = (A @ blk.reshape(n, -1)).T
    M[:, d] = B.T
    R = np.linalg.qr(M.transpose(0, 2, 1), mode="r")                 # (m, d + 1, d + 1)
    diag = np.abs(R[:, np.arange(d), np.arange(d)])
    # the rank tolerance of np.linalg.matrix_rank
    big = diag > n * np.finfo(float).eps * diag.max(axis=1, keepdims=True)
    kept = np.cumprod(big, axis=1).sum(axis=1)
    y = np.zeros(diag.shape)
    for k in np.unique(kept[kept > 0]):
        c = kept == k
        y[c, :k] = np.linalg.solve(R[c, :k, :k], R[c, :k, d, None])[..., 0]
    return sum(blk.reshape(n, -1) * y[:, j] for j, blk in enumerate(blocks)).reshape(rhs.shape)


class LinearizedOperator:
    """Linearized operator with a many-RHS flux evaluator.

    By default it factors its interior block and solves directly.  With
    ``krylov`` it solves by GMRES preconditioned with the mesh's Laplace
    LU until a block misses LINEAR_RTOL (``forward.krylov_or_factor``),
    each block started from ``_recycled_start`` of the operator's history
    (empty unless given to ``at_base``); ``solution`` then holds the
    latest interior block solution, for the next operator's history.
    ``factorizations`` counts the LUs it made, ``krylov_iters`` its GMRES
    iterations summed over columns.
    """

    def __init__(self, mesh: Mesh, J_full, krylov: bool = False):
        self.mesh = mesh
        self.J = J_full.tocsr()
        ni = mesh.n_interior
        self._J_ib = self.J[:ni, ni:]
        self._J_b = self.J[ni:]
        self.krylov_iters = 0
        self._history, self.solution = (), None
        # GMRES solves on the interior block until the operator has its own LU
        self._A = self.J[:ni, :ni] if krylov else None
        self._lu = None if krylov else factor_interior(mesh, self.J)
        self.factorizations = 0 if krylov else 1

    @classmethod
    def at_base(cls, cond: ConductivitySpec, base: DiscreteSolution,
                history=()) -> "LinearizedOperator":
        """Operator at a base, solved by GMRES on the mesh's Laplace LU and
        started from ``history``, earlier interior block solutions oldest
        first (a chain's)."""
        op = cls(base.mesh, assemble_jacobian(cond, base.mesh, base.u), krylov=True)
        op._history = tuple(history)
        return op

    @classmethod
    def from_fields(cls, mesh: Mesh, M: np.ndarray, w: Optional[np.ndarray] = None) -> "LinearizedOperator":
        """Operator with prescribed coefficients (probing/tests), factored
        exactly: ``M`` and ``w`` as ``forward.assemble_linear`` takes them,
        constant or one row per component."""
        return cls(mesh, assemble_linear(mesh, M, w))

    def _solve_interior(self, rhs: np.ndarray) -> np.ndarray:
        if self._lu is not None:
            return self._lu.solve(rhs)
        target = LINEAR_RTOL * np.linalg.norm(rhs.reshape(len(rhs), -1), axis=0)
        laplace = _laplace_factor(self.mesh)[0]
        x, k, lu = krylov_or_factor(self.mesh, self._A, rhs, laplace, target,
                                    _recycled_start(self._A, rhs, self._history))
        self.krylov_iters += k
        if lu is not laplace:       # a miss: solve directly from now on
            self._lu, self.factorizations = lu, self.factorizations + 1
        self.solution = x
        return x

    def solve(self, h) -> np.ndarray:
        """Nodal solution with boundary data h, real or complex: one
        vector in loop order, or an (n_boundary, K) block of K columns."""
        return lift(self.mesh, self._solve_interior, self._J_ib, h)

    def flux_coeffs(self, v) -> np.ndarray:
        """Variational flux pairings: the boundary rows of J, times v."""
        return self._J_b @ v

    def dn_flux(self, h) -> np.ndarray:
        """Linearized flux pairings of boundary data h (a vector or an
        (n_boundary, K) block): the derivative of the DN map at the base,
        applied to h."""
        return self.flux_coeffs(self.solve(h))


def fd_derivative_check(base: DiscreteSolution, op: LinearizedOperator, h, t_list):
    """Compare the linearized solution at a base, ``op`` being its
    operator, against difference quotients of the forward solver.

    Returns rows (t, err, ratio), err being the max-norm error of
    (u[f+th]-u[f])/t - v and ratio the previous row's err over this one's
    (None on the first row and where err is below FD_FLOOR), and whether
    they pass: the error decays O(t), so every ratio must exceed
    FD_MIN_RATIO.
    """
    hb = boundary_values(base.mesh, h)
    v = op.solve(hb)
    rows = []
    for t in t_list:
        pert = solve_dirichlet(base.cond, base.mesh, base.f + t * hb, warm_start=base)
        err = float(np.abs((pert.u - base.u) / t - v).max())
        ratio = None if not rows or err < FD_FLOOR else rows[-1][1] / err
        rows.append((float(t), err, ratio))
    return rows, all(r is None or r > FD_MIN_RATIO for _, _, r in rows)


def jacobian_check(base: DiscreteSolution, op: LinearizedOperator):
    """Relative max-norm errors of ``op.J v`` against the central
    differences (R(u + eps v) - R(u - eps v)) / (2 eps) of the residual at
    the base, along a fixed random nodal v, at eps = 1e-4 and 1e-5, and
    whether they pass: the error is O(eps^2), so it must fall 50-fold
    between the two unless it is below the 1e-9 roundoff floor."""
    v = np.random.default_rng(0).standard_normal(len(base.u))
    Jv = op.J @ v
    errs = []
    for eps in (1e-4, 1e-5):
        Rp, Rm = (assemble_residual(base.cond, base.mesh, base.u + d * v)[0] for d in (eps, -eps))
        errs.append(float(np.abs((Rp - Rm) / (2.0 * eps) - Jv).max() / np.abs(Jv).max()))
    return errs, errs[0] >= 50.0 * errs[1] or errs[1] <= 1e-9
