"""The metric / effective-conductivity dictionary of the linearized operator.

In 2D the symmetric coefficient matrix factors as a_ij = sigma G^{ij}
with det G = 1: the metric direction of the problem is carried by G and
a scalar effective conductivity sigma = sqrt(det a_ij) remains.  The
drift folds into a magnetic covector and potential, and the skew part
of the flux into an antisymmetric tensor whose boundary pairing the
normal identity pins down.
"""

import numpy as np

from qcond.geometric import (geometric_data, metric_from_linearized,
                             normal_identity_residual, operator_equivalence_residual)
from qcond.geometry import build_disk_mesh

print("pointwise dictionary for a_ij = diag(4, 1):")
G, g, sigma = metric_from_linearized(np.diag([4.0, 1.0]))
print(f"  sigma = {sigma} (sigma^2 = det a = {sigma**2})")
print(f"  G = diag{tuple(np.diag(G))}, det G = {np.linalg.det(G):.1f}")
print(f"  sigma * G == a_ij:  {np.allclose(sigma * G, np.diag([4.0, 1.0]))}")

rng = np.random.default_rng(0)
worst = 0.0
for _ in range(200):
    B = rng.normal(size=(2, 2))
    S = B @ B.T + 0.5 * np.eye(2)
    m = rng.normal()
    nu = rng.normal(size=2)
    nu /= np.linalg.norm(nu)
    worst = max(worst, normal_identity_residual(S, np.array([[0, m], [-m, 0]]), nu))
print(f"\nboundary flux identity over 200 random points: worst residual {worst:.2e}")

print("\noperator equivalence (divergence form vs magnetic form) under refinement:")
for h in (0.1, 0.05, 0.025):
    mesh = build_disk_mesh(1.0, h)
    x = mesh.centroids
    aij = np.empty((len(x), 2, 2))
    aij[:, 0, 0] = 2.0 + 0.3 * x[:, 0]
    aij[:, 1, 1] = 1.5 + 0.2 * x[:, 1]
    aij[:, 0, 1] = aij[:, 1, 0] = 0.1 * x[:, 0] * x[:, 1]
    b = np.stack([0.05 * x[:, 1], -0.04 * x[:, 0]], axis=1)
    res = operator_equivalence_residual(mesh, aij, b)
    data = geometric_data(mesh, aij, b)
    print(f"  h={h:<6} relative residual {res:.2e}   "
          f"max|det G - 1| = {np.abs(np.linalg.det(data.G) - 1).max():.1e}")
