"""The metric / effective-conductivity dictionary of the linearized operator.

In 2D the symmetric coefficient matrix factors as a_ij = sigma G^{ij}
with det G = 1: the metric direction of the problem is carried by G and
a scalar effective conductivity sigma = sqrt(det a_ij) remains.  The
drift folds into a magnetic covector and potential, and the skew part
of the flux into an antisymmetric tensor whose boundary pairing the
normal identity pins down.
"""

import numpy as np

from qcond.geometric import dictionary_check, metric_from_linearized
from qcond.geometry import build_disk_mesh

print("pointwise dictionary for a_ij = diag(4, 1):")
G, g, sigma = metric_from_linearized(np.diag([4.0, 1.0]))
print(f"  sigma = {sigma} (sigma^2 = det a = {sigma**2})")
print(f"  G = diag{tuple(np.diag(G))}, det G = {np.linalg.det(G):.1f}")
print(f"  sigma * G == a_ij:  {np.allclose(sigma * G, np.diag([4.0, 1.0]))}")

print("\nthe dictionary check of a smooth field (a_ij, b) under refinement:")
rng = np.random.default_rng(0)
for h in (0.1, 0.05, 0.025):
    mesh = build_disk_mesh(1.0, h)
    x = mesh.centroids
    aij = np.empty((len(x), 2, 2))
    aij[:, 0, 0] = 2.0 + 0.3 * x[:, 0]
    aij[:, 1, 1] = 1.5 + 0.2 * x[:, 1]
    aij[:, 0, 1] = aij[:, 1, 0] = 0.1 * x[:, 0] * x[:, 1]
    b = np.stack([0.05 * x[:, 1], -0.04 * x[:, 0]], axis=1)
    metrics, ok = dictionary_check(mesh, aij, b, rng)
    print(f"  h={h:<6} " + ", ".join(f"{k} {v:.1e}" for k, v in metrics.items())
          + f"  pass: {ok}")
