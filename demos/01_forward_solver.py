"""Forward solves on the disk: exactness checks and a convergence table.

The solver treats div(a(u, grad u) grad u) = 0 with strong Dirichlet
data by damped Newton on P1 elements.  Affine data is reproduced
exactly; a manufactured solution shows the second-order convergence of
the max nodal error.
"""

import numpy as np

from qcond import build_disk_mesh, convergence_order, dn_map, manufactured_solution, solve_dirichlet
from qcond.conductivity import preset_constant, preset_p_gauss

c1 = preset_constant(1.0)
mesh = build_disk_mesh(1.0, 0.05)
print(f"mesh: {len(mesh.vertices)} vertices, {len(mesh.triangles)} triangles")

# affine data: exact for P1
sol = solve_dirichlet(c1, mesh, lambda x: x[:, 0])
print(f"affine data   max error {np.abs(sol.u - mesh.vertices[:, 0]).max():.2e} "
      f"({sol.newton_iters - 1} Newton steps)")

# boundary flux of the harmonic x1: cos(theta) on the unit circle
theta = np.arctan2(mesh.vertices[mesh.boundary_loop, 1],
                   mesh.vertices[mesh.boundary_loop, 0])
print(f"flux density  max error vs cos(theta): "
      f"{np.abs(dn_map(sol) - np.cos(theta)).max():.2e}, "
      f"total flux {sol.flux_coeffs.sum():.1e}")

# manufactured solution for the quasilinear model a = 1 + exp(-|p|^2)/4
pg = preset_p_gauss(0.25)
hs = (0.1, 0.05, 0.025)
errs, order, _ = convergence_order(pg, [build_disk_mesh(1.0, h) for h in hs],
                                   *manufactured_solution(pg))

print("\nmanufactured-solution study (a = 1 + exp(-|grad u|^2)/4):")
print(f"{'h':>8} {'max error':>12}")
for h, err in zip(hs, errs):
    print(f"{h:8.3f} {err:12.3e}")
print(f"least-squares convergence order: {order:.2f}")
