"""The linearized problem and its boundary flux map.

The linearized stiffness at a base solution is the forward Newton
Jacobian, which central differences of the residual confirm at second
order in the step; solving it against boundary data gives the
derivative of the nonlinear measurement map, which the difference
quotients of the forward solver confirm at first order.
"""

import numpy as np

from qcond.conductivity import preset_p_gauss
from qcond.forward import solve_dirichlet
from qcond.geometry import build_disk_mesh
from qcond.linearized import FD_MIN_RATIO, LinearizedOperator, fd_derivative_check, jacobian_check

cond = preset_p_gauss(0.25)
mesh = build_disk_mesh(1.0, 0.05)
theta = np.arctan2(mesh.vertices[mesh.boundary_loop, 1],
                   mesh.vertices[mesh.boundary_loop, 0])
f = 0.5 * np.cos(2 * theta)
h = np.cos(theta)

base = solve_dirichlet(cond, mesh, f)
op = LinearizedOperator.at_base(cond, base)

print("difference quotient (u[f+th] - u[f])/t against the linearized solve:")
print(f"{'t':>8} {'max error':>12} {'ratio':>8}")
rows, ok = fd_derivative_check(base, op, h, (1e-1, 1e-2, 1e-3))
for t, err, ratio in rows:
    print(f"{t:8.0e} {err:12.3e} {'' if ratio is None else f'{ratio:8.1f}':>8}")
print(f"first order (every ratio above {FD_MIN_RATIO:g}): {ok}")

errs, _ = jacobian_check(base, op)
print(f"\nlinearized stiffness vs central differences of the residual: "
      f"relative error {errs[0]:.1e} at eps = 1e-4, {errs[1]:.1e} at 1e-5")
print(f"linearized flux: total {op.dn_flux(h).sum():.2e} (divergence form)")
