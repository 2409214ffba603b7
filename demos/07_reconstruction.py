"""End-to-end reconstruction of a(s, p) on the small-gradient set.

For each state value and boundary direction the pipeline prescribes
jets with vanishing normal slope along a radial grid of tangential
magnitudes, measures the symbol invariants at each jet, and inverts the
radial identity d/dq [q^2 a^2] = 2 q D.  Directions are realized by
boundary frames of the disk, which is the rotation sweep.
"""

import time

from qcond.conductivity import make_preset
from qcond.geometry import build_disk_mesh
from qcond.harness import recovery_rows, write_csv, RECOVERY_HEADER
from qcond.recovery import PolarGrid, reconstruct

mesh = build_disk_mesh(1.0, 0.05)      # desk-scale demo; acceptance runs h = 0.025
grid = PolarGrid(n_directions=8, n_radii=6)

for expr in ("constant(1)", "s_gauss(0.25)", "p_lorentz(0.2)"):
    cond = make_preset(expr)
    t0 = time.time()
    out = reconstruct(cond, mesh, (-1.0, 0.0, 1.0), grid, jobs=2)
    stats = out.error_stats()
    print(f"{expr:<18} n={stats['n_samples']:<4} failed={stats['n_failed']:<3} "
          f"max={100 * stats['max_rel_err']:5.2f}%  "
          f"median={100 * stats['median_rel_err']:5.2f}%  ({time.time() - t0:.0f}s)")

write_csv("recovery_demo.csv", RECOVERY_HEADER, recovery_rows(out))
print("\nwrote recovery_demo.csv (last preset); columns:", ", ".join(RECOVERY_HEADER))
print("pi(s) profile used:", {k: round(v, 4) for k, v in out.pi_profile.items()})
