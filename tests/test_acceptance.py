"""Acceptance suite: one test per criterion, each printing a pass line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
metrics.  Criteria 10-12 drive the full measurement pipeline at
production resolution: on a 2 vCPU host they take about 12, 1.5 and 6 s.
"""

import math
import time

import numpy as np
import pytest

from qcond.barriers import JetRequest, in_paraboloid, log_barrier, prescribe_jet, verify_one_sided
from qcond.conductivity import (check_structural_conditions, jet_radius, preset_constant,
                                preset_decay_mix, preset_p_gauss, preset_p_lorentz,
                                preset_p_lorentz_tail, preset_s_gauss)
from qcond.forward import (coefficient_fields, convergence_order, manufactured_solution,
                           solve_dirichlet)
from qcond.geometric import dictionary_check, operator_equivalence_residual
from qcond.geometry import boundary_frame_at, build_disk_mesh, normalize_above_origin, transform_mesh
from qcond.halfspace import halfspace_flux_symbol
from qcond.linearized import LinearizedOperator, fd_derivative_check, jacobian_check
from qcond.recovery import (PolarGrid, admissible_taus, assemble_tangential_matrix,
                            extract_symbol, radial_integration_recovery, reconstruct,
                            recover_from_tangential_matrix, spectrum_of_recovery_matrix)
from test_geometric import synthetic_fields

H_LADDER = (0.1, 0.05, 0.025)
_MESHES = {}


def disk(h):
    if h not in _MESHES:
        _MESHES[h] = build_disk_mesh(1.0, h)
    return _MESHES[h]


def boundary_angles(m):
    return np.arctan2(m.vertices[m.boundary_loop, 1], m.vertices[m.boundary_loop, 0])


def report(n, text):
    print(f"\n[criterion {n:2d}] PASS: {text}")


def test_criterion_01_forward_convergence():
    t0 = time.time()
    c1 = preset_constant(1.0)
    # affine data is reproduced exactly by P1 elements (no measurable order)
    m = disk(0.05)
    sol = solve_dirichlet(c1, m, lambda x: x[:, 0])
    affine_err = float(np.abs(sol.u - m.vertices[:, 0]).max())
    assert affine_err <= 1e-12
    # order is measured on the quadratic harmonic oracle
    errs, order, _ = convergence_order(c1, [disk(h) for h in H_LADDER],
                                       lambda x: x[:, 0] ** 2 - x[:, 1] ** 2)
    elapsed = time.time() - t0
    assert order >= 1.9, (errs, order)
    assert elapsed < 30.0
    report(1, f"affine err {affine_err:.1e}; harmonic order {order:.2f} "
              f"over h={H_LADDER}; {elapsed:.1f}s")


def test_criterion_02_manufactured_quasilinear():
    pg = preset_p_gauss(0.25)
    errs, order, _ = convergence_order(pg, [disk(h) for h in H_LADDER],
                                       *manufactured_solution(pg))
    assert order >= 1.9, (errs, order)
    report(2, f"manufactured order {order:.2f}, errors {['%.2e' % e for e in errs]}")


def test_criterion_03_comparison_principle():
    pg = preset_p_gauss(0.25)
    m = disk(0.05)
    th = boundary_angles(m)
    rng = np.random.default_rng(2024)
    violations = 0
    worst = -np.inf
    for _ in range(20):
        c = rng.normal(scale=0.15, size=4)
        f1 = c[0] + c[1] * np.cos(th) + c[2] * np.sin(2 * th) + c[3] * np.cos(3 * th)
        gap = 0.05 + 0.05 * (1 + np.cos(th - rng.uniform(0, 2 * np.pi)))
        u1 = solve_dirichlet(pg, m, f1).u
        u2 = solve_dirichlet(pg, m, f1 + gap).u
        worst = max(worst, float((u1 - u2).max()))
        violations += int(np.any(u1 > u2 + 1e-8))
    assert violations == 0, worst
    report(3, f"20 ordered pairs, 0 violations (worst u1-u2 = {worst:.2e})")


def test_criterion_04_barrier_validity():
    m = disk(0.05)
    fr = boundary_frame_at(m, -math.pi / 2)
    mn = transform_mesh(m, normalize_above_origin(m, fr))
    passing = [preset_constant(1.0), preset_p_gauss(0.25), preset_p_lorentz(0.2),
               preset_decay_mix()]
    worst_inside = np.inf
    for cond in passing:
        assert check_structural_conditions(cond, (-1, 1), (0, 2)).passed
        for s in (-0.5, 0.0, 0.7):
            jr = jet_radius(cond, s, m.diameter, pi1=1e6)
            pps = np.linspace(-math.sqrt(jr.b1 * jr.b2), math.sqrt(jr.b1 * jr.b2), 5)
            for pp in pps:
                for pn in (jr.b1, -jr.b1, max(pp * pp / jr.b2, 1e-4)):
                    if not in_paraboloid(pp, pn, jr.b1, jr.b2):
                        continue
                    rep = verify_one_sided(cond, log_barrier(s, (pp, pn), jr.A), mn)
                    worst_inside = min(worst_inside, rep.min_margin)
                    assert rep.min_margin >= -1e-10, (cond.name, s, pp, pn)
    # counterexample: tangential component 10x outside the admissible set
    sg = preset_s_gauss(0.25)
    jr = jet_radius(sg, 0.7, m.diameter, pi1=1e6)
    bad = verify_one_sided(sg, log_barrier(0.7, (10 * math.sqrt(jr.b1 * jr.b2), jr.b1),
                                           jr.A), mn)
    assert bad.min_margin < 0
    report(4, f"in-paraboloid min margin {worst_inside:.2e} over 4 presets; "
              f"out-of-paraboloid counterexample margin {bad.min_margin:.2e}")


def test_criterion_05_jet_prescription():
    m = disk(0.025)
    pg = preset_p_gauss(0.25)
    worst = 0.0
    solves = 0
    count = 0
    for s in (-1.0, -0.5, 0.5, 1.0):
        jr = jet_radius(pg, s, m.diameter)
        for k in range(8):
            theta = 2 * math.pi * (k + 0.37) / 8
            fr = boundary_frame_at(m, theta)
            d = np.array([math.cos(theta + 0.9 * k), math.sin(theta + 0.9 * k)])
            p = 0.8 * jr.pi * d
            res = prescribe_jet(pg, m, JetRequest(frame=fr, s=s, p=p, regime="small"))
            assert res.ok, res.message
            err = abs(res.achieved_s - s) + np.linalg.norm(res.achieved_p - p)
            tol = 1e-3 * (1 + np.linalg.norm(p))
            assert err <= tol, (s, theta, err, tol)
            worst = max(worst, err / tol)
            solves += res.solves
            count += 1
    assert count == 32
    dm = preset_decay_mix()
    worst_decay = 0.0
    for k in range(8):
        theta = 2 * math.pi * k / 8
        fr = boundary_frame_at(m, theta)
        ang = 0.7 * k
        d = math.cos(ang) * fr.tau - math.sin(ang) * fr.nu
        p = 5.0 * d / np.linalg.norm(d)
        res = prescribe_jet(dm, m, JetRequest(frame=fr, s=0.3, p=p, regime="decay"))
        assert res.ok, res.message
        err = abs(res.achieved_s - 0.3) + np.linalg.norm(res.achieved_p - p)
        tol = 1e-3 * (1 + np.linalg.norm(p))
        assert err <= tol, (theta, err, tol)
        worst_decay = max(worst_decay, err / tol)
    report(5, f"32 small jets (worst err/tol {worst:.2f}, {solves} solves) + "
              f"8 decay jets at |p|=5 (worst err/tol {worst_decay:.2f})")


def test_criterion_06_linearization_correctness():
    pg = preset_p_gauss(0.25)
    m = disk(0.05)
    th = boundary_angles(m)
    f = 0.5 * np.cos(2 * th)
    hb = np.cos(th)
    base = solve_dirichlet(pg, m, f)
    op = LinearizedOperator.at_base(pg, base)
    rows, _ = fd_derivative_check(base, op, hb, (1e-1, 1e-2, 1e-3))
    errs = [e for _, e, _ in rows]
    # the check's ratios, None where the smaller error is at the 1e-9 floor
    ratios = [r for _, _, r in rows if r is not None]
    assert all(8.0 <= r <= 12.0 for r in ratios), (errs, ratios)
    jac_errs, jac_ok = jacobian_check(base, op)
    assert jac_ok, jac_errs
    report(6, f"fd errors {['%.2e' % e for e in errs]}, ratios "
              f"{['%.1f' % r for r in ratios]}; jacobian check errors "
              f"{['%.1e' % e for e in jac_errs]}")


def test_criterion_07_geometric_identity_layer():
    pg = preset_p_gauss(0.25)
    m = disk(0.05)
    th = boundary_angles(m)
    base = solve_dirichlet(pg, m, 0.5 * np.cos(2 * th))
    _, _, M, w = coefficient_fields(pg, m, base.u)
    aij = 0.5 * (M + M.transpose(1, 0, 2)).transpose(2, 0, 1)
    metrics, _ = dictionary_check(m, aij, w.T, np.random.default_rng(77))
    assert metrics["det_G"] <= 1e-10

    residuals = [operator_equivalence_residual(disk(h), *synthetic_fields(disk(h)))
                 for h in H_LADDER]
    assert residuals[1] <= 1e-2
    assert residuals[1] < residuals[0] and residuals[2] < residuals[1]

    worst_nid, worst_anti = metrics["normal_identity"], metrics["antisymmetry"]
    assert worst_nid <= 1e-12 and worst_anti <= 1e-12
    report(7, f"det G err {metrics['det_G']:.1e}; op-equivalence {['%.1e' % r for r in residuals]}"
              f" (decreasing); normal identity {worst_nid:.1e}; antisymmetry {worst_anti:.1e}")


def test_criterion_08_symbol_oracle():
    mesh = build_disk_mesh(1.0, 0.0125)
    fr = boundary_frame_at(mesh, 0.3)
    taus = admissible_taus(mesh, (8.0, 16.0, 32.0, 64.0))
    assert len(taus) == 4
    configs = [np.eye(2), np.diag([2.0, 0.5]), np.array([[1.3, 0.4], [0.4, 0.9]])]
    worst = 0.0
    worst_parity = 0.0
    for S in configs:
        for mv in (0.0, 0.3):
            A = np.array([[0.0, mv], [-mv, 0.0]])
            op = LinearizedOperator.from_fields(mesh, S + A)
            sym = extract_symbol(op.dn_flux, mesh, fr, taus)
            tau_top = taus[-1]
            oracle = halfspace_flux_symbol(S, tau_top, antisym_12=mv)
            rel = abs(sym.real_slope * tau_top - oracle.real) / oracle.real
            assert rel <= 0.02, (S, mv, sym.real_slope, oracle.real / tau_top)
            worst = max(worst, rel)
            worst_parity = max(worst_parity, sym.parity_residual)
    assert worst_parity < 1e-3
    report(8, f"6 constant-coefficient configs: worst slope error {100 * worst:.2f}% "
              f"vs separation-of-variables oracle; parity residual {worst_parity:.1e}")


def test_criterion_09_algebraic_round_trips():
    rng = np.random.default_rng(909)
    worst_spec = 0.0
    worst_asm = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 6))
        a = float(rng.normal())
        p = rng.normal(size=n - 1)
        q = rng.normal(size=n - 1)
        closed = spectrum_of_recovery_matrix(a, q, p)
        dense = np.sort(np.linalg.eigvalsh(assemble_tangential_matrix(a, q, p)))
        worst_spec = max(worst_spec, float(np.abs(closed - dense).max()))
        a2, q2 = recover_from_tangential_matrix(assemble_tangential_matrix(a, q, p), p)
        M2 = assemble_tangential_matrix(a2, q2, p)
        worst_asm = max(worst_asm, float(np.abs(M2 - assemble_tangential_matrix(a, q, p)).max()))
    assert worst_spec <= 1e-12
    assert worst_asm <= 1e-10
    qg = np.linspace(0.0, 2.0, 35)
    a_hat = radial_integration_recovery(qg, (1.0 + qg) * (1.0 + 2.0 * qg))
    rad_err = float(np.abs(a_hat - (1.0 + qg)).max())
    assert rad_err <= 1e-12
    report(9, f"1000 spectra vs dense eig: {worst_spec:.1e}; reassembly {worst_asm:.1e}; "
              f"radial integration on 1+p: {rad_err:.1e}")


def test_criterion_10_end_to_end_reconstruction():
    t0 = time.time()
    mesh = disk(0.025)
    presets = [preset_constant(1.0), preset_s_gauss(0.25), preset_p_lorentz(0.2)]
    lines = []
    for cond in presets:
        grid = reconstruct(cond, mesh, (-1.0, 0.0, 1.0),
                           PolarGrid(n_directions=16, n_radii=8), jobs=4)
        errs = grid.rel_errors()
        assert len(grid.failures()) == 0, grid.failures()[0].status
        mx, med = float(errs.max()), float(np.median(errs))
        assert mx <= 0.05, (cond.name, mx)
        assert med <= 0.02, (cond.name, med)
        lines.append(f"{cond.name}: n={len(errs)} max={100 * mx:.2f}% med={100 * med:.2f}%")
    elapsed = time.time() - t0
    assert elapsed <= 1200.0
    report(10, "; ".join(lines) + f"; total {elapsed:.0f}s")


def test_criterion_11_uniqueness_surrogate():
    mesh = disk(0.025)
    base = preset_p_lorentz_tail(0.2, 0.0)
    pi0 = jet_radius(base, 0.0, mesh.diameter).pi
    bumped = preset_p_lorentz_tail(0.2, 0.3, r0=2.0 * pi0, w=pi0)
    plain = preset_p_lorentz_tail(0.2, 0.0, r0=2.0 * pi0, w=pi0)
    # the two models coincide on |p| <= 2 pi0 and differ beyond it
    probe_r = np.linspace(0, 2.0 * pi0, 20)
    P = np.stack([probe_r, np.zeros_like(probe_r)], axis=1)
    assert np.abs(bumped(0.0, P) - plain(0.0, P)).max() == 0.0
    far = np.array([[3.0 * pi0 + 0.5, 0.0]])
    assert abs(bumped(0.0, far) - plain(0.0, far)) > 0.2

    gspec = PolarGrid(n_directions=8, n_radii=8)
    g1 = reconstruct(plain, mesh, (0.0,), gspec, jobs=4)
    g2 = reconstruct(bumped, mesh, (0.0,), gspec, jobs=4)
    e1, e2 = g1.rel_errors(), g2.rel_errors()
    bound = max(e1.max(), e2.max())
    a1 = np.array([s.a_hat for s in g1.samples])
    a2 = np.array([s.a_hat for s in g2.samples])
    tru = np.array([s.a_true for s in g1.samples])
    agreement = float(np.abs(a1 - a2).max() / tru.min())
    assert agreement <= 2.0 * bound, (agreement, bound)
    report(11, f"reconstructions agree to {100 * agreement:.2f}% on |p| < pi(s) "
               f"(2x single-run bound = {200 * bound:.2f}%)")


def test_criterion_12_decay_regime_reconstruction():
    mesh = disk(0.025)
    dm = preset_decay_mix(0.2, 0.05, C=0.1)
    rep = check_structural_conditions(dm, (-1, 1), (0.05, 6.0))
    assert rep.passed and rep.margins["decay1"].ok and rep.margins["uni"].ok
    grid = reconstruct(dm, mesh, (0.6,),
                       PolarGrid(n_directions=2, n_radii=100, r_max=5.0),
                       regime="decay", jobs=2)
    picked = {}
    for smp in grid.samples:
        r = np.linalg.norm(smp.p)
        for target in (2.0, 5.0):
            if abs(r - target) < 1e-9:
                assert smp.status == "ok", smp.status
                picked.setdefault(target, []).append(smp.rel_err)
    assert set(picked) == {2.0, 5.0}
    worst = {t: max(v) for t, v in picked.items()}
    assert worst[2.0] <= 0.07 and worst[5.0] <= 0.07, worst
    report(12, f"decay-regime recovery at |p|=2: {100 * worst[2.0]:.2f}%, "
               f"|p|=5: {100 * worst[5.0]:.2f}% (tolerance 7%)")
