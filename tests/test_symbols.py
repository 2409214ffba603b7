import math

import numpy as np

from qcond.conductivity import preset_constant
from qcond.forward import solve_dirichlet
from qcond.geometry import boundary_frame_at, build_disk_mesh
from qcond.halfspace import decaying_root, halfspace_flux_symbol
from qcond.linearized import LinearizedOperator
from qcond.recovery import DEFAULT_LADDER, admissible_taus, extract_symbol, oscillatory_probe


def bitwise_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_decaying_root_properties():
    rng = np.random.default_rng(13)
    for _ in range(100):
        B = rng.normal(size=(2, 2))
        S = B @ B.T + 0.4 * np.eye(2)
        xi = rng.uniform(0.5, 5.0) * rng.choice([-1.0, 1.0])
        lam = decaying_root(S, xi)
        assert lam.real > 0
        # the root really solves the characteristic quadratic
        res = S[1, 1] * lam ** 2 - 2j * xi * S[0, 1] * lam - S[0, 0] * xi ** 2
        assert abs(res) < 1e-10 * (1 + abs(lam) ** 2)


def test_flux_symbol_matches_closed_form():
    # independent-route check: the flux computed through the decaying root
    # coincides with sqrt(det S)|xi| + i A12 xi
    rng = np.random.default_rng(14)
    for _ in range(100):
        B = rng.normal(size=(2, 2))
        S = B @ B.T + 0.4 * np.eye(2)
        m = rng.normal()
        xi = rng.uniform(0.5, 8.0) * rng.choice([-1.0, 1.0])
        sym = halfspace_flux_symbol(S, xi, antisym_12=m)
        expect = math.sqrt(np.linalg.det(S)) * abs(xi) + 1j * m * xi
        assert abs(sym - expect) < 1e-12 * (1 + abs(expect))
    assert halfspace_flux_symbol(np.eye(2), 0.0) == 0.0


def fem_symbol(mesh, frame, S, m=0.0, taus=None, **kw):
    A = np.array([[0.0, m], [-m, 0.0]])
    op = LinearizedOperator.from_fields(mesh, S + A)
    taus = taus or admissible_taus(mesh, (8.0, 16.0, 32.0, 64.0))
    return extract_symbol(op.dn_flux, mesh, frame, taus, **kw)


def test_fem_extraction_laplace():
    m = build_disk_mesh(1.0, 0.05)
    fr = boundary_frame_at(m, 0.3)
    sym = fem_symbol(m, fr, np.eye(2))
    assert abs(sym.real_slope - 1.0) < 0.05
    assert abs(sym.imag_slope) < 1e-10
    assert sym.parity_residual < 1e-10
    assert sym.reliable


def test_fem_extraction_sign_flip_parity():
    # flipping the probe orientation conjugates the probe and, the operator
    # being real, its flux: the even part stays and the odd part flips
    m = build_disk_mesh(1.0, 0.05)
    fr = boundary_frame_at(m, 1.2)
    mval = 0.3
    A = np.array([[0.0, mval], [-mval, 0.0]])
    op = LinearizedOperator.from_fields(m, np.eye(2) + A)
    taus = admissible_taus(m, DEFAULT_LADDER)
    for tau in taus:
        h, _ = oscillatory_probe(m, fr, tau)
        assert bitwise_equal(op.dn_flux(np.conj(h)), np.conj(op.dn_flux(h)))
    sym = extract_symbol(op.dn_flux, m, fr, taus)
    expect = fr.nu @ A @ fr.tau
    assert sym.imag_slope * expect > 0          # orientation carried through


def test_extract_symbol_one_evaluation_per_frame():
    m = build_disk_mesh(1.0, 0.025)
    fr = boundary_frame_at(m, 0.5)
    calls = []

    def dn_eval(H):
        calls.append(H)
        return m.vertex_weights[:, None] * H

    extract_symbol(dn_eval, m, fr, [8.0, 16.0, 32.0])
    assert len(calls) == 1
    assert calls[0].shape == (len(m.boundary_loop), 3)


def test_fem_extraction_against_halfspace_oracle():
    # constant coefficients at moderate resolution: a few percent suffices
    # here (the acceptance suite drives this to 2% on a finer mesh)
    mesh = build_disk_mesh(1.0, 0.025)
    fr = boundary_frame_at(mesh, 0.3)
    for S in (np.eye(2), np.array([[1.3, 0.4], [0.4, 0.9]])):
        sym = fem_symbol(mesh, fr, S)
        tau_top = sym.tau_list[-1]
        oracle = halfspace_flux_symbol(S, tau_top).real / tau_top
        assert abs(sym.real_slope - oracle) / oracle < 0.03, (S, sym.real_slope, oracle)


def test_fem_extraction_at_solution_base():
    # the full pipeline object: linearized operator at a nonlinear base
    mesh = build_disk_mesh(1.0, 0.05)
    c1 = preset_constant(1.0)
    base = solve_dirichlet(c1, mesh, np.zeros(len(mesh.boundary_loop)))
    fr = boundary_frame_at(mesh, 2.0)
    op = LinearizedOperator.at_base(c1, base)
    sym = extract_symbol(op.dn_flux, mesh, fr, admissible_taus(mesh, (8.0, 16.0)))
    assert abs(sym.real_slope - 1.0) < 0.08


def test_richardson_intercept_consistency():
    # single-frequency slope estimates P(tau)/tau carry the intercept as a
    # 1/tau contamination: doubling tau halves it
    m = build_disk_mesh(1.0, 0.05)
    fr = boundary_frame_at(m, 0.9)
    c1, c0 = 1.4, 0.9

    def dn_eval(H):
        return m.vertex_weights[:, None] * (c1 * np.array([8.0, 16.0]) + c0) * H

    sym = extract_symbol(dn_eval, m, fr, [8.0, 16.0])
    P8, P16 = sym.pairings.real
    contamination = [P8 / 8.0 - c1, P16 / 16.0 - c1]
    assert abs(contamination[0] / contamination[1] - 2.0) < 1e-9
