import math

import numpy as np
import pytest

from qcond.conductivity import (ConductivityError, ConductivitySpec, _smoothstep,
                                _smoothstep_d, check_structural_conditions,
                                evaluate_with_derivatives, jet_radius, linearized_conductivity,
                                make_preset, preset_constant, preset_decay_mix,
                                preset_one_plus_s2, preset_p_gauss, preset_p_lorentz_tail,
                                preset_sin_slope)


def test_constant_evaluation():
    c = preset_constant(1.0)
    a, a_s, gp = evaluate_with_derivatives(c, 0.3, np.array([2.0, -1.0]))
    assert a == 1.0 and a_s == 0.0 and np.all(gp == 0.0)


def test_one_plus_s2_derivatives():
    c = preset_one_plus_s2()
    a, a_s, gp = evaluate_with_derivatives(c, 2.0, np.array([0.7, 0.1]))
    assert a == 5.0 and a_s == 4.0 and np.all(gp == 0.0)


def test_smoothstep_derivative_closed_form():
    t = np.linspace(0.01, 0.99, 99)
    h = 1e-5
    fd = (_smoothstep(t + h) - _smoothstep(t - h)) / (2 * h)
    assert np.abs(_smoothstep_d(t) - fd).max() <= 1e-8
    # f = g at t = 1/2, where the closed form gives 2 exactly and a
    # difference quotient does not
    assert _smoothstep_d(0.5) == 2.0
    assert np.all(_smoothstep_d(np.array([-1.0, 0.0, 1e-200, 1.0, 2.0])) == 0.0)

    # the bump of p_lorentz_tail varies on 0.1 < |p| < 0.15
    tail = preset_p_lorentz_tail(0.2, 0.3, r0=0.1, w=0.05)
    rng = np.random.default_rng(4)
    ang = rng.uniform(0.0, 2.0 * np.pi, 40)
    P = np.linspace(0.02, 0.2, 40)[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    _, a_s, gp = evaluate_with_derivatives(tail, 0.3, P)
    hp = 1e-6 * (1.0 + np.linalg.norm(P, axis=-1, keepdims=True))     # central differences
    gp_fd = np.stack([tail.fn(0.3, P + hp * e) - tail.fn(0.3, P - hp * e)
                      for e in np.eye(2)], axis=-1) / (2.0 * hp)
    assert np.all(a_s == 0.0)
    assert np.abs(gp - gp_fd).max() <= 1e-6 * np.abs(gp).max()


def test_nonfinite_rejected():
    bad = ConductivitySpec(name="bad", fn=lambda s, p: np.where(s > 0, np.inf, 1.0),
                           grad=lambda s, p: (np.zeros(np.shape(s)), np.zeros(np.shape(p))))
    with pytest.raises(ConductivityError):
        evaluate_with_derivatives(bad, 1.0, np.array([0.0, 0.0]))


def test_linearized_matrix_examples():
    c = preset_constant(1.0)
    assert np.allclose(linearized_conductivity(c, 0.0, np.array([3.0, 4.0])), np.eye(2))
    s2 = preset_one_plus_s2()
    assert np.allclose(linearized_conductivity(s2, 1.0, np.array([5.0, -2.0])),
                       2.0 * np.eye(2))
    # a = 1 + p1 at p = (1, 0): entries worked out by expanding the rank-one terms
    lin = ConductivitySpec(name="p1", fn=lambda s, p: 1.0 + p[..., 0],
                           grad=lambda s, p: (np.zeros(np.shape(s)),
                                              np.broadcast_to([1.0, 0.0], np.shape(p)).copy()))
    M = linearized_conductivity(lin, 0.0, np.array([1.0, 0.0]))
    assert np.allclose(M, [[3.0, 0.0], [0.0, 2.0]])


def test_linearized_matrix_symmetry_random():
    pg = preset_p_gauss(0.25)
    rng = np.random.default_rng(0)
    P = rng.normal(size=(50, 2))
    S = rng.normal(size=50)
    M = linearized_conductivity(pg, S, P)
    assert np.allclose(M, np.swapaxes(M, -1, -2), atol=0)


def test_structural_pass_and_fail():
    ok = check_structural_conditions(preset_constant(1.0), (-1, 1), (0, 2))
    assert ok.passed and not ok.warnings
    assert all(m.margin >= 0 for m in ok.margins.values())

    # a = 1 + s^2 with ceiling mu0 = 1 fails the growth bound away from s = 0
    bad = ConductivitySpec(name="s2tight", fn=lambda s, p: 1.0 + s ** 2,
                           grad=lambda s, p: (2.0 * s, np.zeros(np.shape(p))),
                           lambda0=lambda t: 1.0, mu0=lambda t: 1.0)
    rep = check_structural_conditions(bad, (-1, 1), (0, 2))
    assert rep.passed                      # coercivity is fine
    assert "grow_p" in rep.warnings
    assert abs(rep.margins["grow_p"].at_s) > 0.5   # pinpoints a violating s

    # dense pass/fail scan on the kinked drift model runs and reports decay rows
    rep = check_structural_conditions(preset_sin_slope(2.0), (-2, 2), (0.1, 4))
    assert "decay1" in rep.margins and "uni" in rep.margins


def test_structural_coercivity_hard_failure():
    weak = ConductivitySpec(name="weak", fn=lambda s, p: np.full(np.shape(s), 0.5),
                            grad=lambda s, p: (np.zeros(np.shape(s)), np.zeros(np.shape(p))),
                            lambda0=lambda t: 0.5, mu0=lambda t: 1.0)
    rep = check_structural_conditions(weak, (-1, 1), (0, 1))
    assert not rep.passed


def test_jet_radius_worked_example():
    # unit disk: diam 2, A = 4; lambda0 = mu0 = 1; pi1 large so B1 = C1
    c = preset_constant(1.0)
    jr = jet_radius(c, 0.0, 2.0, pi1=1e6)
    # independent re-evaluation of each formula
    A = 2.0 * 2.0
    c1 = min(1.0 / 2.0, 1.0)
    c2 = min(2.0 / (A * A), 1.0)
    assert jr.A == A and jr.c1 == c1 and jr.c2 == c2
    assert jr.b1 == c1 and jr.b2 == c2
    assert abs(jr.pi - min(math.sqrt(c1 * c2), c1)) < 1e-15
    assert abs(jr.pi - 0.25) < 1e-15


def test_jet_radius_default_pi1_branch():
    jr = jet_radius(preset_constant(1.0), 0.0, 2.0)   # pi1 = 1, N = 10
    assert jr.b1 == pytest.approx(1.0 / 20.0)
    assert jr.pi <= jr.b1


def test_jet_radius_monotone_in_bounds():
    base = preset_constant(1.0)
    pis = []
    for mu in (1.0, 2.0, 5.0, 50.0):
        c = ConductivitySpec(name="m", fn=base.fn, grad=base.grad,
                             lambda0=lambda t: 1.0, mu0=lambda t, m=mu: m)
        pis.append(jet_radius(c, 0.0, 2.0, pi1=1e6).pi)
    assert all(a > b for a, b in zip(pis, pis[1:]))
    assert pis[-1] < 0.05
    # non-decreasing in the coercivity floor
    lows = []
    for lam in (0.2, 0.5, 1.0):
        c = ConductivitySpec(name="l", fn=base.fn, grad=base.grad,
                             lambda0=lambda t, l=lam: l, mu0=lambda t: 1.0)
        lows.append(jet_radius(c, 0.0, 2.0, pi1=1e6).pi)
    assert all(a <= b for a, b in zip(lows, lows[1:]))


def test_jet_radius_decay_sentinel():
    assert jet_radius(preset_decay_mix(), 0.0, 2.0).pi == math.inf


def test_linearized_eigs_respect_floor_where_structural_passes():
    pg = preset_p_gauss(0.25)
    rep = check_structural_conditions(pg, (-1, 1), (0, 3))
    assert rep.passed and "coer_eig" not in rep.warnings
    rng = np.random.default_rng(3)
    P = rng.normal(size=(200, 2))
    S = rng.uniform(-1, 1, size=200)
    eigs = np.linalg.eigvalsh(linearized_conductivity(pg, S, P))[:, 0]
    assert np.all(eigs >= pg.lambda0(np.abs(S)) - 1e-12)


def test_preset_parser():
    assert make_preset("constant(1)").name == "constant(1)"
    assert make_preset(" p_gauss( 0.25 ) ").name == "p_gauss(0.25)"
    assert make_preset("one_plus_s2").name == "one_plus_s2"
    with pytest.raises(ValueError, match="available"):
        make_preset("nope(1)")
    with pytest.raises(ValueError):
        make_preset("p_gauss(0.25")
