import functools
import math
import signal

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qcond.barriers import (Barrier, JetRequest, exp_barrier, in_paraboloid, log_barrier,
                            prescribe_jet, verify_one_sided)
from qcond.conductivity import (jet_radius, make_preset, preset_constant, preset_decay_mix,
                                preset_p_gauss, preset_s_gauss, preset_sin_slope)
from qcond.forward import SolveError, boundary_jet_of, normal_slope_derivative, solve_dirichlet
from qcond.geometry import boundary_frame_at, build_disk_mesh, normalize_above_origin, transform_mesh
from qcond.linearized import LinearizedOperator


def fd_gradient(fn, y, h=1e-6):
    g = np.zeros(2)
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        g[k] = (fn(y + e) - fn(y - e)) / (2 * h)
    return g


@pytest.mark.parametrize("kind,params", [
    ("log", dict(s=0.3, p=(0.07, 0.04), A=4.0)),
    ("log", dict(s=-0.5, p=(0.1, 0.0), A=4.0)),       # p_n = 0: affine
    ("exp", dict(s=0.2, p=(0.0, 3.0), C=1.0)),
    ("exp", dict(s=0.2, p=(1.0, -2.0), C=0.5)),
])
def test_barrier_jet_exact(kind, params):
    if kind == "log":
        b = log_barrier(params["s"], params["p"], params["A"])
    else:
        b = exp_barrier(params["s"], params["p"], params["C"])
    assert abs(b.value(np.zeros(2)) - params["s"]) < 1e-12
    assert np.linalg.norm(b.gradient(np.zeros(2)) - params["p"]) < 1e-12
    # closed-form derivatives against finite differences of the value
    y = np.array([0.3, 0.8])
    assert np.linalg.norm(b.gradient(y) - fd_gradient(lambda z: b.value(z), y)) < 1e-6
    h22 = (b.gradient(y + [0, 1e-6])[1] - b.gradient(y - [0, 1e-6])[1]) / 2e-6
    assert abs(b.hessian22(y) - h22) < 1e-5


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["log", "exp"]), s=st.floats(-2.0, 2.0),
       p_prime=st.floats(-3.0, 3.0), p_n=st.floats(-3.0, 3.0), param=st.floats(0.5, 4.0),
       y1=st.floats(-1.0, 1.0), frac=st.floats(-0.5, 0.5),
       bogus=st.text(max_size=4).filter(lambda k: k not in ("log", "exp")))
def test_barrier_formulas_property(kind, s, p_prime, p_n, param, y1, frac, bogus):
    # y2 = frac * param lies below the log barrier's pole at y2 = A
    b = Barrier(kind, s, p_prime, p_n, param)
    assert b.value(np.zeros(2)) == s
    assert np.allclose(b.gradient(np.zeros(2)), (p_prime, p_n), rtol=1e-14, atol=1e-14)
    y = np.array([y1, frac * param])
    g, h22 = b.gradient(y), b.hessian22(y)
    assert np.allclose(g, fd_gradient(b.value, y, 1e-5), rtol=1e-6, atol=1e-6)
    e2 = np.array([0.0, 1e-4])
    fd22 = (b.value(y + e2) - 2.0 * b.value(y) + b.value(y - e2)) / 1e-8
    assert abs(h22 - fd22) <= 1e-5 * (1.0 + abs(h22))
    with pytest.raises(ValueError, match="barrier kind must be log or exp"):
        Barrier(bogus, s, p_prime, p_n, param)


def test_exp_barrier_step_rule():
    b = exp_barrier(0.0, (0.0, 3.0), 1.0)
    assert abs(b.param - 1.0) < 1e-14        # h = |pn|/(C |p|) = 3/3
    with pytest.raises(ValueError):
        exp_barrier(0.0, (1.0, 0.0), 1.0)    # p_n = 0 needs an explicit step


def normalized_mesh(h=0.1):
    m = build_disk_mesh(1.0, h)
    fr = boundary_frame_at(m, -math.pi / 2)
    return transform_mesh(m, normalize_above_origin(m, fr))


def test_laplace_log_barrier_one_sided():
    mn = normalized_mesh()
    rep = verify_one_sided(preset_constant(1.0), log_barrier(0.0, (0.0, 0.1), 4.0), mn)
    assert rep.ok and rep.min_margin >= 0.0
    rep_neg = verify_one_sided(preset_constant(1.0), log_barrier(0.0, (0.0, -0.1), 4.0), mn)
    assert rep_neg.ok


def test_in_paraboloid_margins_nonneg():
    mn = normalized_mesh()
    for cond in (preset_constant(1.0), preset_p_gauss(0.25), preset_decay_mix()):
        jr = jet_radius(cond, 0.3, 2.0, pi1=1e6)   # full paraboloid, no pi1 shrink
        for pp in np.linspace(-math.sqrt(jr.b1 * jr.b2), math.sqrt(jr.b1 * jr.b2), 5):
            for pn in (jr.b1, max(pp * pp / jr.b2, 1e-4), -jr.b1):
                if not in_paraboloid(pp, pn, jr.b1, jr.b2):
                    continue
                rep = verify_one_sided(cond, log_barrier(0.3, (pp, pn), jr.A), mn)
                assert rep.min_margin >= -1e-10, (cond.name, pp, pn, rep.min_margin)


@functools.lru_cache(maxsize=None)
def coarse_normalized_mesh():
    return normalized_mesh(0.2)


# every smooth preset; sin_slope is kinked at p = 0
SMOOTH_MODELS = ("constant", "one_plus_s2", "p_gauss(0.25)", "s_gauss(0.25)",
                 "p_lorentz(0.2)", "p_lorentz_tail", "decay_mix(0.2,0.05,0.1)")


@settings(max_examples=200, deadline=None)
@given(model=st.sampled_from(SMOOTH_MODELS), s=st.floats(-1.0, 1.0),
       normal=st.floats(1e-3, 1.0), tangent=st.floats(-1.0, 1.0), sign=st.sampled_from((-1, 1)))
def test_log_barrier_margins_nonneg_inside_paraboloid(model, s, normal, tangent, sign):
    # a jet (p', pn) with |p'|^2 / B2 <= |pn| <= B1 gives a log barrier that
    # is a sub- (pn > 0) or supersolution (pn < 0) at every barycenter
    cond = make_preset(model)
    jr = jet_radius(cond, s, 2.0, pi1=1e6)   # full paraboloid, no pi1 shrink
    p_n = sign * normal * jr.b1
    p_prime = tangent * math.sqrt(jr.b2 * abs(p_n))
    assume(in_paraboloid(p_prime, p_n, jr.b1, jr.b2))   # roundoff on the rim
    rep = verify_one_sided(cond, log_barrier(s, (p_prime, p_n), jr.A), coarse_normalized_mesh())
    assert rep.ok, (model, s, p_prime, p_n, rep.min_margin)


def test_out_of_paraboloid_counterexample():
    # tangential part 10x outside the admissible set: the drift term wins
    mn = normalized_mesh()
    cond = preset_s_gauss(0.25)
    jr = jet_radius(cond, 0.7, 2.0, pi1=1e6)
    pp = 10.0 * math.sqrt(jr.b1 * jr.b2)
    rep = verify_one_sided(cond, log_barrier(0.7, (pp, jr.b1), jr.A), mn)
    assert rep.min_margin < -1e-6


def test_exp_barrier_rule_violation_goes_negative():
    # drift saturating its decay bound: doubling h breaks one-sidedness
    mn = normalized_mesh()
    cond = preset_sin_slope(2.0)
    p = (3.0, 1.0)
    b_ok = exp_barrier(math.pi, p, 2.0)
    b_bad = exp_barrier(math.pi, p, 2.0, h=2.0 * b_ok.param)
    assert verify_one_sided(cond, b_bad, mn).min_margin < -1e-6


def test_prescribe_jet_laplace_affine():
    m = build_disk_mesh(1.0, 0.1)
    fr = boundary_frame_at(m, -math.pi / 2)
    req = JetRequest(frame=fr, s=0.0, p=0.04 * fr.tau, regime="small")   # pi(0) = 0.05
    res = prescribe_jet(preset_constant(1.0), m, req)
    assert res.ok and res.solves <= 2
    assert np.linalg.norm(res.achieved_p - req.p) < 5.0 * m.h ** 2


def test_prescribe_jet_constant():
    m = build_disk_mesh(1.0, 0.1)
    fr = boundary_frame_at(m, 1.0)
    req = JetRequest(frame=fr, s=0.8, p=np.zeros(2), regime="small")
    res = prescribe_jet(preset_p_gauss(0.25), m, req)
    assert res.ok
    assert abs(res.achieved_s - 0.8) < 1e-10
    assert np.linalg.norm(res.achieved_p) < 1e-8


def test_prescribe_jet_closed_loop():
    m = build_disk_mesh(1.0, 0.05)
    cond = preset_p_gauss(0.25)
    fr = boundary_frame_at(m, 2.2)
    jr = jet_radius(cond, 0.3, m.diameter)
    rng = np.random.default_rng(5)
    for _ in range(3):
        d = rng.normal(size=2)
        p = 0.7 * jr.pi * d / np.linalg.norm(d)
        res = prescribe_jet(cond, m, JetRequest(frame=fr, s=0.3, p=p, regime="small"))
        assert res.ok, res.message
        tol = 1e-3 * (1 + np.linalg.norm(p))
        assert abs(res.achieved_s - 0.3) + np.linalg.norm(res.achieved_p - p) <= tol


def test_jet_outside_radius_rejected():
    m = build_disk_mesh(1.0, 0.1)
    cond = preset_p_gauss(0.25)
    fr = boundary_frame_at(m, 0.0)
    jr = jet_radius(cond, 0.0, m.diameter)
    cause = r"^jet outside the small-gradient radius: \|p\|="
    with pytest.raises(ValueError, match=cause):
        prescribe_jet(cond, m, JetRequest(frame=fr, s=0.0, p=1.1 * jr.pi * fr.tau,
                                          regime="small"))
    # the radius itself is outside: the guard is |p| >= pi(s)
    p_edge = np.array([jr.pi, 0.0])
    assert np.linalg.norm(p_edge) == jr.pi
    with pytest.raises(ValueError, match=cause):
        prescribe_jet(cond, m, JetRequest(frame=fr, s=0.0, p=p_edge, regime="small"))


def test_comparison_ordering_at_bracket_endpoints():
    # data from the barrier at p_n = +-B1 pushes the achieved slope past it
    m = build_disk_mesh(1.0, 0.05)
    cond = preset_p_gauss(0.25)
    fr = boundary_frame_at(m, 0.9)
    iso = normalize_above_origin(m, fr)
    jr = jet_radius(cond, 0.2, m.diameter)
    yb = iso.apply(m.vertices[m.boundary_loop])
    tol = 2e-3
    for sgn in (+1.0, -1.0):
        f = 0.2 - jr.A * (sgn * jr.b1) * np.log1p(-yb[:, 1] / jr.A)
        sol = solve_dirichlet(cond, m, f)
        _, p = boundary_jet_of(sol, fr)
        achieved = -fr.nu @ p
        if sgn > 0:
            assert achieved >= jr.b1 - tol
        else:
            assert achieved <= -jr.b1 + tol


def test_bisection_map_monotone():
    m = build_disk_mesh(1.0, 0.1)
    cond = preset_p_gauss(0.25)
    fr = boundary_frame_at(m, 0.4)
    iso = normalize_above_origin(m, fr)
    jr = jet_radius(cond, 0.0, m.diameter)
    yb = iso.apply(m.vertices[m.boundary_loop])
    achieved = []
    for t in np.linspace(-jr.b1, jr.b1, 7):
        f = 0.02 * yb[:, 0] - jr.A * t * np.log1p(-yb[:, 1] / jr.A)
        _, p = boundary_jet_of(solve_dirichlet(cond, m, f), fr)
        achieved.append(-fr.nu @ p)
    assert all(a < b + 1e-12 for a, b in zip(achieved, achieved[1:]))


def test_decay_jets_large_gradient():
    m = build_disk_mesh(1.0, 0.05)
    cond = preset_decay_mix()
    fr = boundary_frame_at(m, 0.0)
    for d in (fr.tau, -fr.nu, 0.6 * fr.tau - 0.8 * fr.nu):
        p = 5.0 * np.asarray(d) / np.linalg.norm(d)
        res = prescribe_jet(cond, m, JetRequest(frame=fr, s=0.3, p=p, regime="decay"))
        assert res.ok, res.message
        assert (abs(res.achieved_s - 0.3) + np.linalg.norm(res.achieved_p - p)
                <= 1e-3 * (1 + np.linalg.norm(p)))
        # a missed first attempt is followed by a Newton step that lands
        assert res.solves <= 2


# (t_star, solves) of the cold decay_mix jets above at |p| = 5 when the
# walk's first step is max(|phi0|, 0.05 bracket), as without a usable slope
WALK_JETS = {"tau": (-0.03627158709008592, 3), "-nu": (4.752487972643858, 3),
             "0.6tau-0.8nu": (3.765088223741385, 3)}


class _StubLinearization:
    """Stands in for the operator at the warm start: a fixed flux for any data."""

    def __init__(self, flux):
        self.flux = flux

    def dn_flux(self, h):
        return np.full(np.shape(h), self.flux)


def _decay_jets():
    m = build_disk_mesh(1.0, 0.05)
    fr = boundary_frame_at(m, 0.0)
    for name, d in (("tau", fr.tau), ("-nu", -fr.nu), ("0.6tau-0.8nu", 0.6 * fr.tau - 0.8 * fr.nu)):
        p = 5.0 * np.asarray(d) / np.linalg.norm(d)
        yield name, m, JetRequest(frame=fr, s=0.3, p=p, regime="decay")


@pytest.mark.parametrize("flux", [0.0, np.nan, 1e3], ids=["zeros", "nan", "wrong_sign"])
def test_newton_step_falls_back_on_an_unusable_slope(flux):
    # a linearized flux that is zero, not finite, or of the sign comparison
    # forbids gives no Newton step: the walk steps as before, bitwise
    for name, m, req in _decay_jets():
        res = prescribe_jet(preset_decay_mix(), m, req, linearization=_StubLinearization(flux))
        assert res.ok, res.message
        assert (res.t_star, res.solves) == WALK_JETS[name]


@pytest.mark.parametrize("flux", [None, 0.0, np.nan, 1e3],
                         ids=["operator", "zeros", "nan", "wrong_sign"])
def test_newton_step_keeps_the_attempt_budget(monkeypatch, flux):
    # the slope's linearized solve is no Dirichlet solve; the attempts stay
    # within max_solves whichever step the walk takes
    import qcond.barriers as B
    calls, solve = [], B.solve_dirichlet
    monkeypatch.setattr(B, "solve_dirichlet",
                        lambda *args, **kwargs: calls.append(1) or solve(*args, **kwargs))
    lin = None if flux is None else _StubLinearization(flux)
    for _, m, req in _decay_jets():
        calls.clear()
        res = prescribe_jet(preset_decay_mix(), m, req, max_solves=2, linearization=lin)
        assert len(calls) == res.solves <= 2


@pytest.mark.parametrize("expr,s,p_mag,kind", [("decay_mix(0.2,0.05,0.1)", 0.6, 2.0, "exp"),
                                                ("s_gauss(0.25)", 0.3, 0.03, "log")])
def test_normal_slope_derivative_matches_central_difference(expr, s, p_mag, kind):
    # along the barrier family f_t the achieved normal slope q(t) is what
    # the Newton step in t differentiates: normal_slope_derivative at the
    # jet of f_t0, with the linearized flux of d f_t / dt, against
    # (q(t0 + eps) - q(t0 - eps)) / (2 eps)
    cond = make_preset(expr)
    m = build_disk_mesh(1.0, 0.05)
    fr = boundary_frame_at(m, 0.7)
    yb = normalize_above_origin(m, fr).apply(m.vertices[m.boundary_loop])
    p = p_mag * (0.6 * fr.tau - 0.8 * fr.nu)
    p_t, t0 = float(fr.tau @ p), float(-fr.nu @ p)
    if kind == "exp":
        param = exp_barrier(s, (p_t, 1.5 * abs(t0)), cond.decay_constant, diam=m.diameter).param
    else:
        param = jet_radius(cond, s, m.diameter).A
    base = solve_dirichlet(cond, m, Barrier(kind, s, p_t, t0, param).value(yb))
    s_a, p_a = boundary_jet_of(base, fr)
    g = Barrier(kind, 0.0, 0.0, 1.0, param).value(yb)
    dq = normal_slope_derivative(cond, m, fr, s_a, p_a, g,
                                 LinearizedOperator.at_base(cond, base).dn_flux(g))
    eps = 1e-4
    q = [float(fr.nu @ boundary_jet_of(solve_dirichlet(
            cond, m, Barrier(kind, s, p_t, t0 + e, param).value(yb), warm_start=base), fr)[1])
         for e in (eps, -eps)]
    assert abs((q[0] - q[1]) / (2.0 * eps) - dq) <= 1e-6 * abs(dq), (q, dq)


@functools.lru_cache(maxsize=None)
def budget_mesh():
    return build_disk_mesh(1.0, 0.2)


BUDGET_MODELS = {"small": ("p_gauss(0.25)", "s_gauss(0.25)"), "decay": ("decay_mix(0.2,0.05,0.1)",)}


@pytest.mark.parametrize("regime", sorted(BUDGET_MODELS))
@settings(max_examples=30, deadline=None)
@given(pick=st.integers(0, 1), theta=st.floats(0.0, 2.0 * math.pi), s=st.floats(-0.5, 0.8),
       angle=st.floats(0.0, 2.0 * math.pi), frac=st.floats(0.0, 1.0),
       hint=st.one_of(st.none(), st.floats(-3.0, 3.0)), max_solves=st.integers(1, 8))
def test_prescribe_jet_keeps_its_budget(regime, pick, theta, s, angle, frac, hint, max_solves):
    # whatever the request, the hint and the budget, the search makes at
    # most max_solves Dirichlet solves, each a distinct attempt
    import qcond.barriers as B
    models = BUDGET_MODELS[regime]
    cond = make_preset(models[pick % len(models)])
    m = budget_mesh()
    fr = boundary_frame_at(m, theta)
    radius = 5.0 if regime == "decay" else 0.95 * jet_radius(cond, s, m.diameter).pi
    p = frac * radius * np.array([math.cos(angle), math.sin(angle)])
    calls, solve = [], B.solve_dirichlet

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    # rebound by hand: a function-scoped monkeypatch would span every example
    B.solve_dirichlet = counting
    try:
        res = prescribe_jet(cond, m, JetRequest(frame=fr, s=s, p=p, regime=regime),
                            max_solves=max_solves, t_hint=hint)
        assert res.solves == len(calls)
    except SolveError:
        pass
    finally:
        B.solve_dirichlet = solve
    assert 1 <= len(calls) <= max_solves


def test_decay_request_needs_decay_constant():
    m = build_disk_mesh(1.0, 0.2)
    fr = boundary_frame_at(m, 0.0)
    with pytest.raises(ValueError, match="^decay-regime request on a model without a "
                                         "decay constant$"):
        prescribe_jet(preset_p_gauss(0.25), m,
                      JetRequest(frame=fr, s=0.0, p=2.0 * fr.tau, regime="decay"))


def test_jet_request_rejects_unknown_regime():
    # an unknown regime is not read as either barrier family
    fr = boundary_frame_at(build_disk_mesh(1.0, 0.2), 0.0)
    with pytest.raises(ValueError, match="^regime must be one of small, decay, "
                                         r"got 'bogus'$"):
        JetRequest(frame=fr, s=0.0, p=0.1 * fr.tau, regime="bogus")


def test_bracket_failure_reported():
    m = build_disk_mesh(1.0, 0.2)
    cond = preset_p_gauss(0.25)
    fr = boundary_frame_at(m, 0.0)
    jr = jet_radius(cond, 0.0, m.diameter)
    p = 0.9 * jr.pi * fr.tau
    res = prescribe_jet(cond, m, JetRequest(frame=fr, s=0.0, p=p, regime="small"),
                        max_solves=1, t_hint=jr.b1)
    assert not res.ok and res.message


def _raise_timeout(signum, frame):
    raise TimeoutError("prescribe_jet ran past its time limit")


@pytest.mark.parametrize("scale", [1.0, 2.0, 5.0])
def test_unresolvable_jet_fails_within_budget(scale):
    # on this coarse mesh the jet error stalls above tol while regula falsi
    # squeezes the bracket to adjacent floats, so later t repeat tried ones;
    # each repeat spends the budget and the search ends with its jet error
    m = build_disk_mesh(1.0, 0.2)
    fr = boundary_frame_at(m, 0.0)
    req = JetRequest(frame=fr, s=0.3, p=scale * fr.tau, regime="decay")
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.alarm(10)
    try:
        res = prescribe_jet(preset_decay_mix(), m, req, max_solves=40)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert not res.ok and res.solves <= 40
    assert res.message.startswith("jet error "), res.message
