import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qcond.geometry import boundary_frame_at, build_disk_mesh
from qcond.recovery import (PolarGrid, RecoveryError, admissible_taus,
                            assemble_tangential_matrix, extract_symbol,
                            measured_invariants, oscillatory_probe, probe_width,
                            radial_integration_recovery, recover_from_tangential_matrix,
                            spectrum_of_recovery_matrix)


# -- algebraic layer --------------------------------------------------------

def _tangential_data(m):
    vec = st.lists(st.floats(-3.0, 3.0), min_size=m, max_size=m).map(np.array)
    p = vec.filter(lambda v: np.linalg.norm(v) >= 0.1)
    return st.tuples(st.floats(-3.0, 3.0), vec, p)


@settings(max_examples=300, deadline=None)
@given(data=st.integers(2, 5).flatmap(_tangential_data))
def test_tangential_matrix_round_trip_property(data):
    # criterion 9's bounds over m = n - 1 in 2..5, |p'| away from 0
    a, q, p = data
    M = assemble_tangential_matrix(a, q, p)
    a2, q2 = recover_from_tangential_matrix(M, p)
    assert np.abs(assemble_tangential_matrix(a2, q2, p) - M).max() <= 1e-10
    dense = np.sort(np.linalg.eigvalsh(M))
    assert np.abs(spectrum_of_recovery_matrix(a, q, p) - dense).max() <= 1e-12


def test_spectrum_worked_example():
    # n = 4: M = 5 I + (q p^T + p q^T)/2 with p = e1, q = 2 e1 is diag(7,5,5)
    spec = spectrum_of_recovery_matrix(5.0, [2.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    assert np.allclose(spec, [5.0, 5.0, 7.0])
    dense = np.sort(np.linalg.eigvalsh(np.diag([7.0, 5.0, 5.0])))
    assert np.allclose(spec, dense, atol=1e-12)


def test_spectrum_degenerate_cases():
    assert np.allclose(spectrum_of_recovery_matrix(3.0, [0.0, 0.0], [1.0, 0.0]), [3.0, 3.0])
    spec = spectrum_of_recovery_matrix(0.0, [0.0, 1.0], [1.0, 0.0])
    assert np.allclose(spec, [-0.5, 0.5])


def test_spectrum_vs_dense_eig_random():
    rng = np.random.default_rng(21)
    for _ in range(300):
        n = rng.integers(3, 6)
        a = rng.normal()
        p = rng.normal(size=n - 1)
        q = rng.normal(size=n - 1)
        closed = spectrum_of_recovery_matrix(a, q, p)
        dense = np.sort(np.linalg.eigvalsh(assemble_tangential_matrix(a, q, p)))
        assert np.abs(closed - dense).max() < 1e-12


def test_tangential_recovery_worked_example():
    a, q = recover_from_tangential_matrix(np.diag([7.0, 5.0, 5.0]), [1.0, 0.0, 0.0])
    assert abs(a - 5.0) < 1e-12
    assert np.allclose(q, [2.0, 0.0, 0.0], atol=1e-12)


def test_tangential_recovery_isotropic_and_degenerate():
    a, q = recover_from_tangential_matrix(3.0 * np.eye(3), [0.5, 0.5, 0.0])
    assert abs(a - 3.0) < 1e-12 and np.linalg.norm(q) < 1e-12
    a0, q0 = recover_from_tangential_matrix(3.0 * np.eye(2), np.zeros(2))
    assert a0 == 3.0 and q0 is None


def test_tangential_recovery_round_trip():
    rng = np.random.default_rng(22)
    for _ in range(200):
        n = rng.integers(3, 6)
        a = rng.normal()
        p = rng.normal(size=n - 1)
        q = rng.normal(size=n - 1)
        M = assemble_tangential_matrix(a, q, p)
        a2, q2 = recover_from_tangential_matrix(M, p)
        M2 = assemble_tangential_matrix(a2, q2, p)
        assert np.abs(M - M2).max() < 1e-10


def test_radial_integration_constant():
    q = np.linspace(0.0, 1.0, 9)
    a_hat = radial_integration_recovery(q, np.ones_like(q))
    assert np.abs(a_hat - 1.0).max() < 1e-14


def test_radial_integration_symbolic_case():
    # a = 1 + p: D = (1+q)(1+2q), integral of 2r D = q^2 (1+q)^2 exactly
    q = np.linspace(0.0, 2.0, 35)        # 34 intervals: even count
    D = (1.0 + q) * (1.0 + 2.0 * q)
    a_hat = radial_integration_recovery(q, D)
    # cubic integrand: every node is quadrature-exact
    assert np.abs(a_hat - (1.0 + q)).max() < 1e-12
    assert a_hat[0] == 1.0


def test_radial_integration_state_only():
    q = np.linspace(0.0, 1.0, 17)
    aval = 1.3
    a_hat = radial_integration_recovery(q, np.full_like(q, aval ** 2))
    assert np.abs(a_hat - aval).max() < 1e-13


# D = c0 + c1 q + c2 q^2 + c3 q^3 stays >= 0.03 on every drawn grid; the
# identity then gives a(q) = sqrt(c0 + 2 c1 q / 3 + c2 q^2 / 2 + 2 c3 q^3 / 5)
_D_COEF = dict(c0=st.floats(1.0, 2.0), c1=st.floats(-0.3, 0.3), c2=st.floats(-0.3, 0.3),
               q_max=st.floats(0.05, 1.2))


def _radial_rel_err(n, q_max, c0, c1, c2, c3=0.0):
    q = np.linspace(0.0, q_max, n)
    exact = np.sqrt(c0 + 2.0 * c1 * q / 3.0 + 0.5 * c2 * q * q + 0.4 * c3 * q ** 3)
    a_hat = radial_integration_recovery(q, c0 + c1 * q + c2 * q * q + c3 * q ** 3)
    return float(np.abs(a_hat / exact - 1.0).max())


@settings(max_examples=300, deadline=None)
@given(n=st.integers(4, 40), c3=st.floats(-0.1, 0.1), **_D_COEF)
def test_radial_integration_exact_for_cubic_D(n, q_max, c0, c1, c2, c3):
    # first, interior and last windows, at every n
    assert _radial_rel_err(n, q_max, c0, c1, c2, c3) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(**_D_COEF)
# D = (1, 0.25, 1) on q = (0, 0.15, 0.3), a = (1, sqrt(3/8), sqrt(1/2)):
# the Newton-Cotes weights (5, 8, -1)/12 on the integrand 2 q D give a
# zero integral at node 1
@example(q_max=0.3, c0=1.0, c1=-10.0, c2=100.0 / 3.0)
def test_radial_integration_three_nodes_exact_for_quadratic_D(q_max, c0, c1, c2):
    assert _radial_rel_err(3, q_max, c0, c1, c2) <= 1e-12


def _lagrange_integrals(width):
    """Exact integrals over [o, o+1] of L_j and of x L_j, for the Lagrange
    basis L_j on the nodes 0 .. width-1."""
    from fractions import Fraction

    def times(poly, root):       # poly * (x - root), coefficients low to high
        return [b - root * a for a, b in zip(poly + [0], [0] + poly)]

    def integral(poly, o):
        return sum(c * Fraction((o + 1) ** (e + 1) - o ** (e + 1), e + 1)
                   for e, c in enumerate(poly))

    W0, W1 = [], []
    for o in range(width - 1):
        row0, row1 = [], []
        for j in range(width):
            L = [Fraction(1)]
            for i in range(width):
                if i != j:
                    L = [c / (j - i) for c in times(L, i)]
            row0.append(float(integral(L, o)))
            row1.append(float(integral([0] + L, o)))
        W0.append(row0)
        W1.append(row1)
    return W0, W1


def test_radial_integration_weight_tables():
    import qcond.recovery as R
    for width, W0, W1 in ((3, R._W0_3, R._W1_3), (4, R._W0_4, R._W1_4)):
        exact0, exact1 = _lagrange_integrals(width)
        assert W0.tolist() == exact0 and W1.tolist() == exact1


def test_radial_integration_flags_bad_measurements():
    q = np.linspace(0.0, 1.0, 9)
    with pytest.raises(RecoveryError):
        radial_integration_recovery(q, np.concatenate([[1.0], -np.ones(8)]))
    with pytest.raises(ValueError):
        radial_integration_recovery(q + 0.1, np.ones(9))     # grid must start at 0
    with pytest.raises(ValueError):
        radial_integration_recovery(np.array([0.0, 0.1, 0.3]), np.ones(3))


# -- probing layer ----------------------------------------------------------

def test_probe_structure():
    m = build_disk_mesh(1.0, 0.05)
    fr = boundary_frame_at(m, 0.7)
    h, nsq = oscillatory_probe(m, fr, 8.0)
    chi = np.abs(h)
    assert chi.max() <= 1.0 + 1e-12
    assert abs(chi[fr.loop_pos] - 1.0) < 1e-12        # plateau at the center
    assert nsq > 0
    h0, _ = oscillatory_probe(m, fr, 0.0)
    assert np.abs(h0.imag).max() < 1e-12              # tau = 0: real bump
    # support shrinks with frequency
    assert np.count_nonzero(np.abs(oscillatory_probe(m, fr, 16.0)[0])) < \
        np.count_nonzero(np.abs(h))


def test_probe_nyquist_rejection():
    m = build_disk_mesh(1.0, 0.1)
    with pytest.raises(ValueError, match="Nyquist"):
        oscillatory_probe(m, boundary_frame_at(m, 0.0), 500.0)


def test_admissible_taus():
    m = build_disk_mesh(1.0, 0.05)
    taus = admissible_taus(m, (8.0, 16.0, 32.0, 64.0))
    assert taus == [8.0, 16.0]
    m2 = build_disk_mesh(1.0, 0.025)
    assert admissible_taus(m2, (8.0, 16.0, 32.0, 64.0)) == [8.0, 16.0, 32.0]


def test_width_rule():
    assert probe_width(4.0) == 0.5
    assert probe_width(16.0) == 0.25


def test_extract_symbol_ladder_guards():
    m = build_disk_mesh(1.0, 0.05)
    fr = boundary_frame_at(m, 0.0)
    dummy = lambda h: np.zeros_like(h)
    with pytest.raises(ValueError, match="two admissible"):
        extract_symbol(dummy, m, fr, [8.0])
    with pytest.raises(ValueError, match="octave"):
        extract_symbol(dummy, m, fr, [8.0, 9.0])


def test_extract_symbol_on_synthetic_multiplier():
    # a fabricated first-order response: the multiplier c1 |xi| + c0 + i d1 xi
    # of signed frequency xi maps conjugate probes to conjugate fluxes, and
    # extract_symbol probes xi = +tau: flux = (c1 tau + c0 + i d1 tau) h
    m = build_disk_mesh(1.0, 0.025)
    fr = boundary_frame_at(m, 0.4)
    c1, c0, d1 = 1.7, 0.8, -0.35
    taus = [8.0, 16.0, 32.0]
    # the block holds one probe per frequency, in increasing order
    tau_col = np.array(sorted(taus))

    def dn_eval(H):
        return m.vertex_weights[:, None] * (c1 * tau_col + c0 + 1j * d1 * tau_col) * H

    sym = extract_symbol(dn_eval, m, fr, taus)
    assert abs(sym.real_slope - c1) < 1e-10
    assert abs(sym.imag_slope - d1) < 1e-10
    assert abs(sym.real_intercept - c0) < 1e-9
    assert sym.parity_residual < 1e-12
    assert sym.reliable
    det_est, anti_est = measured_invariants(sym)
    assert abs(det_est - c1 ** 2) < 1e-9 and abs(anti_est - d1) < 1e-10


def test_extract_symbol_flags_nonlinear_response():
    m = build_disk_mesh(1.0, 0.025)
    fr = boundary_frame_at(m, 0.4)
    rng = np.random.default_rng(3)
    noise = rng.normal(size=len(m.boundary_loop))

    def dn_eval(H):
        return (m.vertex_weights * noise)[:, None] * np.abs(H)   # no coherent linear part

    sym = extract_symbol(dn_eval, m, fr, [8.0, 16.0, 32.0])
    assert not sym.reliable


def test_polar_grid_defaults():
    g = PolarGrid()
    assert g.n_directions == 16 and g.n_radii == 8 and g.radius_fraction == 0.8


def test_reconstruct_salvages_radial_prefix():
    # radii beyond pi(s) cannot be prescribed in the small regime: the
    # chain keeps everything before the first failure and skips the rest
    from qcond.conductivity import preset_constant
    from qcond.recovery import reconstruct
    mesh = build_disk_mesh(1.0, 0.05)
    cond = preset_constant(1.0)
    grid = reconstruct(cond, mesh, (0.0,),
                       PolarGrid(n_directions=1, n_radii=6, radius_fraction=1.5))
    ok = [s for s in grid.samples if s.status == "ok"]
    bad = grid.failures()
    assert ok and bad
    assert max(np.linalg.norm(s.p) for s in ok) < min(np.linalg.norm(s.p) for s in bad)
    assert all(np.isfinite(s.a_hat) for s in ok)
    assert all(s.status.startswith("ValueError: jet outside the small-gradient radius: |p|=")
               and np.isnan(s.a_hat) for s in bad)
    # one record per task; D is measured exactly where the walk says "ok",
    # and a node whose jet failed, before its symbol fit, has no symbol
    chain, = grid.chains
    assert (chain.s, chain.theta) == (0.0, 0.0)
    assert [np.isfinite(d) for d in chain.D] == [st == "ok" for st in chain.status]
    assert [sym is None for sym in chain.symbols] == [
        st.startswith("ValueError: jet outside") for st in chain.status]


def test_reconstruct_names_the_cause_of_a_short_prefix():
    # pi(0) = 0.05 for constant(1) on the unit disk: node 2 (|p| = 0.075)
    # cannot be prescribed, and the two nodes before it are too few to
    # invert, so the |p| = 0.0375 sample is skipped with that cause
    from qcond.conductivity import preset_constant
    from qcond.recovery import reconstruct
    grid = reconstruct(preset_constant(1.0), build_disk_mesh(1.0, 0.1), (0.0,),
                       PolarGrid(n_directions=1, n_radii=2, radius_fraction=1.5),
                       tau_ladder=(2.0, 4.0))
    first, second = grid.samples
    assert abs(np.linalg.norm(first.p) - 0.0375) < 1e-12
    assert first.status == "skipped: fewer than 3 nodes before the first failure"
    assert second.status.startswith("ValueError: jet outside the small-gradient radius")
    assert all(np.isnan(s.a_hat) and s.rel_err is None for s in grid.samples)


def _invert_synthetic(q, D, status):
    """_invert_chain of a walk record of constant(1) along e2 at s = 0."""
    from qcond.conductivity import preset_constant
    from qcond.geometry import BoundaryFrame
    from qcond.recovery import ChainRecord, _invert_chain
    frame = BoundaryFrame(x0=np.array([1.0, 0.0]), nu=np.array([1.0, 0.0]),
                          tau=np.array([0.0, 1.0]), theta=0.0, vertex=0, loop_pos=0)
    return _invert_chain(preset_constant(1.0), ChainRecord(
        s=0.0, theta=0.0, frame=frame, q=q, D=D, status=status, symbols=[None] * len(q)))


_JET, _STALL = "jet: target normal slope 2 outside achieved interval [0, 1]", "SolveError: x"
_BROKEN = "skipped: radial chain broken earlier"
_NEGATIVE = "integration: nonpositive determinant measurement D; inversion invalid"
_LOST = "integration: cumulative determinant integral lost positivity"


@pytest.mark.parametrize("D,status,expect", [
    # every node measured: all four samples recovered
    ([1, 1, 1, 1, 1], ["ok"] * 5, ["ok"] * 4),
    # a break at node 3 keeps the three nodes before it; a later node that
    # was measured is skipped, one that failed keeps its own cause
    ([1, 1, 1, None, 1], ["ok"] * 3 + [_JET, "ok"], ["ok", "ok", _JET, _BROKEN]),
    ([1, 1, 1, None, None], ["ok"] * 3 + [_JET, _STALL], ["ok", "ok", _JET, _STALL]),
    # a break at node 2 leaves two nodes, too few for the identity
    ([1, 1, None, 1, 1], ["ok", "ok", _JET, "ok", "ok"],
     ["skipped: fewer than 3 nodes before the first failure", _JET, _BROKEN, _BROKEN]),
    # a negative D fails the inverted prefix only: node 4 failed on its own
    ([1, -1, 1, 1, None], ["ok"] * 4 + [_STALL], [_NEGATIVE] * 3 + [_STALL]),
    # a positive D whose first-interval integral is not: the cubic
    # interpolant of D dips below zero between nodes 0 and 1
    ([0.01, 0.01, 1, 0.01, None], ["ok"] * 4 + [_STALL], [_LOST] * 3 + [_STALL]),
], ids=["all_ok", "break_at_3", "break_at_3_then_fail", "break_at_2", "negative_D",
        "lost_positivity"])
def test_invert_chain_status_rules(D, status, expect):
    # synthetic walk records of constant(1), where D = 1 inverts to a = 1
    D = np.array([np.nan if d is None else d for d in D], dtype=float)
    samples = _invert_synthetic(np.linspace(0.0, 0.4, 5), D, status)
    assert [s.status for s in samples] == expect
    for s in samples:
        assert np.isfinite(s.a_hat) == (s.status == "ok")
        assert (s.rel_err is not None) == (s.status == "ok")
        if s.status == "ok":
            assert abs(s.a_hat - 1.0) < 1e-12
    assert [s.p[1] for s in samples] == list(np.linspace(0.0, 0.4, 5)[1:])


# a walked node: NaN with its failure cause, or a measured D, positive or not
_NODE = st.one_of(st.sampled_from([_JET, _STALL]).map(lambda cause: (np.nan, cause)),
                  st.floats(-2.0, 0.0).map(lambda d: (d, "ok")),
                  st.floats(0.1, 4.0).map(lambda d: (d, "ok")))


@settings(max_examples=300, deadline=None)
@given(nodes=st.lists(_NODE, min_size=2, max_size=12))
def test_invert_chain_status_property(nodes):
    # no PDE solve: synthetic walk records of constant(1)
    D = np.array([d for d, _ in nodes])
    status = [cause for _, cause in nodes]
    q = np.linspace(0.0, 0.1 * len(nodes), len(nodes))
    samples = _invert_synthetic(q, D, list(status))
    assert len(samples) == len(nodes) - 1
    assert all(np.isfinite(smp.a_hat) == (smp.status == "ok") for smp in samples)
    prefix = next((k for k, d in enumerate(D) if np.isnan(d)), len(D))
    # only the prefix before the first failure is inverted, and only when
    # it holds 3 or more nodes; an inversion failure marks that prefix only
    if prefix < 3:
        head = ["skipped: fewer than 3 nodes before the first failure"] * (prefix - 1)
    elif np.any(D[:prefix] <= 0):
        head = [_NEGATIVE] * (prefix - 1)
    else:
        try:
            a_hat = radial_integration_recovery(q[:prefix], D[:prefix])
        except RecoveryError as exc:
            head = [f"integration: {exc}"] * (prefix - 1)
        else:
            head = ["ok"] * (prefix - 1)
            assert [smp.a_hat for smp in samples[:prefix - 1]] == list(a_hat[1:])
    # later nodes keep their own failure cause, measured ones are skipped
    tail = [cause if cause != "ok" else _BROKEN for cause in status[max(prefix, 1):]]
    assert [smp.status for smp in samples] == head + tail


def _one_chain(R, model, regime="small"):
    """One chain of 2 radii at h = 0.1 (to r_max = 2 in the decay regime)."""
    from qcond.conductivity import make_preset
    r_max = 2.0 if regime == "decay" else None
    return R.reconstruct(make_preset(model), build_disk_mesh(1.0, 0.1), (0.0,),
                         PolarGrid(n_directions=1, n_radii=2, r_max=r_max), regime=regime,
                         tau_ladder=(2.0, 4.0))


def test_reconstruct_fit_residual_gate(monkeypatch):
    # with a zero threshold no fit is reliable: every node records its
    # fit residual and no sample is recovered
    import qcond.recovery as R
    monkeypatch.setattr(R, "FIT_THRESHOLD", 0.0)
    grid = _one_chain(R, "p_lorentz(0.2)")
    assert len(grid.samples) == 2
    for s, sym in zip(grid.samples, grid.chains[0].symbols[1:], strict=True):
        assert s.status == f"symbol: fit residual {sym.fit_residual:.3e}"
        assert np.isnan(s.a_hat) and s.rel_err is None


def test_reconstruct_rejects_fewer_than_two_admissible_frequencies():
    # the Nyquist cap of an h = 0.2 boundary (about 3.1) keeps one rung of
    # the ladder, and a slope cannot be fitted to one frequency
    from qcond.conductivity import preset_constant
    from qcond.recovery import reconstruct
    mesh = build_disk_mesh(1.0, 0.2)
    ladder = (2.0, 64.0)
    assert admissible_taus(mesh, ladder) == [2.0]
    with pytest.raises(ValueError, match="mesh too coarse for the frequency ladder"):
        reconstruct(preset_constant(1.0), mesh, (0.0,),
                    PolarGrid(n_directions=1, n_radii=2), tau_ladder=ladder)


@pytest.mark.parametrize("grid,regime,cause", [
    # one radius gives two nodes, and the radial identity needs three
    (PolarGrid(n_directions=1, n_radii=1), "small", r"n_radii >= 2"),
    (PolarGrid(n_directions=1, n_radii=2, r_max=1.0), "bogus",
     "^regime must be one of small, decay, got 'bogus'$"),
    (PolarGrid(n_directions=1, n_radii=2), "decay", "^decay-regime grid needs an explicit r_max$"),
    (PolarGrid(n_directions=1, n_radii=2, r_max=-1.0), "decay", "^r_max must be positive$"),
    # the small regime's radii come from radius_fraction and pi(s)
    (PolarGrid(n_directions=1, n_radii=2, r_max=1.0), "small",
     "^r_max applies to the decay regime only"),
    (PolarGrid(n_directions=1, n_radii=2, radius_fraction=0.0), "small",
     "^radius_fraction must be positive$"),
    # no direction, or no state value, would return no sample at all
    (PolarGrid(n_directions=0, n_radii=2), "small", "^n_directions must be at least 1$"),
    # a (grid, keyword arguments) pair passes the arguments to reconstruct
    ((PolarGrid(n_directions=1, n_radii=2), {"s_grid": ()}), "small",
     "^s_values must be non-empty$"),
    ((PolarGrid(n_directions=1, n_radii=2), {"jobs": 0}), "small",
     "^jobs must be at least 1$"),
    # a slope needs two frequencies an octave apart, also below the
    # Nyquist cap (about 8.4 on this mesh)
    ((PolarGrid(n_directions=1, n_radii=2), {"tau_ladder": (2.0, 3.0)}), "small",
     "^tau_ladder must span at least one octave$"),
    ((PolarGrid(n_directions=1, n_radii=2), {"tau_ladder": (-4.0, 4.0)}), "small",
     "^tau_ladder must be positive$"),
    ((PolarGrid(n_directions=1, n_radii=2), {"tau_ladder": (2.0, 3.0, 64.0)}), "small",
     "^mesh too coarse for the frequency ladder$"),
    # exp barriers take their step from the model's decay constant
    ((PolarGrid(n_directions=2, n_radii=3, r_max=1.0), {"cond": "p_gauss(0.25)"}), "decay",
     "^decay-regime request on a model without a decay constant$"),
])
def test_reconstruct_rejects_bad_requests_before_any_solve(grid, regime, cause):
    # the mesh's solver state is never built; a "cond" option names the
    # model's preset
    from qcond.conductivity import make_preset
    from qcond.recovery import reconstruct
    grid, options = grid if isinstance(grid, tuple) else (grid, {})
    options = {"cond": "decay_mix(0.2,0.05,0.1)", "s_grid": (0.0,), "tau_ladder": (2.0, 4.0),
               **options}
    mesh = build_disk_mesh(1.0, 0.1)
    with pytest.raises(ValueError, match=cause):
        reconstruct(mesh=mesh, grid=grid, regime=regime,
                    **{**options, "cond": make_preset(options["cond"])})
    assert mesh._cache == {}


def test_reconstruct_records_integration_failure(monkeypatch):
    # a nonpositive D at one node invalidates the whole radial inversion:
    # every sample of the chain records it and none is recovered
    import qcond.recovery as R
    measured = R.measured_invariants
    calls = []

    def negative_at_second_node(sym):
        calls.append(sym)
        det, anti = measured(sym)
        return (-1.0 - anti ** 2, anti) if len(calls) == 2 else (det, anti)

    monkeypatch.setattr(R, "measured_invariants", negative_at_second_node)
    grid = _one_chain(R, "p_lorentz(0.2)")
    assert len(calls) == 3 and len(grid.samples) == 2
    for s in grid.samples:
        assert s.status == ("integration: nonpositive determinant measurement D; "
                            "inversion invalid")
        assert np.isnan(s.a_hat) and s.rel_err is None


def test_reconstruct_records_newton_stall(monkeypatch):
    # every jet's Newton solve is cut to one iteration: the stall is
    # raised, recorded per sample, and no sample is recovered
    import qcond.barriers as B
    import qcond.recovery as R
    solve = B.solve_dirichlet
    monkeypatch.setattr(B, "solve_dirichlet",
                        lambda *args, **kwargs: solve(*args, **{**kwargs, "max_iter": 1}))
    grid = _one_chain(R, "decay_mix(0.2,0.05,0.1)", "decay")
    assert len(grid.samples) == 2
    for s in grid.samples:
        assert s.status.startswith("SolveError: Newton stalled after 1 iterations, residual ")
        assert np.isnan(s.a_hat) and s.rel_err is None


@pytest.mark.parametrize("regime", ["decay", "small"])
def test_reconstruct_records_jet_outside_bracket(monkeypatch, regime):
    # one solve per jet (in the small regime at the bracket's upper end)
    # cannot bracket the target slope: every sample records that
    import qcond.recovery as R
    prescribe = R.prescribe_jet
    cut = {"max_solves": 1} if regime == "decay" else {"max_solves": 1, "t_hint": 1e3}
    monkeypatch.setattr(R, "prescribe_jet",
                        lambda *args, **kwargs: prescribe(*args, **{**kwargs, **cut}))
    grid = _one_chain(R, "decay_mix(0.2,0.05,0.1)" if regime == "decay" else "p_gauss(0.25)",
                      regime)
    assert len(grid.samples) == 2
    for s in grid.samples:
        assert re.fullmatch(r"jet: target normal slope \S+ outside achieved interval "
                            r"\[\S+, \S+\]", s.status), s.status
        assert np.isnan(s.a_hat) and s.rel_err is None


# the a_hat of each chain below from probe blocks solved cold, before the
# chain recycled its probe solutions
COLD_START_A_HAT = {
    "p_lorentz(0.2)": (1.2139976986600831, 1.2139811184189724, 1.2139534909222547,
                       1.21391482458176, 1.2138651314562034, 1.2138044270562542,
                       1.2137327303218504, 1.2136500637112662),
    "s_gauss(0.25)": (1.2428183424181063, 1.2428182975783246, 1.2428182632611744,
                      1.242818239466128, 1.2428182261924439, 1.242818223438921,
                      1.2428182312042848, 1.2428182494866582),
}


@pytest.mark.parametrize("model, cold_iters", [("p_lorentz(0.2)", 92), ("s_gauss(0.25)", 108)])
def test_chain_recycles_its_probe_solutions(monkeypatch, model, cold_iters):
    # every node of a chain probes the same block: started from the chain's
    # last probe solutions, its operators take at most half the GMRES
    # iterations of cold starts, for the same a_hat to well within 1e-9
    from qcond.conductivity import make_preset
    from qcond.linearized import LinearizedOperator
    from qcond.recovery import reconstruct
    ops, at_base = [], LinearizedOperator.at_base
    monkeypatch.setattr(LinearizedOperator, "at_base",
                        lambda *args: ops.append(at_base(*args)) or ops[-1])
    grid = reconstruct(make_preset(model), build_disk_mesh(1.0, 0.05), (0.3,),
                       PolarGrid(n_directions=1, n_radii=8))
    assert len(ops) == 9 and sum(op.factorizations for op in ops) == 0
    assert sum(op.krylov_iters for op in ops) <= cold_iters // 2
    a_hat = np.array([smp.a_hat for smp in grid.samples])
    np.testing.assert_allclose(a_hat, COLD_START_A_HAT[model], rtol=1e-9, atol=0)


# Dirichlet solves of the decay chain below when each missed jet walked on
# with the first step max(|phi0|, 0.05 bracket): 3 for each of 8 jets
WALK_DECAY_CHAIN_SOLVES = 26


def test_decay_chain_lands_each_jet_on_its_second_solve(monkeypatch):
    # every jet gets the operator at its warm start, which the chain built
    # for probing; a missed first attempt takes a Newton step from it
    import qcond.recovery as R
    from qcond.conductivity import make_preset
    from qcond.linearized import LinearizedOperator
    built, jets = [], []
    at_base, prescribe = LinearizedOperator.at_base, R.prescribe_jet
    monkeypatch.setattr(LinearizedOperator, "at_base",
                        lambda *args: built.append((args[1], at_base(*args))) or built[-1][1])
    monkeypatch.setattr(R, "prescribe_jet", lambda *args, **kwargs: jets.append(
        (kwargs["warm_start"], kwargs["linearization"], prescribe(*args, **kwargs))) or jets[-1][2])
    grid = R.reconstruct(make_preset("decay_mix(0.2,0.05,0.1)"), build_disk_mesh(1.0, 0.05),
                         (0.6,), PolarGrid(n_directions=2, n_radii=5, r_max=5.0),
                         regime="decay")
    assert all(smp.status == "ok" for smp in grid.samples)
    operator_at = {id(base): op for base, op in built}
    assert len(jets) == 10
    for warm, lin, _ in jets:
        assert lin is operator_at[id(warm)]
    solves = [res.solves for *_, res in jets]
    assert max(solves) <= 2 and sum(solves) < WALK_DECAY_CHAIN_SOLVES


# the a_hat of a p_lorentz(0.2) chain (h=0.05, s=0.3, 8 radii)
SMALL_CHAIN_A_HAT = (1.2139976986617511, 1.213981118418355, 1.2139534909211382,
                     1.2139148245805929, 1.213865131452733, 1.2138044270491364,
                     1.2137327303160135, 1.2136500637085503)


def test_small_chain_makes_no_slope_solve(monkeypatch):
    # every small-regime jet lands on its first attempt, so the only
    # linearized fluxes are the probes: one dn_flux per extract_symbol
    import qcond.recovery as R
    from qcond.conductivity import make_preset
    from qcond.linearized import LinearizedOperator
    calls = {"flux": 0, "symbol": 0}
    dn_flux, extract = LinearizedOperator.dn_flux, R.extract_symbol

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(LinearizedOperator, "dn_flux", counted("flux", dn_flux))
    monkeypatch.setattr(R, "extract_symbol", counted("symbol", extract))
    grid = R.reconstruct(make_preset("p_lorentz(0.2)"), build_disk_mesh(1.0, 0.05), (0.3,),
                         PolarGrid(n_directions=1, n_radii=8))
    assert calls == {"flux": 9, "symbol": 9}
    assert tuple(smp.a_hat for smp in grid.samples) == SMALL_CHAIN_A_HAT
