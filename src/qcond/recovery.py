"""Boundary determination and algebraic inversion of the conductivity.

The measurement side pairs the linearized boundary flux map against
oscillatory probes at a boundary frame.  The high-frequency response is
linear in the frequency: its even real slope estimates sqrt(det a_ij) at
the boundary jet, its odd imaginary slope the antisymmetric flux
component.  The inversion side turns the two into a(s, p) pointwise:
matrix recovery from the tangential block for n >= 3 (pure linear
algebra), a radial integration identity for n = 2.  ``reconstruct``
walks each chain (a state value and a boundary direction) on a thread
pool, measuring at jets along a radial grid into a ChainRecord, and then
inverts each chain's record alone, in task order.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .barriers import JetRequest, check_regime, prescribe_jet
from .conductivity import ConductivitySpec, _smoothstep, jet_radius
from .forward import SolveError, _laplace_factor, solve_dirichlet
from .geometry import BoundaryFrame, Mesh, boundary_frame_at
from .linearized import RECYCLE_DEPTH, LinearizedOperator

DEFAULT_LADDER = (8.0, 16.0, 32.0, 64.0)
# a symbol fit is reliable when its linearity residual is below this;
# with only two admissible frequencies the linear fit is exact, so the
# gate cannot fire (see extract_symbol)
FIT_THRESHOLD = 0.05
# a resolvable probe frequency has at least this many boundary nodes
# per wavelength
NYQUIST_NODES = 10


# ---------------------------------------------------------------------------
# oscillatory probing
# ---------------------------------------------------------------------------

def probe_width(tau: float) -> float:
    """Window half-width (arclength) of a probe at frequency tau: 1/sqrt(tau).

    The square-root scaling keeps coefficient/curvature variation across
    the window at a tau-independent size (absorbed by the fit intercept)
    while the spectral spread of the window shrinks relative to tau.
    """
    return 1.0 / math.sqrt(tau)


def admissible_taus(mesh: Mesh, ladder: Sequence[float]) -> list:
    """The ladder frequencies whose wavelength spans at least
    NYQUIST_NODES boundary nodes of the mesh."""
    spacing = mesh.perimeter / len(mesh.boundary_loop)
    cap = 2.0 * math.pi / (NYQUIST_NODES * spacing)
    return [t for t in ladder if t <= cap]


def _spans_an_octave(taus) -> bool:
    """Whether the largest frequency is at least twice the smallest: the
    slope fit of extract_symbol needs frequencies an octave apart."""
    return len(taus) > 0 and max(taus) >= 2.0 * min(taus)


def oscillatory_probe(mesh: Mesh, frame: BoundaryFrame, tau: float,
                      width: Optional[float] = None):
    """Windowed oscillation along the boundary, centered at the frame.

    h(x) = chi(arclength from x0) * exp(i tau <x - x0, tau_hat>) with
    chi a smooth plateau bump.  The window is real, so the probe of the
    opposite orientation is the conjugate.  Returns (values over
    boundary_loop, squared L2 norm on the boundary).
    """
    if tau < 0:
        raise ValueError("oscillatory_probe: tau must be nonnegative")
    if tau > 0 and not admissible_taus(mesh, [tau]):
        raise ValueError(f"probe frequency {tau:g} above the mesh Nyquist limit")
    W = width if width is not None else probe_width(max(tau, 1.0))
    arc = mesh.arclength - mesh.arclength[frame.loop_pos]
    per = mesh.perimeter
    arc = (arc + per / 2) % per - per / 2          # signed distance along the loop
    chi = _smoothstep((W - np.abs(arc)) / (W / 2.0))
    phase = tau * (mesh.vertices[mesh.boundary_loop] - frame.x0) @ frame.tau
    h = chi * np.exp(1j * phase)
    norm_sq = float(np.sum(mesh.vertex_weights * chi * chi))
    return h, norm_sq


@dataclass
class SymbolEstimate:
    """Leading-order symbol data measured at a boundary frame.

    real_slope estimates sqrt(det a_ij) at the jet; imag_slope the
    antisymmetric flux component A_ij nu_i tau_j.  The fit residual
    measures the linearity of the frequency response.  The parity
    residual, a symbols.csv column, is 0.0: the opposite orientation's
    pairings are the conjugates, so the even/odd split is exactly the
    real/imaginary one.
    ``pairings`` holds the measured pairing P(tau) per frequency.
    """
    frame: BoundaryFrame
    tau_list: np.ndarray
    real_slope: float
    imag_slope: float
    real_intercept: float
    imag_intercept: float
    fit_residual: float
    parity_residual: float
    reliable: bool
    pairings: np.ndarray = field(default=None, repr=False)


def extract_symbol(dn_eval: Callable, mesh: Mesh, frame: BoundaryFrame,
                   tau_list: Sequence[float]) -> SymbolEstimate:
    """Measure the first-order symbol of a linearized flux evaluator.

    ``dn_eval`` maps an (n_boundary, K) block of complex boundary data
    (loop order) to the block of their variational flux pairings, and
    must commute with conjugation (a real operator).  It is called once,
    on the probes of all K frequencies, one column each in increasing
    order, each windowed to probe_width(tau).  The opposite orientation's
    probes and pairings are their conjugates, so the even combination of
    the two is the real part of the pairing, carrying the metric part, and
    the odd one its imaginary part, carrying the antisymmetric part; each
    is fit directly, and zeroth-order terms (drift and curvature) land in
    the fit intercepts.

    With three or more frequencies the fit carries an extra tau^3 term:
    the variational pairing of a discrete solve is superconvergent
    (quadratic in the H1 error), so its discretization error scales as
    h^2 tau^3, and modeling it removes the dominant mesh bias from the
    slopes.  With only two frequencies the fit is plain linear, and it
    passes through both points: the fit residual is zero up to
    roundoff, so the FIT_THRESHOLD gate cannot fire and ``reliable``
    reduces to a positive real slope.  That is every run at h = 0.05
    with the default ladder, which admits 8 and 16 only.
    """
    taus = np.asarray(sorted(tau_list), dtype=float)
    if len(taus) < 2:
        raise ValueError("extract_symbol: need at least two admissible frequencies")
    if not _spans_an_octave(taus):
        raise ValueError("extract_symbol: frequency ladder spans less than one octave")
    hs, nsqs = zip(*(oscillatory_probe(mesh, frame, tau, probe_width(tau))
                     for tau in taus))
    H = np.stack(hs, axis=1)
    P = np.sum(dn_eval(H) * np.conj(H), axis=0) / np.array(nsqs)

    A_lin = np.stack([taus, np.ones_like(taus)], axis=1)
    A_fit = (np.stack([taus, np.ones_like(taus), taus ** 3], axis=1)
             if len(taus) >= 3 else A_lin)
    coef_r = np.linalg.lstsq(A_fit, P.real, rcond=None)[0]
    coef_i = np.linalg.lstsq(A_fit, P.imag, rcond=None)[0]
    # linearity diagnostic always from the 2-parameter model
    lin_r = np.linalg.lstsq(A_lin, P.real, rcond=None)[0]
    lin_i = np.linalg.lstsq(A_lin, P.imag, rcond=None)[0]
    denom = max(abs(coef_r[0]) * taus[-1], 1e-300)
    fit_res = float(np.sqrt((np.sum((A_lin @ lin_r - P.real) ** 2)
                             + np.sum((A_lin @ lin_i - P.imag) ** 2)) / len(taus)) / denom)
    return SymbolEstimate(frame=frame, tau_list=taus,
                          real_slope=float(coef_r[0]), imag_slope=float(coef_i[0]),
                          real_intercept=float(coef_r[1]), imag_intercept=float(coef_i[1]),
                          fit_residual=fit_res, parity_residual=0.0,
                          reliable=(fit_res < FIT_THRESHOLD and coef_r[0] > 0),
                          pairings=P)


def measured_invariants(sym: SymbolEstimate):
    """(det estimate, antisymmetric flux estimate) from a symbol fit."""
    return sym.real_slope ** 2, sym.imag_slope


# ---------------------------------------------------------------------------
# algebraic inversion layer
# ---------------------------------------------------------------------------

def spectrum_of_recovery_matrix(a_val: float, grad_vec, p_prime) -> np.ndarray:
    """Eigenvalues of a I + (q (x) p + p (x) q)/2, sorted increasing.

    Closed form: a + (p.q -/+ |p||q|)/2 at the extremes with a repeated
    (n-3) times in between, for (n-1)-dimensional tangential data.
    """
    p = np.asarray(p_prime, dtype=float)
    q = np.asarray(grad_vec, dtype=float)
    m = len(p)
    if m < 2:
        raise ValueError("tangential dimension must be at least 2 (n >= 3)")
    pq = float(p @ q)
    pn_qn = float(np.linalg.norm(p) * np.linalg.norm(q))
    lo = a_val + 0.5 * (pq - pn_qn)
    hi = a_val + 0.5 * (pq + pn_qn)
    return np.sort(np.concatenate([[lo], np.full(m - 2, a_val), [hi]]))


def recover_from_tangential_matrix(M: np.ndarray, p_prime):
    """Invert M = a I + (q (x) p' + p' (x) q)/2 for (a, q).

    Directions orthogonal to p' see only a; the remaining linear system
    along p' determines q.  With p' = 0 the matrix is a I and q is
    unrecoverable (returned as None).
    """
    M = np.asarray(M, dtype=float)
    p = np.asarray(p_prime, dtype=float)
    m = len(p)
    pn = np.linalg.norm(p)
    if pn == 0.0:
        return float(M[0, 0]), None
    phat = p / pn
    proj = np.eye(m) - np.outer(phat, phat)
    a_val = float(np.trace(proj @ M @ proj) / (m - 1))
    pq = float(p @ M @ p / (pn * pn) - a_val)
    q = (2.0 * (M @ p - a_val * p) - pq * p) / (pn * pn)
    return a_val, q


def assemble_tangential_matrix(a_val: float, grad_vec, p_prime) -> np.ndarray:
    """Forward map for the round-trip checks of the matrix recovery."""
    p = np.asarray(p_prime, dtype=float)
    q = np.asarray(grad_vec, dtype=float)
    return a_val * np.eye(len(p)) + 0.5 * (np.outer(q, p) + np.outer(p, q))


class RecoveryError(RuntimeError):
    """A measurement is inconsistent with the inversion identities."""


# row o: the integrals over [o, o+1] of L_j (W0) and x L_j (W1), for the
# Lagrange basis L_j on the nodes 0 .. 3 (0 .. 2: a 3-node grid's window)
_W0_4 = np.array([[9, 19, -5, 1], [-1, 13, 13, -1], [1, -5, 19, 9]]) / 24
_W1_4 = np.array([[38, 171, -36, 7], [-22, 261, 324, -23], [38, -189, 684, 367]]) / 360
_W0_3 = np.array([[5, 8, -1], [-1, 8, 5]]) / 12
_W1_3 = np.array([[3, 10, -1], [-3, 22, 17]]) / 24


def radial_integration_recovery(q_grid, D_values) -> np.ndarray:
    """Recover a(s, q e1) from D(s, q) = det + antisym^2 measurements.

    The measured combination satisfies d/dq [q^2 a^2] = 2 q D, so

        a(s, q) = sqrt( integral_0^q 2 r D(s, r) dr ) / q,   a(s, 0) = sqrt(D(0)).

    The cumulative integral is one product rule on a uniform grid of step
    h: interval k, from q[k-1] to q[k], integrates 2 q times the cubic
    interpolant of D on the nodes m .. m+3, m = k - 2 clipped to the grid,
    exactly.  In x = q/h - m the factor 2 q is 2 h (m + x), so the weights
    are m W0[o] + W1[o] at offset o = k - 1 - m.  A 3-node grid takes its
    quadratic interpolant.  Node values are exact for cubic D (quadratic D
    on 3 nodes).
    """
    q = np.asarray(q_grid, dtype=float)
    D = np.asarray(D_values, dtype=float)
    if len(q) < 3 or q[0] != 0.0:
        raise ValueError("radial grid must start at 0 with at least 3 nodes")
    dq = np.diff(q)
    if np.max(np.abs(dq - dq[0])) > 1e-9 * dq[0]:
        raise ValueError("radial grid must be uniform")
    if np.any(D <= 0.0):
        raise RecoveryError("nonpositive determinant measurement D; inversion invalid")
    n = len(q)
    W0, W1 = (_W0_3, _W1_3) if n == 3 else (_W0_4, _W1_4)
    k = np.arange(1, n)
    m = np.clip(k - 2, 0, n - W0.shape[1])
    o = k - 1 - m
    window = D[m[:, None] + np.arange(W0.shape[1])]
    I = np.cumsum(2.0 * dq[0] ** 2 * np.sum((m[:, None] * W0[o] + W1[o]) * window, axis=1))
    if np.any(I <= 0.0):
        raise RecoveryError("cumulative determinant integral lost positivity")
    return np.concatenate([[math.sqrt(D[0])], np.sqrt(I) / q[1:]])


# ---------------------------------------------------------------------------
# end-to-end reconstruction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolarGrid:
    """Sampling plan for the gradient variable: directions are realized
    as boundary frames (the disk provides the full rotation sweep)."""
    n_directions: int = 16
    n_radii: int = 8
    radius_fraction: float = 0.8
    r_max: Optional[float] = None      # decay regime: explicit radius


@dataclass
class RecoverySample:
    s: float
    p: np.ndarray
    a_hat: float
    a_true: float
    rel_err: Optional[float]
    status: str


@dataclass
class ChainRecord:
    """A walked chain (s, theta): per node of the radial grid q, the
    measured D = det + antisym^2 (NaN at a failed node), the node status,
    and the symbol fit (None where the node failed before its fit)."""
    s: float
    theta: float
    frame: BoundaryFrame
    q: np.ndarray
    D: np.ndarray
    status: list
    symbols: list


@dataclass
class RecoveryGrid:
    samples: list
    pi_profile: dict
    chains: list          # one ChainRecord per (s, theta) task, in task order

    def rel_errors(self) -> np.ndarray:
        return np.array([x.rel_err for x in self.samples
                         if x.status == "ok" and x.rel_err is not None])

    def failures(self) -> list:
        return [x for x in self.samples if x.status != "ok"]

    def error_stats(self) -> dict:
        """Sample and failure counts with the max and median rel_err."""
        errs = self.rel_errors()
        return {"n_samples": len(errs), "n_failed": len(self.failures()),
                "max_rel_err": float(errs.max()) if len(errs) else math.nan,
                "median_rel_err": float(np.median(errs)) if len(errs) else math.nan}


def check_request(cond: ConductivitySpec, s_grid, grid: PolarGrid, regime: str,
                  tau_ladder: Sequence[float], jobs: int):
    """Raise ValueError unless a reconstruction can run on these inputs.

    These are all the rules on a request that need no mesh: reconstruct
    checks its arguments, and the harness every config, through here.
    """
    check_regime(regime)
    if not len(s_grid):
        raise ValueError("s_values must be non-empty")
    if grid.n_radii < 2:
        raise ValueError("the radial inversion needs n_radii >= 2 (at least 3 nodes)")
    for name, value in (("n_directions", grid.n_directions), ("jobs", jobs)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1")
    if regime == "small" and grid.r_max is not None:
        raise ValueError("r_max applies to the decay regime only; "
                         "the small regime takes radius_fraction")
    if regime == "decay" and grid.r_max is None:
        raise ValueError("decay-regime grid needs an explicit r_max")
    # zero would collapse every chain's radii onto p = 0; radius_fraction
    # may exceed 1, and radii beyond pi(s) then fail per sample
    for name, value in (("r_max", grid.r_max), ("radius_fraction", grid.radius_fraction)):
        if value is not None and not value > 0:
            raise ValueError(f"{name} must be positive")
    if not len(tau_ladder) or any(not tau > 0 for tau in tau_ladder):
        raise ValueError("tau_ladder must be positive")
    if not _spans_an_octave(tau_ladder):
        raise ValueError("tau_ladder must span at least one octave")
    if regime == "decay" and cond.decay_constant is None:
        raise ValueError("decay-regime request on a model without a decay constant")


def _walk_chain(cond: ConductivitySpec, mesh: Mesh, task: tuple, r_max: float,
                n_radii: int, regime: str, taus: list, progress: Optional[Callable]):
    """Measure chain task = (s, theta) node by node along q in [0, r_max].

    Each node's base (the constant-s solve at q = 0, else a jet warm-started
    from the previous base, whose operator gives the jet its Newton slope)
    gives a linearized operator and a symbol fit; a failure becomes the
    node's status.  Every node probes the same block, so each operator
    starts its GMRES from the chain's last RECYCLE_DEPTH probe solutions.
    Returns the chain's ChainRecord.
    """
    s, theta = task
    frame = boundary_frame_at(mesh, theta)
    q_grid = np.linspace(0.0, r_max, n_radii + 1)
    D, status = np.full(len(q_grid), np.nan), ["ok"] * len(q_grid)
    symbols, t_hist, prev, op = [None] * len(q_grid), [], None, None
    probe_hist = deque(maxlen=RECYCLE_DEPTH)
    for k, qv in enumerate(q_grid):
        try:
            if qv == 0.0:
                base = solve_dirichlet(cond, mesh, np.full(len(mesh.boundary_loop), s))
            else:
                t_hint = (t_hist[-1] + (t_hist[-1] - t_hist[-2]) if len(t_hist) >= 2
                          else t_hist[-1] if t_hist else None)
                req = JetRequest(frame=frame, s=s, p=qv * frame.tau, regime=regime)
                res = prescribe_jet(cond, mesh, req, t_hint=t_hint, warm_start=prev,
                                    linearization=op)
                if not res.ok:
                    status[k] = f"jet: {res.message}"
                    continue
                t_hist.append(res.t_star)
                base = res.sol
            # solved by GMRES on the mesh's Laplace LU; the next jet starts
            # from base with op, so the two are handed on together
            op = LinearizedOperator.at_base(cond, base, probe_hist)
            prev = base
            sym = extract_symbol(op.dn_flux, mesh, frame, taus)
            # before the next jet's slope solve overwrites op.solution
            probe_hist.append(op.solution)
            symbols[k] = sym
            if not sym.reliable:
                status[k] = f"symbol: fit residual {sym.fit_residual:.3e}"
                continue
            det_est, anti_est = measured_invariants(sym)
            D[k] = det_est + anti_est ** 2
        except (SolveError, ValueError) as exc:
            status[k] = f"{type(exc).__name__}: {exc}"
    if progress is not None:
        progress(task)
    return ChainRecord(s=s, theta=theta, frame=frame, q=q_grid, D=D, status=status,
                       symbols=symbols)


def _invert_chain(cond: ConductivitySpec, chain: ChainRecord) -> list:
    """The samples of a walked chain but its q = 0 node, which every
    direction repeats.  The radial identity only needs a prefix: the nodes
    before the first failure are inverted, the rest skipped.  a_hat is
    finite exactly when the status is "ok"."""
    s, q_grid, D = chain.s, chain.q, chain.D
    prefix = next((k for k, d in enumerate(D) if not np.isfinite(d)), len(D))
    status = [st if k < prefix or st != "ok" else "skipped: radial chain broken earlier"
              for k, st in enumerate(chain.status)]
    a_hat = np.full(len(q_grid), np.nan)
    if prefix < 3:
        status[:prefix] = ["skipped: fewer than 3 nodes before the first failure"] * prefix
    else:
        try:
            a_hat[:prefix] = radial_integration_recovery(q_grid[:prefix], D[:prefix])
        except RecoveryError as exc:
            status[:prefix] = [f"integration: {exc}"] * prefix
    out = []
    for qv, a, st in zip(q_grid[1:], a_hat[1:], status[1:]):
        p_vec = qv * chain.frame.tau
        a_true = float(cond(s, p_vec))
        rel = abs(a - a_true) / a_true if (st == "ok" and a_true) else None
        out.append(RecoverySample(s=s, p=p_vec, a_hat=float(a), a_true=a_true, rel_err=rel,
                                  status=st))
    return out


def reconstruct(cond: ConductivitySpec, mesh: Mesh, s_grid, grid: PolarGrid, *,
                regime: str = "small", tau_ladder: Sequence[float] = DEFAULT_LADDER,
                jobs: int = 1, progress: Optional[Callable] = None) -> RecoveryGrid:
    """Reconstruct a(s, p) over a polar gradient grid from boundary data.

    Each (s, direction) pair is a chain.  A pool of ``jobs`` threads walks
    the chains, measuring the symbol invariants at jets of vanishing normal
    slope along a radial grid into one ChainRecord each (the grid's
    ``chains``), and calls ``progress(task)`` as each walk ends; then each
    record's radial identity is inverted, in task order.
    Per-sample failures are recorded and skipped.  Every sample is scored
    against ``cond`` itself (``a_true``, ``rel_err``): a run reconstructs
    a known model.  The jet radius pi(s) is jet_radius's at pi1 = 1, N = 10.
    """
    check_request(cond, s_grid, grid, regime, tau_ladder, jobs)
    # the Nyquist cap may drop rungs until the rest span less than an octave
    taus = admissible_taus(mesh, tau_ladder)
    if not _spans_an_octave(taus):
        raise ValueError("mesh too coarse for the frequency ladder")
    thetas = 2.0 * math.pi * np.arange(grid.n_directions) / grid.n_directions
    tasks = [(float(s), float(th)) for s in s_grid for th in thetas]
    pi_profile = {float(s): jet_radius(cond, float(s), mesh.diameter).pi for s in s_grid}
    r_max = {s: grid.r_max or grid.radius_fraction * pi for s, pi in pi_profile.items()}
    # every chain's assembly and warm starts use the mesh's P1 pattern and
    # Laplace LU: build both before any chain, so no chain writes to the mesh
    _laplace_factor(mesh)
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        chains = list(pool.map(lambda task: _walk_chain(
            cond, mesh, task, r_max[task[0]], grid.n_radii, regime, taus, progress), tasks))
    samples = [smp for chain in chains for smp in _invert_chain(cond, chain)]
    return RecoveryGrid(samples=samples, pi_profile=pi_profile, chains=chains)
