"""Boundary determination and algebraic inversion of the conductivity.

The measurement side pairs the linearized boundary flux map against
oscillatory probes concentrated at a boundary frame.  The leading
high-frequency response is linear in the frequency: its even (in the
probe direction) real slope estimates sqrt(det a_ij) at the boundary
jet, and its odd imaginary slope estimates the antisymmetric flux
component.  The inversion side turns those two measured invariants into
a(s, p) pointwise: matrix recovery from the tangential block for n >= 3
(pure linear algebra) and a radial integration identity for n = 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .barriers import JetRequest, prescribe_jet
from .conductivity import ConductivitySpec, jet_radius
from .forward import SolveError, _laplace_factor, solve_dirichlet
from .geometry import BoundaryFrame, Mesh, boundary_frame_at
from .linearized import LinearizedOperator

DEFAULT_LADDER = (8.0, 16.0, 32.0, 64.0)


# ---------------------------------------------------------------------------
# oscillatory probing
# ---------------------------------------------------------------------------

def _bump(t):
    """C-infinity transition equal to 1 at t >= 1 and 0 at t <= 0."""
    t = np.clip(t, 0.0, 1.0)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        f = np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        g = np.where(t < 1, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return f / (f + g)


def probe_width(tau: float, width_factor: float = 1.0) -> float:
    """Default window half-width (arclength): width_factor / sqrt(tau).

    The square-root scaling keeps coefficient/curvature variation across
    the window at a tau-independent size (absorbed by the fit intercept)
    while the spectral spread of the window shrinks relative to tau.
    """
    return width_factor / math.sqrt(tau)


def admissible_taus(mesh: Mesh, ladder: Sequence[float],
                    nyquist_nodes: int = 10) -> list:
    """Frequencies resolvable by the boundary mesh (nodes per wavelength)."""
    spacing = mesh.perimeter / len(mesh.boundary_loop)
    cap = 2.0 * math.pi / (nyquist_nodes * spacing)
    return [t for t in ladder if t <= cap]


def oscillatory_probe(mesh: Mesh, frame: BoundaryFrame, tau: float,
                      width: Optional[float] = None, sign: int = +1):
    """Windowed oscillation along the boundary, centered at the frame.

    h(x) = chi(arclength from x0) * exp(i sign tau <x - x0, tau_hat>)
    with chi a smooth plateau bump.  Returns (values over boundary_loop,
    squared L2 norm on the boundary).
    """
    if tau < 0:
        raise ValueError("oscillatory_probe: tau must be nonnegative")
    caps = admissible_taus(mesh, [tau]) if tau > 0 else [tau]
    if not caps:
        raise ValueError(f"probe frequency {tau:g} above the mesh Nyquist limit")
    W = width if width is not None else probe_width(max(tau, 1.0))
    arc = mesh.arclength - mesh.arclength[frame.loop_pos]
    per = mesh.perimeter
    arc = (arc + per / 2) % per - per / 2          # signed distance along the loop
    chi = _bump((W - np.abs(arc)) / (W / 2.0))
    phase = sign * tau * (mesh.vertices[mesh.boundary_loop] - frame.x0) @ frame.tau
    h = chi * np.exp(1j * phase)
    norm_sq = float(np.sum(mesh.vertex_weights * chi * chi))
    return h, norm_sq


@dataclass
class SymbolEstimate:
    """Leading-order symbol data measured at a boundary frame.

    real_slope estimates sqrt(det a_ij) at the jet; imag_slope the
    antisymmetric flux component A_ij nu_i tau_j.  The parity residual
    measures the even/odd split quality; the fit residual the linearity
    of the frequency response.
    """
    frame: BoundaryFrame
    jet: tuple
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
                   tau_list: Sequence[float], jet=(0.0, np.zeros(2)),
                   width_factor: float = 1.0,
                   fit_threshold: float = 0.05) -> SymbolEstimate:
    """Measure the first-order symbol of a linearized flux evaluator.

    ``dn_eval`` maps complex boundary data (loop order) to variational
    flux pairings.  For each frequency the probe is applied with both
    orientations; the conjugate symmetry of a real operator puts the
    metric part in the even combination and the antisymmetric part in
    the odd one.  Zeroth-order terms (drift and curvature contributions)
    land in the fit intercepts.

    With three or more frequencies the fit carries an extra tau^3 term:
    the variational pairing of a discrete solve is superconvergent
    (quadratic in the H1 error), so its discretization error scales as
    h^2 tau^3, and modeling it removes the dominant mesh bias from the
    slopes.  With only two frequencies the fit is plain linear.
    """
    taus = np.asarray(sorted(tau_list), dtype=float)
    if len(taus) < 2:
        raise ValueError("extract_symbol: need at least two admissible frequencies")
    if taus[-1] < 2.0 * taus[0]:
        raise ValueError("extract_symbol: frequency ladder spans less than one octave")
    P_plus = np.empty(len(taus), dtype=complex)
    P_minus = np.empty(len(taus), dtype=complex)
    for k, tau in enumerate(taus):
        for sign, out in ((+1, P_plus), (-1, P_minus)):
            h, nsq = oscillatory_probe(mesh, frame, tau, probe_width(tau, width_factor), sign)
            coeffs = dn_eval(h)
            out[k] = np.sum(coeffs * np.conj(h)) / nsq

    even = 0.5 * (P_plus + P_minus)
    odd = 0.5 * (P_plus - P_minus)
    scale = np.abs(P_plus).max()
    parity = float((np.abs(even.imag).max() + np.abs(odd.real).max()) / max(scale, 1e-300))

    A_lin = np.stack([taus, np.ones_like(taus)], axis=1)
    A_fit = (np.stack([taus, np.ones_like(taus), taus ** 3], axis=1)
             if len(taus) >= 3 else A_lin)
    coef_r = np.linalg.lstsq(A_fit, even.real, rcond=None)[0]
    coef_i = np.linalg.lstsq(A_fit, odd.imag, rcond=None)[0]
    # linearity diagnostic always from the 2-parameter model
    lin_r = np.linalg.lstsq(A_lin, even.real, rcond=None)[0]
    lin_i = np.linalg.lstsq(A_lin, odd.imag, rcond=None)[0]
    denom = max(abs(coef_r[0]) * taus[-1], 1e-300)
    fit_res = float(np.sqrt((np.sum((A_lin @ lin_r - even.real) ** 2)
                             + np.sum((A_lin @ lin_i - odd.imag) ** 2)) / len(taus)) / denom)
    return SymbolEstimate(frame=frame, jet=jet, tau_list=taus,
                          real_slope=float(coef_r[0]), imag_slope=float(coef_i[0]),
                          real_intercept=float(coef_r[1]), imag_intercept=float(coef_i[1]),
                          fit_residual=fit_res, parity_residual=parity,
                          reliable=(fit_res < fit_threshold and coef_r[0] > 0),
                          pairings=np.stack([P_plus, P_minus]))


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


def radial_integration_recovery(q_grid, D_values) -> np.ndarray:
    """Recover a(s, q e1) from D(s, q) = det + antisym^2 measurements.

    The measured combination satisfies d/dq [q^2 a^2] = 2 q D, so

        a(s, q) = sqrt( integral_0^q 2 r D(s, r) dr ) / q,   a(s, 0) = sqrt(D(0)).

    The cumulative integral uses composite Simpson on a uniform grid:
    the classical pair rule at even nodes and cubic-interpolated single
    intervals at odd nodes, so every node value is exact for cubic
    integrands (degree-3 D times the 2q weight split across pieces).
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
    f = 2.0 * q * D
    step = dq[0]
    n = len(q)
    I = np.zeros_like(q)
    for k in range(1, n):
        if k >= 2 and k % 2 == 0:
            I[k] = I[k - 2] + step * (f[k - 2] + 4.0 * f[k - 1] + f[k]) / 3.0
        elif k == 1 and n >= 4:
            I[1] = step * (9.0 * f[0] + 19.0 * f[1] - 5.0 * f[2] + f[3]) / 24.0
        elif k == 1:
            I[1] = step * (5.0 * f[0] + 8.0 * f[1] - f[2]) / 12.0
        elif k + 1 < n:
            I[k] = I[k - 1] + step * (-f[k - 2] + 13.0 * f[k - 1]
                                      + 13.0 * f[k] - f[k + 1]) / 24.0
        else:
            I[k] = I[k - 1] + step * (f[k - 3] - 5.0 * f[k - 2]
                                      + 19.0 * f[k - 1] + 9.0 * f[k]) / 24.0
    if np.any(I[1:] <= 0.0):
        raise RecoveryError("cumulative determinant integral lost positivity")
    a_hat = np.empty_like(q)
    a_hat[0] = math.sqrt(D[0])
    a_hat[1:] = np.sqrt(I[1:]) / q[1:]
    return a_hat


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
    a_true: Optional[float]
    rel_err: Optional[float]
    status: str
    theta: float


@dataclass
class RecoveryGrid:
    samples: list
    pi_profile: dict
    symbol_rows: list = field(default_factory=list)   # (s, theta, q, slopes, diagnostics)

    def rel_errors(self) -> np.ndarray:
        return np.array([x.rel_err for x in self.samples
                         if x.status == "ok" and x.rel_err is not None])

    def failures(self) -> list:
        return [x for x in self.samples if x.status != "ok"]


def reconstruct(cond: ConductivitySpec, mesh: Mesh, s_grid, grid: PolarGrid, *,
                regime: str = "small", tau_ladder: Sequence[float] = DEFAULT_LADDER,
                width_factor: float = 1.0, nyquist_nodes: int = 10,
                pi1: float = 1.0, big_n: float = 10.0,
                newton_tol: float = 1e-10, truth: Optional[ConductivitySpec] = None,
                jobs: int = 1, progress: Optional[Callable] = None) -> RecoveryGrid:
    """Reconstruct a(s, p) over a polar gradient grid from boundary data.

    For each state value and direction the pipeline prescribes boundary
    jets with vanishing normal slope and tangential magnitudes along a
    radial grid, measures the symbol invariants at each jet, and inverts
    the radial identity.  Per-sample failures are recorded and skipped.

    ``truth`` (defaults to ``cond``) fills the comparison columns; pass
    ``truth=None`` explicitly via compare_truth for blind runs.
    """
    taus = admissible_taus(mesh, tau_ladder, nyquist_nodes)
    if len(taus) < 2:
        raise ValueError("mesh too coarse for the frequency ladder")
    truth = truth if truth is not None else cond
    thetas = 2.0 * math.pi * np.arange(grid.n_directions) / grid.n_directions
    tasks = [(float(s), float(th)) for s in s_grid for th in thetas]

    pi_profile = {float(s): jet_radius(cond, float(s), mesh.diameter, pi1, big_n).pi
                  for s in s_grid}

    def run_chain(task):
        s, theta = task
        frame = boundary_frame_at(mesh, theta)
        if regime == "small":
            r_max = grid.radius_fraction * pi_profile[s]
        else:
            if grid.r_max is None:
                raise ValueError("decay-regime grid needs an explicit r_max")
            r_max = grid.r_max
        q_grid = np.linspace(0.0, r_max, grid.n_radii + 1)
        D = np.full(len(q_grid), np.nan)
        status = ["ok"] * len(q_grid)
        symrows = []
        t_hist = []
        u_prev = None
        for k, qv in enumerate(q_grid):
            try:
                if qv == 0.0:
                    base = solve_dirichlet(cond, mesh, np.full(len(mesh.boundary_loop), s),
                                           tol=newton_tol)
                    jet = (s, np.zeros(2))
                else:
                    t_hint = None
                    if len(t_hist) >= 2:
                        t_hint = t_hist[-1] + (t_hist[-1] - t_hist[-2])
                    elif t_hist:
                        t_hint = t_hist[-1]
                    req = JetRequest(frame=frame, s=s, p=qv * frame.tau, regime=regime)
                    res = prescribe_jet(cond, mesh, req, pi1=pi1, big_n=big_n,
                                        newton_tol=newton_tol, t_hint=t_hint, u_hint=u_prev)

                    if not res.ok:
                        status[k] = f"jet: {res.message}"
                        continue
                    t_hist.append(res.t_star)
                    base = res.sol
                    jet = (res.achieved_s, res.achieved_p)
                u_prev = base.u
                op = LinearizedOperator.at_base(cond, base)
                sym = extract_symbol(op.dn_flux, mesh, frame, taus, jet=jet,
                                     width_factor=width_factor)
                symrows.append((s, theta, float(qv), sym.real_slope, sym.imag_slope,
                                sym.fit_residual, sym.parity_residual))
                if not sym.reliable:
                    status[k] = f"symbol: fit residual {sym.fit_residual:.3e}"
                    continue
                det_est, anti_est = measured_invariants(sym)
                D[k] = det_est + anti_est ** 2
            except (SolveError, ValueError, RecoveryError) as exc:
                status[k] = f"{type(exc).__name__}: {exc}"
        out = []
        good = np.isfinite(D)
        # the cumulative identity only needs the radial prefix: salvage
        # everything before the first failed node
        first_bad = int(np.argmin(good)) if not good.all() else len(q_grid)
        a_hat = np.full(len(q_grid), np.nan)
        if first_bad >= 3:
            try:
                a_hat[:first_bad] = radial_integration_recovery(q_grid[:first_bad],
                                                                D[:first_bad])
            except RecoveryError as exc:
                status = [f"integration: {exc}"] * len(q_grid)
        for k in range(first_bad, len(q_grid)):
            if status[k] == "ok":
                status[k] = "skipped: radial chain broken earlier"
        for k, qv in enumerate(q_grid):
            if k == 0:
                continue       # q = 0 repeats across directions; skip in output
            p_vec = qv * frame.tau
            a_true = float(truth(s, p_vec)) if truth is not None else None
            ok = status[k] == "ok" and np.isfinite(a_hat[k])
            rel = abs(a_hat[k] - a_true) / a_true if (ok and a_true) else None
            out.append(RecoverySample(s=s, p=p_vec, a_hat=float(a_hat[k]) if ok else math.nan,
                                      a_true=a_true, rel_err=rel,
                                      status=status[k] if status[k] != "ok" or ok else "failed",
                                      theta=theta))
        if progress is not None:
            progress(task)
        return out, symrows

    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor
        # every factorization of every chain uses the mesh's interior
        # order: build it before the threads share the mesh cache
        _laplace_factor(mesh)
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(run_chain, tasks))
    else:
        chunks = [run_chain(t) for t in tasks]
    samples = [s for chunk, _ in chunks for s in chunk]
    symbol_rows = [r for _, rows in chunks for r in rows]
    return RecoveryGrid(samples=samples, pi_profile=pi_profile, symbol_rows=symbol_rows)
