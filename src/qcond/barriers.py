"""Explicit sub/supersolutions and boundary-jet prescription.

A barrier is a closed-form function on the normalized domain (tangent
along e1, inner normal along e2, domain in {y2 >= 0}) whose value and
gradient at the origin equal a requested jet (s, p).  With positive
normal slope it is a subsolution, with negative slope a supersolution,
so the comparison principle brackets the normal derivative of the true
solution between the two.  Prescribing a jet then reduces to a monotone
scalar root-find over the barrier's normal-slope parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .conductivity import (ConductivitySpec, evaluate_with_derivatives, jet_radius,
                           linearized_matrix)
from .forward import (DiscreteSolution, boundary_jet_of, normal_slope_derivative,
                      solve_dirichlet)
from .geometry import BoundaryFrame, Mesh, normalize_above_origin
from .linearized import LinearizedOperator


@dataclass(frozen=True)
class Barrier:
    """Closed-form one-sided solution on the normalized domain.

    s + p' y1 + pn phi(y2), with
    kind "log":  phi = -A log(1 - y2/A)      (param = A)
    kind "exp":  phi = h (e^{y2/h} - 1)      (param = h)

    Value s and gradient (p', pn) at the origin are exact.
    """
    kind: str
    s: float
    p_prime: float
    p_n: float
    param: float

    def __post_init__(self):
        if self.kind not in ("log", "exp"):
            raise ValueError(f"barrier kind must be log or exp, got {self.kind!r}")

    def _normal(self, y2):
        """pn phi(y2) and its first two y2-derivatives.  The product
        param pn is formed first: another order moves every jet's data by
        roundoff."""
        a, c = self.param, self.param * self.p_n
        if self.kind == "log":
            return -c * np.log1p(-y2 / a), c / (a - y2), c / (a - y2) ** 2
        e = np.exp(y2 / a)
        return c * np.expm1(y2 / a), self.p_n * e, (self.p_n / a) * e

    def value(self, y):
        y = np.asarray(y, dtype=float)
        return self.s + self.p_prime * y[..., 0] + self._normal(y[..., 1])[0]

    def gradient(self, y):
        y = np.asarray(y, dtype=float)
        g = np.empty(y.shape)
        g[..., 0] = self.p_prime
        g[..., 1] = self._normal(y[..., 1])[1]
        return g

    def hessian22(self, y):
        """Only the (2,2) entry is nonzero for either kind."""
        return self._normal(np.asarray(y, dtype=float)[..., 1])[2]


def log_barrier(s: float, p_normalized, A: float) -> Barrier:
    """Logarithmic barrier with A = 2 diam; valid while y2 < A."""
    p = np.asarray(p_normalized, dtype=float)
    return Barrier("log", float(s), float(p[0]), float(p[1]), float(A))


def exp_barrier(s: float, p_normalized, C_decay: float,
                h: Optional[float] = None, diam: float = 1.0) -> Barrier:
    """Exponential barrier for the decay regime.

    The step h is the largest value obeying |pn|/h >= C |p|, i.e.
    h = |pn|/(C |p|).  A vanishing normal slope admits no such h; a
    caller building the t-family passes h frozen from the bracket
    endpoint instead.
    """
    p = np.asarray(p_normalized, dtype=float)
    if h is None:
        if p[1] == 0.0:
            raise ValueError("exp_barrier: p_n = 0 admits no step h; pass one explicitly")
        denom = float(C_decay) * float(np.linalg.norm(p))
        h = abs(p[1]) / denom if denom > 0 else 2.0 * diam
    return Barrier("exp", float(s), float(p[0]), float(p[1]), float(h))


@dataclass
class MarginReport:
    """Least one-sided margin of a barrier over triangle barycenters."""
    min_margin: float

    @property
    def ok(self) -> bool:
        return self.min_margin >= -1e-10


def verify_one_sided(cond: ConductivitySpec, barrier: Barrier, mesh_normalized: Mesh) -> MarginReport:
    """Evaluate sign(pn) (a_ij d_ij u + a_s |Du|^2) at all barycenters.

    Nonnegative margins certify the sub/supersolution property for this
    conductivity; a negative margin beyond roundoff slack invalidates
    the barrier.
    """
    y = mesh_normalized.centroids
    u = barrier.value(y)
    du = barrier.gradient(y)
    h22 = barrier.hessian22(y)
    a, a_s, gp = evaluate_with_derivatives(cond, u, du)
    aij = linearized_matrix(a, gp, du)
    expr = aij[:, 1, 1] * h22 + a_s * np.sum(du * du, axis=-1)
    sgn = 1.0 if barrier.p_n >= 0 else -1.0
    return MarginReport(float((sgn * expr).min()))


def in_paraboloid(p_prime: float, p_n: float, b1: float, b2: float) -> bool:
    """Membership in the admissible set  |p'|^2 / B2 <= |pn| <= B1."""
    return p_prime * p_prime / b2 <= abs(p_n) <= b1


# "small" prescribes jets with log barriers inside the small-gradient
# radius, "decay" with exp barriers on models with a decay constant
REGIMES = ("small", "decay")


def check_regime(regime: str):
    """Raise ValueError unless ``regime`` is one of REGIMES."""
    if regime not in REGIMES:
        raise ValueError(f"regime must be one of {', '.join(REGIMES)}, got {regime!r}")


@dataclass(frozen=True)
class JetRequest:
    """Target boundary jet at a frame, in original coordinates."""
    frame: BoundaryFrame
    s: float
    p: np.ndarray
    regime: str = "small"

    def __post_init__(self):
        check_regime(self.regime)


@dataclass
class JetResult:
    sol: object                    # DiscreteSolution; its data is sol.f
    achieved_s: float
    achieved_p: np.ndarray
    t_star: float
    solves: int
    ok: bool
    message: str = ""


def prescribe_jet(cond: ConductivitySpec, mesh: Mesh, request: JetRequest, *,
                  max_solves: int = 40, t_hint: Optional[float] = None,
                  warm_start: Optional[DiscreteSolution] = None,
                  linearization: Optional[LinearizedOperator] = None) -> JetResult:
    """Construct boundary data whose solution attains the requested jet.

    The data is the trace of the barrier with normal slope t (log, or exp
    with its step frozen), f_t = s + p' y1 + t g(y2) with g >= 0, so f_t
    is pointwise monotone in t and the achieved normal slope at the frame
    is monotone by the comparison principle.  From t_hint (else p_n) the
    search makes a first attempt; if it misses, it walks towards the
    target slope until it brackets it, stopping at the comparison
    bracket's edge (jet_radius's B1 at pi1 = 1 for log barriers), where
    the family member is an exact sub/supersolution, and safeguarded
    regula falsi (Illinois) then closes the bracket.  The walk's first
    step is a Newton step in t: the achieved slope's derivative is the
    linearized flux of g at the frame, through boundary_jet_of's relation
    linearized at the first attempt's jet.  The flux comes from
    ``linearization``, the operator at ``warm_start`` (a chain's, built
    for probing), else from the operator at the first attempt's solution.
    A flux or derivative of the wrong sign or not finite falls back to
    the step max(|phi0|, 0.05 bracket); later steps double.  Every attempt
    at a t counts against ``max_solves``, a repeat included, so a jet the
    mesh cannot resolve to tol fails with its jet error at the best t
    tried; ``JetResult.solves`` counts distinct solves, and the slope's
    linearized solve is none.  Each solve is warm-started from the
    previous one, the first from ``warm_start`` (a solution on this mesh,
    such as the previous jet's base), plus the harmonic extension of the
    data change.
    """
    frame = request.frame
    p = np.asarray(request.p, dtype=float)
    tol = 1e-3 * (1.0 + np.linalg.norm(p))
    iso = normalize_above_origin(mesh, frame)
    p_t = float(frame.tau @ p)
    p_n = float(-frame.nu @ p)       # inner-normal slope in normalized coords

    jr = jet_radius(cond, request.s, mesh.diameter)
    if request.regime == "small":
        if np.linalg.norm(p) >= jr.pi:
            raise ValueError(f"jet outside the small-gradient radius: |p|="
                             f"{np.linalg.norm(p):.4g} >= pi(s)={jr.pi:.4g}")
        bracket, kind, param = jr.b1, "log", jr.A
    else:
        if cond.decay_constant is None:
            raise ValueError("decay-regime request on a model without a decay constant")
        bracket = max(1.0, 1.5 * abs(p_n))
        # the step rule is applied once, at the bracket endpoint
        kind, param = "exp", exp_barrier(request.s, (p_t, bracket), cond.decay_constant,
                                         diam=mesh.diameter).param

    yb = iso.apply(mesh.vertices[mesh.boundary_loop])
    table = {}      # t -> (achieved normal slope - p_n, jet error, sol, achieved s, p)
    attempts, prev = 0, warm_start

    def attempt(t: float):
        """(phi, jet error <= tol) at t, solving only at a t not tried before."""
        nonlocal attempts, prev
        attempts += 1
        if t not in table:
            f = Barrier(kind, request.s, p_t, t, param).value(yb)
            prev = solve_dirichlet(cond, mesh, f, warm_start=prev)
            s_a, p_a = boundary_jet_of(prev, frame)
            err = abs(s_a - request.s) + float(np.linalg.norm(p_a - p))
            table[t] = (float(-frame.nu @ p_a) - p_n, err, prev, s_a, p_a)
        return table[t][0], table[t][1] <= tol

    def finish(t: Optional[float] = None, message: Optional[str] = None) -> JetResult:
        """The result at t, by default the t of least jet error so far."""
        t = min(table, key=lambda k: table[k][1]) if t is None else t
        _, err, sol, s_a, p_a = table[t]
        if message is None and err > tol:
            message = f"jet error {err:.3e} > tol {tol:.3e}"
        return JetResult(sol=sol, achieved_s=s_a, achieved_p=p_a, t_star=t,
                         solves=len(table), ok=message is None, message=message or "")

    t0 = float(np.clip(t_hint if t_hint is not None else p_n, -bracket, bracket))
    phi0, done = attempt(t0)
    if done or phi0 == 0.0:      # at phi0 = 0 no t improves the jet
        return finish(t0)

    # walk downhill (achieved slope is monotone in t) to a sign change,
    # the first step a Newton step in t where its slope is usable
    d = -1.0 if phi0 > 0 else 1.0
    _, _, sol0, s_a, p_a = table[t0]
    op = (linearization if linearization is not None
          else LinearizedOperator.at_base(cond, sol0))
    g = Barrier(kind, 0.0, 0.0, 1.0, param).value(yb)      # d f_t / dt
    dflux = op.dn_flux(g)
    slope = -normal_slope_derivative(cond, mesh, frame, s_a, p_a, g, dflux)
    # g >= 0 vanishes at the frame, so by comparison its linearized flux
    # there is negative; a flux of another sign is no derivative
    newton = dflux[frame.loop_pos] < 0 and np.isfinite(slope) and slope > 0
    step = abs(phi0 / slope) if newton else max(abs(phi0), 0.05 * bracket)
    t, phi = t0, phi0
    while phi * phi0 > 0 and d * t < bracket and attempts < max_solves:
        t = max(-bracket, min(bracket, t + d * step))
        phi, done = attempt(t)
        if done:
            return finish(t)
        step *= 2.0
    if phi * phi0 > 0:
        return finish(message=f"target normal slope {p_n:.4g} outside achieved interval "
                              f"[{min(phi0, phi) + p_n:.4g}, {max(phi0, phi) + p_n:.4g}]")

    lo, flo, hi, fhi = (t, phi, t0, phi0) if d < 0 else (t0, phi0, t, phi)
    side = 0
    while attempts < max_solves:
        t_new = (lo * fhi - hi * flo) / (fhi - flo)
        t_new = float(np.clip(t_new, lo + 1e-3 * (hi - lo), hi - 1e-3 * (hi - lo)))
        f_new, done = attempt(t_new)
        if done:
            return finish(t_new)
        if f_new * flo < 0:
            hi, fhi = t_new, f_new
            if side == -1:
                flo *= 0.5
            side = -1
        else:
            lo, flo = t_new, f_new
            if side == 1:
                fhi *= 0.5
            side = 1
    return finish()
