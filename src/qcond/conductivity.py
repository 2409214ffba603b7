"""Quasilinear conductivity models a(s, p) and their structural data.

A conductivity is a scalar function a(s, p) of a state value s and a
gradient vector p.  The linearization of the divergence-form equation
around a solution involves the symmetric matrix

    a_ij = a I + (1/2) (a_p (x) p + p (x) a_p),

an antisymmetric matrix built from a_p and the solution gradient, and a
drift from a_s.  This module evaluates those objects, checks the
coercivity/growth bounds a model declares, and computes the gradient
radius pi(s) inside which boundary jets can be prescribed.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


class ConductivityError(ValueError):
    """Raised when a conductivity specification produces invalid values."""


def _as_sp(s, p):
    """Broadcast (s, p) to arrays of shape (...,) and (..., n)."""
    p = np.asarray(p, dtype=float)
    s = np.asarray(s, dtype=float)
    if p.ndim == 1:
        return s, p
    s = np.broadcast_to(s, p.shape[:-1])
    return s, p


@dataclass(frozen=True)
class ConductivitySpec:
    """An evaluable conductivity a(s, p) with declared structural bounds.

    Parameters
    ----------
    name : str
        Identifier used in reports.
    fn : callable
        ``fn(s, p) -> a`` with ``s`` of shape (...,) and ``p`` of shape
        (..., 2); must vectorize over leading axes.
    grad : callable
        ``grad(s, p) -> (a_s, grad_p_a)`` in closed form.
    lambda0 : callable
        Non-increasing coercivity floor, a function of |s|.
    mu0 : callable
        Non-decreasing growth ceiling, a function of |s|.
    decay_constant : float, optional
        Constant C in the large-gradient drift bound
        |a_s| <= C lambda(s,p)/|p|.  Present iff the model operates in
        the decay regime.
    """

    name: str
    fn: Callable
    grad: Callable
    lambda0: Callable = lambda t: 1.0
    mu0: Callable = lambda t: 1.0
    decay_constant: Optional[float] = None

    def __call__(self, s, p):
        return self.fn(*_as_sp(s, p))


def evaluate_with_derivatives(cond: ConductivitySpec, s, p):
    """Evaluate (a, a_s, grad_p a) at (s, p), vectorized over leading axes.

    The derivatives are the model's closed-form ``grad``.  Non-finite
    output raises ConductivityError.
    """
    s, p = _as_sp(s, p)
    a = cond.fn(s, p)
    a_s, gp = cond.grad(s, p)
    a_s = np.broadcast_to(np.asarray(a_s, dtype=float), np.shape(a))
    gp = np.broadcast_to(np.asarray(gp, dtype=float), np.shape(p))
    _reject_nonfinite(cond, s, p, np.isfinite(a) & np.isfinite(a_s)
                      & np.all(np.isfinite(gp), axis=-1))
    return np.asarray(a, dtype=float), np.asarray(a_s, dtype=float), gp


def evaluate(cond: ConductivitySpec, s, p) -> np.ndarray:
    """Evaluate a(s, p) alone, vectorized over leading axes.

    For callers that need no derivatives; non-finite output raises
    ConductivityError as in evaluate_with_derivatives.
    """
    s, p = _as_sp(s, p)
    a = np.asarray(cond.fn(s, p), dtype=float)
    _reject_nonfinite(cond, s, p, np.isfinite(a))
    return a


def _reject_nonfinite(cond: ConductivitySpec, s, p, finite) -> None:
    if not np.all(finite):
        bad = ~finite
        raise ConductivityError(
            f"{cond.name}: non-finite evaluation at s={np.asarray(s)[bad][:1]}, "
            f"p={np.asarray(p)[bad][:1]}")


def linearized_conductivity(cond: ConductivitySpec, s, p) -> np.ndarray:
    """Symmetric matrix a I + (1/2)(a_p (x) p + p (x) a_p), shape (..., n, n)."""
    s, p = _as_sp(s, p)
    a, _, gp = evaluate_with_derivatives(cond, s, p)
    return linearized_matrix(a, gp, p)


def linearized_matrix(a, gp, p) -> np.ndarray:
    """The matrix of linearized_conductivity from values (a, grad_p a) at p
    that evaluate_with_derivatives has already returned."""
    p = np.asarray(p, dtype=float)
    sym = 0.5 * (gp[..., :, None] * p[..., None, :] + p[..., :, None] * gp[..., None, :])
    return np.asarray(a)[..., None, None] * np.eye(p.shape[-1]) + sym


# ---------------------------------------------------------------------------
# structural condition report
# ---------------------------------------------------------------------------

@dataclass
class ConditionMargin:
    """Worst-case margin of one structural inequality (>= 0 means satisfied)."""
    margin: float
    at_s: float
    at_p: np.ndarray

    @property
    def ok(self) -> bool:
        return self.margin >= -1e-12


@dataclass
class ConditionReport:
    cond_name: str
    margins: dict = field(default_factory=dict)

    # coercivity failures are fatal for a run; growth/decay are advisory
    HARD = ("coer_a", "coer_lam0", "coer_eig")

    @property
    def passed(self) -> bool:
        return all(self.margins[k].ok for k in self.HARD if k in self.margins)

    @property
    def warnings(self) -> list:
        return [k for k, m in self.margins.items() if not m.ok and k not in self.HARD]

    def summary(self) -> str:
        lines = [f"structural check: {self.cond_name}"]
        for k, m in self.margins.items():
            tag = "ok" if m.ok else ("FAIL" if k in self.HARD else "warn")
            lines.append(f"  {k:10s} margin={m.margin:+.3e} at s={m.at_s:+.3f} "
                         f"p={np.array2string(m.at_p, precision=3)} [{tag}]")
        return "\n".join(lines)


# the structural scan samples STRUCTURAL_GRID values of s and of |p|, and
# STRUCTURAL_DIRECTIONS equally spaced directions of p
STRUCTURAL_GRID = 24
STRUCTURAL_DIRECTIONS = 8


def check_structural_conditions(cond: ConductivitySpec, s_range, p_range) -> ConditionReport:
    """Scan the declared bounds on a dense (s, p) grid and report margins.

    Checks, in order: a >= 1, min eig of a_ij >= lambda0(|s|),
    |p||grad_p a| + |a| <= mu0(|s|), (1+|p|)|a_s| <= mu0(|s|)|p|, and,
    when a decay constant is declared, |a_s| <= C lambda(s,p)/|p| plus
    the constant-floor ellipticity bound.  A violation is a reported
    outcome, not a fault.
    """
    s_lo, s_hi = float(s_range[0]), float(s_range[-1])
    r_lo, r_hi = float(p_range[0]), float(p_range[-1])
    if s_hi < s_lo or r_hi < r_lo:
        raise ValueError("check_structural_conditions: empty ranges")
    s_grid = np.linspace(s_lo, s_hi, STRUCTURAL_GRID)
    radii = np.linspace(r_lo, r_hi, STRUCTURAL_GRID)
    radii = radii[radii > 0] if r_lo == 0.0 else radii
    angles = np.arange(STRUCTURAL_DIRECTIONS) * (2.0 * np.pi / STRUCTURAL_DIRECTIONS)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=-1)

    S, Rr, Dd = np.meshgrid(s_grid, radii, np.arange(STRUCTURAL_DIRECTIONS), indexing="ij")
    P = Rr[..., None] * dirs[Dd]
    Sf, Pf = S.ravel(), P.reshape(-1, 2)

    a, a_s, gp = evaluate_with_derivatives(cond, Sf, Pf)
    aij = linearized_matrix(a, gp, Pf)
    eig_min = np.linalg.eigvalsh(aij)[..., 0]
    pnorm = np.linalg.norm(Pf, axis=-1)
    gpnorm = np.linalg.norm(gp, axis=-1)
    lam0 = np.asarray(cond.lambda0(np.abs(Sf)), dtype=float)
    mu0 = np.asarray(cond.mu0(np.abs(Sf)), dtype=float)

    report = ConditionReport(cond_name=cond.name)

    def record(key, values):
        i = int(np.argmin(values))
        report.margins[key] = ConditionMargin(float(values[i]), float(Sf[i]), Pf[i].copy())

    record("coer_a", a - 1.0)
    # a declared floor must itself be positive for ellipticity to mean anything
    record("coer_lam0", np.broadcast_to(lam0, Sf.shape) - 1e-12)
    record("coer_eig", eig_min - lam0)
    record("grow_p", mu0 - (pnorm * gpnorm + np.abs(a)))
    record("grow_s", mu0 * pnorm - (1.0 + pnorm) * np.abs(a_s))
    if cond.decay_constant is not None:
        C = float(cond.decay_constant)
        nz = pnorm > 0
        vals = C * eig_min[nz] / pnorm[nz] - np.abs(a_s[nz])
        i = int(np.argmin(vals))
        j = np.flatnonzero(nz)[i]
        report.margins["decay1"] = ConditionMargin(float(vals[i]), float(Sf[j]), Pf[j].copy())
        # uniform floor: constant lambda0 over the whole scanned set
        record("uni", eig_min - float(cond.lambda0(0.0)))
    return report


# ---------------------------------------------------------------------------
# jet radius pi(s)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JetRadius:
    """pi(s) together with the intermediate constants it is built from."""
    s: float
    A: float
    U: float
    c1: float
    c2: float
    b1: float
    b2: float
    pi: float


def jet_radius(cond: ConductivitySpec, s: float, domain_diam: float,
               pi1: float = 1.0) -> JetRadius:
    """Gradient radius pi(s) = min(sqrt(B1 B2), B1) for prescribable jets.

    Built from A = 2 diam, U = |s| + 2A,
    C1 = min(lambda0(U)/(2 mu0(U)), 1), C2 = min(2 lambda0(U)/(A^2 mu0(U)), 1),
    B1 = min(C1, pi1/(N diam)), B2 = C2, with the margin factor N = 10.
    The linearization-smallness scale pi1 is a calibration input; runtime
    solvability is checked per solve, not assumed from it.
    ``prescribe_jet`` and ``reconstruct`` take the default pi1 = 1; a large
    pi1 (such as 1e6) drops the pi1 term and leaves the full paraboloid
    B1 = C1, as the barrier checks use.

    A model carrying a decay constant admits arbitrary jets, reported as
    pi = +inf.
    """
    if domain_diam <= 0:
        raise ValueError("jet_radius: domain_diam must be positive")
    A = 2.0 * domain_diam
    U = abs(s) + 2.0 * A
    lam, mu = float(cond.lambda0(U)), float(cond.mu0(U))
    c1 = min(lam / (2.0 * mu), 1.0)
    c2 = min(2.0 * lam / (A * A * mu), 1.0)
    b1 = min(c1, pi1 / (10.0 * domain_diam))
    b2 = c2
    pi = math.inf if cond.decay_constant is not None else min(math.sqrt(b1 * b2), b1)
    return JetRadius(s=float(s), A=A, U=U, c1=c1, c2=c2, b1=b1, b2=b2, pi=pi)


# ---------------------------------------------------------------------------
# preset catalog
# ---------------------------------------------------------------------------

def _smoothstep_parts(t):
    """(f, g) with f = e^{-1/t} on t > 0 and g = e^{-1/(1-t)} on t < 1, else 0."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        f = np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        g = np.where(t < 1, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return f, g


def _smoothstep(t):
    """C-infinity step: 0 for t <= 0, 1 for t >= 1."""
    f, g = _smoothstep_parts(np.asarray(t, dtype=float))
    return f / (f + g)


def _smoothstep_d(t):
    """Derivative of _smoothstep: f g (1/t^2 + 1/(1-t)^2) / (f+g)^2 on (0, 1).

    It is 0 outside (0, 1), and also where f or g underflows, since the
    derivative is then below the smallest normal double.
    """
    t = np.asarray(t, dtype=float)
    f, g = _smoothstep_parts(t)
    fg = f * g
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        d = fg * (1.0 / t ** 2 + 1.0 / (1.0 - t) ** 2) / (f + g) ** 2
    return np.where(fg > 0, d, 0.0)


def preset_constant(c: float = 1.0) -> ConductivitySpec:
    if c < 1.0:
        raise ConductivityError("constant preset needs c >= 1")
    return ConductivitySpec(
        name=f"constant({c:g})",
        fn=lambda s, p: np.full(np.shape(s), float(c)),
        grad=lambda s, p: (np.zeros(np.shape(s)), np.zeros(np.shape(p))),
        lambda0=lambda t: float(c), mu0=lambda t: float(c))


def preset_one_plus_s2() -> ConductivitySpec:
    return ConductivitySpec(
        name="one_plus_s2",
        fn=lambda s, p: 1.0 + s ** 2,
        grad=lambda s, p: (2.0 * s, np.zeros(np.shape(p))),
        lambda0=lambda t: 1.0,
        mu0=lambda t: 1.0 + np.asarray(t) ** 2)


def preset_p_gauss(delta: float = 0.25) -> ConductivitySpec:
    """a = 1 + delta exp(-|p|^2); gradient-only dependence, a_s = 0."""
    d = float(delta)

    def fn(s, p):
        return 1.0 + d * np.exp(-np.sum(p * p, axis=-1))

    def grad(s, p):
        e = np.exp(-np.sum(p * p, axis=-1))
        return np.zeros(np.shape(s)), -2.0 * d * e[..., None] * p

    # min eig of a_ij: 1 + d e^{-r^2}(1 - 2 r^2) >= 1 - 2 d e^{-3/2}
    return ConductivitySpec(
        name=f"p_gauss({d:g})", fn=fn, grad=grad,
        lambda0=lambda t: 1.0 - 2.0 * d * math.exp(-1.5),
        mu0=lambda t: 1.0 + 2.0 * d * math.exp(-0.5))


def preset_s_gauss(delta: float = 0.25) -> ConductivitySpec:
    """a = 1 + delta exp(-s^2); state-only dependence."""
    d = float(delta)
    return ConductivitySpec(
        name=f"s_gauss({d:g})",
        fn=lambda s, p: 1.0 + d * np.exp(-s ** 2),
        grad=lambda s, p: (-2.0 * d * s * np.exp(-s ** 2), np.zeros(np.shape(p))),
        lambda0=lambda t: 1.0, mu0=lambda t: 1.0 + d)


def preset_p_lorentz(delta: float = 0.2) -> ConductivitySpec:
    """a = 1 + delta/(1 + |p|^2); isotropic decay in the gradient."""
    d = float(delta)

    def fn(s, p):
        return 1.0 + d / (1.0 + np.sum(p * p, axis=-1))

    def grad(s, p):
        r2 = np.sum(p * p, axis=-1)
        return np.zeros(np.shape(s)), (-2.0 * d / (1.0 + r2) ** 2)[..., None] * p

    return ConductivitySpec(
        name=f"p_lorentz({d:g})", fn=fn, grad=grad,
        lambda0=lambda t: 1.0 - d / 8.0,
        mu0=lambda t: 1.0 + 1.125 * d)


def preset_p_lorentz_tail(delta: float = 0.2, bump: float = 0.3,
                          r0: float = 0.1, w: float = 0.05) -> ConductivitySpec:
    """p_lorentz plus a smooth bump supported on |p| > r0.

    With bump = 0 this equals p_lorentz pointwise but keeps the (larger)
    declared bounds of the bumped model, so a pair (bump = 0, bump > 0)
    shares the same jet radius while differing only beyond |p| = r0.
    """
    d, b, r0, w = float(delta), float(bump), float(r0), float(w)

    def fn(s, p):
        r = np.linalg.norm(p, axis=-1)
        return 1.0 + d / (1.0 + r * r) + b * _smoothstep((r - r0) / w)

    def grad(s, p):
        r = np.linalg.norm(p, axis=-1)
        r2 = r * r
        radial = -2.0 * d * r / (1.0 + r2) ** 2 + (b / w) * _smoothstep_d((r - r0) / w)
        unit = np.where(r[..., None] > 0, p / np.maximum(r, 1e-300)[..., None], 0.0)
        return np.zeros(np.shape(s)), radial[..., None] * unit

    mu_cap = 1.0 + 1.5 * d + b * (1.0 + 2.5 * (r0 + w) / w)
    return ConductivitySpec(
        name=f"p_lorentz_tail({d:g},{b:g},{r0:g},{w:g})", fn=fn, grad=grad,
        lambda0=lambda t: 1.0 - d / 8.0,
        mu0=lambda t: mu_cap)


def preset_decay_mix(dp: float = 0.2, ds: float = 0.05, C: float = 0.1) -> ConductivitySpec:
    """a = 1 + dp/(1+|p|^2) + ds (1+sin s)/sqrt(1+|p|^2), decay regime.

    Both perturbations are nonnegative, so a >= 1 holds outright.  The
    drift satisfies |a_s| <= ds/sqrt(1+|p|^2) <= C lambda/|p| with the
    declared C once ds <= C lambda0, so arbitrarily large boundary jets
    are reachable through exponential barriers.
    """
    dp, ds = float(dp), float(ds)

    def fn(s, p):
        r2 = np.sum(p * p, axis=-1)
        return 1.0 + dp / (1.0 + r2) + ds * (1.0 + np.sin(s)) / np.sqrt(1.0 + r2)

    def grad(s, p):
        r2 = np.sum(p * p, axis=-1)
        a_s = ds * np.cos(s) / np.sqrt(1.0 + r2)
        radial = -2.0 * dp / (1.0 + r2) ** 2 - ds * (1.0 + np.sin(s)) / (1.0 + r2) ** 1.5
        return a_s, radial[..., None] * p

    lam = 1.0 - dp / 8.0 - 0.55 * ds
    return ConductivitySpec(
        name=f"decay_mix({dp:g},{ds:g})", fn=fn, grad=grad,
        lambda0=lambda t: lam,
        mu0=lambda t: 1.0 + 1.5 * dp + 2.8 * ds,
        decay_constant=float(C))


def preset_sin_slope(C: float = 2.0) -> ConductivitySpec:
    """a = 2 + sin(s) |p|/(1+|p|); kinked at p = 0, checker exercises only."""
    def fn(s, p):
        r = np.linalg.norm(p, axis=-1)
        return 2.0 + np.sin(s) * r / (1.0 + r)

    def grad(s, p):
        r = np.linalg.norm(p, axis=-1)
        a_s = np.cos(s) * r / (1.0 + r)
        unit = np.where(r[..., None] > 0, p / np.maximum(r, 1e-300)[..., None], 0.0)
        return a_s, (np.sin(s) / (1.0 + r) ** 2)[..., None] * unit

    return ConductivitySpec(
        name=f"sin_slope({C:g})", fn=fn, grad=grad,
        lambda0=lambda t: 0.9, mu0=lambda t: 4.0, decay_constant=float(C))


PRESETS = {
    "constant": preset_constant,
    "one_plus_s2": preset_one_plus_s2,
    "p_gauss": preset_p_gauss,
    "s_gauss": preset_s_gauss,
    "p_lorentz": preset_p_lorentz,
    "p_lorentz_tail": preset_p_lorentz_tail,
    "decay_mix": preset_decay_mix,
    "sin_slope": preset_sin_slope,
}


def make_preset(expr: str) -> ConductivitySpec:
    """Build a preset from a config string like ``p_gauss(0.25)``."""
    expr = expr.strip()
    if "(" in expr:
        name, rest = expr.split("(", 1)
        if not rest.rstrip().endswith(")"):
            raise ValueError(f"malformed conductivity expression: {expr!r}")
        args_str = rest.rstrip()[:-1].strip()
        args = [float(t) for t in args_str.split(",")] if args_str else []
    else:
        name, args = expr, []
    name = name.strip()
    if name not in PRESETS:
        raise ValueError(f"unknown conductivity preset {name!r}; "
                         f"available: {', '.join(sorted(PRESETS))}")
    try:
        inspect.signature(PRESETS[name]).bind(*args)
    except TypeError as exc:        # a wrong argument count
        raise ValueError(f"conductivity preset {name!r}: {exc}") from None
    return PRESETS[name](*args)
