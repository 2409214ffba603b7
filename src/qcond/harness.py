"""Run driver: config parsing, staged execution, CSV and report output.

Configs are flat ``key = value`` lines with optional ``[section]``
headers (decorative), comments with ``#``.  A run executes the stages

    structural -> mesh -> convergence -> linearization -> geometric
               -> reconstruction

in order, short-circuiting on hard failures (coercivity violations,
mesh construction errors), and writes report.txt, convergence.csv,
symbols.csv and recovery.csv into the output directory.  Runs are
deterministic given the seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields as dc_fields
from pathlib import Path
from typing import Optional

import numpy as np

from .barriers import JetRequest, prescribe_jet
from .conductivity import (ConductivitySpec, check_structural_conditions,
                           evaluate_with_derivatives, linearized_conductivity,
                           make_preset)
from .forward import assemble_jacobian, solve_dirichlet
from .geometric import (alpha_tensor, metric_from_linearized, normal_identity_residual,
                        operator_equivalence_residual)
from .geometry import Mesh, boundary_frame_at, build_disk_mesh
from .linearized import LinearizedOperator, fd_derivative_check, solve_linearized
from .recovery import DEFAULT_LADDER, PolarGrid, RecoveryGrid, reconstruct


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    conductivity: str = "constant(1)"
    regime: str = "small"
    radius: float = 1.0
    h: float = 0.05
    s_values: tuple = (0.0,)
    n_directions: int = 8
    n_radii: int = 4
    radius_fraction: float = 0.8
    r_max: Optional[float] = None
    tau_ladder: tuple = DEFAULT_LADDER
    width_factor: float = 1.0
    nyquist_nodes: int = 10
    newton_tol: float = 1e-10
    pi1: float = 1.0
    big_n: float = 10.0
    structural_s_range: tuple = (-2.0, 2.0)
    structural_p_max: float = 2.0
    convergence_h: tuple = (0.1, 0.05)
    stages: tuple = ("structural", "mesh", "convergence", "linearization",
                     "geometric", "reconstruction")
    jet_batch: Optional[str] = None
    out_dir: str = "qcond_out"
    seed: int = 1234
    jobs: int = 1

    _FLOAT = {"radius", "h", "radius_fraction", "r_max", "width_factor", "newton_tol",
              "pi1", "big_n", "structural_p_max"}
    _INT = {"n_directions", "n_radii", "nyquist_nodes", "seed", "jobs"}
    _TUPLE_FLOAT = {"s_values", "tau_ladder", "convergence_h", "structural_s_range"}
    _TUPLE_STR = {"stages"}


def parse_config(text: str) -> RunConfig:
    """Parse the line-based config format; errors carry line and key."""
    known = {f.name for f in dc_fields(RunConfig) if not f.name.startswith("_")}
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            continue                      # sections are decorative
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            if key in RunConfig._FLOAT:
                setattr(cfg, key, float(value))
            elif key in RunConfig._INT:
                setattr(cfg, key, int(value))
            elif key in RunConfig._TUPLE_FLOAT:
                setattr(cfg, key, tuple(float(t) for t in value.split(",") if t.strip()))
            elif key in RunConfig._TUPLE_STR:
                setattr(cfg, key, tuple(t.strip() for t in value.split(",") if t.strip()))
            else:
                setattr(cfg, key, value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: key {key!r}: {exc}") from None
    validate_config(cfg)
    return cfg


def load_config(path) -> RunConfig:
    return parse_config(Path(path).read_text())


def validate_config(cfg: RunConfig):
    if cfg.h <= 0 or cfg.radius <= 0 or cfg.h >= cfg.radius:
        raise ConfigError("mesh: need 0 < h < radius")
    if not cfg.s_values:
        raise ConfigError("s_values must be non-empty")
    if cfg.regime not in ("small", "decay"):
        raise ConfigError(f"regime must be small or decay, got {cfg.regime!r}")
    if cfg.regime == "decay" and "reconstruction" in cfg.stages and cfg.r_max is None:
        raise ConfigError("decay regime needs r_max")
    for name, v in (("newton_tol", cfg.newton_tol), ("width_factor", cfg.width_factor),
                    ("pi1", cfg.pi1)):
        if v <= 0:
            raise ConfigError(f"{name} must be positive")
    if not cfg.tau_ladder or any(t <= 0 for t in cfg.tau_ladder):
        raise ConfigError("tau_ladder must be positive")


@dataclass
class StageResult:
    name: str
    ok: bool
    details: str
    elapsed: float


@dataclass
class RunReport:
    config: RunConfig
    stages: list = field(default_factory=list)
    recovery_stats: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.stages)

    def to_text(self) -> str:
        lines = [f"qcond run report",
                 f"conductivity = {self.config.conductivity}",
                 f"regime = {self.config.regime}, mesh h = {self.config.h:g}, "
                 f"seed = {self.config.seed}", ""]
        for s in self.stages:
            mark = "PASS" if s.ok else "FAIL"
            lines.append(f"[{mark}] {s.name} ({s.elapsed:.2f}s)")
            for d in s.details.splitlines():
                lines.append(f"    {d}")
        if self.recovery_stats:
            lines.append("")
            for k, v in self.recovery_stats.items():
                lines.append(f"{k} = {v}")
        return "\n".join(lines) + "\n"


def compare_truth(grid: RecoveryGrid, cond: ConductivitySpec) -> dict:
    """Per-sample relative errors against a known conductivity."""
    errs = []
    for smp in grid.samples:
        if smp.status != "ok" or not np.isfinite(smp.a_hat):
            continue
        a_true = float(cond(smp.s, smp.p))
        errs.append(abs(smp.a_hat - a_true) / a_true)
    errs = np.asarray(errs)
    n_fail = len(grid.failures())
    if len(errs) == 0:
        return {"n_samples": 0, "n_failed": n_fail, "max_rel_err": math.nan,
                "median_rel_err": math.nan}
    return {"n_samples": len(errs), "n_failed": n_fail,
            "max_rel_err": float(errs.max()),
            "median_rel_err": float(np.median(errs))}


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def write_csv(path, header, rows):
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


RECOVERY_HEADER = ("s", "p1", "p2", "a_hat", "a_true", "rel_err", "status")
SYMBOLS_HEADER = ("s", "theta", "q", "real_slope", "imag_slope", "fit_residual",
                  "parity_residual")
CONVERGENCE_HEADER = ("h", "max_err", "order")


def recovery_rows(grid: RecoveryGrid):
    for smp in grid.samples:
        yield (smp.s, float(smp.p[0]), float(smp.p[1]), smp.a_hat,
               smp.a_true if smp.a_true is not None else math.nan,
               smp.rel_err if smp.rel_err is not None else math.nan,
               smp.status.replace(",", ";"))


def run_jet_batch(cond: ConductivitySpec, mesh: Mesh, path, *, pi1=1.0, big_n=10.0,
                  newton_tol=1e-10):
    """Execute a `jet theta s p1 p2 regime` batch file; returns result rows."""
    rows = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 6 or parts[0] != "jet":
            raise ConfigError(f"jet batch line {lineno}: expected "
                              f"'jet theta s p1 p2 regime', got {raw!r}")
        theta, s, p1, p2 = map(float, parts[1:5])
        regime = parts[5]
        frame = boundary_frame_at(mesh, theta)
        req = JetRequest(frame=frame, s=s, p=np.array([p1, p2]), regime=regime)
        try:
            res = prescribe_jet(cond, mesh, req, pi1=pi1, big_n=big_n,
                                newton_tol=newton_tol)
            rows.append((theta, s, p1, p2, regime, res.achieved_s,
                         float(res.achieved_p[0]), float(res.achieved_p[1]),
                         res.solves, "ok" if res.ok else res.message.replace(",", ";")))
        except (ValueError, RuntimeError) as exc:
            rows.append((theta, s, p1, p2, regime, math.nan, math.nan, math.nan, 0,
                         f"{type(exc).__name__}: {exc}".replace(",", ";")))
    return rows


def run(cfg: RunConfig, echo=print) -> RunReport:
    """Execute the configured stages and write artifacts to out_dir."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(cfg.seed)
    cond = make_preset(cfg.conductivity)
    report = RunReport(config=cfg)
    mesh = None
    grid = None

    def stage(name):
        return name in cfg.stages

    def log_stage(name, ok, details, t0):
        report.stages.append(StageResult(name, ok, details, time.perf_counter() - t0))
        if echo:
            echo(f"[{'PASS' if ok else 'FAIL'}] {name}")
        return ok

    # -- structural -------------------------------------------------------
    if stage("structural"):
        t0 = time.perf_counter()
        rep = check_structural_conditions(
            cond, cfg.structural_s_range,
            (0.0, cfg.r_max if cfg.regime == "decay" and cfg.r_max else cfg.structural_p_max))
        ok = rep.passed
        details = rep.summary()
        if not ok:
            remaining = [s for s in cfg.stages if s != "structural"]
            if remaining:
                details += f"\nskipped stages: {', '.join(remaining)}"
        if not log_stage("structural", ok, details, t0):
            _write_outputs(out, report, grid)
            return report

    # -- mesh ---------------------------------------------------------------
    if stage("mesh") or stage("convergence") or stage("linearization") \
            or stage("geometric") or stage("reconstruction") or cfg.jet_batch:
        t0 = time.perf_counter()
        try:
            mesh = build_disk_mesh(cfg.radius, cfg.h)
        except Exception as exc:
            log_stage("mesh", False, f"mesh construction failed: {exc}", t0)
            _write_outputs(out, report, grid)
            return report
        r_err = np.abs(np.linalg.norm(mesh.vertices[mesh.boundary_loop], axis=1)
                       - cfg.radius).max()
        details = (f"{len(mesh.vertices)} vertices, {len(mesh.triangles)} triangles, "
                   f"{len(mesh.boundary_loop)} boundary\n"
                   f"area = {mesh.areas.sum():.6f} (target {math.pi * cfg.radius**2:.6f}), "
                   f"boundary radius error = {r_err:.2e}")
        if stage("mesh"):
            log_stage("mesh", r_err < 1e-12 * cfg.radius and mesh.areas.min() > 0,
                      details, t0)

    # -- convergence --------------------------------------------------------
    if stage("convergence"):
        t0 = time.perf_counter()
        hs = tuple(dict.fromkeys(tuple(cfg.convergence_h) + (cfg.h,)))
        errs = []
        for h in hs:
            mm = mesh if abs(h - cfg.h) < 1e-15 else build_disk_mesh(cfg.radius, h)
            sol = solve_dirichlet(cond, mm, _manufactured_trace,
                                  source=lambda x, c=cond: _manufactured_source(c, x),
                                  tol=cfg.newton_tol)
            errs.append(float(np.abs(sol.u - _manufactured_trace(mm.vertices)).max()))
        order = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
        rows = [(h, e, order) for h, e in zip(hs, errs)]
        write_csv(out / "convergence.csv", CONVERGENCE_HEADER, rows)
        # smoke gate only: the acceptance suite pins >= 1.9 on its mesh ladder
        log_stage("convergence", order >= 1.6,
                  "manufactured-solution order = "
                  f"{order:.2f} over h = {hs}", t0)

    # -- linearization ------------------------------------------------------
    if stage("linearization"):
        t0 = time.perf_counter()
        s0 = float(cfg.s_values[0])
        fb = s0 + 0.2 * mesh.vertices[mesh.boundary_loop, 0]
        hb = np.cos(2.0 * np.arctan2(mesh.vertices[mesh.boundary_loop, 1],
                                     mesh.vertices[mesh.boundary_loop, 0]))
        table = fd_derivative_check(cond, mesh, fb, hb, (1e-1, 1e-2, 1e-3),
                                    tol=cfg.newton_tol)
        base = solve_dirichlet(cond, mesh, fb, tol=cfg.newton_tol)
        J_lin = LinearizedOperator.at_base(cond, base).J
        J_fresh = assemble_jacobian(cond, mesh, base.u)
        jac_gap = float(np.abs((J_lin - J_fresh).data).max()) if (J_lin - J_fresh).nnz else 0.0
        lin = solve_linearized(cond, base, hb)
        total_flux = float(lin.operator.flux_coeffs(lin.v).sum())
        details = "\n".join([f"fd t={t:g}: err={e:.3e}" for t, e in table]
                            + [f"jacobian identity gap = {jac_gap:.2e}",
                               f"linearized total flux = {total_flux:.2e}"])
        ratios_ok = all(table[i][1] / table[i + 1][1] > 5.0 or table[i + 1][1] < 1e-9
                        for i in range(len(table) - 1))
        log_stage("linearization", ratios_ok and jac_gap <= 1e-12, details, t0)

    # -- geometric ----------------------------------------------------------
    if stage("geometric"):
        t0 = time.perf_counter()
        s0 = float(cfg.s_values[0])
        fb = s0 + 0.2 * mesh.vertices[mesh.boundary_loop, 0]
        base = solve_dirichlet(cond, mesh, fb, tol=cfg.newton_tol)
        tri = mesh.triangles
        ubar = base.u[tri].mean(axis=1)
        gradu = np.einsum("ti,tik->tk", base.u[tri], mesh.hat_gradients)
        aij = linearized_conductivity(cond, ubar, gradu)
        G, g, sigma = metric_from_linearized(aij)
        detG_err = float(np.abs(np.linalg.det(G) - 1.0).max())
        sGa_err = float(np.abs(sigma[:, None, None] * G - aij).max())
        fr = boundary_frame_at(mesh, 0.0)
        k = int(np.argmin(np.linalg.norm(mesh.centroids - fr.x0, axis=1)))
        mval = rng.normal()
        nid = normal_identity_residual(aij[k], np.array([[0, mval], [-mval, 0]]), fr.nu)
        worst_anti = 0.0
        for _ in range(100):
            B = rng.normal(size=(2, 2))
            gg = B @ B.T + 0.3 * np.eye(2)
            mv = rng.normal()
            al = alpha_tensor(np.array([[0, mv], [-mv, 0]]), gg)
            V, W = rng.normal(size=2), rng.normal(size=2)
            worst_anti = max(worst_anti, abs((al @ V) @ gg @ W + V @ gg @ (al @ W)))
        x = mesh.centroids
        v_val = 0.5 * x[:, 0] ** 2 + x[:, 0] * x[:, 1] - x[:, 1] ** 2 / 3
        v_grad = np.stack([x[:, 0] + x[:, 1], x[:, 0] - 2 * x[:, 1] / 3], axis=1)
        v_hess = np.broadcast_to(np.array([[1.0, 1.0], [1.0, -2.0 / 3.0]]), (len(x), 2, 2))
        _, a_s_t, _ = evaluate_with_derivatives(cond, ubar, gradu)
        b_field = a_s_t[:, None] * gradu
        opres = operator_equivalence_residual(mesh, aij, b_field, v_grad, v_hess, v_val)
        details = (f"det G err = {detG_err:.2e}, sigma*G vs a_ij = {sGa_err:.2e}\n"
                   f"normal identity residual = {nid:.2e}\n"
                   f"alpha antisymmetry worst = {worst_anti:.2e}\n"
                   f"operator equivalence residual = {opres:.2e}")
        log_stage("geometric", detG_err < 1e-10 and nid < 1e-12
                  and worst_anti < 1e-12 and opres < 1e-2, details, t0)

    # -- jet batch ----------------------------------------------------------
    if cfg.jet_batch:
        t0 = time.perf_counter()
        rows = run_jet_batch(cond, mesh, cfg.jet_batch, pi1=cfg.pi1, big_n=cfg.big_n,
                             newton_tol=cfg.newton_tol)
        write_csv(out / "jets.csv",
                  ("theta", "s", "p1", "p2", "regime", "achieved_s",
                   "achieved_p1", "achieved_p2", "solves", "status"), rows)
        log_stage("jets", all(r[-1] == "ok" for r in rows),
                  f"{len(rows)} jet requests -> jets.csv", t0)

    # -- reconstruction -----------------------------------------------------
    if stage("reconstruction"):
        t0 = time.perf_counter()
        grid = reconstruct(cond, mesh, cfg.s_values,
                           PolarGrid(n_directions=cfg.n_directions, n_radii=cfg.n_radii,
                                     radius_fraction=cfg.radius_fraction, r_max=cfg.r_max),
                           regime=cfg.regime, tau_ladder=cfg.tau_ladder,
                           width_factor=cfg.width_factor, nyquist_nodes=cfg.nyquist_nodes,
                           pi1=cfg.pi1, big_n=cfg.big_n, newton_tol=cfg.newton_tol,
                           jobs=cfg.jobs)
        stats = compare_truth(grid, cond)
        report.recovery_stats = stats
        details = "\n".join(f"{k} = {v}" for k, v in stats.items())
        log_stage("reconstruction", stats["n_samples"] > 0 and stats["n_failed"] == 0,
                  details, t0)

    _write_outputs(out, report, grid)
    return report


def _write_outputs(out: Path, report: RunReport, grid: Optional[RecoveryGrid]):
    if grid is not None:
        write_csv(out / "recovery.csv", RECOVERY_HEADER, recovery_rows(grid))
        write_csv(out / "symbols.csv", SYMBOLS_HEADER, grid.symbol_rows)
    (out / "report.txt").write_text(report.to_text())


def _manufactured_trace(x):
    return 0.1 * np.sin(x[:, 0]) * np.exp(x[:, 1])


def _manufactured_source(cond: ConductivitySpec, x):
    """Forcing so that 0.1 sin(x1) e^{x2} solves the quasilinear equation."""
    x = np.asarray(x, dtype=float)
    u = 0.1 * np.sin(x[..., 0]) * np.exp(x[..., 1])
    gx = 0.1 * np.cos(x[..., 0]) * np.exp(x[..., 1])
    gy = u
    grad = np.stack([gx, gy], axis=-1)
    hess = np.empty(x.shape[:-1] + (2, 2))
    hess[..., 0, 0] = -u
    hess[..., 0, 1] = hess[..., 1, 0] = gx
    hess[..., 1, 1] = u
    aij = linearized_conductivity(cond, u, grad)
    _, a_s, _ = evaluate_with_derivatives(cond, u, grad)
    return np.einsum("...ij,...ij->...", aij, hess) + a_s * np.sum(grad * grad, axis=-1)
