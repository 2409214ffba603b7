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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, get_args, get_type_hints

import numpy as np

from .barriers import JetRequest, prescribe_jet
from .conductivity import ConductivitySpec, check_structural_conditions, make_preset
from .forward import (coefficient_fields, convergence_order, manufactured_solution,
                      solve_dirichlet)
from .geometric import dictionary_check
from .geometry import Mesh, boundary_frame_at, build_disk_mesh
from .linearized import LinearizedOperator, fd_derivative_check, jacobian_check
from .recovery import DEFAULT_LADDER, PolarGrid, RecoveryGrid, check_request, reconstruct


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    conductivity: str = "constant(1)"
    regime: str = "small"
    radius: float = 1.0
    h: float = 0.05
    s_values: tuple[float, ...] = (0.0,)
    n_directions: int = 8
    n_radii: int = 4
    radius_fraction: float = 0.8
    r_max: Optional[float] = None
    tau_ladder: tuple[float, ...] = DEFAULT_LADDER
    structural_s_range: tuple[float, ...] = (-2.0, 2.0)
    structural_p_max: float = 2.0
    convergence_h: tuple[float, ...] = (0.1, 0.05)
    # the default runs every stage, in order
    stages: tuple[str, ...] = ("structural", "mesh", "convergence", "linearization",
                               "geometric", "reconstruction")
    jet_batch: Optional[str] = None
    out_dir: str = "qcond_out"
    seed: int = 1234
    jobs: int = 1


def _value_parser(tp):
    """Parser of one config value into a field of type ``tp``."""
    args = [a for a in get_args(tp) if a is not Ellipsis]
    if type(None) in args:          # Optional[X] parses as X
        return _value_parser(args[0])
    if args:                        # tuple[X, ...]: comma-separated X items
        item = args[0]
        return lambda v: tuple(item(t.strip()) for t in v.split(",") if t.strip())
    return tp


_PARSERS = {name: _value_parser(tp) for name, tp in get_type_hints(RunConfig).items()}


def parse_config(text: str) -> RunConfig:
    """Parse the line-based config format; errors carry line and key."""
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
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            setattr(cfg, key, _PARSERS[key](value))
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: key {key!r}: {exc}") from None
    validate_config(cfg)
    return cfg


def load_config(path) -> RunConfig:
    return parse_config(Path(path).read_text())


def _polar_grid(cfg: RunConfig) -> PolarGrid:
    return PolarGrid(n_directions=cfg.n_directions, n_radii=cfg.n_radii,
                     radius_fraction=cfg.radius_fraction, r_max=cfg.r_max)


def validate_config(cfg: RunConfig):
    """Raise ConfigError on a config a run would reject or ignore.

    The reconstruction inputs are checked by recovery.check_request
    whatever the stages, so one config file is valid for every stage.
    """
    if cfg.h <= 0 or cfg.radius <= 0 or cfg.h >= cfg.radius:
        raise ConfigError("mesh: need 0 < h < radius")
    try:
        cond = make_preset(cfg.conductivity)
    except ValueError as exc:
        raise ConfigError(f"conductivity: {exc}") from None
    try:
        check_request(cond, cfg.s_values, _polar_grid(cfg), cfg.regime, cfg.tau_ladder,
                      cfg.jobs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    unknown = [s for s in cfg.stages if s not in RunConfig.stages]
    if unknown:
        raise ConfigError(f"unknown stages {', '.join(unknown)}; "
                          f"valid stages: {', '.join(RunConfig.stages)}")
    if cfg.structural_p_max <= 0:
        raise ConfigError("structural_p_max must be positive")
    if not cfg.convergence_h or any(not 0 < h < cfg.radius for h in cfg.convergence_h):
        raise ConfigError("convergence_h: need 0 < h < radius for each h")
    # the convergence stage fits an order through these sizes and h
    if "convergence" in cfg.stages and len(set(cfg.convergence_h) | {cfg.h}) < 2:
        raise ConfigError("convergence_h: the convergence stage needs a mesh size "
                          "other than h")
    s_range = cfg.structural_s_range
    if len(s_range) != 2 or s_range[0] > s_range[1]:
        raise ConfigError("structural_s_range must be two values lo, hi with lo <= hi")


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
        return "\n".join(lines) + "\n"


def _fmt(x) -> str:
    """One CSV field; a comma in a string field becomes a semicolon."""
    if isinstance(x, float):
        return repr(float(x))
    return str(x).replace(",", ";")


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
        yield (smp.s, float(smp.p[0]), float(smp.p[1]), smp.a_hat, smp.a_true,
               smp.rel_err if smp.rel_err is not None else math.nan, smp.status)


def symbol_rows(grid: RecoveryGrid):
    for chain in grid.chains:
        for qv, sym in zip(chain.q, chain.symbols):
            if sym is not None:
                yield (chain.s, chain.theta, float(qv), sym.real_slope, sym.imag_slope,
                       sym.fit_residual, sym.parity_residual)


def run_jet_batch(cond: ConductivitySpec, mesh: Mesh, path):
    """Execute a `jet theta s p1 p2 regime` batch file; returns result rows."""
    rows = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if len(parts) != 6 or parts[0] != "jet":
                raise ValueError(f"expected 'jet theta s p1 p2 regime', got {raw!r}")
            theta, s, p1, p2 = map(float, parts[1:5])
            regime = parts[5]
            req = JetRequest(frame=boundary_frame_at(mesh, theta), s=s,
                             p=np.array([p1, p2]), regime=regime)
        except ValueError as exc:
            raise ConfigError(f"jet batch line {lineno}: {exc}") from None
        try:
            res = prescribe_jet(cond, mesh, req)
            rows.append((theta, s, p1, p2, regime, res.achieved_s,
                         float(res.achieved_p[0]), float(res.achieved_p[1]),
                         res.solves, "ok" if res.ok else res.message))
        except (ValueError, RuntimeError) as exc:
            rows.append((theta, s, p1, p2, regime, math.nan, math.nan, math.nan, 0,
                         f"{type(exc).__name__}: {exc}"))
    return rows


def run(cfg: RunConfig, echo=print) -> RunReport:
    """Validate the config, execute its stages, write artifacts to out_dir."""
    validate_config(cfg)
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
            (0.0, cfg.r_max or cfg.structural_p_max))
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
    if set(cfg.stages) - {"structural"} or cfg.jet_batch:
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
        meshes = [mesh if abs(h - cfg.h) < 1e-15 else build_disk_mesh(cfg.radius, h)
                  for h in hs]
        errs, order, ok = convergence_order(cond, meshes, *manufactured_solution(cond))
        write_csv(out / "convergence.csv", CONVERGENCE_HEADER,
                  [(h, e, order) for h, e in zip(hs, errs)])
        log_stage("convergence", ok, "manufactured-solution order = "
                  f"{order:.2f} over h = {hs}", t0)

    # -- linearization ------------------------------------------------------
    # this stage and the geometric one check the same base, solved once
    # (untimed) for both
    if stage("linearization") or stage("geometric"):
        fb = float(cfg.s_values[0]) + 0.2 * mesh.vertices[mesh.boundary_loop, 0]
        base = solve_dirichlet(cond, mesh, fb)
    if stage("linearization"):
        t0 = time.perf_counter()
        hb = np.cos(2.0 * np.arctan2(mesh.vertices[mesh.boundary_loop, 1],
                                     mesh.vertices[mesh.boundary_loop, 0]))
        op = LinearizedOperator.at_base(cond, base)
        table, fd_ok = fd_derivative_check(base, op, hb, (1e-1, 1e-2, 1e-3))
        jac_errs, jac_ok = jacobian_check(base, op)
        total_flux = float(op.dn_flux(hb).sum())
        details = "\n".join([f"fd t={t:g}: err={e:.3e}"
                             + ("" if r is None else f", ratio={r:.1f}") for t, e, r in table]
                            + ["jacobian check at eps = 1e-4, 1e-5: rel err = "
                               + ", ".join(f"{e:.2e}" for e in jac_errs),
                               f"linearized total flux = {total_flux:.2e}"])
        log_stage("linearization", fd_ok and jac_ok, details, t0)

    # -- geometric ----------------------------------------------------------
    if stage("geometric"):
        t0 = time.perf_counter()
        _, _, M, w = coefficient_fields(cond, mesh, base.u)
        # the dictionary takes the symmetric part of the flux matrix, per triangle
        aij = 0.5 * (M + M.transpose(1, 0, 2)).transpose(2, 0, 1)
        metrics, ok = dictionary_check(mesh, aij, w.T, rng)
        log_stage("geometric", ok, "\n".join(f"{k} = {v:.2e}" for k, v in metrics.items()), t0)

    # -- jet batch ----------------------------------------------------------
    if cfg.jet_batch:
        t0 = time.perf_counter()
        try:
            rows = run_jet_batch(cond, mesh, cfg.jet_batch)
        except (ConfigError, OSError) as exc:     # a missing or malformed batch file
            log_stage("jets", False, str(exc), t0)
        else:
            write_csv(out / "jets.csv",
                      ("theta", "s", "p1", "p2", "regime", "achieved_s",
                       "achieved_p1", "achieved_p2", "solves", "status"), rows)
            log_stage("jets", all(r[-1] == "ok" for r in rows),
                      f"{len(rows)} jet requests -> jets.csv", t0)

    # -- reconstruction -----------------------------------------------------
    if stage("reconstruction"):
        t0 = time.perf_counter()
        try:
            grid = reconstruct(cond, mesh, cfg.s_values, _polar_grid(cfg), regime=cfg.regime,
                               tau_ladder=cfg.tau_ladder, jobs=cfg.jobs)
        except ValueError as exc:       # the mesh admits too few probe frequencies
            log_stage("reconstruction", False, str(exc), t0)
        else:
            stats = grid.error_stats()
            report.recovery_stats = stats
            details = "\n".join(f"{k} = {v}" for k, v in stats.items())
            log_stage("reconstruction", stats["n_samples"] > 0 and stats["n_failed"] == 0,
                      details, t0)

    _write_outputs(out, report, grid)
    return report


def _write_outputs(out: Path, report: RunReport, grid: Optional[RecoveryGrid]):
    if grid is not None:
        write_csv(out / "recovery.csv", RECOVERY_HEADER, recovery_rows(grid))
        write_csv(out / "symbols.csv", SYMBOLS_HEADER, symbol_rows(grid))
    (out / "report.txt").write_text(report.to_text())

