"""Command-line driver: qcond run | check | mesh."""

from __future__ import annotations

import argparse
import sys

from . import harness
from .geometry import build_disk_mesh, save_mesh


def _load(args) -> harness.RunConfig:
    cfg = harness.load_config(args.config)
    if args.out is not None:
        cfg.out_dir = args.out
    if args.seed is not None:
        cfg.seed = args.seed
    if args.jobs is not None:
        cfg.jobs = args.jobs
    harness.validate_config(cfg)
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="qcond",
                                     description="quasilinear conductivity recovery harness")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in (("run", "execute all configured stages"),
                        ("check", "structural conditions only"),
                        ("mesh", "build the mesh and print statistics")):
        p = sub.add_parser(name, help=help_)
        p.add_argument("config", help="run configuration file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="rng seed")
        p.add_argument("--jobs", type=int, default=None, help="concurrent sample pipelines")
    args = parser.parse_args(argv)

    try:
        cfg = _load(args)
    except (OSError, harness.ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "mesh":
        mesh = build_disk_mesh(cfg.radius, cfg.h)
        print(f"vertices   {len(mesh.vertices)}")
        print(f"triangles  {len(mesh.triangles)}")
        print(f"boundary   {len(mesh.boundary_loop)}")
        print(f"area       {mesh.areas.sum():.8f}")
        print(f"min/max triangle area  {mesh.areas.min():.3e} / {mesh.areas.max():.3e}")
        print(f"diameter   {mesh.diameter}")
        out = harness.Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        save_mesh(mesh, out / "mesh.txt")
        print(f"wrote {out / 'mesh.txt'}")
        return 0
    if args.command == "check":
        # the structural stage alone: no mesh, so no jet batch either
        cfg.stages, cfg.jet_batch = ("structural",), None
    report = harness.run(cfg)
    print(report.to_text())
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
