
import numpy as np
import pytest

from qcond.conductivity import preset_p_gauss
from qcond.geometry import build_disk_mesh
from qcond.harness import (ConfigError, RunConfig, compare_truth, load_config,
                           parse_config, run, run_jet_batch, write_csv)
from qcond.recovery import RecoveryGrid, RecoverySample


def test_parse_defaults_and_overrides():
    cfg = parse_config("""
    # comment only
    conductivity = p_lorentz(0.2)
    [mesh]
    radius = 1.0
    h = 0.1
    [grids]
    s_values = -1, 0, 1
    n_directions = 4
    [probe]
    tau_ladder = 8, 16
    [run]
    seed = 7
    jobs = 2
    """)
    assert cfg.conductivity == "p_lorentz(0.2)"
    assert cfg.h == 0.1 and cfg.s_values == (-1.0, 0.0, 1.0)
    assert cfg.n_directions == 4 and cfg.tau_ladder == (8.0, 16.0)
    assert cfg.seed == 7 and cfg.jobs == 2


def test_parse_errors_carry_line_and_key():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("\nwhat is this")
    with pytest.raises(ConfigError, match="line 1.*nonsense"):
        parse_config("nonsense = 3")
    with pytest.raises(ConfigError, match="line 1.*'h'"):
        parse_config("h = abc")


def test_parse_rejects_fit_threshold():
    # the symbol fit gate is fixed in extract_symbol; no key can move it
    with pytest.raises(ConfigError, match="line 1: unknown key 'fit_threshold'"):
        parse_config("fit_threshold = 0.05")


def test_validation_errors():
    with pytest.raises(ConfigError, match="h < radius"):
        parse_config("h = 2.0\nradius = 1.0")
    with pytest.raises(ConfigError, match="regime"):
        parse_config("regime = sideways")
    with pytest.raises(ConfigError, match="r_max"):
        parse_config("regime = decay")
    with pytest.raises(ConfigError, match="s_values"):
        parse_config("s_values = ")


def test_compare_truth_exact_and_scaled():
    pg = preset_p_gauss(0.25)
    samples = []
    rng = np.random.default_rng(0)
    for _ in range(10):
        s = rng.uniform(-1, 1)
        p = rng.normal(size=2) * 0.02
        a = float(pg(s, p))
        samples.append(RecoverySample(s=s, p=p, a_hat=a, a_true=a, rel_err=0.0,
                                      status="ok", theta=0.0))
    grid = RecoveryGrid(samples=samples, pi_profile={})
    stats = compare_truth(grid, pg)
    assert stats["max_rel_err"] == 0.0 and stats["n_failed"] == 0
    for smp in samples:
        smp.a_hat = smp.a_hat * 1.01
    stats = compare_truth(grid, pg)
    assert abs(stats["max_rel_err"] - 0.01) < 1e-12
    assert abs(stats["median_rel_err"] - 0.01) < 1e-12


def test_stats_match_csv_recomputation(tmp_path):
    cfg = RunConfig(conductivity="constant(1)", h=0.05, s_values=(0.0,),
                    n_directions=2, n_radii=2, out_dir=str(tmp_path / "o"),
                    stages=("structural", "mesh", "reconstruction"))
    report = run(cfg, echo=None)
    assert report.ok
    rows = (tmp_path / "o" / "recovery.csv").read_text().splitlines()
    header = rows[0].split(",")
    errs = [float(r.split(",")[header.index("rel_err")]) for r in rows[1:]
            if r.split(",")[header.index("status")] == "ok"]
    assert abs(max(errs) - report.recovery_stats["max_rel_err"]) < 1e-15
    assert abs(float(np.median(errs)) - report.recovery_stats["median_rel_err"]) < 1e-15


def test_run_deterministic_outputs(tmp_path):
    outs = []
    for k in (1, 2):
        cfg = RunConfig(conductivity="p_gauss(0.25)", h=0.05, s_values=(0.2,),
                        n_directions=2, n_radii=2, seed=99,
                        out_dir=str(tmp_path / f"run{k}"),
                        stages=("structural", "mesh", "reconstruction"))
        run(cfg, echo=None)
        outs.append({name: (tmp_path / f"run{k}" / name).read_bytes()
                     for name in ("recovery.csv", "symbols.csv")})
    assert outs[0] == outs[1]


def test_run_stops_on_coercivity_violation(tmp_path):
    # a declared floor that is not positive is a hard structural failure
    cfg = RunConfig(conductivity="p_gauss(3.0)", h=0.1,
                    out_dir=str(tmp_path / "bad"))
    report = run(cfg, echo=None)
    assert not report.ok
    assert [s.name for s in report.stages] == ["structural"]
    assert "coer" in report.stages[0].details


def test_full_run_small(tmp_path):
    cfg = RunConfig(conductivity="p_gauss(0.25)", h=0.1, s_values=(0.0,),
                    n_directions=2, n_radii=2, convergence_h=(0.2,),
                    tau_ladder=(4.0, 8.0), out_dir=str(tmp_path / "full"))
    report = run(cfg, echo=None)
    names = [s.name for s in report.stages]
    assert names == ["structural", "mesh", "convergence", "linearization",
                     "geometric", "reconstruction"]
    for required in ("report.txt", "convergence.csv", "recovery.csv", "symbols.csv"):
        assert (tmp_path / "full" / required).exists()
    text = (tmp_path / "full" / "report.txt").read_text()
    assert "reconstruction" in text


def test_jet_batch(tmp_path):
    mesh = build_disk_mesh(1.0, 0.1)
    batch = tmp_path / "jets.txt"
    batch.write_text("jet 0.0 0.2 0.02 0.01 small\n"
                     "jet 1.57 0.0 0.0 0.0 small\n")
    rows = run_jet_batch(preset_p_gauss(0.25), mesh, batch)
    assert len(rows) == 2
    assert all(r[-1] == "ok" for r in rows)
    with pytest.raises(ConfigError, match="line 1"):
        bad = tmp_path / "bad.txt"
        bad.write_text("jets 0 0 0 0 small\n")
        run_jet_batch(preset_p_gauss(0.25), mesh, bad)


def test_write_csv_schema(tmp_path):
    write_csv(tmp_path / "t.csv", ("a", "b"), [(1.0, "x"), (2.5, "y")])
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == "1.0,x"


def test_cli_round_trip(tmp_path):
    from qcond.cli import main
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("conductivity = constant(1)\nh = 0.1\n"
                       "s_values = 0\nn_directions = 2\nn_radii = 2\n"
                       "tau_ladder = 4, 8\nconvergence_h = 0.2\n")
    rc = main(["run", str(cfgfile), "--out", str(tmp_path / "cli_out"), "--seed", "5"])
    assert rc == 0
    assert (tmp_path / "cli_out" / "recovery.csv").exists()
    rc = main(["check", str(cfgfile), "--out", str(tmp_path / "chk")])
    assert rc == 0
    rc = main(["mesh", str(cfgfile), "--out", str(tmp_path / "msh")])
    assert rc == 0
    assert (tmp_path / "msh" / "mesh.txt").exists()
    assert main(["run", str(tmp_path / "missing.cfg")]) == 2


def test_load_config_file(tmp_path):
    f = tmp_path / "x.cfg"
    f.write_text("h = 0.07\n")
    assert load_config(f).h == 0.07


def test_reconstruct_jobs_deterministic():
    from qcond.conductivity import preset_constant, preset_p_lorentz
    from qcond.geometry import build_disk_mesh
    from qcond.recovery import PolarGrid, reconstruct

    def samples(grid):
        return [(s.s, tuple(s.p), s.a_hat, s.status) for s in grid.samples]

    # warm cache: the jobs=1 run fills the shared mesh cache first
    mesh = build_disk_mesh(1.0, 0.05)
    cond = preset_constant(1.0)
    grids = [reconstruct(cond, mesh, (0.0,), PolarGrid(n_directions=3, n_radii=2),
                         jobs=j) for j in (1, 3)]
    assert samples(grids[0]) == samples(grids[1])
    # cold cache: each run starts on a fresh mesh, so the threads of the
    # jobs=2 run meet a mesh whose interior order is not built yet
    cond = preset_p_lorentz(0.2)
    grids = [reconstruct(cond, build_disk_mesh(1.0, 0.05), (0.0,),
                         PolarGrid(n_directions=2, n_radii=3), jobs=j) for j in (1, 2)]
    assert samples(grids[0]) == samples(grids[1])
