
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from qcond.conductivity import preset_p_gauss
from qcond.geometry import build_disk_mesh
from qcond.harness import (SYMBOLS_HEADER, ConfigError, RunConfig, load_config, parse_config,
                           run, run_jet_batch, validate_config, write_csv)
from qcond.recovery import RecoveryGrid, RecoverySample


def config_text(values: dict) -> str:
    """Config lines setting each key to its value; a tuple is comma-separated."""
    return "\n".join(f"{k} = {', '.join(map(str, v)) if isinstance(v, tuple) else v}"
                     for k, v in values.items())


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


# retired keys: the symbol fit gate is fixed in extract_symbol, the probe
# window and Nyquist cap in recovery, the Newton tolerance is
# solve_dirichlet's default and reconstruct's jet radius takes
# jet_radius's default pi1 and N
@pytest.mark.parametrize("key", ["fit_threshold", "width_factor", "nyquist_nodes",
                                 "newton_tol", "pi1", "big_n"])
def test_parse_rejects_retired_keys(key):
    with pytest.raises(ConfigError, match=f"^line 1: unknown key '{key}'$"):
        parse_config(f"{key} = 1")


def test_readme_example_config_parses():
    # a retired or misspelt key in the documented config fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [b for b in readme.split("```")[1::2] if b.lstrip().startswith("conductivity =")]
    assert len(blocks) == 1
    cfg = parse_config(blocks[0])
    assert cfg.conductivity == "p_gauss(0.25)" and cfg.stages == RunConfig.stages


# values that would crash mid-run, or be ignored, if they were accepted
MID_RUN_FAILURES = (
    (dict(radius_fraction=-0.5), "radius_fraction must be positive"),
    (dict(radius_fraction=0.0), "radius_fraction must be positive"),
    (dict(regime="decay", r_max=-1.0), "r_max must be positive"),
    (dict(structural_p_max=-1.0), "structural_p_max must be positive"),
    (dict(convergence_h=(0.1, 0.0)), "convergence_h: need 0 < h < radius"),
    (dict(r_max=3.0), "r_max applies to the decay regime only"),
    (dict(structural_s_range=(2.0, -2.0)), "structural_s_range must be two values"),
    (dict(conductivity="bogus(1)"), "^conductivity: unknown conductivity preset 'bogus'"),
    (dict(conductivity="p_gauss(0.25, 1, 2)"),
     "^conductivity: conductivity preset 'p_gauss': too many positional arguments$"),
    (dict(conductivity="constant(0.5)"), r"^conductivity: constant preset needs c >= 1$"),
    (dict(tau_ladder=(2.0, 3.0)), "^tau_ladder must span at least one octave$"),
    (dict(conductivity="p_gauss(0.25)", regime="decay", r_max=1.0),
     "^decay-regime request on a model without a decay constant$"),
)


def test_validation_errors():
    with pytest.raises(ConfigError, match="h < radius"):
        parse_config("h = 2.0\nradius = 1.0")
    with pytest.raises(ConfigError, match="^regime must be one of small, decay, "
                                          "got 'sideways'$"):
        parse_config("regime = sideways")
    # the reconstruction inputs are checked whatever the stages
    for text in ("regime = decay", "regime = decay\nstages = mesh"):
        with pytest.raises(ConfigError, match="^decay-regime grid needs an explicit r_max$"):
            parse_config(text)
    with pytest.raises(ConfigError, match="s_values"):
        parse_config("s_values = ")
    # a misspelt stage would run nothing and report success
    with pytest.raises(ConfigError, match="unknown stages reconstuction; valid stages: "
                                          "structural, mesh, convergence, linearization, "
                                          "geometric, reconstruction"):
        parse_config("stages = mesh, reconstuction")
    # the radial identity needs at least 3 radial nodes
    with pytest.raises(ConfigError, match="n_radii >= 2"):
        parse_config("n_radii = 1")
    with pytest.raises(ConfigError, match="n_directions must be at least 1"):
        parse_config("n_directions = 0")
    with pytest.raises(ConfigError, match="jobs must be at least 1"):
        parse_config("jobs = 0")
    # a convergence order needs two distinct mesh sizes
    one_size = RunConfig(h=0.1, convergence_h=(0.1,), stages=("convergence",))
    with pytest.raises(ConfigError, match="needs a mesh size other than h"):
        validate_config(one_size)
    validate_config(dataclasses.replace(one_size, stages=("mesh",)))
    for fields, cause in MID_RUN_FAILURES:
        with pytest.raises(ConfigError, match=cause):
            parse_config(config_text(fields))


def test_run_validates_config_before_writing(tmp_path):
    # a config built in code is checked like a parsed one: a misspelt
    # stage, or a value that would fail mid-run, is rejected before the
    # output directory is created
    for fields, cause in ((dict(stages=("reconstuction",)), "unknown stages reconstuction"),
                          *MID_RUN_FAILURES):
        cfg = RunConfig(h=0.1, out_dir=str(tmp_path / "o"), **fields)
        with pytest.raises(ConfigError, match=cause):
            run(cfg, echo=None)
        assert not (tmp_path / "o").exists()


def test_every_field_round_trips_through_parse_config():
    # each key is parsed by its field's type: a non-default value of that
    # type, written out, reads back with the same repr
    values = dict(conductivity="sin_slope(1.5)", regime="decay", radius=2.0, h=0.1,
                  s_values=(0.5, -0.5), n_directions=3, n_radii=5, radius_fraction=0.5,
                  r_max=3.0, tau_ladder=(4.0, 8.0), structural_s_range=(-1.0, 1.0),
                  structural_p_max=1.5, convergence_h=(0.2, 0.1),
                  stages=("mesh", "reconstruction"), jet_batch="jets.txt", out_dir="out",
                  seed=7, jobs=2)
    assert set(values) == {f.name for f in dataclasses.fields(RunConfig)}
    cfg, default = parse_config(config_text(values)), RunConfig()
    for k, v in values.items():
        assert getattr(default, k) != v, k
        assert repr(getattr(cfg, k)) == repr(v), k


def test_error_stats_exact_and_scaled():
    pg = preset_p_gauss(0.25)
    rng = np.random.default_rng(0)
    jets = [(rng.uniform(-1, 1), rng.normal(size=2) * 0.02) for _ in range(10)]

    def grid(scale):
        samples = []
        for s, p in jets:
            a = float(pg(s, p))
            a_hat = a * scale
            samples.append(RecoverySample(s=s, p=p, a_hat=a_hat, a_true=a,
                                          rel_err=abs(a_hat - a) / a, status="ok"))
        return RecoveryGrid(samples=samples, pi_profile={}, chains=[])

    stats = grid(1.0).error_stats()
    assert stats["max_rel_err"] == 0.0 and stats["n_failed"] == 0
    stats = grid(1.01).error_stats()
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
    # one worker thread and two write the same bytes
    outs = []
    for k in (1, 2):
        cfg = RunConfig(conductivity="p_gauss(0.25)", h=0.05, s_values=(0.2,),
                        n_directions=2, n_radii=2, seed=99, jobs=k,
                        out_dir=str(tmp_path / f"run{k}"),
                        stages=("structural", "mesh", "reconstruction"))
        run(cfg, echo=None)
        outs.append({name: (tmp_path / f"run{k}" / name).read_bytes()
                     for name in ("recovery.csv", "symbols.csv")})
    assert outs[0] == outs[1]
    # one symbol row per node, 2 chains x 3 nodes, each with every column
    rows = outs[0]["symbols.csv"].decode().splitlines()[1:]
    assert len(rows) == 6 and all(len(r.split(",")) == len(SYMBOLS_HEADER) for r in rows)


def test_run_reports_a_mesh_too_coarse_for_the_ladder(tmp_path):
    # the admissible frequencies depend on the built mesh, so the config
    # passes validation and the reconstruction stage fails in the report
    cfg = RunConfig(h=0.2, stages=("mesh", "reconstruction"), out_dir=str(tmp_path / "o"))
    report = run(cfg, echo=None)
    assert [(s.name, s.ok) for s in report.stages] == [("mesh", True),
                                                       ("reconstruction", False)]
    assert report.stages[1].details == "mesh too coarse for the frequency ladder"
    text = (tmp_path / "o" / "report.txt").read_text()
    assert "[FAIL] reconstruction" in text
    assert "mesh too coarse for the frequency ladder" in text


def test_linearization_and_geometric_stages_share_one_base(tmp_path, monkeypatch):
    from qcond import harness, linearized
    cold, at_base = [], []
    for module in (harness, linearized):
        solve = module.solve_dirichlet

        def counted(*args, solve=solve, **kwargs):
            if kwargs.get("warm_start") is None:
                cold.append(args[2])
            return solve(*args, **kwargs)
        monkeypatch.setattr(module, "solve_dirichlet", counted)
    build = vars(linearized.LinearizedOperator)["at_base"].__func__

    def counted_at_base(cls, cond, base):
        at_base.append(base)
        return build(cls, cond, base)
    monkeypatch.setattr(linearized.LinearizedOperator, "at_base",
                        classmethod(counted_at_base))
    cfg = RunConfig(conductivity="p_gauss(0.25)", h=0.1, out_dir=str(tmp_path / "o"),
                    stages=("mesh", "linearization", "geometric"))
    assert run(cfg, echo=None).ok
    assert len(cold) == 1 and len(at_base) == 1


@pytest.mark.parametrize("stage, check", [("convergence", "convergence_order"),
                                          ("linearization", "fd_derivative_check"),
                                          ("geometric", "dictionary_check")])
def test_stage_verdict_is_the_library_verdict(tmp_path, monkeypatch, stage, check):
    # the check keeps its metrics and reports a failure: so does the stage
    from qcond import harness
    real = getattr(harness, check)
    monkeypatch.setattr(harness, check, lambda *args: (*real(*args)[:-1], False))
    cfg = RunConfig(conductivity="p_gauss(0.25)", h=0.1, convergence_h=(0.2,),
                    out_dir=str(tmp_path / "o"), stages=("mesh", stage))
    report = run(cfg, echo=None)
    assert [(s.name, s.ok) for s in report.stages] == [("mesh", True), (stage, False)]
    assert f"[FAIL] {stage}" in (tmp_path / "o" / "report.txt").read_text()


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
    # a number that does not parse names its line
    bad.write_text("\njet 0 0.0 x 0 small\n")
    with pytest.raises(ConfigError, match="^jet batch line 2: could not convert string "
                                          "to float: 'x'$"):
        run_jet_batch(preset_p_gauss(0.25), mesh, bad)
    # an unknown regime is a malformed line, not a run of either barrier
    bad.write_text("jet 0.0 0.2 0.02 0.01 small\n"
                   "jet 0.0 0.2 0.02 0.01 bogus\n")
    with pytest.raises(ConfigError, match="^jet batch line 2: regime must be one of "
                                          "small, decay, got 'bogus'$"):
        run_jet_batch(preset_p_gauss(0.25), mesh, bad)


def test_unreadable_jet_batch_fails_its_stage(tmp_path):
    # a missing or malformed batch file fails the jets stage, and the run
    # still writes its report
    bad = tmp_path / "bad.txt"
    bad.write_text("jet 0.0 0.2 0.02 0.01 sideways\n")
    for batch, cause in ((tmp_path / "missing.txt", "No such file"),
                         (bad, "^jet batch line 1: regime must be one of")):
        out = tmp_path / batch.stem
        report = run(RunConfig(h=0.2, stages=("mesh",), jet_batch=str(batch),
                               out_dir=str(out)), echo=None)
        assert [(st.name, st.ok) for st in report.stages] == [("mesh", True), ("jets", False)]
        assert re.search(cause, report.stages[-1].details)
        assert (out / "report.txt").exists() and not (out / "jets.csv").exists()


def test_cli_check_runs_the_structural_stage_only(tmp_path):
    # a valid jet batch in the config is work for `run`, not for `check`
    from qcond.cli import main
    batch = tmp_path / "jets.txt"
    batch.write_text("jet 0.0 0.2 0.02 0.01 small\n")
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(f"conductivity = p_gauss(0.25)\nh = 0.2\njet_batch = {batch}\n")
    out = tmp_path / "chk"
    assert main(["check", str(cfgfile), "--out", str(out)]) == 0
    report = (out / "report.txt").read_text()
    assert re.findall(r"^\[(?:PASS|FAIL)\] (\S+)", report, re.M) == ["structural"]
    assert sorted(p.name for p in out.iterdir()) == ["report.txt"]


def test_write_csv_schema(tmp_path):
    write_csv(tmp_path / "t.csv", ("a", "b"), [(1.0, "x"), (2.5, "y, z")])
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines[0] == "a,b"
    assert lines[1:] == ["1.0,x", "2.5,y; z"]


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
    # a preset that cannot be built is a config error
    (tmp_path / "bogus.cfg").write_text("conductivity = bogus(1)\n")
    assert main(["run", str(tmp_path / "bogus.cfg")]) == 2
    # overrides are validated like the file
    assert main(["run", str(cfgfile), "--jobs", "0"]) == 2


def test_load_config_file(tmp_path):
    f = tmp_path / "x.cfg"
    f.write_text("h = 0.07\n")
    assert load_config(f).h == 0.07


def test_reconstruct_jobs_deterministic():
    from qcond.conductivity import make_preset, preset_constant, preset_p_lorentz
    from qcond.geometry import build_disk_mesh
    from qcond.recovery import PolarGrid, reconstruct

    def samples(grid):
        # and the chain records; D by its bytes, so NaN compares equal
        return ([(s.s, tuple(s.p), s.a_hat, s.status) for s in grid.samples],
                [(c.D.tobytes(), c.status, [y and (y.real_slope, y.imag_slope, y.fit_residual)
                                            for y in c.symbols]) for c in grid.chains])

    # warm cache: the jobs=1 run fills the shared mesh cache first
    mesh = build_disk_mesh(1.0, 0.05)
    cond = preset_constant(1.0)
    grids = [reconstruct(cond, mesh, (0.0,), PolarGrid(n_directions=3, n_radii=2),
                         jobs=j) for j in (1, 3)]
    assert samples(grids[0]) == samples(grids[1])
    # fresh meshes: each run builds its mesh's solver state itself, before
    # its chains start
    cond = preset_p_lorentz(0.2)
    grids = [reconstruct(cond, build_disk_mesh(1.0, 0.05), (0.0,),
                         PolarGrid(n_directions=2, n_radii=3), jobs=j) for j in (1, 2)]
    assert samples(grids[0]) == samples(grids[1])
    # decay chains: exp-barrier jets, several solves each
    cond = make_preset("decay_mix(0.2,0.05,0.1)")
    grids = [reconstruct(cond, build_disk_mesh(1.0, 0.1), (0.0,),
                         PolarGrid(n_directions=2, n_radii=3, r_max=2.0), regime="decay",
                         tau_ladder=(2.0, 4.0), jobs=j) for j in (1, 2)]
    assert all(s.status == "ok" for s in grids[0].samples)
    assert samples(grids[0]) == samples(grids[1])


@pytest.mark.parametrize("jobs", [1, 2])
def test_reconstruct_builds_mesh_cache_before_threads(monkeypatch, jobs):
    # every chain starts by looking up its frame; by then, for every jobs,
    # it must find the Laplace LU and the P1 pattern built, so no chain
    # writes to the mesh
    from qcond import recovery
    from qcond.conductivity import preset_p_lorentz

    frame_at = recovery.boundary_frame_at
    seen = []

    def spy(mesh, theta):
        seen.append({"laplace_lu", "p1_pattern"} <= set(mesh._cache))
        return frame_at(mesh, theta)

    monkeypatch.setattr(recovery, "boundary_frame_at", spy)
    recovery.reconstruct(preset_p_lorentz(0.2), build_disk_mesh(1.0, 0.1), (0.0,),
                         recovery.PolarGrid(n_directions=2, n_radii=2),
                         tau_ladder=(2.0, 4.0), jobs=jobs)
    assert seen == [True, True]
