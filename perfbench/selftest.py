"""Self-test of the benchmark at toy size (h=0.1 mesh, 2x3 grids).

    python3 -m pytest perfbench/selftest.py -q

Checks that every metric named in BENCHMARK.json is emitted with a unit,
that the correctness gates trip on corrupted outputs, and that the traced
run restores every binding it wraps.
"""

from __future__ import annotations

import copy
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from workloads import CRITERION_8_OPERATORS, WORKLOADS, build_mesh  # noqa: E402

# the default ladder exceeds the Nyquist cap of an h=0.1 boundary; the
# probe bound is loosened to what that mesh resolves
TOY_LADDER = (2.0, 4.0, 8.0)
TOY = {
    "recon_small": replace(WORKLOADS["recon_small"], h=0.1, n_directions=2, n_radii=3,
                           ladder=TOY_LADDER),
    "recon_decay": replace(WORKLOADS["recon_decay"], h=0.1, n_directions=2, n_radii=3,
                           ladder=TOY_LADDER),
    "probe_sweep": replace(WORKLOADS["probe_sweep"], h=0.1,
                           operators=CRITERION_8_OPERATORS[:2], n_frames=3,
                           ladder=TOY_LADDER, max_err=0.25),
}
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def meshes():
    return {name: build_mesh(wl.h) for name, wl in TOY.items()}


def test_workload_lists_agree():
    assert set(run.WORKLOADS) == set(WORKLOADS)
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(TOY))
def test_end_to_end_metrics_emitted_with_units(name, meshes):
    wl = TOY[name]
    m = worker.Measurement(wl, wl.inputs(0))
    m.once(meshes[name])
    metrics = worker.end_to_end(m)
    metrics["setup_s"] = [0.5, "s"]       # added by run.py from the set-up probes
    assert set(metrics) == {e["name"] for e in SPEC["end_to_end"]}
    for e in SPEC["end_to_end"]:
        value, unit = metrics[e["name"]]
        assert unit == e["unit"] and value == value
    assert m.summary()["problems"] == []


def _snapshot():
    import scipy.sparse.linalg as spla
    import qcond.linearized
    owners = [m for n, m in sys.modules.items() if n.split(".")[0] == "qcond"]
    owners += [spla, qcond.linearized.LinearizedOperator]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def _same(a, b):
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


@pytest.mark.parametrize("name", sorted(TOY))
def test_traced_run_emits_layers_and_restores_bindings(name, meshes):
    wl = TOY[name]
    before = _snapshot()
    summary, metrics = worker.traced(wl, meshes[name], wl.inputs(1), 0.0, f"toy-{name}", 1)
    assert _same(before, _snapshot())
    assert summary["problems"] == []
    assert set(metrics) == {p["name"] for p in SPEC["per_layer"]}
    units = {p["name"]: p["unit"] for p in SPEC["per_layer"]}
    assert all(unit == units[k] for k, (_, unit) in metrics.items())

    def value(key):
        return metrics[key][0]

    if name == "probe_sweep":
        assert value("linearized.operators") == len(wl.operators)
        assert value("linearized.solves") == 2 * len(TOY_LADDER) * len(wl.operators) * wl.n_frames
        assert value("forward.solve_dirichlet_calls") == 0
        assert value("halfspace.oracle_calls") == len(wl.operators) * wl.n_frames
    else:
        jets = wl.n_directions * wl.n_radii
        assert value("barriers.prescribe_jet_calls") == jets
        assert value("linearized.operators") == jets + wl.n_directions
        assert value("forward.factorizations") > 0
        assert value("recovery.reconstruct_self_frac") < 0.1


def test_bindings_restored_after_a_failing_call(meshes):
    import qcond.recovery
    before = _snapshot()
    bindings = spans.install(spans.SpanRecorder("fail"))
    try:
        with pytest.raises(ValueError):
            qcond.recovery.oscillatory_probe(meshes["recon_small"], None, -1.0)
    finally:
        bindings.restore()
    assert _same(before, _snapshot())


@pytest.mark.parametrize("name", ["recon_small", "recon_decay"])
def test_reconstruction_gates_trip(name, meshes):
    wl = TOY[name]
    inputs = wl.inputs(2)
    result = wl.run(meshes[name], inputs)
    assert wl.check(result, inputs).correct

    bad = copy.deepcopy(result)
    bad.samples[0].a_hat *= 1.5
    assert not wl.check(bad, inputs).correct and wl.check(bad, inputs).failed == 1

    bad = copy.deepcopy(result)
    bad.samples[1].status = "jet: corrupted"
    assert wl.check(bad, inputs).failed == 1

    bad = copy.deepcopy(result)
    bad.samples.pop()
    assert not wl.check(bad, inputs).correct


def test_median_gate_trips(meshes):
    wl = replace(TOY["recon_small"], max_err=1.0)
    inputs = wl.inputs(3)
    result = wl.run(meshes["recon_small"], inputs)
    for smp in result.samples:
        smp.a_hat *= 1.03
    check = wl.check(result, inputs)
    assert check.failed == 0 and not check.correct


def test_probe_gates_trip(meshes):
    wl = TOY["probe_sweep"]
    inputs = wl.inputs(4)
    result = wl.run(meshes["probe_sweep"], inputs)
    assert wl.check(result, inputs).correct

    bad = copy.deepcopy(result)
    bad[0].real_slope *= 1.5
    assert wl.check(bad, inputs).failed == 1

    bad = copy.deepcopy(result)
    bad[1].parity_residual = 1e-2
    assert wl.check(bad, inputs).failed == 1

    bad = copy.deepcopy(result)
    bad[2].reliable = False
    assert wl.check(bad, inputs).failed == 1
