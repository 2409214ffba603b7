"""The traced benchmark run wraps library functions by their bindings.

`perfbench/spans.py` rebinds `solve_dirichlet`, `assemble_jacobian`,
`_laplace_factor`, `scipy.sparse.linalg.splu` and the `LinearizedOperator`
methods wherever the library holds them.  A rename, or a call that stops
going through the rebound name, would drop that layer's spans silently;
this test runs a toy reconstruction under the recorder and requires a span
from every wrapped layer.  The benchmark's set-up reads the mesh API
directly, so a second test runs it.
"""

import importlib.util
import sys
from pathlib import Path

from qcond import recovery
from qcond.conductivity import preset_p_lorentz
from qcond.geometry import build_disk_mesh

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their module through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_run_sees_every_wrapped_layer(monkeypatch):
    spans = load_perfbench(monkeypatch, "spans")
    rec = spans.SpanRecorder("bindings")
    bindings = spans.install(rec)
    try:
        recovery.reconstruct(preset_p_lorentz(0.2), build_disk_mesh(1.0, 0.1), (0.0,),
                             recovery.PolarGrid(n_directions=1, n_radii=2),
                             tau_ladder=(2.0, 4.0))
    finally:
        bindings.restore()
    names = {span.name for span in rec.spans}
    assert {"forward.solve_dirichlet", "forward.assemble_jacobian",
            "forward.assemble_residual", "forward.laplace_factor", "splu",
            "barriers.prescribe_jet", "linearized.at_base", "linearized.operator",
            "linearized.solve", "linearized.flux", "recovery.extract_symbol"} <= names
    # a fresh mesh factors its Laplacian in set-up, and that LU
    # preconditions every Newton step and linearized solve of the chain
    owners = {span.attrs["owner"] for span in rec.spans if span.name == "splu"}
    assert owners == {"setup"}


def test_benchmark_setup_builds_the_solver_state(monkeypatch):
    workloads = load_perfbench(monkeypatch, "workloads")
    mesh = workloads.build_mesh(0.1)
    assert "laplace_lu" in mesh._cache
