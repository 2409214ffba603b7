"""Span recorder and per-layer metrics for the traced benchmark run.

The library is traced from outside.  `install` rebinds the public
functions of each layer, in every namespace that holds them, to wrappers
that open a span around the call and read work counts from the returned
object; `Bindings.restore` puts every original binding back.  Spans stay
in memory until the run ends and are then written out by the worker.

A span has a name, start, end, parent (from a thread-local stack), thread
id and run id.  Its self time is its duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: Optional[int]
    thread: int
    run: str
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "thread": self.thread, "run": self.run,
                "attrs": self.attrs}


class SpanRecorder:
    """In-memory spans of one run, safe to open from several threads."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        # open span that parentless spans of other threads attach to: the
        # reconstruction worker threads start with an empty stack
        self.adopt: Optional[int] = None
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1].id if stack else self.adopt
        span = Span(next(self._ids), name, time.perf_counter(), parent,
                    threading.get_ident(), self.run_id)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def enclosing(self, names) -> Optional[str]:
        """Name of the innermost open span of this thread listed in `names`."""
        for span in reversed(self._stack()):
            if span.name in names:
                return span.name
        return None


class Bindings:
    """Attribute rebindings made for a traced run, undone by `restore`."""

    def __init__(self):
        self._saved: list = []

    def replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


def _traced(rec: SpanRecorder, name: str, fn, count=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if count is not None:
            count(span, result)
        return result
    return wrapper


def _traced_reconstruct(rec: SpanRecorder, fn):
    """`reconstruct` with a progress hook that marks the end of each chain."""
    @functools.wraps(fn)
    def wrapper(*args, progress=None, **kwargs):
        marks = []

        def mark(task):
            marks.append((threading.get_ident(), time.perf_counter()))
            if progress is not None:
                progress(task)

        span = rec.open("recovery.reconstruct")
        rec.adopt = span.id
        try:
            return fn(*args, progress=mark, **kwargs)
        finally:
            rec.adopt = None
            rec.close(span)
            span.attrs["jobs"] = int(kwargs.get("jobs", 1))
            span.attrs["chains"] = _chain_durations(span.start, marks)
    return wrapper


def _chain_durations(start: float, marks) -> list:
    """A chain runs from the previous chain end on its thread to its own end."""
    last, out = {}, []
    for thread, t in sorted(marks, key=lambda m: m[1]):
        out.append(t - last.get(thread, start))
        last[thread] = t
    return out


# splu calls are attributed to the nearest enclosing span of these names
_FACTORIZATION_OWNER = {"linearized.operator": "linearized",
                        "forward.solve_dirichlet": "forward",
                        "forward.laplace_factor": "setup"}


def install(rec: SpanRecorder) -> Bindings:
    """Rebind every traced layer function; the caller must `restore`."""
    import scipy.sparse.linalg as spla
    from qcond import (barriers, conductivity, forward, geometry, halfspace, linearized,
                       recovery)

    namespaces = [m for n, m in list(sys.modules.items())
                  if (n == "qcond" or n.startswith("qcond.")) and m is not None]
    namespaces.append(spla)
    bindings = Bindings()

    def everywhere(fn, new):
        # modules that import a function by name hold their own binding
        for mod in namespaces:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    bindings.replace(mod, attr, new)

    def trace(fn, name, count=None):
        everywhere(fn, _traced(rec, name, fn, count))

    def attr(key):
        return lambda span, result: span.attrs.__setitem__(key, int(getattr(result, key)))

    def factorization(span, lu):
        span.attrs["owner"] = _FACTORIZATION_OWNER.get(rec.enclosing(_FACTORIZATION_OWNER))
        span.attrs["fill_nnz"] = int(lu.L.nnz + lu.U.nnz)

    def jet(span, res):
        span.attrs.update(solves=int(res.solves), ok=bool(res.ok))

    trace(geometry.build_disk_mesh, "geometry.build_disk_mesh",
          lambda span, mesh: span.attrs.__setitem__("vertices", len(mesh.vertices)))
    trace(conductivity.evaluate_with_derivatives, "conductivity.evaluate")
    trace(forward.solve_dirichlet, "forward.solve_dirichlet", attr("newton_iters"))
    trace(forward.assemble_jacobian, "forward.assemble_jacobian")
    trace(forward.assemble_residual, "forward.assemble_residual")
    trace(forward.boundary_jet_of, "forward.boundary_jet_of")
    trace(forward._laplace_factor, "forward.laplace_factor")
    trace(spla.splu, "splu", factorization)
    trace(barriers.prescribe_jet, "barriers.prescribe_jet", jet)
    trace(recovery.extract_symbol, "recovery.extract_symbol", attr("reliable"))
    trace(recovery.oscillatory_probe, "recovery.probe")
    trace(recovery.radial_integration_recovery, "recovery.radial_integration")
    trace(halfspace.halfspace_flux_symbol, "halfspace.oracle")
    everywhere(recovery.reconstruct, _traced_reconstruct(rec, recovery.reconstruct))

    op = linearized.LinearizedOperator
    at_base = vars(op)["at_base"].__func__
    bindings.replace(op, "at_base",
                     classmethod(_traced(rec, "linearized.at_base", at_base)))
    for method, name in (("__init__", "linearized.operator"), ("solve", "linearized.solve"),
                         ("flux_coeffs", "linearized.flux")):
        bindings.replace(op, method, _traced(rec, name, vars(op)[method]))
    return bindings


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _covered(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of `intervals`."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced iteration: name -> (value, unit)."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
        children[span.parent].append(span)

    def calls(name):
        return len(by_name[name])

    def busy(name):
        return sum(s.duration for s in by_name[name])

    def self_time(name):
        return sum(s.duration - _covered(s.start, s.end,
                                         [(c.start, c.end) for c in children[s.id]])
                   for s in by_name[name])

    def total(name, key):
        return sum(s.attrs[key] for s in by_name[name])

    lus = defaultdict(list)
    for span in by_name["splu"]:
        lus[span.attrs["owner"]].append(span)

    def lu_fill(owner):
        fills = [s.attrs["fill_nnz"] for s in lus[owner]]
        return statistics.fmean(fills) if fills else 0.0

    meshes = by_name["geometry.build_disk_mesh"]
    solves = calls("forward.solve_dirichlet")
    jets = calls("barriers.prescribe_jet")
    operators = calls("linearized.operator")
    symbols = calls("recovery.extract_symbol")
    recon = by_name["recovery.reconstruct"]
    recon_s = sum(s.duration for s in recon)
    chains = [c for s in recon for c in s.attrs["chains"]]
    slots = sum(s.attrs["jobs"] * s.duration for s in recon)
    return {
        "geometry.build_disk_mesh_s": (busy("geometry.build_disk_mesh"), "s"),
        "geometry.mesh_vertices": (meshes[-1].attrs["vertices"] if meshes else 0, "count"),
        "conductivity.evaluate_calls": (calls("conductivity.evaluate"), "count"),
        "conductivity.evaluate_s": (busy("conductivity.evaluate"), "s"),
        "forward.solve_dirichlet_calls": (solves, "count"),
        "forward.solve_dirichlet_s": (busy("forward.solve_dirichlet"), "s"),
        "forward.self_s": (self_time("forward.solve_dirichlet"), "s"),
        "forward.newton_iters": (total("forward.solve_dirichlet", "newton_iters"), "count"),
        "forward.newton_iters_per_solve": (
            _ratio(total("forward.solve_dirichlet", "newton_iters"), solves), "iter/solve"),
        "forward.assemble_jacobian_calls": (calls("forward.assemble_jacobian"), "count"),
        "forward.assemble_jacobian_s": (busy("forward.assemble_jacobian"), "s"),
        "forward.assemble_residual_calls": (calls("forward.assemble_residual"), "count"),
        "forward.assemble_residual_s": (busy("forward.assemble_residual"), "s"),
        "forward.factorizations": (len(lus["forward"]), "count"),
        "forward.factorize_s": (sum(s.duration for s in lus["forward"]), "s"),
        "forward.lu_fill_nnz": (lu_fill("forward"), "nnz"),
        "forward.boundary_jet_of_s": (busy("forward.boundary_jet_of"), "s"),
        "forward.final_jacobian_use_ratio": (
            _ratio(calls("linearized.at_base"), solves), "ratio"),
        "barriers.prescribe_jet_calls": (jets, "count"),
        "barriers.prescribe_jet_s": (busy("barriers.prescribe_jet"), "s"),
        "barriers.self_s": (self_time("barriers.prescribe_jet"), "s"),
        "barriers.jet_solves": (total("barriers.prescribe_jet", "solves"), "count"),
        "barriers.solves_per_jet": (
            _ratio(total("barriers.prescribe_jet", "solves"), jets), "solve/jet"),
        "barriers.jet_ok_frac": (_ratio(total("barriers.prescribe_jet", "ok"), jets), "ratio"),
        "linearized.operators": (operators, "count"),
        "linearized.factorize_s": (sum(s.duration for s in lus["linearized"]), "s"),
        "linearized.lu_fill_nnz": (lu_fill("linearized"), "nnz"),
        "linearized.solves": (calls("linearized.solve"), "count"),
        "linearized.solve_s": (busy("linearized.solve"), "s"),
        "linearized.solves_per_factorization": (
            _ratio(calls("linearized.solve"), len(lus["linearized"])), "solve/LU"),
        "linearized.flux_s": (busy("linearized.flux"), "s"),
        "recovery.reconstruct_s": (recon_s, "s"),
        "recovery.reconstruct_self_frac": (
            _ratio(self_time("recovery.reconstruct"), recon_s), "ratio"),
        "recovery.extract_symbol_calls": (symbols, "count"),
        "recovery.extract_symbol_s": (busy("recovery.extract_symbol"), "s"),
        "recovery.extract_symbol_self_s": (self_time("recovery.extract_symbol"), "s"),
        "recovery.probes": (calls("recovery.probe"), "count"),
        "recovery.probe_s": (busy("recovery.probe"), "s"),
        "recovery.reliable_frac": (
            _ratio(total("recovery.extract_symbol", "reliable"), symbols), "ratio"),
        "recovery.radial_integration_s": (busy("recovery.radial_integration"), "s"),
        "recovery.chain_s_max": (max(chains, default=0.0), "s"),
        "recovery.parallel_efficiency": (_ratio(sum(chains), slots), "ratio"),
        "halfspace.oracle_calls": (calls("halfspace.oracle"), "count"),
        "halfspace.oracle_s": (busy("halfspace.oracle"), "s"),
        "trace.spans": (len(spans), "count"),
    }
