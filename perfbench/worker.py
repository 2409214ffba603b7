"""One benchmark process: set up, then run a workload for a time budget.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --setup-only

Prints JSON lines on stdout: {"event": "ready"} as soon as `qcond` is
imported and the mesh with its caches is built (the parent times set-up
up to that line), then, unless --setup-only, one {"event": "result"} line.
`run.py` starts this script; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import qcond  # noqa: E402
from workloads import WORKLOADS, build_mesh  # noqa: E402

if not Path(qcond.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"worker: imported qcond from {qcond.__file__}, not from {SRC}")


def emit(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


def iterate(seconds: float, step) -> None:
    """Call `step` until the next call would likely end past `seconds`."""
    begin = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        step()
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - begin + statistics.median(durations) > seconds:
            return


class Measurement:
    """Timed iterations of one workload and the checks of their outputs."""

    def __init__(self, wl, inputs):
        self.wl, self.inputs = wl, inputs
        self.walls, self.checks = [], []
        self.reference = None
        self.problems = []
        self.rss_mb = None

    def once(self, mesh) -> None:
        gc.collect()
        t0 = time.perf_counter()
        result = self.wl.run(mesh, self.inputs)
        self.walls.append(time.perf_counter() - t0)
        self.checks.append(self.wl.check(result, self.inputs))
        out = self.wl.outputs(result)
        if self.reference is None:
            # freed heap memory stays with the process, so later calls peak
            # higher the more calls ran before: keep the peak of the first
            self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            self.reference = out
        elif not np.allclose(out, self.reference, rtol=1e-9, atol=1e-12, equal_nan=True):
            self.problems.append("outputs differ between iterations")

    def summary(self) -> dict:
        problems = sorted({p for c in self.checks for p in c.problems} | set(self.problems))
        return {"iterations": len(self.walls),
                "walls": self.walls,
                "attempted": sum(c.attempted for c in self.checks),
                "failed": sum(c.failed for c in self.checks),
                "problems": problems}


def end_to_end(m: Measurement) -> dict:
    summary = m.summary()
    errors = m.checks[0].errors or [float("inf")]
    rates = [(c.attempted - c.failed) / w for c, w in zip(m.checks, m.walls)]
    return {
        "wall_s": [statistics.median(m.walls), "s"],
        "samples_per_s": [statistics.median(rates), "1/s"],
        "peak_rss_mb": [m.rss_mb, "MB"],
        "max_rel_err": [max(errors), "ratio"],
        "median_rel_err": [statistics.median(errors), "ratio"],
        "ok_frac": [(summary["attempted"] - summary["failed"]) / max(summary["attempted"], 1),
                    "ratio"],
    }


def traced(wl, mesh, inputs, seconds: float, name: str, seed: int):
    """Alternate untraced and traced iterations; per-layer metrics are the
    medians over the traced ones, each of which sets up a fresh mesh."""
    from spans import SpanRecorder, install, layer_metrics

    plain, spanned = Measurement(wl, inputs), Measurement(wl, inputs)
    recorders = []

    def pair():
        plain.once(mesh)
        rec = SpanRecorder(f"{name}-seed{seed}-{len(recorders)}")
        bindings = install(rec)
        try:
            spanned.once(build_mesh(wl.h))
        finally:
            bindings.restore()
        recorders.append(rec)

    iterate(seconds, pair)
    per_iter = [layer_metrics(rec.spans) for rec in recorders]
    metrics = {k: [statistics.median(m[k][0] for m in per_iter), unit]
               for k, (_, unit) in per_iter[0].items()}
    wall, base = statistics.median(spanned.walls), statistics.median(plain.walls)
    metrics.update({
        "trace.wall_s": [wall, "s"],
        "trace.untraced_wall_s": [base, "s"],
        "trace.overhead_s": [wall - base, "s"],
        "trace.overhead_frac": [(wall - base) / base, "ratio"],
    })
    if not np.allclose(spanned.reference, plain.reference, rtol=1e-9, atol=1e-12,
                       equal_nan=True):
        spanned.problems.append("traced outputs differ from untraced outputs")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"spans-{name}.jsonl", "w") as fh:
        for rec in recorders:
            for span in rec.spans:
                fh.write(json.dumps(span.to_json()) + "\n")
    other = spanned.summary()
    return {k: v + other[k] for k, v in plain.summary().items()}, metrics


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl = WORKLOADS[args.workload]
    mesh = build_mesh(wl.h)
    emit("ready")
    if args.setup_only:
        return
    inputs = wl.inputs(args.seed)
    if args.trace:
        summary, metrics = traced(wl, mesh, inputs, args.seconds, args.workload, args.seed)
    else:
        m = Measurement(wl, inputs)
        iterate(args.seconds, lambda: m.once(mesh))
        summary, metrics = m.summary(), end_to_end(m)
    emit("result", metrics=metrics, **summary,
         machine={"nproc": os.cpu_count(), "python": sys.version.split()[0],
                  "numpy": np.__version__, "scipy": scipy.__version__,
                  "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default")})


if __name__ == "__main__":
    main()
