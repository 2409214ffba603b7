"""qcond benchmark: run a workload in fresh processes and print its metrics.

    python3 perfbench/run.py --workload recon_small --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout; the library is imported from
./src.  Set-up time is measured in fresh worker processes from their
start to the moment `qcond` is imported and the mesh with its caches is
built.  The workload then runs in one more fresh process for --seconds.
With --trace 0 the end-to-end metrics are printed, with --trace 1 the
per-layer metrics of a traced run and its overhead.  Lines of the form
`<workload> <metric> <value> <unit>` come first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Workers run with BLAS pinned to one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("recon_small", "recon_decay", "probe_sweep")
SETUP_PROBES = 2          # set-up-only processes before, and again after, the measuring one
DEADLINE_S = 170.0        # every process of a run ends within this


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start_worker(args: list, deadline: float):
    """Run one worker; return (seconds to its ready line, its result or None)."""
    cmd = [sys.executable, str(WORKER), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env=worker_env())
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    ready, result = None, None
    try:
        for line in proc.stdout:
            if not line.startswith("{"):
                continue
            msg = json.loads(line)
            if msg["event"] == "ready":
                ready = time.perf_counter() - t0
            elif msg["event"] == "result":
                result = msg
    finally:
        watchdog.cancel()
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or ready is None:
        raise RuntimeError(f"worker {' '.join(args)} exited with code {code}")
    return ready, result


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    base = ["--workload", name]

    def setups():
        return [start_worker(base + ["--setup-only"], deadline)[0] for _ in range(SETUP_PROBES)]

    before = [] if trace else setups()
    ready, result = start_worker(base + ["--seed", str(seed), "--seconds", str(seconds),
                                         "--trace", str(trace)], deadline)
    if not trace:
        # probes on both sides of the measuring run span the machine's drift
        samples = before + [ready] + setups()
        result["metrics"]["setup_s"] = [statistics.median(samples), "s"]
    return result


def report(name: str, seed: int, result: dict) -> None:
    m = result["machine"]
    print(f"# {name} seed={seed} iterations={result['iterations']} nproc={m['nproc']} "
          f"python={m['python']} numpy={m['numpy']} scipy={m['scipy']} "
          f"blas_threads={m['blas_threads']}")
    print(f"# {name} iteration walls: {' '.join(f'{w:.3f}' for w in result['walls'])} s")
    for key, (value, unit) in sorted(result["metrics"].items()):
        print(f"{name} {key} {value:.6g} {unit}")
    if "ok_frac" in result["metrics"]:
        print(f"{name} fail_frac {result['failed'] / result['attempted']:.6g} ratio")
    verdict = "; ".join(result["problems"]) or "all gates pass"
    print(f"{name} correctness: {verdict}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "qcond" / "__init__.py").is_file():
        print(f"run.py: no qcond sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        except RuntimeError as exc:
            print(f"run.py: {name}: {exc}", file=sys.stderr)
            return 1
        report(name, args.seed, results[name])

    def values(result):
        return {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}

    if len(names) == 1:
        metrics = values(results[names[0]])
    else:
        metrics = {f"{n}.{k}": v for n in names for k, v in values(results[n]).items()}
    print(json.dumps({
        "correct": all(not r["problems"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
