"""hypack benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload deep --seed 3 --seconds 30 --trace 0

Run from the root of a hypack checkout; the package is imported from its
``src`` directory, so nothing needs installing. One run:

1. pins the BLAS and OpenMP thread pools to one thread, before numpy loads;
2. times ``import hypack`` in ``SETUP_IMPORTS`` fresh interpreters
   (untraced runs only);
3. derives the workload's inputs from ``--seed`` and runs whole iterations
   of the workload in this process until the next one would end after
   ``--seconds`` (at least one). Every iteration builds its packings
   afresh and checks its results;
4. prints an info line, then the result line
   ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s`` (the
median import), ``wall_s`` (the median iteration) and ``peak_rss_mb``
(``ru_maxrss`` of this process). With ``--trace 1`` iterations alternate
traced and untraced, starting traced; the metrics are per layer (see
``tracer.layer_metrics``) plus ``trace.overhead_s``, and the spans are
written to ``.perfbench/trace-<workload>-seed<seed>.jsonl``.

Exit status 0 means the run finished, whatever its checks found; a
missing ``src/hypack`` or a failed import exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_IMPORTS = 9


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def time_imports(count: int) -> list:
    """Wall seconds of ``count`` fresh interpreters that import hypack and exit."""
    env = dict(os.environ, PYTHONPATH=SRC)
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import hypack"], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=120)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            fail(f"import hypack failed in a fresh interpreter:\n{proc.stderr}")
    return samples


def import_hypack():
    if not os.path.isfile(os.path.join(SRC, "hypack", "__init__.py")):
        fail(f"no hypack sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    try:
        import hypack
    except ImportError as exc:
        fail(f"import hypack failed: {exc}")
    if not os.path.abspath(hypack.__file__).startswith(SRC + os.sep):
        fail(f"imported hypack from {hypack.__file__}, not from {SRC}")
    return hypack


def environment(hp) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "hypack": getattr(hp, "__version__", "?"),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    hp = import_hypack()
    sys.path.insert(0, HERE)
    import tracer as tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    make_inputs, run = WORKLOADS[args.workload]
    setup = [] if args.trace else time_imports(SETUP_IMPORTS)
    inputs = make_inputs(args.seed)

    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    tracer = tracing.Tracer()
    walls, traced_flags = [], []
    attempted = failed = 0
    failures = []
    try:
        start = time.perf_counter()
        traced = bool(args.trace)  # traced first, so its spans see RSS grow
        while True:
            if traced:
                tracing.install(tracer, hp)
            t0 = time.perf_counter()
            try:
                checks = run(hp, inputs, scratch)
            except Exception:  # a broken program is a failed operation
                checks = [(traceback.format_exc(limit=3), False)]
            finally:
                walls.append(time.perf_counter() - t0)
                tracer.uninstall()
            traced_flags.append(traced)
            attempted += len(checks)
            for name, ok in checks:
                if not ok:
                    failed += 1
                    failures.append(name)
            if args.trace:
                traced = not traced
            done = not args.trace or not all(traced_flags)
            if done and time.perf_counter() - start + statistics.median(walls) > args.seconds:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    peak = tracing.maxrss_mb()
    untraced = [w for w, t in zip(walls, traced_flags) if not t]
    if args.trace:
        traced_walls = [w for w, t in zip(walls, traced_flags) if t]
        metrics = tracing.layer_metrics(tracer.spans, len(traced_walls))
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced_walls) - statistics.median(untraced),
            "unit": "s",
        }
        spans_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write_jsonl(spans_path)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(untraced), "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        }

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "env": environment(hp),
        "iterations_s": walls,
        "traced": traced_flags,
        "imports_s": setup,
        "peak_rss_mb": peak,
        "failures": sorted(set(failures)),
        "unwrapped": sorted(set(tracer.missing)),
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
