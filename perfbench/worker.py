"""One workload in one fresh interpreter: set up, time, check, report.

Started by run.py with one BLAS/OpenMP thread; prints one JSON object as its
last line of standard output.  Usage:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        [--trace 0|1] [--setup-only] [--spans FILE]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_program():
    """Import fbconv from this checkout's src/ and nowhere else."""
    if not (SRC / "fbconv" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fbconv package under {SRC}")
    sys.path.insert(0, str(SRC))
    import fbconv
    if Path(fbconv.__file__).resolve().parent != SRC / "fbconv":
        sys.exit(f"perfbench: imported fbconv from {fbconv.__file__}, not from {SRC}")


def percentile(sorted_vals, q: float) -> float:
    """Linear-interpolation percentile of an ascending list, q in [0, 100]."""
    pos = (len(sorted_vals) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def latency_stats(lat_s) -> dict:
    """Median, and the highest whole percentile with at least ten samples
    beyond it; with fewer than forty samples that would be no tail, so only
    the median is given."""
    vals = sorted(lat_s)
    out = {"samples": len(vals), "p50_ms": 1e3 * percentile(vals, 50.0)}
    if len(vals) >= 40:
        q = int(100.0 * (1.0 - 10.0 / len(vals)))
        tail = percentile(vals, q)
        out["tail_percentile"] = q
        out["tail_ms"] = 1e3 * tail
        out["samples_beyond_tail"] = sum(v > tail for v in vals)
    return out


def machine_info() -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    _import_program()
    import tracing
    import workloads
    from fbconv import (converses_ptp, converses_sw, dsbs, lp_core,
                        probability, relaxations)

    # dsbs warns once per (n, R) that 2^(nR) is not exact; that is expected
    warnings.filterwarnings("ignore", category=RuntimeWarning, module="fbconv")
    wl = workloads.WORKLOADS[args.workload]

    tracer = tracing.Tracer()
    if args.trace:
        tracing.install(tracer, (probability, lp_core, relaxations,
                                 converses_ptp, converses_sw, dsbs))

    rng = np.random.default_rng(args.seed)
    t0 = time.perf_counter()
    with tracer.span("probability.instance"):
        inputs = wl.inputs(rng)
    instance_ms = 1e3 * (time.perf_counter() - t0) / len(inputs)

    wl.op(inputs[0])                      # warm-up op
    t_first = time.monotonic()
    if args.setup_only:
        print(json.dumps({"first_op_monotonic": t_first}))
        return 0

    first_pass, summaries = {}, {}
    lat = []
    failed_idx = set()
    errors = []
    passes = 0
    start = time.perf_counter()
    while True:
        for i, item in enumerate(inputs):
            tracer.op = passes * len(inputs) + i
            tracer.enter("op")
            t0 = time.perf_counter()
            try:
                res = wl.op(item)
            except Exception as exc:      # an op that raises counts as failed
                tracer.exit()
                failed_idx.add((passes, i))
                errors.append(f"input {i}: {type(exc).__name__}: {exc}")
                continue
            t1 = time.perf_counter()
            tracer.exit()
            lat.append(t1 - t0)
            if passes == 0:
                first_pass[i] = res
                summaries[i] = wl.summary(res)
            elif wl.summary(res) != summaries[i]:
                failed_idx.add((passes, i))
                errors.append(f"input {i}: pass {passes} differs from pass 0")
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / passes > args.seconds:
            break
    tracer.op = None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops = passes * len(inputs)

    # checks, after the timed loop; a failed check fails the input's op in
    # every pass
    correct = True
    for i, item in enumerate(inputs):
        if i not in first_pass:
            continue
        problems = wl.check(item, first_pass[i], wl.reference(item))
        if problems:
            correct = False
            errors += [f"input {i}: {p}" for p in problems]
            failed_idx |= {(p, i) for p in range(passes)}
    problems = wl.final_check(inputs)
    if problems:
        correct = False
        errors += problems
    for e in errors[:20]:
        print(f"perfbench: {args.workload}: {e}", file=sys.stderr)

    out = {
        "first_op_monotonic": t_first,
        "attempted": ops,
        "failed": len(failed_idx),
        "correct": correct,
        "passes": passes,
        "ops_per_pass": len(inputs),
        "loop_s": elapsed,
        "ops_per_s": ops / elapsed,
        "latency": latency_stats(lat),
        "peak_rss_mb": peak_rss_mb,
        "machine": machine_info(),
    }
    if args.trace:
        out["per_layer"] = tracing.per_layer_metrics(tracer, ops, instance_ms)
        out["self_ms_by_function"] = tracing.self_time_by_name(tracer, ops)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
