"""Benchmark of the fbconv converse bounds.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N --seconds S

With --workload, one run of that workload.  --trace 0 gives the end-to-end
metrics of BENCHMARK.json, --trace 1 the per-layer metrics from a run whose
fbconv functions are wrapped with span timers.  The last line of standard
output is the JSON result; the full record goes to
perfbench/results/BENCH_<workload>_seed<N>_trace<0|1>.json.

Without --workload, every workload runs untraced and then traced, and the
results, with the tracing overhead, go to perfbench/results/BENCH_all_seed<N>.json.

Each run happens in fresh interpreters with one BLAS/OpenMP thread.
setup_s is the median over SETUP_RUNS fresh interpreters of the time from
starting the interpreter to its first timed op.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("relax_lp", "sw_bounds", "dsbs_sweep")
SETUP_RUNS = 7
RUN_DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _units() -> dict:
    spec = _spec()
    return {k: {m["name"]: m["unit"] for m in spec[k]} for k in ("end_to_end", "per_layer")}


def _spawn(args, deadline: float) -> dict:
    """Run worker.py in a fresh interpreter; returns its JSON record with
    setup_s, the time from the start of the interpreter to its first timed op."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} passed the {RUN_DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with code {proc.returncode}")
    try:
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"worker {args} printed no result") from exc
    rec["setup_s"] = rec["first_op_monotonic"] - t0
    return rec


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    units = _units()
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    RESULTS.mkdir(exist_ok=True)
    stem = f"BENCH_{workload}_seed{seed}_trace{trace}"
    if trace:
        spans = RESULTS / f"{stem}_spans.jsonl"
        rec = _spawn(base + ["--trace", "1", "--spans", str(spans)], deadline)
        values = rec["per_layer"]
        kind = "per_layer"
    else:
        # set-up samples before and after the timed run, so that a slow
        # drift of the machine's speed during the run moves their median less
        setup_only = base + ["--setup-only"]
        setups = [_spawn(setup_only, deadline)["setup_s"] for _ in range(SETUP_RUNS // 2)]
        rec = _spawn(base, deadline)
        setups.append(rec["setup_s"])
        setups += [_spawn(setup_only, deadline)["setup_s"]
                   for _ in range(SETUP_RUNS - len(setups))]
        rec["setup_samples_s"] = setups
        values = {"setup_s": statistics.median(setups),
                  "ops_per_s": rec["ops_per_s"],
                  "latency_p50_ms": rec["latency"]["p50_ms"],
                  "peak_rss_mb": rec["peak_rss_mb"]}
        kind = "end_to_end"
    rec.update(workload=workload, seed=seed, seconds=seconds, trace=trace)
    rec["result"] = {
        "correct": rec["correct"], "attempted": rec["attempted"], "failed": rec["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units[kind].items()},
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(rec, indent=1) + "\n")
    return rec


def _info_line(rec: dict) -> str:
    keep = ("workload", "seed", "seconds", "trace", "passes", "ops_per_pass",
            "loop_s", "ops_per_s", "latency", "setup_samples_s", "machine")
    return json.dumps({k: rec[k] for k in keep if k in rec})


def run_all(seed: int, seconds: float) -> dict:
    out = {}
    for w in WORKLOADS:
        plain = run_one(w, seed, seconds, 0)
        traced = run_one(w, seed, seconds, 1)
        out[w] = {"end_to_end": plain["result"], "per_layer": traced["result"],
                  "latency": plain["latency"], "setup_samples_s": plain["setup_samples_s"],
                  "traced_ops_per_s": traced["ops_per_s"],
                  "tracing_overhead": 1.0 - traced["ops_per_s"] / plain["ops_per_s"],
                  "self_ms_by_function": traced["self_ms_by_function"],
                  "machine": plain["machine"]}
        print(f"{w}: " + ", ".join(
            f"{k} {m['value']:.4g} {m['unit']}"
            for k, m in plain["result"]["metrics"].items())
            + f"; traced ops_per_s {traced['ops_per_s']:.4g}", flush=True)
    (RESULTS / f"BENCH_all_seed{seed}.json").write_text(json.dumps(out, indent=1) + "\n")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=_spec()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "fbconv").is_dir():
        print(f"perfbench: no fbconv package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload is None:
            res = run_all(args.seed, args.seconds)
            print(json.dumps({
                "correct": all(r["end_to_end"]["correct"] and r["per_layer"]["correct"]
                               for r in res.values()),
                "attempted": sum(r["end_to_end"]["attempted"] for r in res.values()),
                "failed": sum(r["end_to_end"]["failed"] for r in res.values()),
                "metrics": {f"{w}/{k}": m for w, r in res.items()
                            for k, m in r["end_to_end"]["metrics"].items()}}))
            return 0
        rec = run_one(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(_info_line(rec))
    print(json.dumps(rec["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
