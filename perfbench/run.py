#!/usr/bin/env python3
"""Benchmark of the hdnn-audio package: three workloads, end-to-end
metrics untraced, per-layer metrics from a separate traced run.

One workload (run from the repository root; the last stdout line is the
JSON result):

    python3 perfbench/run.py --workload classify --seed 1 --seconds 20 --trace 0

All three workloads at one seed, each in its own process, untraced and
traced, with the tracing overhead (traced minus untraced medians):

    python3 perfbench/run.py --workload all --seed 1

Metric names, units and the run length come from BENCHMARK.json at the
repository root; perfbench/README.md explains each workload and metric.
The package is imported from src/ of the same checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("hdnn_train", "gmm_train", "classify")
TIMING_METRICS = ("setup_s", "train_s", "clip_ms_p50", "clip_ms_p90")
# runs per workload and tracing mode in --workload all, whose medians
# give the tracing overhead
REPEATS = 3


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        die(f"{path} not found")
    return json.loads(path.read_text())


def import_package() -> None:
    src = ROOT / "src"
    if not (src / "hdnn_audio" / "__init__.py").is_file():
        die(f"no hdnn_audio package under {src}")
    sys.path.insert(0, str(src))


def blas_info() -> dict:
    """OpenBLAS build string and thread count in effect, read from the
    library bundled with NumPy. The benchmark never sets the count."""
    import numpy
    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                           "numpy.libs", "libscipy_openblas64_*.so")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        lib.scipy_openblas_get_config64_.restype = ctypes.c_char_p
        lib.scipy_openblas_get_config64_.argtypes = []
        lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
        lib.scipy_openblas_get_num_threads64_.argtypes = []
        return {"blas": lib.scipy_openblas_get_config64_().decode(),
                "blas_threads": lib.scipy_openblas_get_num_threads64_()}
    return {"blas": "unknown", "blas_threads": None}


def environment(seed: int) -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, **blas_info(),
            "nproc": os.cpu_count(), "seed": seed}


def run_one(args, spec: dict) -> int:
    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        outcome = workloads.run_workload(args.workload, args.seed, args.seconds, ROOT)
    finally:
        if tracer:
            tracer.uninstall()

    e2e = workloads.summarize(outcome)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    chance = 100.0 / workloads.NUM_CONCEPTS
    above_chance = e2e["fa_pct"] > chance and outcome.query_fa_pct > chance
    correct = outcome.failed == 0 and above_chance
    samples = {"setup_s": len(outcome.setup_s), "train_s": len(outcome.train_s),
               "fa_pct": len(outcome.test_split_fa),
               "clip_ms_p50": len(outcome.clips), "clip_ms_p90": len(outcome.clips),
               "audio_x_realtime": len(outcome.clips)}
    # per-system split of the clip latencies
    split = {f"systems.{system}_clip_ms_p{q}": workloads.clip_ms(outcome.clips, q, system)
             for system in ("hdnn", "gmm") for q in (50, 99)}

    print("env " + json.dumps(environment(args.seed)))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in e2e.items():
        count = f"  (n={samples[name]})" if name in samples else ""
        print(f"{name:32s} {value:14.4f} {units.get(name, '')}{count}")
    print(f"{'failed_frac':32s} {outcome.failed / max(outcome.attempted, 1):14.4f}"
          f"  ({outcome.failed} of {outcome.attempted} operations)")
    if not tracer:  # the traced run prints it with the layer metrics
        for name, value in split.items():
            print(f"{name:32s} {value:14.4f} ms")
    for system, fa in outcome.test_split_fa.items():
        print(f"{'test split fa_pct ' + system:32s} {fa:14.4f} %")
    print(f"{'query fa_pct':32s} {outcome.query_fa_pct:14.4f} %"
          f"  (first {workloads.MIN_OPS} queries, not gated)")
    print(f"{'fa_pct above chance':32s} {above_chance}  (chance {chance:.2f} %)")

    if tracer:
        values, missing = tracing.layer_metrics(tracer)
        values.update(split)
        wanted = [m["name"] for m in spec["per_layer"]]
        missing += [name for name in wanted if name not in values and name not in missing]
        for name in wanted:
            if name in values:
                print(f"{name:32s} {values[name]:14.4f} {units[name]}")
        if missing:
            print("missing (function not found): " + ", ".join(missing))
        print(f"spans recorded: {len(tracer.spans)}")
        metrics = {name: values[name] for name in wanted if name in values}
    else:
        metrics = {name: e2e[name] for name in (m["name"] for m in spec["end_to_end"])}

    print("e2e " + json.dumps(e2e))
    print(json.dumps({
        "correct": bool(correct), "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


def child(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Run one workload in its own process; returns (e2e metrics, result)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    sys.stdout.write("\n".join(line for line in lines[:-1]
                               if not line.startswith("e2e ")) + "\n")
    e2e = next(json.loads(line[4:]) for line in lines if line.startswith("e2e "))
    return e2e, json.loads(lines[-1])


def run_all(args, spec: dict) -> int:
    summary = {}
    for workload in WORKLOAD_NAMES:
        runs = {0: [], 1: []}
        for trace in (0, 1):
            for _ in range(REPEATS):
                print(f"== {workload} seed {args.seed} trace {trace}", flush=True)
                runs[trace].append(child(workload, args.seed, args.seconds, trace))
        untraced = {m["name"]: statistics.median(e[m["name"]] for e, _ in runs[0])
                    for m in spec["end_to_end"]}
        traced = {name: statistics.median(e[name] for e, _ in runs[1])
                  for name in TIMING_METRICS}
        results = [r for _, r in runs[0] + runs[1]]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        summary[workload] = {
            "end_to_end": untraced,
            "failed_frac": failed / max(attempted, 1),
            "correct": all(r["correct"] for r in results),
            "tracing_overhead_pct": {
                name: 100.0 * (traced[name] - untraced[name]) / untraced[name]
                for name in TIMING_METRICS if untraced[name]},
            "per_layer": {name: statistics.median(r["metrics"][name]["value"]
                                                  for _, r in runs[1])
                          for name in runs[1][0][1]["metrics"]},
        }
    print(f"== summary (medians of {REPEATS} runs each)")
    print(json.dumps({"env": environment(args.seed), "workloads": summary}, indent=1))
    return 0 if all(s["correct"] for s in summary.values()) else 1


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    import_package()
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
