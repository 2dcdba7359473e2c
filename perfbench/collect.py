#!/usr/bin/env python3
"""
Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --workloads uplink-scalar,sweep \
        --seeds 1-10 --out perfbench/results/summary.json

Runs are sequential, one process each, with the settings of
BENCHMARK.json; each seed runs every workload in turn, so that a slow
phase of a shared host does not fall on one workload's runs only. For
every workload and metric it prints the median over seeds and the spread,
(q3 - q1) / median with Python's statistics.quantiles(values, n=4),
beside the metric's bound, and the wall time of each run. The summary
JSON keeps every value and the machine facts of `run.py`'s run records.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run

ROOT = run.ROOT


def seeds_arg(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound")
              for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {"settings": {"run_seconds": spec["run_seconds"],
                            "trace": args.trace, "seeds": args.seeds},
               "env": run.environment(run.cap_blas_threads()), "workloads": {}}
    ok = True
    workloads = args.workloads.split(",")
    all_runs = {w: [] for w in workloads}
    for seed in args.seeds:
        for workload in workloads:
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]),
                "--trace", str(args.trace)]
            t0 = time.perf_counter()
            res = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                 text=True, timeout=900)
            wall = time.perf_counter() - t0
            if res.returncode != 0:
                print(res.stderr, file=sys.stderr)
                return 1
            result = json.loads(res.stdout.strip().splitlines()[-1])
            ok &= result["correct"]
            all_runs[workload].append({"seed": seed, "wall_s": wall, **result})
            print(f"{workload} seed {seed}: {wall:.1f} s wall, "
                  f"correct={result['correct']}", flush=True)
    for workload in workloads:
        runs = all_runs[workload]
        print(workload)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            metrics[name] = {"unit": runs[0]["metrics"][name]["unit"],
                             "median": med, "q1": q1, "q3": q3,
                             "spread": spread, "values": values}
            bound = bounds.get(name)
            flag = ("" if bound is None else "  ok" if spread < bound / 3
                    else "  WIDE" if spread < bound else "  OVER")
            print(f"  {name:45s} median {med:.6g} {metrics[name]['unit']:8s} "
                  f"spread {spread:.4f}  bound {bound}{flag}")
        summary["workloads"][workload] = {
            "runs": [{k: r[k] for k in ("seed", "wall_s", "correct",
                                        "attempted", "failed")}
                     for r in runs],
            "metrics": metrics,
        }
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
