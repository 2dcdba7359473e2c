#!/usr/bin/env python3
"""
jopeq benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload uplink-scalar --seed 1 \
        --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory, never from an installed copy. The untraced run
(--trace 0) sets up the workload several times, then runs ops back to
back for --seconds and reports the end-to-end metrics. The traced run
(--trace 1) runs the ops untraced, then the same ops again with every
public jopeq function wrapped, and reports the per-layer metrics. Either
way the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; a run record with every
metric's per-unit samples and the machine facts goes to
perfbench/results/.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
SETUP_REPS = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# name -> unit for every metric a run can report; END_TO_END are the ones
# the untraced run prints in its JSON line (see BENCHMARK.json).
UNITS = {
    "setup_s": "s", "op_s": "s", "nsr": "ratio", "peak_rss_mb": "MB",
    "setup_wall_s": "s", "op_wall_s": "s", "ref_s": "s", "rss_mb": "MB",
    "peak_rss_end_mb": "MB",
    "encode_mcoord_s": "Mcoord/s", "decode_mcoord_s": "Mcoord/s",
    "rounds_per_s": "1/s", "sweep_s": "s", "bits_per_coord": "bit",
    "snr_db": "dB", "law_ks": "ratio", "wire_refused_ratio": "ratio",
    "failed_ratio": "ratio",
}
END_TO_END = ("setup_s", "op_s", "nsr", "peak_rss_mb")
# `setup_s` and `op_s` are times at a fixed host speed: the wall time of
# a set-up or unit times REF_S over the time `HostSpeed` measured for its
# reference work around it. Other tenants of a shared host slow its cores
# by up to 1.6x for minutes at a time, which no statistic over one run
# can remove; the reference work slows with them. REF_S is a fixed
# nominal speed, about the reference work's time (5.3-5.7 ms) in the
# fastest phases of a 2-vCPU x86-64 VM, so that there the adjusted times
# are close to wall times. The wall times stay in the run record.
REF_S = 0.005


class HostSpeed:
    """
    Fixed reference work, a mix of interpreted Python, a sort that streams
    2 MB and FFTs, like the mix of the workloads' own work. `probe` times
    it: the fastest of three, about 17 ms in all.
    """

    def __init__(self):
        import numpy  # after cap_blas_threads, as everywhere in the run
        rng = numpy.random.default_rng(0)
        self.data = rng.normal(size=1 << 18)
        self.signal = rng.normal(size=1 << 16)
        self.sort, self.rfft = numpy.sort, numpy.fft.rfft

    def once(self) -> float:
        t0 = time.perf_counter()
        self.sort(self.data)
        self.rfft(self.signal)
        self.rfft(self.signal)
        total = 0
        for i in range(60_000):
            total += i
        return time.perf_counter() - t0

    def probe(self) -> float:
        return min(self.once() for _ in range(3))


def cap_blas_threads() -> int:
    """
    Run BLAS/OpenMP single-threaded and return the usable CPU count. The
    workloads' matrices are tiny, and a second BLAS thread only spin-waits
    after each call, taking a core from the one client it should serve.
    """
    for var in BLAS_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def summary(name, values) -> dict:
    """A metric's per-unit samples with their count, median and quartiles."""
    values = [float(v) for v in values]
    q1, q3 = ((values[0], values[0]) if len(values) < 2
              else statistics.quantiles(values, n=4)[::2])
    return {"unit": UNITS[name], "n": len(values),
            "median": statistics.median(values), "q1": q1, "q3": q3,
            "samples": values}


def measure(wl, state, tracer, host, seconds, units=None, first_op=0):
    """
    Run whole units back to back, numbering ops from `first_op`: for
    `seconds` (at least one unit) or, with `units`, exactly that many.
    `host` is probed between units. Returns (per-unit metrics of the
    units whose ops all completed, all op samples, the next op number,
    failures). An op that raises or fails an output check is a failure;
    the time of one that completed still counts.
    """
    good, samples, failures = [], [], []
    i, done = first_op, 0
    start = time.perf_counter()
    ref = host.probe()
    while (done < units) if units is not None else (
            done == 0 or time.perf_counter() - start < seconds):
        unit = []
        for _ in range(wl.ops_per_unit):
            try:
                sample, reason = wl.run_op(i, state, tracer)
            except Exception as exc:  # an op that raises is a failed op
                sample, reason = None, f"{type(exc).__name__}: {exc}"
            if reason is not None:
                failures.append({"op": i, "reason": reason})
            unit.append(sample)
            i += 1
        ref_after = host.probe()
        if None not in unit:
            m = wl.unit_metrics(unit)
            m["rss_mb"] = peak_rss_mb()
            m["ref_s"] = (ref + ref_after) / 2
            m["op_wall_s"] = m["op_s"]
            m["op_s"] *= REF_S / m["ref_s"]
            good.append(m)
        ref = ref_after
        samples += [s for s in unit if s is not None]
        done += 1
    return good, samples, i, failures


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(wl, tracer, host):
    """Returns (state, wall time, reference time around the set-up)."""
    before = host.probe()
    with tracer.region("setup", -1):
        t0 = time.perf_counter()
        state = wl.setup()
        t1 = time.perf_counter()
    return state, t1 - t0, (before + host.probe()) / 2


def environment(nproc: int) -> dict:
    import numpy
    import scipy
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = res.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "jopeq").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "git_commit": commit, "src_sha256": src_hash.hexdigest(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = cap_blas_threads()
    # The sweep reads JOPEQ_* overrides; the benchmark pins the defaults.
    for var in [v for v in os.environ if v.startswith("JOPEQ_")]:
        del os.environ[var]
    if not (SRC / "jopeq" / "__init__.py").is_file():
        print(f"error: no jopeq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import jopeq
    if Path(jopeq.__file__).resolve().parent != (SRC / "jopeq").resolve():
        print(f"error: imported jopeq from {jopeq.__file__}", file=sys.stderr)
        return 2

    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error("--workload must be one of "
                     + ", ".join(workloads.WORKLOADS))

    RESULTS.mkdir(exist_ok=True)
    tag = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
           f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    wl = workloads.make(args.workload, args.seed, RESULTS)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "env": environment(nproc)}

    # Each set-up is followed by an equal share of the measuring time, so
    # the set-ups fall in different phases of a shared host's load.
    untraced = tracing.Tracer(enabled=False)
    host = HostSpeed()
    reps = 1 if args.trace else SETUP_REPS
    setup_walls, setup_times, units, samples, failures, attempted = (
        [], [], [], [], [], 0)
    for _ in range(reps):
        state, wall, ref = timed_setup(wl, untraced, host)
        setup_walls.append(wall)
        setup_times.append(wall * REF_S / ref)
        good, done, attempted, failed = measure(
            wl, state, untraced, host, args.seconds / reps,
            first_op=attempted)
        units += good
        samples += done
        failures += failed
    if not units:
        print(f"error: no unit completed: {failures[:3]}", file=sys.stderr)
        return 1

    per_unit = {k: [u[k] for u in units] for k in units[0]}
    per_unit["setup_s"] = setup_times
    per_unit["setup_wall_s"] = setup_walls
    metrics = {k: summary(k, v) for k, v in per_unit.items()}
    refusals = [s["refused"] for s in samples if "refused" in s]
    if refusals:
        metrics["wire_refused_ratio"] = summary(
            "wire_refused_ratio", [sum(refusals) / len(refusals)])
    metrics["failed_ratio"] = summary("failed_ratio",
                                      [len(failures) / attempted])
    # Gated: the peak through the first set-up and the first unit, a fixed
    # amount of work. The process's peak keeps creeping up by up to 10%
    # over later units as the allocator fragments, by how many units the
    # host's speed let the run make; it is recorded, not gated.
    metrics["peak_rss_mb"] = summary("peak_rss_mb", [units[0]["rss_mb"]])
    metrics["peak_rss_end_mb"] = summary("peak_rss_end_mb", [peak_rss_mb()])

    if args.trace:
        traced = tracing.Tracer(enabled=True)
        traced.install()
        try:
            traced_state, _, _ = timed_setup(wl, traced, host)
            _, _, traced_attempted, traced_failures = measure(
                wl, traced_state, traced, host, args.seconds,
                units=attempted // wl.ops_per_unit)
        finally:
            traced.uninstall()
        per_layer = tracing.layer_metrics(traced, untraced.wall_s)
        traced.save(RESULTS / f"spans-{tag}.npz")
        attempted += traced_attempted
        failures += [dict(f, traced=True) for f in traced_failures]
        record["per_layer"] = per_layer
        shown = {k: (v, tracing.PER_LAYER[k][0]) for k, v in per_layer.items()}
    else:
        shown = {k: (metrics[k]["median"], UNITS[k]) for k in END_TO_END}

    record.update(metrics=metrics, attempted=attempted, failed=len(failures),
                  failures=failures)
    if hasattr(wl, "csv_sha256"):
        record["csv_sha256"] = wl.csv_sha256
    (RESULTS / f"run-{tag}.json").write_text(json.dumps(record, indent=1))

    for name, m in sorted(metrics.items()):
        print(f"{args.workload} {name} = {m['median']:.6g} {m['unit']} "
              f"(n={m['n']}, q1={m['q1']:.6g}, q3={m['q3']:.6g})")
    for f in failures:
        print(f"{args.workload} FAILED op {f['op']}: {f['reason']}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
