"""
In-memory span tracer for the jopeq benchmark.

`Tracer.install` wraps the package's public functions at every name the
package binds them under (a function imported into another module is
wrapped there too) and `Tracer.uninstall` puts the original objects back.
Each wrapped call records one span, [name, start, end, parent, op], and
bumps counters taken from its arguments and result. Timed regions of the
benchmark itself (set-up, one op, the wire step, ...) are the root spans,
so the self time of all spans adds up to the traced wall time exactly and
the roots' self time is the time no wrapper covers.

Nothing is written to disk here and no jopeq source file is touched; the
spans live in memory until `save` writes them at the end of a run.
"""

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

REGION_PREFIX = "bench."
_FAMILIES = ("scalar", "square", "hexagonal")

# Counters each span name reports besides `self_s`.
SPAN_COUNTERS = {
    **{f"lattice.nearest_point.{f}": ("calls", "points") for f in _FAMILIES},
    **{f"lattice.quantize_clipped.{f}": ("calls", "points", "overloaded")
       for f in _FAMILIES},
    "lattice.cell_cf": ("calls", "evals"),
    "lattice.build": (),
    "dither.dither_block": ("calls", "subvectors"),
    "privacy.build_ppn_sampler": ("calls", "conv_residual"),
    "privacy.PpnSampler.sample": ("calls", "vectors"),
    "privacy.mechanism_reference_sample": ("calls", "vectors"),
    "privacy.t_spec": (),
    "codec.encode": ("calls", "coords"),
    "codec.decode": ("calls", "coords"),
    "codec.to_bytes": ("attempted", "refused", "bytes"),
    "codec.from_bytes": ("calls", "failed"),
    "codec.snr": ("calls",),
    "flsim.run_experiment": ("calls", "rounds"),
    "flsim.local_sgd": ("calls",),
    "flsim.fedavg_round": ("calls",),
    "flsim.Task.loss": ("calls",),
    "flsim.theorem_bounds": (),
    "flsim.build_task": (),
    "flsim.calibrate_xi": (),
    "flsim.CodecSpec.build": (),
    "cli.snr_sweep_point": ("calls",),
    "cli.cmd_sweep": (),
}


def _unit_better(counter):
    if counter == "conv_residual":
        return "ratio", "lower"
    if counter in ("overloaded", "refused", "failed", "bytes"):
        return "count", "lower"
    return "count", "higher"


# Every per-layer metric of a traced run: name -> (unit, better).
PER_LAYER = {
    **{f"{span}.{c}": _unit_better(c)
       for span, counters in SPAN_COUNTERS.items() for c in counters},
    **{f"{span}.self_s": ("s", "lower") for span in SPAN_COUNTERS},
    "trace.wall_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


# Counter hooks: hook(counts, span_name, args, result, exc), called after
# every wrapped call, also one that raised.

def _points(lat, x):
    return np.size(x) // lat.dimension if lat.dimension > 1 else np.size(x)


def _count_points(counts, name, args, result, exc):
    counts[name + ".points"] += _points(args[0], args[1])
    if result is not None and name.startswith("lattice.quantize_clipped"):
        counts[name + ".overloaded"] += int(np.count_nonzero(result[2]))


def _count_cf(counts, name, args, result, exc):
    counts[name + ".evals"] += _points(args[0], args[1])


def _count_dither(counts, name, args, result, exc):
    counts[name + ".subvectors"] += int(args[2])


def _count_vectors(counts, name, args, result, exc):
    counts[name + ".vectors"] += int(args[1])


def _count_ppn_build(counts, name, args, result, exc):
    if result is not None and "conv_residual" in result.validity:
        key = name + ".conv_residual"
        counts[key] = max(counts[key], float(result.validity["conv_residual"]))


def _count_encode(counts, name, args, result, exc):
    if result is not None:
        counts[name + ".coords"] += result.original_dim


def _count_decode(counts, name, args, result, exc):
    if result is not None:
        counts[name + ".coords"] += len(result)


def _count_to_bytes(counts, name, args, result, exc):
    counts[name + ".attempted"] += 1
    if exc is not None:
        counts[name + ".refused"] += 1
    else:
        counts[name + ".bytes"] += len(result)


def _count_from_bytes(counts, name, args, result, exc):
    if exc is not None:
        counts[name + ".failed"] += 1


def _count_rounds(counts, name, args, result, exc):
    if result is not None:
        counts[name + ".rounds"] += len(result)


def _by_family(base):
    return lambda args: f"{base}.{args[0].family}"


# (module, attribute or Class.method, span name or args -> name, hook)
TARGETS = [
    ("jopeq.lattice", "nearest_point", _by_family("lattice.nearest_point"),
     _count_points),
    ("jopeq.lattice", "quantize_clipped",
     _by_family("lattice.quantize_clipped"), _count_points),
    ("jopeq.lattice", "cell_cf", "lattice.cell_cf", _count_cf),
    ("jopeq.lattice", "scalar_uniform", "lattice.build", None),
    ("jopeq.lattice", "square_lattice", "lattice.build", None),
    ("jopeq.lattice", "hexagonal_lattice", "lattice.build", None),
    ("jopeq.dither", "dither_block", "dither.dither_block", _count_dither),
    ("jopeq.privacy", "build_ppn_sampler", "privacy.build_ppn_sampler",
     _count_ppn_build),
    ("jopeq.privacy", "PpnSampler.sample", "privacy.PpnSampler.sample",
     _count_vectors),
    ("jopeq.privacy", "mechanism_reference_sample",
     "privacy.mechanism_reference_sample", _count_vectors),
    ("jopeq.privacy", "t_spec", "privacy.t_spec", None),
    ("jopeq.codec", "encode", "codec.encode", _count_encode),
    ("jopeq.codec", "decode", "codec.decode", _count_decode),
    ("jopeq.codec", "EncodedUpdate.to_bytes", "codec.to_bytes",
     _count_to_bytes),
    ("jopeq.codec", "EncodedUpdate.from_bytes", "codec.from_bytes",
     _count_from_bytes),
    ("jopeq.codec", "snr", "codec.snr", None),
    ("jopeq.flsim", "run_experiment", "flsim.run_experiment", _count_rounds),
    ("jopeq.flsim", "local_sgd", "flsim.local_sgd", None),
    ("jopeq.flsim", "fedavg_round", "flsim.fedavg_round", None),
    ("jopeq.flsim", "Task.loss", "flsim.Task.loss", None),
    ("jopeq.flsim", "theorem6_bound", "flsim.theorem_bounds", None),
    ("jopeq.flsim", "theorem7_bound", "flsim.theorem_bounds", None),
    ("jopeq.flsim", "build_task", "flsim.build_task", None),
    ("jopeq.flsim", "calibrate_xi", "flsim.calibrate_xi", None),
    ("jopeq.flsim", "CodecSpec.build", "flsim.CodecSpec.build", None),
    ("jopeq.cli", "snr_sweep_point", "cli.snr_sweep_point", None),
    ("jopeq.cli", "cmd_sweep", "cli.cmd_sweep", None),
]


def self_times(starts, ends, parents):
    """
    Self time of every span: its duration minus the time its direct
    children cover. Children of one span never overlap (the traced code
    runs in one thread), so the covered time is the sum of their durations.
    """
    starts = np.asarray(starts, dtype=float)
    dur = np.asarray(ends, dtype=float) - starts
    parents = np.asarray(parents, dtype=np.int64)
    covered = np.zeros(len(dur))
    has_parent = parents >= 0
    np.add.at(covered, parents[has_parent], dur[has_parent])
    return dur - covered


class Tracer:
    """
    Times the benchmark's regions and, when enabled, records spans.

    With enabled=False only `region` durations are accumulated (two clock
    reads per region); no function is wrapped.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self.stack = []
        self.op = -1
        self.counts = defaultdict(float)
        self.region_s = defaultdict(float)
        self._patches = []

    @contextmanager
    def region(self, name: str, op: int):
        """Time one region of the benchmark; a root span when tracing."""
        self.op = op
        rec = None
        if self.enabled:
            rec = [REGION_PREFIX + name, 0.0, 0.0, -1, op]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.region_s[name] += t1 - t0
            if rec is not None:
                rec[1], rec[2] = t0, t1
                self.stack.pop()
            self.op = -1

    @property
    def wall_s(self) -> float:
        """Total time spent inside regions."""
        return float(sum(self.region_s.values()))

    def _wrapper(self, fn, name, hook):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            span = name(args) if callable(name) else name
            rec = [span, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(spans))
            spans.append(rec)
            result = exc = None
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                rec[2] = clock()
                stack.pop()
                counts[span + ".calls"] += 1
                if hook is not None:
                    hook(counts, span, args, result, exc)

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every target at every binding in the loaded jopeq modules."""
        if not self.enabled or self._patches:
            raise RuntimeError("tracer is disabled or already installed")
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None
                   and (k == "jopeq" or k.startswith("jopeq."))]
        try:
            for mod_name, attr, name, hook in TARGETS:
                owner = sys.modules[mod_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    orig = cls.__dict__[meth]
                    if isinstance(orig, classmethod):
                        new = classmethod(
                            self._wrapper(orig.__func__, name, hook))
                    else:
                        new = self._wrapper(orig, name, hook)
                    self._patch(cls, meth, orig, new)
                    continue
                orig = getattr(owner, attr)
                new = self._wrapper(orig, name, hook)
                bound = 0
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._patch(mod, key, orig, new)
                            bound += 1
                if bound == 0:
                    raise RuntimeError(f"{mod_name}.{attr} is bound nowhere")
        except BaseException:
            self.uninstall()
            raise
        return list(self._patches)

    def _patch(self, owner, key, orig, new):
        setattr(owner, key, new)
        self._patches.append((owner, key, orig))

    def uninstall(self):
        """Restore every patched attribute to its original object."""
        while self._patches:
            owner, key, orig = self._patches.pop()
            setattr(owner, key, orig)

    def span_arrays(self):
        """(names, name index per span, start, end, parent, op) arrays."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        if self.spans:
            name_ids, start, end, parent, op = zip(*self.spans)
        else:
            name_ids = start = end = parent = op = ()
        return (names,
                np.array([index[n] for n in name_ids], dtype=np.int32),
                np.array(start, dtype=float), np.array(end, dtype=float),
                np.array(parent, dtype=np.int64),
                np.array(op, dtype=np.int64))

    def self_time_by_name(self) -> dict:
        """Summed self time per span name (regions included)."""
        names, ids, start, end, parent, _ = self.span_arrays()
        selfs = self_times(start, end, parent)
        totals = np.zeros(len(names))
        np.add.at(totals, ids, selfs)
        return dict(zip(names, totals.tolist()))

    def save(self, path: Path):
        """Write the spans as a numpy archive."""
        names, ids, start, end, parent, op = self.span_arrays()
        np.savez(path, names=np.array(names), name=ids, start=start,
                 end=end, parent=parent, op=op)


def layer_metrics(tracer: Tracer, untraced_wall_s: float) -> dict:
    """
    Per-layer values of a finished traced pass. The self times plus
    trace.unattributed_s add up to trace.wall_s; trace.overhead_s is the
    traced wall time minus the untraced wall time of the same ops.
    """
    selfs = tracer.self_time_by_name()
    regions = {k for k in selfs if k.startswith(REGION_PREFIX)}
    unknown = set(selfs) - regions - set(SPAN_COUNTERS)
    if unknown:
        raise RuntimeError(f"spans without metrics: {sorted(unknown)}")
    out = {}
    for span, counters in SPAN_COUNTERS.items():
        for c in counters:
            out[f"{span}.{c}"] = tracer.counts.get(f"{span}.{c}", 0.0)
        out[f"{span}.self_s"] = selfs.get(span, 0.0)
    out["trace.wall_s"] = tracer.wall_s
    out["trace.unattributed_s"] = sum(selfs[k] for k in regions)
    out["trace.overhead_s"] = tracer.wall_s - untraced_wall_s
    return out
