"""Tests of the benchmark's tracer: self-time arithmetic and restoration."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads
from jopeq import codec, flsim, privacy
from jopeq.dither import SharedRandomness


def test_self_times_on_synthetic_tree():
    # root [0, 10] with children a [1, 4] and b [5, 9]; a has child c
    # [2, 3]; b has children d [5, 6] and e [7, 9]; f [12, 13] is a
    # second root.
    spans = [(0, 10, -1), (1, 4, 0), (2, 3, 1), (5, 9, 0), (5, 6, 3),
             (7, 9, 3), (12, 13, -1)]
    starts, ends, parents = zip(*spans)
    got = tracing.self_times(starts, ends, parents)
    np.testing.assert_allclose(got, [10 - 3 - 4, 3 - 1, 1, 4 - 1 - 2, 1, 2, 1])
    # Self times add up to the summed root durations.
    assert got.sum() == pytest.approx(10 + 1)


def test_regions_are_roots_and_self_times_add_up():
    tracer = tracing.Tracer(enabled=True)
    tracer.install()
    try:
        with tracer.region("setup", -1):
            lat, spec = flsim.CodecSpec(family="scalar", rate=3,
                                        epsilon=2.0).build()
            sampler = privacy.build_ppn_sampler(spec, lat, grid_points=1024,
                                                refine_iters=5)
        h = np.random.default_rng(0).normal(size=100)
        sr = SharedRandomness(seed=3)
        with tracer.region("op", 0):
            enc = codec.encode(h, lat, sampler, sr, noise_seed=4)
            ht = codec.decode(enc, lat, sr)
    finally:
        tracer.uninstall()
    assert ht.shape == h.shape
    names, ids, start, end, parent, op = tracer.span_arrays()
    roots = parent < 0
    assert {names[i] for i in ids[roots]} == {"bench.setup", "bench.op"}
    assert set(op[ids == names.index("codec.encode")]) == {0}
    layer = tracing.layer_metrics(tracer, untraced_wall_s=0.0)
    self_sum = sum(v for k, v in layer.items() if k.endswith(".self_s"))
    assert (self_sum + layer["trace.unattributed_s"]
            == pytest.approx(layer["trace.wall_s"]))
    assert layer["codec.encode.coords"] == 100
    assert layer["lattice.quantize_clipped.scalar.points"] == 100
    assert layer["dither.dither_block.subvectors"] == 200


def _bindings():
    """Every (owner, attribute) -> object in jopeq's modules and classes."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "jopeq" or name.startswith("jopeq.")):
            continue
        for key, val in vars(mod).items():
            out[(name, key)] = val
            if isinstance(val, type) and val.__module__.startswith("jopeq"):
                for attr, member in vars(val).items():
                    out[(name, key, attr)] = member
    return out


def test_traced_run_restores_every_wrapped_attribute(tmp_path, monkeypatch,
                                                     capsys):
    before = _bindings()
    patched = []
    real_install = tracing.Tracer.install

    def spy(self):
        patched.extend(real_install(self))
        return patched

    monkeypatch.setattr(tracing.Tracer, "install", spy)
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    assert run.main(["--workload", "uplink-scalar", "--seed", "2",
                     "--seconds", "0", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(tracing.PER_LAYER)
    assert result["metrics"]["codec.encode.calls"]["value"] == 1

    # Each target was wrapped at all its bindings, e.g. quantize_clipped
    # in lattice, dither, codec and the package itself.
    owners = {getattr(o, "__name__", None) for o, k, _ in patched
              if k == "quantize_clipped"}
    assert {"jopeq", "jopeq.lattice", "jopeq.dither", "jopeq.codec"} <= owners
    assert len(patched) > len(tracing.TARGETS)
    for owner, key, orig in patched:
        assert vars(owner)[key] is orig
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_untraced_times_are_at_reference_speed(tmp_path, monkeypatch,
                                              capsys):
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    assert run.main(["--workload", "uplink-scalar", "--seed", "2",
                     "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert list(result["metrics"]) == list(run.END_TO_END)
    (path,) = tmp_path.glob("run-*.json")
    metrics = json.loads(path.read_text())["metrics"]
    assert metrics["setup_s"]["n"] == run.SETUP_REPS
    assert metrics["op_s"]["n"] == run.SETUP_REPS
    for op, wall, ref in zip(*(metrics[k]["samples"]
                               for k in ("op_s", "op_wall_s", "ref_s"))):
        assert op == pytest.approx(wall * run.REF_S / ref)
    assert result["metrics"]["op_s"]["value"] == metrics["op_s"]["median"]
    first_unit_rss = metrics["rss_mb"]["samples"][0]
    assert result["metrics"]["peak_rss_mb"]["value"] == first_unit_rss
    assert first_unit_rss <= metrics["peak_rss_end_mb"]["median"]


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: (m["unit"], m["better"])
                 for m in spec["per_layer"]}
    assert per_layer == tracing.PER_LAYER
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert all(m["unit"] == run.UNITS[m["name"]] for m in spec["end_to_end"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
