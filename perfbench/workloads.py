"""
The four benchmark workloads. Each drives jopeq through its public
functions only, as a closed loop with one client whose ops run back to
back. A workload's inputs come from its seed and are made before timing
starts; output checks run outside the timed regions.

Every timed call into jopeq happens inside a `Tracer.region`, so a traced
pass attributes all of it to spans.
"""

import contextlib
import hashlib
import io
import math
import os
import shutil
import time
from pathlib import Path

import numpy as np
from scipy import stats

from jopeq import cli, codec, flsim, privacy
from jopeq.dither import SharedRandomness

UPLINK_COORDS = 1 << 20
# A 2-D op costs about eight times a scalar op per coordinate; 2^18
# coordinates keep it near 0.7 s, so that a run holds about ten units.
UPLINK_2D_COORDS = 1 << 18
UPDATE_POOL = 4
# Rounds of one `fl-train` op: short enough for many ops in a run, long
# enough that the ~20 tiny codec calls of each round, not the sampler
# build the op starts with, set its cost.
FL_ROUNDS = 250
# The `sweep` op: the default config on the rates, epsilon and
# learning-curve length below, so that one op takes about 2 s.
SWEEP_OVERRIDES = {"sweep.rates": "1,4", "sweep.epsilons": "3",
                   "fl.rounds": "25"}
# An op whose scaled distortion is this far (KS distance) from the target
# law is broken, not merely approximate: about three times the seed code's
# PPN-table gap per family (0.0047 scalar, 0.069 square, 0.043 hexagonal).
# Decoding without subtracting the dither reads 0.022, 0.37 and 0.32.
LAW_KS_BROKEN = {"scalar": 0.015, "square": 0.2, "hexagonal": 0.15}

_clock = time.perf_counter


def ks_distance(sample, cdf) -> float:
    """Two-sided Kolmogorov-Smirnov distance between a sample and a CDF."""
    x = np.sort(np.asarray(sample, dtype=float).ravel())
    n = len(x)
    f = cdf(x)
    return float(max(np.max(np.arange(1, n + 1) / n - f),
                     np.max(f - np.arange(n) / n)))


def target_cdf(spec: privacy.MechanismSpec):
    """Marginal CDF of the target mechanism, from scipy."""
    if spec.kind == "laplace":
        return stats.laplace(scale=2.0 / spec.epsilon).cdf
    return stats.t(df=spec.nu, scale=math.sqrt(spec.s2)).cdf


class Uplink:
    """
    One op encodes then decodes one N(0,1) update with a fresh (user,
    round) and a fixed noise seed. With several codec configurations the
    ops cycle through them, and one loop step (a unit) runs one op of
    each, so every unit costs the same.
    """

    def __init__(self, codec_specs, seed, coords):
        self.codec_specs = codec_specs
        self.ops_per_unit = len(codec_specs)
        self.seed = seed
        rng = np.random.default_rng([seed, 0xB0])
        self.updates = [rng.normal(0.0, 1.0, coords)
                        for _ in range(UPDATE_POOL)]

    def setup(self):
        state = []
        for cspec in self.codec_specs:
            lat, spec = cspec.build()
            sampler = privacy.build_ppn_sampler(spec, lat,
                                                allow_degenerate=True)
            state.append((lat, spec, sampler))
        return state

    def run_op(self, i, state, tracer):
        lat, spec, sampler = state[i % len(state)]
        h = self.updates[i % UPDATE_POOL]
        sr = SharedRandomness(seed=self.seed, user=i % 16, round_index=i)
        with tracer.region("op", i):
            t0 = _clock()
            enc = codec.encode(h, lat, sampler, sr, noise_seed=self.seed + 1)
            t1 = _clock()
            ht = codec.decode(enc, lat, sr)
            t2 = _clock()
        sample = {"encode_s": t1 - t0, "decode_s": t2 - t1,
                  "coords": len(h), "payload_bits": enc.payload_bits}

        # The wire: the whole update or nothing, never shrunk or split.
        with tracer.region("wire", i):
            try:
                payload = enc.to_bytes()
            except ValueError:
                payload = None
            if payload is not None:
                wired = codec.decode(
                    codec.EncodedUpdate.from_bytes(payload, lat), lat, sr)
        sample["refused"] = payload is None
        with tracer.region("snr", i):
            sample["snr_db"] = codec.snr([h], [ht])

        dist = ((ht - h) * enc.zeta).reshape(-1, lat.dimension)
        ks = sample["law_ks"] = ks_distance(dist[~enc.overload_mask],
                                            target_cdf(spec))
        idx = np.asarray(enc.indices)
        if idx.min() < 0 or idx.max() >= len(lat.codebook):
            return sample, "index outside the codebook"
        if not (math.isfinite(enc.zeta) and np.all(np.isfinite(ht))):
            return sample, "non-finite output"
        if payload is not None and wired.tobytes() != ht.tobytes():
            return sample, "wire decode differs from in-memory decode"
        if not ks < LAW_KS_BROKEN[lat.family]:
            return sample, f"distortion law off target (ks {ks:.3f})"
        return sample, None

    @staticmethod
    def unit_metrics(samples):
        enc = sum(s["encode_s"] for s in samples)
        dec = sum(s["decode_s"] for s in samples)
        coords = sum(s["coords"] for s in samples)
        snr_db = float(np.mean([s["snr_db"] for s in samples]))
        return {
            "op_s": (enc + dec) / len(samples),
            "encode_mcoord_s": coords / enc / 1e6,
            "decode_mcoord_s": coords / dec / 1e6,
            "bits_per_coord": sum(s["payload_bits"] for s in samples) / coords,
            "snr_db": snr_db,
            "nsr": 10.0 ** (-snr_db / 10.0),
            "law_ks": float(np.mean([s["law_ks"] for s in samples])),
        }


class FlTrain:
    """
    One op is one jopeq FL experiment of the criterion-6 setup, cut to
    FL_ROUNDS rounds.
    """

    ops_per_unit = 1

    def __init__(self, seed):
        self.cfg = flsim.FlConfig(
            task=flsim.TaskSpec(kind="linear", model_dim=10),
            codec=flsim.CodecSpec(family="scalar", rate=4, epsilon=2.0),
            baseline="jopeq", users=10, tau=4, rounds=FL_ROUNDS,
            schedule="decay", seed=seed)

    def setup(self):
        cfg = self.cfg
        task = flsim.build_task(cfg.task, cfg.users, cfg.alpha_vector(),
                                cfg.seed)
        xis = flsim.calibrate_xi(task, cfg)
        lat, spec = cfg.codec.build()
        privacy.build_ppn_sampler(spec, lat, allow_degenerate=True)
        return task, xis

    def run_op(self, i, state, tracer):
        task, xis = state
        with tracer.region("op", i):
            t0 = _clock()
            rounds = flsim.run_experiment(self.cfg, task, xis)
            t1 = _clock()
        snr_db = float(np.mean([m.snr_db for m in rounds]))
        sample = {"op_s": t1 - t0, "rounds": len(rounds), "snr_db": snr_db}
        if len(rounds) != self.cfg.rounds:
            return sample, f"{len(rounds)} rounds, expected {self.cfg.rounds}"
        for m in rounds:
            at = f"at round {m.round_index}"
            if not (math.isfinite(m.loss_gap) and math.isfinite(m.snr_db)):
                return sample, f"non-finite metrics {at}"
            if m.weights_distortion > m.thm6_rhs:
                return sample, f"weights distortion above the Thm-6 bound {at}"
            if m.loss_gap > m.thm7_rhs:
                return sample, f"loss gap above the Thm-7 bound {at}"
        return sample, None

    @staticmethod
    def unit_metrics(samples):
        (s,) = samples
        return {"op_s": s["op_s"], "rounds_per_s": s["rounds"] / s["op_s"],
                "snr_db": s["snr_db"], "nsr": 10.0 ** (-s["snr_db"] / 10.0)}


def criterion7_failures(rows) -> list:
    """Shape conditions of the SNR-versus-rate figure (criterion 7)."""
    snrs = {(b, e, r): v for r, e, b, v in rows}
    rates = sorted({r for r, _, _, _ in rows})
    failures = []
    for e in sorted({e for _, e, _, _ in rows}):
        joint = [snrs[("jopeq", e, r)] for r in rates]
        sep = [snrs[("separate", e, r)] for r in rates]
        gaps = [j - s for j, s in zip(joint, sep)]
        checks = {
            "joint not ahead at the two lowest rates":
                gaps[0] >= 0.0 and gaps[1] >= 0.0,
            "gap not shrinking with rate":
                all(g1 >= g2 - 1e-9 for g1, g2 in zip(gaps, gaps[1:])),
            "joint curve not flat":
                abs(snrs[("jopeq", e, 4)] - snrs[("jopeq", e, 1)]) < 3.0,
            "separate curve flat":
                abs(snrs[("separate", e, 4)] - snrs[("separate", e, 1)]) > 3.0,
            "joint curve wiggles":
                all(b >= a - 0.3 for a, b in zip(joint, joint[1:])),
        }
        failures += [f"eps={e:g}: {k}" for k, ok in checks.items() if not ok]
    return failures


class Sweep:
    """
    One op is one `cmd_sweep`, jobs=1, of the default config with
    SWEEP_OVERRIDES.
    """

    ops_per_unit = 1

    def __init__(self, seed, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.cfg = dict(cli.load_config(None), **SWEEP_OVERRIDES)
        self.csv_sha256 = {}

    def setup(self):
        cfg = self.cfg
        lat, spec = flsim.CodecSpec(
            family=cfg["codec.family"], rate=int(cfg["codec.rate"]),
            epsilon=float(cfg["codec.epsilon"]),
            mechanism=cfg["codec.mechanism"],
            nu=float(cfg["codec.nu"])).build()
        privacy.build_ppn_sampler(spec, lat, allow_degenerate=True)
        return None

    def run_op(self, i, state, tracer):
        out = self.work_dir / f"sweep-{os.getpid()}-{i}"
        try:
            with tracer.region("op", i), \
                    contextlib.redirect_stdout(io.StringIO()):
                t0 = _clock()
                cli.cmd_sweep(self.cfg, out, self.seed, 1)
                t1 = _clock()
            sample = {"op_s": t1 - t0}
            texts = {n: (out / n).read_bytes()
                     for n in ("snr_vs_rate.csv", "learning_curves.csv")}
        finally:
            shutil.rmtree(out, ignore_errors=True)
        for n, data in texts.items():
            digest = hashlib.sha256(data).hexdigest()
            self.csv_sha256.setdefault(n, digest)
            if self.csv_sha256[n] != digest:
                return sample, f"{n} differs between ops of one seed"
        rows = []
        for line in texts["snr_vs_rate.csv"].decode().splitlines()[2:]:
            r, e, b, v = line.split(",")
            rows.append((int(r), float(e), b, float(v)))
        sample["snr_db"] = float(np.mean([v for *_, v in rows]))
        curves = texts["learning_curves.csv"].decode().splitlines()[2:]
        points = 1
        for key in ("sweep.rates", "sweep.epsilons", "sweep.baselines"):
            points *= len(self.cfg[key].split(","))
        rounds = int(self.cfg["fl.rounds"])
        if len(rows) != points or len(curves) != len(flsim.BASELINES) * rounds:
            return sample, "unexpected CSV row counts"
        if not all(math.isfinite(v) for *_, v in rows) or not all(
                math.isfinite(float(c.split(",")[2])) for c in curves):
            return sample, "non-finite CSV values"
        failures = criterion7_failures(rows)
        if failures:
            return sample, "; ".join(failures)
        return sample, None

    @staticmethod
    def unit_metrics(samples):
        (s,) = samples
        return {"op_s": s["op_s"], "sweep_s": s["op_s"], "snr_db": s["snr_db"],
                "nsr": 10.0 ** (-s["snr_db"] / 10.0)}


def make(name: str, seed: int, work_dir: Path):
    """The named workload for one seed."""
    if name == "uplink-scalar":
        return Uplink([flsim.CodecSpec(family="scalar", rate=4, epsilon=2.0)],
                      seed, UPLINK_COORDS)
    if name == "uplink-2d":
        return Uplink([flsim.CodecSpec(family=f, rate=4, epsilon=3.0,
                                       mechanism="t", nu=3.0)
                       for f in ("square", "hexagonal")], seed,
                      UPLINK_2D_COORDS)
    if name == "fl-train":
        return FlTrain(seed)
    if name == "sweep":
        return Sweep(seed, work_dir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("uplink-scalar", "uplink-2d", "fl-train", "sweep")
