"""
Experiment runner: configure, run, verify, and emit plot-ready CSV data.

Commands
--------
verify              run acceptance criteria 1-6 (`jopeq.checks`) with every
                    pinned seed shifted by --seed; one line per report,
                    nonzero exit on any failure.
sweep               run the SNR-versus-rate and learning-curve studies
                    described by the config file; writes versioned CSVs.
codec-encode/-decode  stand-alone codec on the documented byte layout.

Flags: --config <path> --out <dir> --seed <u64> --jobs <n>. Any config
key (and the seed) can be overridden by an environment variable named
JOPEQ_<KEY> with dots replaced by underscores, e.g. JOPEQ_SWEEP_RATES.
"""

import argparse
import os
import sys
from dataclasses import replace
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from . import checks, codec, flsim, privacy
from .dither import SharedRandomness

CSV_VERSION = "# jopeq-csv v1"

_DEFAULTS = {
    "task.kind": "linear",
    "task.model_dim": "10",
    "task.samples_per_user": "50",
    "task.heterogeneity": "1.0",
    "task.reg_lambda": "0.1",
    "task.label_noise": "0.1",
    "fl.users": "10",
    "fl.tau": "4",
    "fl.rounds": "100",
    "fl.eta": "0.05",
    "fl.schedule": "fixed",
    "codec.family": "scalar",
    "codec.mechanism": "laplace",
    "codec.rate": "4",
    "codec.epsilon": "2.0",
    "codec.nu": "3.0",
    "codec.gamma": "",
    "sweep.rates": "1,2,3,4,5,6,7,8",
    "sweep.epsilons": "3,3.5,4",
    "sweep.baselines": "jopeq,separate",
    "sweep.snr_dim": "200000",
    "seed": "0",
}


def load_config(path: str | None) -> dict:
    """
    Flat dotted-key config: one `key = value` per line, '#' comments.
    Unset keys take defaults; JOPEQ_* environment variables override.
    """
    cfg = dict(_DEFAULTS)
    if path:
        for line in Path(path).read_text().splitlines():
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            cfg[key] = val
    for key in list(cfg):
        env = "JOPEQ_" + key.upper().replace(".", "_")
        if env in os.environ:
            cfg[key] = os.environ[env]
    return cfg


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _task_spec(cfg: dict) -> flsim.TaskSpec:
    return flsim.TaskSpec(
        kind=cfg["task.kind"],
        model_dim=int(cfg["task.model_dim"]),
        samples_per_user=int(cfg["task.samples_per_user"]),
        heterogeneity=float(cfg["task.heterogeneity"]),
        reg_lambda=float(cfg["task.reg_lambda"]),
        label_noise=float(cfg["task.label_noise"]),
    )


def _codec_spec(cfg: dict, rate: int | None = None,
                epsilon: float | None = None) -> flsim.CodecSpec:
    return flsim.CodecSpec(
        family=cfg["codec.family"],
        rate=int(rate if rate is not None else cfg["codec.rate"]),
        epsilon=float(epsilon if epsilon is not None else cfg["codec.epsilon"]),
        mechanism=cfg["codec.mechanism"],
        nu=float(cfg["codec.nu"]),
        gamma=float(cfg["codec.gamma"]) if cfg["codec.gamma"] else None,
    )


def _fl_config(cfg: dict, baseline: str, seed: int,
               rate: int | None = None,
               epsilon: float | None = None) -> flsim.FlConfig:
    return flsim.FlConfig(
        task=_task_spec(cfg),
        codec=_codec_spec(cfg, rate, epsilon),
        baseline=baseline,
        users=int(cfg["fl.users"]),
        tau=int(cfg["fl.tau"]),
        rounds=int(cfg["fl.rounds"]),
        eta=float(cfg["fl.eta"]),
        schedule=cfg["fl.schedule"],
        seed=seed,
    )


def snr_sweep_point(args) -> tuple:
    """One (rate, epsilon, baseline) SNR measurement on synthetic updates."""
    cfg, rate, epsilon, baseline, seed = args
    cspec = _codec_spec(cfg, rate, epsilon)
    lat, spec = cspec.build()
    dim = int(cfg["sweep.snr_dim"])
    rng = np.random.default_rng([seed, 7001])
    h = rng.normal(0.0, 1.0, dim)
    sr = SharedRandomness(seed=seed, user=0, round_index=0)
    if baseline == "separate":
        ht, _ = flsim.separate_uplink(h, lat, spec, sr,
                                      np.random.default_rng([seed, 7002]))
    elif baseline in ("jopeq", "sdq"):
        sampler = (privacy.build_ppn_sampler(spec, lat, allow_degenerate=True)
                   if baseline == "jopeq" else None)
        enc = codec.encode(h, lat, sampler, sr, noise_seed=seed + 1)
        ht = codec.decode(enc, lat, sr)
    else:
        raise ValueError(f"snr sweep supports jopeq/separate/sdq, "
                         f"not {baseline!r}")
    value = codec.snr([h], [ht])
    return rate, epsilon, baseline, value


def cmd_sweep(cfg: dict, out_dir: Path, seed: int, jobs: int) -> int:
    """SNR-versus-rate and learning-curve studies; one CSV each."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rates = [int(r) for r in _floats(cfg["sweep.rates"])]
    epsilons = _floats(cfg["sweep.epsilons"])
    baselines = [b.strip() for b in cfg["sweep.baselines"].split(",")
                 if b.strip()]

    points = [(cfg, r, e, b, seed)
              for r in rates for e in epsilons for b in baselines]
    if jobs > 1:
        with get_context("spawn").Pool(jobs) as pool:
            rows = pool.map(snr_sweep_point, points)
    else:
        rows = [snr_sweep_point(p) for p in points]

    snr_path = out_dir / "snr_vs_rate.csv"
    with open(snr_path, "w") as fh:
        fh.write(f"{CSV_VERSION} snr_vs_rate\n")
        fh.write("rate,epsilon,baseline,snr_db\n")
        for rate, eps, base, value in rows:
            fh.write(f"{rate},{eps:g},{base},{value:.6f}\n")

    # Learning curves at the configured (rate, epsilon) for every baseline.
    task = flsim.build_task(_task_spec(cfg), int(cfg["fl.users"]),
                            np.full(int(cfg["fl.users"]),
                                    1.0 / int(cfg["fl.users"])), seed)
    base_cfg = _fl_config(cfg, "plain", seed)
    xis = flsim.calibrate_xi(task, base_cfg)
    curve_path = out_dir / "learning_curves.csv"
    with open(curve_path, "w") as fh:
        fh.write(f"{CSV_VERSION} learning_curves\n")
        fh.write("round,baseline,loss_gap,accuracy_proxy\n")
        for baseline in ["plain", "sdq", "ppn", "separate", "jopeq"]:
            metrics = flsim.run_experiment(replace(base_cfg,
                                                   baseline=baseline),
                                           task, xis)
            for m in metrics:
                acc = 1.0 / (1.0 + m.loss_gap)
                fh.write(f"{m.round_index},{baseline},{m.loss_gap:.10e},"
                         f"{acc:.10f}\n")
    print(f"wrote {snr_path} and {curve_path}")
    return 0


def cmd_verify(seed: int) -> int:
    """Run every check in `checks.CHECKS`; one line per report."""
    failed = False
    for check in checks.CHECKS.values():
        for rep in check(seed):
            print(rep)
            failed |= not rep.passed
    return 1 if failed else 0


def cmd_codec_encode(cfg: dict, inp: str, out_path: Path, seed: int) -> int:
    lat, spec = _codec_spec(cfg).build()
    sampler = privacy.build_ppn_sampler(spec, lat, allow_degenerate=True)
    h = np.loadtxt(inp, ndmin=1)
    sr = SharedRandomness(seed=seed)
    # The PPN comes from OS entropy: keyed on anything the decoder knows,
    # the decoder could regenerate and subtract it.
    enc = codec.encode(h, lat, sampler, sr)
    out_path.write_bytes(enc.to_bytes())
    print(f"wrote {out_path} ({enc.payload_bits} index bits, "
          f"{enc.overloads} overloads)")
    return 0


def cmd_codec_decode(cfg: dict, inp: str, out_path: Path, seed: int) -> int:
    # Decoding needs only the lattice; the PPN is encoder-side.
    lat, _ = _codec_spec(cfg).build()
    enc = codec.EncodedUpdate.from_bytes(Path(inp).read_bytes(), lat)
    sr = SharedRandomness(seed=seed)
    h = codec.decode(enc, lat, sr)
    np.savetxt(out_path, h)
    print(f"wrote {out_path} ({len(h)} coordinates)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="jopeq",
        description="joint privacy/quantization experiment runner")
    parser.add_argument("command",
                        choices=["verify", "sweep", "codec-encode",
                                 "codec-decode"])
    parser.add_argument("input", nargs="?",
                        help="input file for the codec commands")
    parser.add_argument("--config", default=None, help="config file path")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="master seed")
    parser.add_argument("--jobs", type=int, default=1, help="worker count")
    args = parser.parse_args(argv)

    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else int(cfg["seed"])
    if "JOPEQ_SEED" in os.environ:
        seed = int(os.environ["JOPEQ_SEED"])
    out_dir = Path(os.environ.get("JOPEQ_OUT", args.out))

    if args.command == "verify":
        return cmd_verify(seed)
    if args.command == "sweep":
        return cmd_sweep(cfg, out_dir, seed, args.jobs)
    if args.input is None:
        parser.error("codec commands need an input file")
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.command == "codec-encode":
        return cmd_codec_encode(cfg, args.input, out_dir / "payload.bin", seed)
    return cmd_codec_decode(cfg, args.input, out_dir / "decoded.txt", seed)


if __name__ == "__main__":
    sys.exit(main())
