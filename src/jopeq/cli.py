"""
Experiment runner: configure, run, verify, and emit plot-ready CSV data.

Commands
--------
verify              run acceptance criteria 1-8 and criterion 5's check on
                    sdq and ppn (`jopeq.checks`) with every pinned seed
                    shifted by --seed; one line per report, nonzero exit
                    on any failure.
sweep               run the SNR-versus-rate and learning-curve studies
                    described by the config file; writes versioned CSVs.
codec-encode/-decode  stand-alone codec on the documented byte layout.

Flags: --config <path> --out <dir> --seed <u64> --jobs <n>.

The config is flat `key = value` lines. Each task.*, codec.* and fl.*
key is one field of `flsim.TaskSpec`, `flsim.CodecSpec` or
`flsim.FlConfig` (all but FlConfig's task, codec, baseline and seed),
with that field's default and type; sweep.* and seed are this module's
own keys. A key in a config file that is not a config key raises
ValueError. Any config key can be overridden by an environment variable
named JOPEQ_<KEY> with dots replaced by underscores, e.g.
JOPEQ_SWEEP_RATES; JOPEQ_OUT overrides --out. Any other JOPEQ_* variable
raises ValueError.
"""

import argparse
import os
import sys
from dataclasses import fields, replace
from multiprocessing import get_context
from pathlib import Path
from types import NoneType
from typing import get_args

import numpy as np

from . import codec, flsim, privacy
from .dither import SharedRandomness

CSV_VERSION = "# jopeq-csv v1"

# Key <section>.<name> is field <name> of the section's dataclass. Not
# keys: FlConfig's task and codec, sections of their own, and its baseline
# and seed, which each run sets.
_SECTIONS = {"task": flsim.TaskSpec, "fl": flsim.FlConfig,
             "codec": flsim.CodecSpec}
_NOT_KEYS = ("task", "codec", "baseline", "seed")


def _fields(section: str) -> list:
    """The fields of a section's dataclass that are config keys."""
    return [f for f in fields(_SECTIONS[section]) if f.name not in _NOT_KEYS]


_DEFAULTS = {
    **{f"{section}.{f.name}": "" if f.default is None else str(f.default)
       for section in _SECTIONS for f in _fields(section)},
    "sweep.rates": "1,2,3,4,5,6,7,8",
    "sweep.epsilons": "3,3.5,4",
    "sweep.baselines": "jopeq,separate",
    "sweep.snr_dim": "200000",
    "seed": "0",
}


def load_config(path: str | None) -> dict:
    """
    Flat dotted-key config: one `key = value` per line, '#' comments.
    Unset keys take defaults; a key that is not a config key raises
    ValueError; JOPEQ_* environment variables override, and one that is
    neither a key's variable nor JOPEQ_OUT raises ValueError.
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
            if key not in _DEFAULTS:
                raise ValueError(f"unknown config key {key!r} in {path}")
            cfg[key] = val
    overrides = {"JOPEQ_" + key.upper().replace(".", "_"): key for key in cfg}
    unknown = sorted(v for v in os.environ if v.startswith("JOPEQ_")
                     and v not in overrides and v != "JOPEQ_OUT")
    if unknown:
        raise ValueError("unknown config variables " + ", ".join(unknown))
    for env, key in overrides.items():
        if env in os.environ:
            cfg[key] = os.environ[env]
    return cfg


def _section(cfg: dict, section: str, **given):
    """
    A section's dataclass from the config: each key field takes its value
    from given, else from cfg, as the field's type; an empty value is None
    for a field whose default is None. given also sets fields that are not
    keys.
    """
    for f in _fields(section):
        value = given.get(f.name, cfg[f"{section}.{f.name}"])
        if value == "" and f.default is None:
            given[f.name] = None
        else:
            kind, = (t for t in get_args(f.type) or (f.type,)
                     if t is not NoneType)
            given[f.name] = kind(value)
    return _SECTIONS[section](**given)


def _fl_config(cfg: dict, baseline: str, seed: int) -> flsim.FlConfig:
    return _section(cfg, "fl", task=_section(cfg, "task"),
                    codec=_section(cfg, "codec"), baseline=baseline,
                    seed=seed)


def _sweep_keys(cfg: dict) -> tuple:
    """
    The sweep's (rates, epsilons, baselines) lists, from its sweep.* keys.
    A value the sweep cannot run raises ValueError naming its key and
    value: an empty list, a rate that is not an integer >= 1, an epsilon
    that is not finite and positive, or a baseline not in `flsim.CODING`.
    """
    rates = _sweep_list(cfg, "sweep.rates", float,
                        lambda r: r.is_integer() and r >= 1,
                        "an integer >= 1")
    epsilons = _sweep_list(cfg, "sweep.epsilons", float,
                           lambda e: 0.0 < e < np.inf,
                           "finite and positive")
    baselines = _sweep_list(cfg, "sweep.baselines", str,
                            lambda b: b in flsim.CODING,
                            "one of " + ", ".join(flsim.CODING))
    return [int(r) for r in rates], epsilons, baselines


def _sweep_list(cfg: dict, key: str, parse, ok, need: str) -> list:
    """The comma-separated values of key, at least one, each checked by ok."""
    values = []
    for text in cfg[key].split(","):
        text = text.strip()
        if not text:
            continue
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise ValueError(f"{key} = {cfg[key]!r}: {text!r} is not {need}")
        values.append(value)
    if not values:
        raise ValueError(f"{key} = {cfg[key]!r}: lists no value")
    return values


def _sweep_update(cfg: dict, seed: int) -> np.ndarray:
    """
    The SNR sweep's update: one read-only row of sweep.snr_dim N(0,1)
    draws. snr_dim must be an integer >= 2 (one coordinate has no
    variance, so no SNR), else ValueError naming key and value.
    """
    text = cfg["sweep.snr_dim"]
    if not text.strip().isdecimal() or int(text) < 2:
        raise ValueError(f"sweep.snr_dim = {text!r}: need an integer >= 2")
    h = np.random.default_rng([seed, 7001]).normal(0.0, 1.0, (1, int(text)))
    h.flags.writeable = False
    return h


def snr_sweep_point(args, h=None, sent=None) -> tuple:
    """
    One (rate, epsilon, baseline) SNR measurement on a synthetic update;
    args is (cfg, rate, epsilon, baseline, seed). h is the sweep's update
    (`_sweep_update`) and sent the row the baseline's code stage sends:
    h, or for a baseline in `flsim.PRIVATIZING` h's privatize stage at
    epsilon. The point runs the code stage (`flsim.code`) alone. Given no
    h, it is a sweep of this one point (`snr_sweep`), so a point computed
    alone equals its row of any sweep.
    """
    cfg, rate, epsilon, baseline, seed = args
    if h is None:
        return snr_sweep(dict(cfg, **{
            "sweep.rates": str(rate), "sweep.baselines": baseline,
            "sweep.epsilons": str(float(epsilon))}), seed)[0]
    lat, spec = _section(cfg, "codec", rate=rate, epsilon=epsilon).build()
    sampler = (privacy.build_ppn_sampler(spec, lat, allow_degenerate=True)
               if baseline in flsim.PPN_CODING else None)
    # The noise is read from the streams block by block: the point's row,
    # the sweep's 200,000-coordinate update or privatization, is held for
    # the whole sweep, and drawing its noise ahead with `codec._draw`
    # raised `sweep` peak_rss_mb from 116.5-116.8 MB to 118.7-120.5 MB (3
    # alternating pairs of runs, seeds 61-63, 2-vCPU host).
    noise = codec._Streams([SharedRandomness(seed=seed)], lat,
                           -(-sent.shape[1] // lat.dimension), sampler,
                           seed + 1)
    ht, _ = flsim.code(sent, lat, noise)
    return rate, epsilon, baseline, codec.snr(h, ht)


def snr_sweep(cfg: dict, seed: int, jobs: int = 1) -> list[tuple]:
    """
    The SNR-versus-rate study of cfg's sweep.* keys: one (rate, epsilon,
    baseline, snr_db) row per point, rate-major, as the keys list them
    (duplicates included).

    The sweep draws once what its points share, and holds it for this
    call only: the update, and, when a baseline privatizes, the privatize
    stage's output once per epsilon, keyed [seed, 7002] (its zeta depends
    on the update and the sub-vector count only, so not on the rate). The
    points run epsilon-major, each distinct one through one
    `snr_sweep_point` call, in `jobs` spawned worker processes when
    jobs > 1. Every sweep.* value is checked (`_sweep_keys`,
    `_sweep_update`) before any point runs.
    """
    rates, epsilons, baselines = _sweep_keys(cfg)
    h = _sweep_update(cfg, seed)

    def calls():
        for e in dict.fromkeys(epsilons):
            private = None
            if any(b in flsim.PRIVATIZING for b in baselines):
                lat, spec = _section(cfg, "codec", rate=rates[0],
                                     epsilon=e).build()
                private = flsim.privatize(h, lat, spec, [[seed, 7002]])
                private.flags.writeable = False
            for r in dict.fromkeys(rates):
                for b in dict.fromkeys(baselines):
                    yield ((cfg, r, e, b, seed), h,
                           private if b in flsim.PRIVATIZING else h)

    if jobs > 1:
        with get_context("spawn").Pool(jobs) as pool:
            rows = pool.starmap(snr_sweep_point, calls())
    else:
        rows = [snr_sweep_point(*call) for call in calls()]
    by_point = {tuple(row[:3]): row for row in rows}
    return [by_point[r, e, b]
            for r in rates for e in epsilons for b in baselines]


def cmd_sweep(cfg: dict, out_dir: Path, seed: int, jobs: int) -> int:
    """
    SNR-versus-rate (`snr_sweep`) and learning-curve studies; one CSV
    each. The SNR sweep draws its update once and its privatization once
    per epsilon. The config's values are checked before anything runs.
    """
    base_cfg = _fl_config(cfg, "plain", seed)
    rows = snr_sweep(cfg, seed, jobs)
    out_dir.mkdir(parents=True, exist_ok=True)

    snr_path = out_dir / "snr_vs_rate.csv"
    with open(snr_path, "w") as fh:
        fh.write(f"{CSV_VERSION} snr_vs_rate\n")
        fh.write("rate,epsilon,baseline,snr_db\n")
        for rate, eps, base, value in rows:
            fh.write(f"{rate},{eps:g},{base},{value:.6f}\n")

    # Learning curves at the configured (rate, epsilon) for every baseline.
    task = flsim.build_task(base_cfg.task, base_cfg.users,
                            base_cfg.alpha_vector(), seed)
    curve_path = out_dir / "learning_curves.csv"
    with open(curve_path, "w") as fh:
        fh.write(f"{CSV_VERSION} learning_curves\n")
        fh.write("round,baseline,loss_gap,accuracy_proxy\n")
        for baseline in flsim.BASELINES:
            metrics = flsim.run_experiment(replace(base_cfg,
                                                   baseline=baseline),
                                           task)
            for m in metrics:
                acc = 1.0 / (1.0 + m.loss_gap)
                fh.write(f"{m.round_index},{baseline},{m.loss_gap:.10e},"
                         f"{acc:.10f}\n")
    print(f"wrote {snr_path} and {curve_path}")
    return 0


def cmd_verify(seed: int) -> int:
    """Run every check in `checks.CHECKS`; one line per report."""
    # `checks` imports this module, and only `verify` needs it.
    from . import checks

    failed = False
    for check in checks.CHECKS.values():
        for rep in check(seed):
            print(rep)
            failed |= not rep.passed
    return 1 if failed else 0


def cmd_codec_encode(cfg: dict, inp: str, out_path: Path, seed: int) -> int:
    lat, spec = _section(cfg, "codec").build()
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
    lat, _ = _section(cfg, "codec").build()
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
