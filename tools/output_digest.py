"""
Print one `name sha256` line for each deterministic output of jopeq, so
that a refactor can show its outputs are byte-identical to its parent's.

    python3 tools/output_digest.py --src src --seed 11 > change.txt
    python3 tools/output_digest.py --src /path/to/parent/src --seed 11 \
        > parent.txt
    diff parent.txt change.txt

The outputs, all keyed on --seed:
- `sweep.small.*` and `sweep.default.*`: both `jopeq sweep` CSVs, at the
  benchmark's reduced config (rates 1,4, epsilon 3, 25 rounds) and at the
  default config; JOPEQ_* environment variables apply as in the CLI.
- `fl.<baseline>`: every field of the 60 per-round metrics of each of the
  five baselines on the linear task.
- `fl.decay.<baseline>`: the same for 60 rounds of the benchmark's
  `fl-train` config (decay schedule, scalar R = 4, epsilon 2, 10 users,
  tau 4).
- `fl.logistic.<baseline>`: the same for 60 rounds on the logistic task
  (fixed schedule, otherwise FlConfig's defaults).
- `fl.d1.<baseline>`: the same for 60 rounds of the linear task at model
  dimension 1 with 12 users (otherwise FlConfig's defaults): a sum over
  users of one coordinate each is where a pairwise sum (np.sum with 8 or
  more terms) differs from adding the users in order.
- `uplink.<family>.*`: encode indices, overload mask, zeta and decoded
  update of one N(0,1) update, for scalar Laplace at 2^20 coordinates and
  for square and hexagonal t at 2^18.
- `ppn.<family>`: the PPN table and its sampling tables (the CDF and its
  guide) for those three codecs; `ppn.<family>.rebuilt`: the same for a
  second build of that codec's table in the same process, which
  `build_ppn_sampler` may serve from its table cache. Equal lines show
  that a served table equals a fresh one.
- `batch.<family>.*`: indices, zetas and decoded rows of one
  `encode_rows`/`decode_rows` call on 5 rows whose seeds, users and rounds
  all differ (seeds negative and at or above 2^63 among them; one row all
  zero, one with a norm whose square overflows), for the scalar and
  hexagonal codecs.
- `batch.<family>.long.*`: the same for one call on 3 rows of
  LONG_SUBVECTORS sub-vectors each (an odd d for the 2-D codecs), whose
  seeds, users and rounds all differ, for all three codecs: longer than
  two of the blocks `encode_rows` codes a row in, so these lines show
  that coding in blocks gives what whole-array passes give.
- `verify.<check>`: the report lines `jopeq verify` prints for each of
  the five checks named in VERIFY_CHECKS, criteria 1-5 (criteria 6-8,
  the long FL and sweep runs, are left out).

Exits 2 when `jopeq` is imported from anywhere other than --src.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from dataclasses import astuple, replace
from pathlib import Path

SWEEP_SMALL = {"sweep.rates": "1,4", "sweep.epsilons": "3", "fl.rounds": "25"}
FL_ROUNDS = 60
# Users of the `fl.d1` runs: 8 or more, so that a pairwise sum over them
# would differ from the sum in user order.
D1_USERS = 12
# The checks of `checks.CHECKS` whose reports are digested, by name, so
# that a registry grown or reordered digests the same checks.
VERIFY_CHECKS = ("sdq-distortion-law", "scalar-total-law", "vector-total-law",
                 "privacy-for-free-threshold", "weights-distortion-bound")
# Two of encode_rows's blocks of 2^16 scalar sub-vectors (four of 2^15
# sub-vectors of L = 2) and a 3-sub-vector tail.
LONG_SUBVECTORS = 2 * (1 << 16) + 3


def digest(*arrays) -> str:
    """SHA-256 over the dtype, shape and bytes of each array in turn."""
    import numpy as np

    sha = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        sha.update(f"{a.dtype}{a.shape}".encode())
        sha.update(a.tobytes())
    return sha.hexdigest()


def sweep_digests(cli, seed: int):
    for label, overrides in (("small", SWEEP_SMALL), ("default", {})):
        cfg = dict(cli.load_config(None), **overrides)
        with tempfile.TemporaryDirectory() as out:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.cmd_sweep(cfg, Path(out), seed, 1)
            for name in ("snr_vs_rate.csv", "learning_curves.csv"):
                data = (Path(out) / name).read_bytes()
                yield f"sweep.{label}.{name}", hashlib.sha256(data).hexdigest()


def fl_digests(flsim, seed: int):
    base = flsim.FlConfig(rounds=FL_ROUNDS, seed=seed)
    yield from shared_task_digests(flsim, "fl", base)
    # The `fl-train` config: every field not given here is FlConfig's
    # default (linear task of dimension 10, scalar Laplace codec at R = 4,
    # epsilon 2, 10 users, tau 4).
    decay = replace(base, schedule="decay")
    for baseline in flsim.BASELINES:
        ms = flsim.run_experiment(replace(decay, baseline=baseline))
        yield f"fl.decay.{baseline}", metrics_digest(ms)
    # The logistic task, whose stochastic gradients go through exp.
    yield from shared_task_digests(
        flsim, "fl.logistic",
        replace(base, task=flsim.TaskSpec(kind="logistic")))
    yield from shared_task_digests(
        flsim, "fl.d1",
        replace(base, task=flsim.TaskSpec(model_dim=1), users=D1_USERS))


def shared_task_digests(flsim, prefix: str, cfg):
    """Every baseline on one task, as `jopeq sweep`."""
    task = flsim.build_task(cfg.task, cfg.users, cfg.alpha_vector(),
                            cfg.seed)
    for baseline in flsim.BASELINES:
        ms = flsim.run_experiment(replace(cfg, baseline=baseline), task)
        yield f"{prefix}.{baseline}", metrics_digest(ms)


def metrics_digest(ms) -> str:
    import numpy as np

    return digest(np.array([astuple(m) for m in ms]))


def ppn_digest(samp) -> str:
    """The density, CDF and guide; a table field a source lacks is skipped."""
    tables = (getattr(samp, name, None) for name in ("_cdf", "_guide"))
    return digest(samp.density, *(t for t in tables if t is not None))


def uplink_digests(flsim, codec, privacy, shared_randomness, seed: int):
    import numpy as np

    specs = [(flsim.CodecSpec("scalar", rate=4, epsilon=2.0), 1 << 20)]
    specs += [(flsim.CodecSpec(f, rate=4, epsilon=3.0, mechanism="t",
                               nu=3.0), 1 << 18)
              for f in ("square", "hexagonal")]
    for cspec, coords in specs:
        lat, spec = cspec.build()
        samp = privacy.build_ppn_sampler(spec, lat, allow_degenerate=True)
        yield f"ppn.{cspec.family}", ppn_digest(samp)
        again = privacy.build_ppn_sampler(spec, lat, allow_degenerate=True)
        yield f"ppn.{cspec.family}.rebuilt", ppn_digest(again)
        h = np.random.default_rng([seed, 0xB0]).normal(0.0, 1.0, coords)
        sr = shared_randomness(seed=seed, user=1, round_index=2)
        enc = codec.encode(h, lat, samp, sr, noise_seed=seed + 1)
        name = f"uplink.{cspec.family}"
        yield f"{name}.indices", digest(enc.indices)
        yield f"{name}.overload_mask", digest(enc.overload_mask)
        yield f"{name}.zeta", digest(np.array(enc.zeta))
        yield f"{name}.decoded", digest(codec.decode(enc, lat, sr))
        if cspec.family != "square":
            yield from batch_digests(codec, shared_randomness, lat, samp,
                                     cspec.family, seed)
        yield from long_batch_digests(codec, shared_randomness, lat, samp,
                                      cspec.family, seed)


def batch_digests(codec, shared_randomness, lat, samp, family, seed: int):
    import numpy as np

    k, d = 5, 999
    hs = np.random.default_rng([seed, 0xBA]).normal(0.0, 1.0, (k, d))
    hs[2] = 0.0
    hs[4] *= 1e160
    seeds = [seed, -seed - 5, seed + 2 ** 63, seed + 12345, 7 * seed + 1]
    srs = [shared_randomness(seed=s, user=3 * i + 1, round_index=7 * i + 2)
           for i, s in enumerate(seeds)]
    idx, zetas, overloaded = codec.encode_rows(hs, lat, samp, srs,
                                               noise_seed=-seed - 2)
    name = f"batch.{family}"
    yield f"{name}.indices", digest(idx, overloaded)
    yield f"{name}.zetas", digest(zetas)
    yield f"{name}.decoded", digest(codec.decode_rows(idx, zetas, lat, srs,
                                                      d))


def long_batch_digests(codec, shared_randomness, lat, samp, family,
                       seed: int):
    import numpy as np

    k, d = 3, LONG_SUBVECTORS * lat.dimension - (lat.dimension - 1)
    hs = np.random.default_rng([seed, 0xBB]).normal(0.0, 1.0, (k, d))
    seeds = [seed + 3, -seed - 9, seed + 2 ** 63 + 1]
    srs = [shared_randomness(seed=s, user=5 * i + 2, round_index=11 * i + 1)
           for i, s in enumerate(seeds)]
    idx, zetas, overloaded = codec.encode_rows(hs, lat, samp, srs,
                                               noise_seed=seed + 17)
    name = f"batch.{family}.long"
    yield f"{name}.indices", digest(idx, overloaded)
    yield f"{name}.zetas", digest(zetas)
    yield f"{name}.decoded", digest(codec.decode_rows(idx, zetas, lat, srs,
                                                      d))


def verify_digests(checks, seed: int):
    for name in VERIFY_CHECKS:
        lines = "".join(f"{rep}\n" for rep in checks.CHECKS[name](seed))
        yield f"verify.{name}", hashlib.sha256(lines.encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True,
                        help="directory that holds the jopeq package")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import jopeq
    if Path(jopeq.__file__).resolve().parent != src / "jopeq":
        print(f"error: imported jopeq from {jopeq.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from jopeq import checks, cli, codec, flsim, privacy
    from jopeq.dither import SharedRandomness

    for gen in (sweep_digests(cli, args.seed), fl_digests(flsim, args.seed),
                uplink_digests(flsim, codec, privacy, SharedRandomness,
                               args.seed),
                verify_digests(checks, args.seed)):
        for name, sha in gen:
            print(name, sha, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
