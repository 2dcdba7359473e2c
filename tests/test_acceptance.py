"""
Acceptance suite: one test per release criterion, each printing a single
PASS/FAIL line. Tolerances are the contractual ones; configurations are
pinned so every run is deterministic. Criteria 1-6 run the checks in
`jopeq.checks` at seed 0, the same checks `jopeq verify` runs.
"""

import time
from dataclasses import replace

import numpy as np

from jopeq import checks
from jopeq.cli import CSV_VERSION, load_config, main, snr_sweep_point
from jopeq.flsim import (CodecSpec, FlConfig, TaskSpec, build_task,
                         calibrate_xi, run_experiment)


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion-{number}: {detail}")
    assert ok, detail


def test_criterion_1_sdq_distortion_law():
    t0 = time.monotonic()
    reps = checks.sdq_distortion_law(0)
    details = [f"{ks.name.removeprefix('sdq-')} ks={ks.statistic:.4f}"
               f"(<{ks.critical:.4f}) |corr|={corr.statistic:.4f}"
               for ks, corr in zip(reps[0::2], reps[1::2])]
    elapsed = time.monotonic() - t0
    ok = all(r.passed for r in reps) and elapsed < 10.0
    _report(1, ok, "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_2_scalar_total_law():
    t0 = time.monotonic()
    [rep] = checks.scalar_total_law(0)
    assert rep.sample_size == 100_000
    elapsed = time.monotonic() - t0
    ok = rep.passed and elapsed < 30.0
    _report(2, ok, f"scaled distortion vs Lap(0,2): ks={rep.statistic:.5f}"
            f" (<{rep.critical:.5f}), n=100000, zero overloads kept, "
            f"{elapsed:.1f}s")


def test_criterion_3_vector_total_law():
    t0 = time.monotonic()
    [rep] = checks.vector_total_law(0)
    assert rep.sample_size == 2 * 10_000
    elapsed = time.monotonic() - t0
    ok = rep.passed and elapsed < 120.0
    _report(3, ok, f"whitened distortion vs t3(0, s^2 I): "
            f"energy stat={rep.statistic:.4f} (<{rep.critical:.4f}), "
            f"n=10000 each, {elapsed:.1f}s")


def test_criterion_4_privacy_for_free_threshold():
    t0 = time.monotonic()
    reps = checks.privacy_for_free_threshold(0)
    elapsed = time.monotonic() - t0
    ok = all(r.passed for r in reps) and elapsed < 1.0
    _report(4, ok, "required PPN variance 0 at gamma*eps/2^R=sqrt(24); "
            "degenerate path succeeds at/above, strict path succeeds below; "
            f"{elapsed:.2f}s")


def test_criterion_5_weights_distortion_bound():
    t0 = time.monotonic()
    per_round, mean_ratio = checks.weights_distortion_bound(0)
    elapsed = time.monotonic() - t0
    ok = per_round.passed and mean_ratio.passed and elapsed < 120.0
    _report(5, ok, f"||w_tilde - w||^2 <= bound every round "
            f"(worst ratio {per_round.statistic:.3f}, mean ratio "
            f"{mean_ratio.statistic:.3f}, 200 rounds, {elapsed:.1f}s)")


def test_criterion_6_convergence_bound_and_rate():
    t0 = time.monotonic()
    bound, slope = checks.convergence_bound_and_rate(0)
    elapsed = time.monotonic() - t0
    ok = bound.passed and slope.passed and elapsed < 300.0
    _report(6, ok, f"loss gap <= bound at all t (worst ratio "
            f"{bound.statistic:.4f}); log-log slope {slope.statistic:.2f} "
            f"in [-1.3,-0.7]; {elapsed:.1f}s")


def test_criterion_7_snr_figure_shape():
    t0 = time.monotonic()
    cfg = load_config(None)
    cfg["sweep.snr_dim"] = "200000"
    rates = list(range(1, 9))
    epsilons = [3.0, 3.5, 4.0]
    snrs = {}
    for b in ("jopeq", "separate"):
        for e in epsilons:
            for r in rates:
                snrs[(b, e, r)] = snr_sweep_point((cfg, r, e, b, 0))[3]

    checks, ok = [], True
    for e in epsilons:
        gaps = [snrs[("jopeq", e, r)] - snrs[("separate", e, r)]
                for r in rates]
        low_rate_ok = gaps[0] >= 0.0 and gaps[1] >= 0.0
        mono_ok = all(g1 >= g2 - 1e-9 for g1, g2 in zip(gaps, gaps[1:]))
        j_var = abs(snrs[("jopeq", e, 4)] - snrs[("jopeq", e, 1)])
        s_var = abs(snrs[("separate", e, 4)] - snrs[("separate", e, 1)])
        flat_ok = j_var < 3.0 and s_var > 3.0
        # the joint curve is flat to within an overload-clipping wiggle
        j_curve = [snrs[("jopeq", e, r)] for r in rates]
        wiggle_ok = all(b2 >= b1 - 0.3 for b1, b2 in zip(j_curve,
                                                         j_curve[1:]))
        ok &= low_rate_ok and mono_ok and flat_ok and wiggle_ok
        checks.append(f"eps={e:g}: gap@R1={gaps[0]:.2f}dB "
                      f"joint-var={j_var:.2f}dB sep-var={s_var:.2f}dB")
    elapsed = time.monotonic() - t0
    ok &= elapsed < 600.0
    _report(7, ok, "; ".join(checks) + f"; {elapsed:.1f}s")


def test_criterion_8_learning_figure_spirit():
    t0 = time.monotonic()
    # Operate at the privacy-for-free support gamma = sqrt(24) 2^R / eps,
    # where the quantization distortion alone realizes the eps=4 mechanism.
    task_spec = TaskSpec(kind="logistic", model_dim=10, samples_per_user=50,
                         heterogeneity=1.0, reg_lambda=0.1)
    codec_spec = CodecSpec(family="scalar", rate=1, epsilon=4.0,
                           gamma=float(np.sqrt(24.0)) * 2 / 4.0)
    finals = {b: [] for b in ("sdq", "ppn", "jopeq", "separate")}
    for seed in range(5):
        base = FlConfig(task=task_spec, codec=codec_spec, baseline="plain",
                        users=10, tau=4, rounds=300, eta=0.05,
                        schedule="fixed", seed=seed)
        task = build_task(task_spec, 10, base.alpha_vector(), seed)
        xis = calibrate_xi(task, base)
        for b in finals:
            ms = run_experiment(replace(base, baseline=b), task, xis)
            tail = [m.loss_gap for m in ms[-len(ms) // 5:]]
            finals[b].append(float(np.mean(tail)))
    mean = {b: float(np.mean(v)) for b, v in finals.items()}
    better = min(mean["sdq"], mean["ppn"])
    ratio = mean["jopeq"] / better
    elapsed = time.monotonic() - t0
    ok = ratio <= 1.10 and mean["jopeq"] < mean["separate"] and elapsed < 600.0
    _report(8, ok, f"final gaps: sdq={mean['sdq']:.4f} ppn={mean['ppn']:.4f} "
            f"jopeq={mean['jopeq']:.4f} separate={mean['separate']:.4f}; "
            f"ratio to better single-constraint baseline {ratio:.3f} "
            f"(<=1.10); {elapsed:.1f}s")


def test_criterion_9_deterministic_csv(tmp_path, monkeypatch):
    t0 = time.monotonic()
    for key in ("JOPEQ_SEED", "JOPEQ_OUT"):
        monkeypatch.delenv(key, raising=False)
    cfgp = tmp_path / "cfg"
    cfgp.write_text(
        "sweep.rates = 1,4\nsweep.epsilons = 3\nsweep.snr_dim = 20000\n"
        "task.model_dim = 6\ntask.samples_per_user = 30\n"
        "fl.users = 4\nfl.rounds = 8\nfl.tau = 2\n")
    blobs = []
    for name, jobs in (("a", "1"), ("b", "1"), ("c", "2")):
        out = tmp_path / name
        rc = main(["sweep", "--config", str(cfgp), "--out", str(out),
                   "--seed", "0", "--jobs", jobs])
        assert rc == 0
        blobs.append((out / "snr_vs_rate.csv").read_bytes()
                     + (out / "learning_curves.csv").read_bytes())
    header_ok = blobs[0].startswith(CSV_VERSION.encode())
    elapsed = time.monotonic() - t0
    ok = blobs[0] == blobs[1] == blobs[2] and header_ok
    _report(9, ok, "sweep reruns (serial and 2-worker) byte-identical; "
            f"{elapsed:.1f}s")
