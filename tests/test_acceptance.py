"""
Acceptance suite: one test per release criterion, each printing a single
PASS/FAIL line. Tolerances are the contractual ones; configurations are
pinned so every run is deterministic. Criteria 1-8 run the first eight
checks of `jopeq.checks.CHECKS` at seed 0, the same checks `jopeq verify`
runs; each test is named `test_criterion_<N>_<check name>`. A check after
them gets a test named `test_check_<check name>`.
"""

import time

from jopeq import checks
from jopeq.cli import CSV_VERSION, main

# Wall-time budget of each check, in seconds.
BUDGET_S = {
    "sdq-distortion-law": 10.0,
    "scalar-total-law": 30.0,
    "vector-total-law": 120.0,
    "privacy-for-free-threshold": 1.0,
    "weights-distortion-bound": 120.0,
    "convergence-bound-and-rate": 300.0,
    "snr-figure-shape": 600.0,
    "learning-figure-spirit": 600.0,
    "weights-distortion-bound-sdq-ppn": 120.0,
}
# Sample size of each report of a check whose size is pinned.
SAMPLE_SIZE = {"scalar-total-law": 100_000, "vector-total-law": 2 * 10_000}


def _report(label: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, detail


def _criterion_test(label: str, name: str, check):
    def test():
        t0 = time.monotonic()
        reps = check(0)
        elapsed = time.monotonic() - t0
        assert reps
        if name in SAMPLE_SIZE:
            assert [r.sample_size for r in reps] == [SAMPLE_SIZE[name]]
        ok = all(r.passed for r in reps) and elapsed < BUDGET_S[name]
        _report(label, ok, "; ".join(
            f"{'' if r.passed else 'FAILED '}{r.name}={r.statistic:.4g}"
            f" ({r.critical:g})" for r in reps)
            + f"; {elapsed:.1f}s (<{BUDGET_S[name]:g}s)")

    test.__name__ = f"test_{label}_{name}".replace("-", "_")
    test.__qualname__ = test.__name__
    return test


for _number, (_name, _check) in enumerate(checks.CHECKS.items(), 1):
    _test = _criterion_test(
        f"criterion-{_number}" if _number <= 8 else "check", _name, _check)
    globals()[_test.__name__] = _test


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
    _report("criterion-9", ok,
            "sweep reruns (serial and 2-worker) byte-identical; "
            f"{elapsed:.1f}s")
