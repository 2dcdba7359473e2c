"""Command-line interface: config parsing, sweeps, codec commands, verify."""

import os

import numpy as np
import pytest

from jopeq import checks, privacy
from jopeq.cli import CSV_VERSION, load_config, main, snr_sweep_point
from jopeq.stattests import TestReport as Report

SMALL_SWEEP = """
# minimal sweep configuration for tests
sweep.rates = 1,4
sweep.epsilons = 3
sweep.baselines = jopeq,separate
sweep.snr_dim = 20000
task.model_dim = 6
task.samples_per_user = 30
fl.users = 4
fl.rounds = 8
fl.tau = 2
codec.rate = 2
codec.epsilon = 3.0
"""


@pytest.fixture
def clean_env(monkeypatch):
    for key in list(os.environ):
        if key.startswith("JOPEQ_"):
            monkeypatch.delenv(key)
    return monkeypatch


class TestConfig:
    def test_defaults_without_file(self, clean_env):
        cfg = load_config(None)
        assert cfg["codec.family"] == "scalar"
        assert cfg["fl.schedule"] == "fixed"
        assert cfg["seed"] == "0"

    def test_parse_file(self, tmp_path, clean_env):
        p = tmp_path / "cfg"
        p.write_text("codec.rate = 7  # inline comment\n\n# full comment\n"
                     "task.kind=logistic\n")
        cfg = load_config(str(p))
        assert cfg["codec.rate"] == "7"
        assert cfg["task.kind"] == "logistic"
        assert cfg["codec.epsilon"] == "2.0"  # untouched default

    def test_bad_line_rejected(self, tmp_path, clean_env):
        p = tmp_path / "cfg"
        p.write_text("this is not an assignment\n")
        with pytest.raises(ValueError):
            load_config(str(p))

    def test_env_override(self, tmp_path, clean_env):
        p = tmp_path / "cfg"
        p.write_text("codec.rate = 7\n")
        clean_env.setenv("JOPEQ_CODEC_RATE", "3")
        clean_env.setenv("JOPEQ_SWEEP_EPSILONS", "1,2")
        cfg = load_config(str(p))
        assert cfg["codec.rate"] == "3"
        assert cfg["sweep.epsilons"] == "1,2"


class TestSweep:
    def _run(self, tmp_path, clean_env, name, extra_args=()):
        cfgp = tmp_path / "cfg"
        cfgp.write_text(SMALL_SWEEP)
        out = tmp_path / name
        rc = main(["sweep", "--config", str(cfgp), "--out", str(out),
                   "--seed", "0", *extra_args])
        assert rc == 0
        return out

    def test_csv_schema(self, tmp_path, clean_env):
        out = self._run(tmp_path, clean_env, "a")
        snr_lines = (out / "snr_vs_rate.csv").read_text().splitlines()
        assert snr_lines[0] == f"{CSV_VERSION} snr_vs_rate"
        assert snr_lines[1] == "rate,epsilon,baseline,snr_db"
        body = [l.split(",") for l in snr_lines[2:]]
        assert len(body) == 2 * 1 * 2  # rates x epsilons x baselines
        assert {row[2] for row in body} == {"jopeq", "separate"}
        for row in body:
            float(row[3])

        curve_lines = (out / "learning_curves.csv").read_text().splitlines()
        assert curve_lines[0] == f"{CSV_VERSION} learning_curves"
        assert curve_lines[1] == "round,baseline,loss_gap,accuracy_proxy"
        body = [l.split(",") for l in curve_lines[2:]]
        assert len(body) == 8 * 5  # rounds x baselines
        assert {row[1] for row in body} == {"plain", "sdq", "ppn",
                                            "separate", "jopeq"}

    def test_rerun_is_byte_identical(self, tmp_path, clean_env):
        a = self._run(tmp_path, clean_env, "a")
        b = self._run(tmp_path, clean_env, "b")
        for name in ("snr_vs_rate.csv", "learning_curves.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_parallel_matches_serial(self, tmp_path, clean_env):
        a = self._run(tmp_path, clean_env, "a")
        b = self._run(tmp_path, clean_env, "b", ["--jobs", "2"])
        assert ((a / "snr_vs_rate.csv").read_bytes()
                == (b / "snr_vs_rate.csv").read_bytes())

    def test_env_seed_changes_output(self, tmp_path, clean_env):
        a = self._run(tmp_path, clean_env, "a")
        clean_env.setenv("JOPEQ_SEED", "5")
        b = self._run(tmp_path, clean_env, "b")
        assert ((a / "snr_vs_rate.csv").read_bytes()
                != (b / "snr_vs_rate.csv").read_bytes())

    def test_sweep_point_rejects_unknown_baseline(self, clean_env):
        cfg = load_config(None)
        cfg["sweep.snr_dim"] = "1000"
        with pytest.raises(ValueError):
            snr_sweep_point((cfg, 2, 3.0, "plain", 0))


class TestCodecCommands:
    @staticmethod
    def _encode(tmp_path, h, out):
        """`jopeq codec-encode` of h at seed 3; (config, payload) paths."""
        cfgp = tmp_path / "cfg"
        cfgp.write_text("codec.rate = 4\ncodec.epsilon = 2.0\n")
        inp = tmp_path / "h.txt"
        np.savetxt(inp, h)
        rc = main(["codec-encode", str(inp), "--config", str(cfgp),
                   "--out", str(tmp_path / out), "--seed", "3"])
        assert rc == 0
        return cfgp, tmp_path / out / "payload.bin"

    def test_round_trip(self, tmp_path, clean_env):
        h = np.random.default_rng(0).normal(0.0, 1.0, 5000)
        cfgp, payload = self._encode(tmp_path, h, "io")
        out = payload.parent
        assert payload.exists()

        def no_sampler(*args, **kwargs):
            raise AssertionError("decoding must not build a PPN sampler")

        clean_env.setattr(privacy, "build_ppn_sampler", no_sampler)
        rc = main(["codec-decode", str(payload), "--config", str(cfgp),
                   "--out", str(out), "--seed", "3"])
        assert rc == 0
        ht = np.loadtxt(out / "decoded.txt")
        assert ht.shape == h.shape
        # Same shared seed: the scaled error is the epsilon=2 Laplace
        # mechanism (variance 2 b^2 = 2), not garbage. The PPN is fresh on
        # every run, and over 5,000 coordinates the mean square has SD
        # sqrt(20 / 5000) = 0.063: the +-1.0 tolerance is 16 SD.
        zeta = np.sqrt(len(h)) / (3.0 * np.linalg.norm(h))
        scaled = np.mean(((ht - h) * zeta) ** 2)
        assert scaled == pytest.approx(2.0, rel=0.5)

    def test_payloads_differ_between_runs(self, tmp_path, clean_env):
        # The decoder holds the seed, so a PPN keyed on it could be
        # regenerated and subtracted; the encoder draws it afresh instead.
        h = np.random.default_rng(0).normal(0.0, 1.0, 200)
        _, a = self._encode(tmp_path, h, "a")
        _, b = self._encode(tmp_path, h, "b")
        assert a.read_bytes() != b.read_bytes()

    def test_missing_input_errors(self, clean_env, capsys):
        with pytest.raises(SystemExit):
            main(["codec-encode"])


class TestVerify:
    def test_runs_every_registered_check(self, clean_env, capsys):
        def good(seed):
            return [Report(f"good-{seed}", 0.1, 1.0, 10, True)]

        def bad(seed):
            return [Report(f"bad-{seed}", 2.0, 1.0, 10, False),
                    Report(f"after-bad-{seed}", 0.1, 1.0, 10, True)]

        clean_env.setattr(checks, "CHECKS", {"g": good, "b": bad})
        assert main(["verify", "--seed", "3"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            str(r) for r in good(3) + bad(3)]

        clean_env.setattr(checks, "CHECKS", {"g": good})
        assert main(["verify"]) == 0
        assert capsys.readouterr().out.splitlines() == [str(good(0)[0])]
