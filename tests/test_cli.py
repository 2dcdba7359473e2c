"""Command-line interface: config parsing, sweeps, codec commands, verify."""

import os
import re
from dataclasses import replace

import numpy as np
import pytest

from jopeq import checks, cli, codec, flsim, privacy
from jopeq.dither import SharedRandomness
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

# Every config key and its default string.
DEFAULTS = {
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

# For each task.*, fl.* and codec.* key, a value other than its default
# and the field value it gives.
OTHER_VALUES = {
    "task.kind": ("logistic", "logistic"),
    "task.model_dim": ("7", 7),
    "task.samples_per_user": ("33", 33),
    "task.heterogeneity": ("0.5", 0.5),
    "task.reg_lambda": ("0.25", 0.25),
    "task.label_noise": ("0", 0.0),
    "fl.users": ("3", 3),
    "fl.tau": ("2", 2),
    "fl.rounds": ("5", 5),
    "fl.eta": ("0.01", 0.01),
    "fl.schedule": ("decay", "decay"),
    "codec.family": ("hexagonal", "hexagonal"),
    "codec.mechanism": ("t", "t"),
    "codec.rate": ("2", 2),
    "codec.epsilon": ("3.5", 3.5),
    "codec.nu": ("5", 5.0),
    "codec.gamma": ("2.5", 2.5),
}


@pytest.fixture
def clean_env(monkeypatch):
    for key in list(os.environ):
        if key.startswith("JOPEQ_"):
            monkeypatch.delenv(key)
    return monkeypatch


class TestConfig:
    def test_defaults_without_file(self, clean_env):
        assert cli._DEFAULTS == DEFAULTS
        assert load_config(None) == DEFAULTS

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

    @pytest.mark.parametrize("key", ["fl.rouds", "codec.gama", "rates",
                                     "sweep.rate"])
    def test_unknown_key_rejected(self, tmp_path, clean_env, key):
        p = tmp_path / "cfg"
        p.write_text(f"fl.rounds = 5\n{key} = 5\n")
        with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
            load_config(str(p))

    @pytest.mark.parametrize("key", sorted(OTHER_VALUES))
    def test_each_key_sets_its_field(self, tmp_path, clean_env, key):
        # Each section key sets one field of the dataclass the run builds,
        # and that field only.
        text, value = OTHER_VALUES[key]
        p = tmp_path / "cfg"
        p.write_text(f"{key} = {text}\n")
        section, name = key.split(".")
        default = cli._fl_config(load_config(None), "sdq", 7)
        got = cli._fl_config(load_config(str(p)), "sdq", 7)
        if section == "fl":
            want = replace(default, **{name: value})
            field = getattr(got, name)
        else:
            part = replace(getattr(default, section), **{name: value})
            want = replace(default, **{section: part})
            field = getattr(getattr(got, section), name)
        assert want != default
        assert got == want and type(field) is type(value)

    def test_every_section_key_has_another_value(self):
        assert set(OTHER_VALUES) == {
            f"{section}.{f.name}" for section in cli._SECTIONS
            for f in cli._fields(section)}
        assert set(DEFAULTS) - set(OTHER_VALUES) == {
            "sweep.rates", "sweep.epsilons", "sweep.baselines",
            "sweep.snr_dim", "seed"}

    def test_empty_gamma_is_the_support_rule(self, tmp_path, clean_env):
        p = tmp_path / "cfg"
        p.write_text("codec.gamma =\n")
        spec = cli._fl_config(load_config(str(p)), "sdq", 0).codec
        assert spec.gamma is None and spec == flsim.CodecSpec()
        clean_env.setenv("JOPEQ_CODEC_GAMMA", "3.25")
        spec = cli._fl_config(load_config(str(p)), "sdq", 0).codec
        assert spec.gamma == 3.25

    @pytest.mark.parametrize("key", ["codec.rate", "codec.epsilon",
                                     "codec.nu", "fl.rounds",
                                     "task.model_dim", "task.kind"])
    def test_empty_value_without_none_default_rejected(self, tmp_path,
                                                       clean_env, key):
        # An empty value is None only for a field whose default is None.
        p = tmp_path / "cfg"
        p.write_text(f"{key} =\n")
        with pytest.raises(ValueError):
            cli._fl_config(load_config(str(p)), "sdq", 0)
        if key.startswith("codec."):
            h = tmp_path / "h.txt"
            np.savetxt(h, np.ones(4))
            with pytest.raises(ValueError):
                main(["codec-encode", str(h), "--config", str(p),
                      "--out", str(tmp_path / "out")])

    def test_env_override(self, tmp_path, clean_env):
        p = tmp_path / "cfg"
        p.write_text("codec.rate = 7\n")
        clean_env.setenv("JOPEQ_CODEC_RATE", "3")
        clean_env.setenv("JOPEQ_SWEEP_EPSILONS", "1,2")
        cfg = load_config(str(p))
        assert cfg["codec.rate"] == "3"
        assert cfg["sweep.epsilons"] == "1,2"

    def test_unknown_env_variable_rejected(self, clean_env):
        # A misspelt override is refused by name, not dropped; JOPEQ_OUT
        # (the output directory) and JOPEQ_SEED (key seed) are known.
        clean_env.setenv("JOPEQ_OUT", "elsewhere")
        clean_env.setenv("JOPEQ_SEED", "5")
        assert load_config(None)["seed"] == "5"
        clean_env.setenv("JOPEQ_FL_ROUDS", "5")
        clean_env.setenv("JOPEQ_X", "1")
        with pytest.raises(ValueError, match="JOPEQ_FL_ROUDS, JOPEQ_X$"):
            load_config(None)
        with pytest.raises(ValueError, match="JOPEQ_FL_ROUDS"):
            main(["verify"])


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

    @pytest.mark.parametrize("key, value", [
        ("sweep.rates", "1.5,4"), ("sweep.rates", "0,4"),
        ("sweep.rates", "1,x"), ("sweep.epsilons", "3,0"),
        ("sweep.epsilons", "nan"), ("sweep.baselines", "jopeq,plain"),
        ("sweep.snr_dim", "0"), ("sweep.snr_dim", "1"),
        ("sweep.snr_dim", "2.5"), ("sweep.rates", ""),
        ("sweep.epsilons", ""), ("sweep.baselines", ",")])
    def test_bad_sweep_value_rejected_before_any_point(self, tmp_path,
                                                       clean_env, key, value):
        # Unchecked, rate 1.5 writes rows labelled rate 1, snr_dim 0 and 1
        # nan and inf SNRs, plain fails only when its first point runs,
        # and an empty list writes a header-only CSV.
        def point(*args):
            raise AssertionError("a sweep point ran")

        clean_env.setattr(cli, "snr_sweep_point", point)
        cfgp = tmp_path / "cfg"
        cfgp.write_text(f"{SMALL_SWEEP}{key} = {value}\n")
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=re.escape(f"{key} = {value!r}")):
            main(["sweep", "--config", str(cfgp), "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("seed, codec_keys, dim, epsilons, baselines", [
        (0, {}, 2001, "3,4", "jopeq,separate,sdq"),
        (7, {"codec.family": "square", "codec.mechanism": "t"}, 999,
         "4,3,4", "separate,sdq"),
        (12, {"codec.family": "hexagonal"}, 1000, "3.5", "sdq,separate")])
    def test_rows_equal_points_computed_alone(self, clean_env, seed,
                                              codec_keys, dim, epsilons,
                                              baselines):
        cfg = dict(load_config(None), **codec_keys)
        cfg.update({"sweep.rates": "2,1,2", "sweep.epsilons": epsilons,
                    "sweep.baselines": baselines, "sweep.snr_dim": str(dim)})
        rows = cli.snr_sweep(cfg, seed)
        assert [row[:3] for row in rows] == [
            (r, float(e), b) for r in (2, 1, 2)
            for e in epsilons.split(",") for b in baselines.split(",")]
        for rate, eps, base, value in rows:
            alone = snr_sweep_point((cfg, rate, eps, base, seed))
            assert alone == (rate, eps, base, value)

    def test_each_sweep_call_draws_its_own_inputs(self, clean_env):
        # One update per call and one privatization per epsilon, keyed
        # [seed, 7001] and [seed, 7002]; a second call draws them again.
        cfg = dict(load_config(None), **{
            "sweep.rates": "1,2,3", "sweep.epsilons": "3,4",
            "sweep.baselines": "jopeq,separate,sdq",
            "sweep.snr_dim": "1000"})
        keys, default_rng = [], np.random.default_rng

        def spy(seed=None):
            if isinstance(seed, list) and seed[1:] in ([7001], [7002]):
                keys.append(seed)
            return default_rng(seed)

        clean_env.setattr(np.random, "default_rng", spy)
        first = cli.snr_sweep(cfg, 5)
        assert keys == [[5, 7001], [5, 7002], [5, 7002]]
        assert cli.snr_sweep(cfg, 5) == first
        assert keys == 2 * [[5, 7001], [5, 7002], [5, 7002]]

    @pytest.mark.parametrize("key, value", [
        ("fl.users", "0"), ("fl.tau", "0"), ("fl.rounds", "0"),
        ("fl.eta", "-0.05"), ("task.model_dim", "0"),
        ("task.samples_per_user", "0")])
    def test_bad_fl_value_rejected_before_any_point(self, tmp_path,
                                                    clean_env, key, value):
        # FlConfig and TaskSpec refuse a value that makes no run, whether
        # it comes from a config file or a JOPEQ_* variable.
        def point(*args):
            raise AssertionError("a sweep point ran")

        clean_env.setattr(cli, "snr_sweep_point", point)
        clean_env.setenv("JOPEQ_" + key.upper().replace(".", "_"), value)
        out = tmp_path / "out"
        name = key.split(".")[1]
        with pytest.raises(ValueError, match=f"^{name} {value} is not"):
            main(["sweep", "--out", str(out)])
        assert not out.exists()

    def test_sweep_takes_exactly_the_coding_baselines(self, clean_env):
        # A baseline without a code stage has no point to measure.
        clean_env.setattr(cli, "snr_sweep_point",
                          lambda args, h, sent: args[1:4] + (0.0,))
        cfg = dict(load_config(None), **{"sweep.rates": "1",
                                         "sweep.epsilons": "3"})
        taken = []
        for baseline in flsim.BASELINES:
            cfg["sweep.baselines"] = baseline
            try:
                cli.snr_sweep(cfg, 0)
                taken.append(baseline)
            except ValueError as exc:
                assert "sweep.baselines" in str(exc)
        assert taken == list(flsim.CODING) == ["sdq", "separate", "jopeq"]

    @pytest.mark.parametrize("seed, codec_keys, dim, rates, epsilons", [
        (3, {}, 1001, "2,3", "3,4"),
        (8, {"codec.family": "hexagonal"}, 999, "2", "3.5")])
    def test_rows_equal_uplink_of_the_update(self, clean_env, seed,
                                             codec_keys, dim, rates,
                                             epsilons):
        # The sweep runs a privatize stage once per epsilon and each point
        # a code stage alone; a row equals the update sent alone through
        # flsim.uplink, with the sweep's keys and streams.
        cfg = dict(load_config(None), **codec_keys)
        cfg.update({"sweep.rates": rates, "sweep.epsilons": epsilons,
                    "sweep.baselines": ",".join(flsim.CODING),
                    "sweep.snr_dim": str(dim)})
        h = np.random.default_rng([seed, 7001]).normal(0.0, 1.0, (1, dim))
        rows = cli.snr_sweep(cfg, seed)
        assert len(rows) == 3 * len(rates.split(",")) * len(
            epsilons.split(","))
        for rate, eps, base, value in rows:
            lat, spec = cli._section(cfg, "codec", rate=rate,
                                     epsilon=eps).build()
            sampler = (privacy.build_ppn_sampler(spec, lat,
                                                 allow_degenerate=True)
                       if base in flsim.PPN_CODING else None)
            noise = codec._Streams(
                [SharedRandomness(seed=seed, user=0, round_index=0)], lat,
                -(-dim // lat.dimension), sampler, seed + 1)
            ht, _ = flsim.uplink(base, h, lat, spec, [[seed, 7002]], noise)
            assert value == codec.snr(h, ht)

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

    def test_snr_figure_check_ignores_environment(self, clean_env):
        clean_env.setenv("JOPEQ_CODEC_FAMILY", "square")
        clean_env.setenv("JOPEQ_CODEC_NU", "5")
        seen = []

        def point(args, h, private):
            cfg, rate, epsilon, baseline, seed = args
            seen.append((dict(cfg), seed))
            return rate, epsilon, baseline, 0.0

        clean_env.setattr(cli, "snr_sweep_point", point)
        checks.snr_figure_shape(4)
        assert len(seen) == 2 * 3 * 8
        assert all(cfg == cli._DEFAULTS and seed == 4 for cfg, seed in seen)
        assert seen[0][0]["codec.family"] == "scalar"
