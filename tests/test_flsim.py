"""Federated simulator: tasks, local SGD, aggregation, and the bounds."""

import numpy as np
import pytest

from jopeq.flsim import (CodecSpec, DivergenceError, FlConfig, TaskSpec,
                         build_task, calibrate_xi, fedavg_round,
                         heterogeneity_gap, local_sgd, run_experiment,
                         theorem6_bound, theorem7_bound)

# Independently computed value of the convergence bound at
# (sigma2=2, psi=0.3, rho_s=4, rho_c=0.5, alphas=0.1 x10, xis=2 x10,
# tau=4, ||w0-w*||^2=9, t=100).
THM7_REFERENCE = 53.08179824561404


def _small_task(kind="linear", heterogeneity=1.0, users=4, seed=0,
                samples=60):
    spec = TaskSpec(kind=kind, model_dim=6, samples_per_user=samples,
                    heterogeneity=heterogeneity, reg_lambda=0.1)
    alphas = np.full(users, 1.0 / users)
    return build_task(spec, users, alphas, seed)


class TestTask:
    @pytest.mark.parametrize("kind", ["linear", "logistic"])
    def test_user_grad_matches_finite_differences(self, kind):
        task = _small_task(kind=kind)
        rng = np.random.default_rng(1)
        w = rng.normal(0.0, 0.5, task.model_dim)
        g = task.user_grad(2, w)
        eps = 1e-6
        for j in range(task.model_dim):
            e = np.zeros(task.model_dim)
            e[j] = eps
            fd = (task.user_loss(2, w + e) - task.user_loss(2, w - e)) / (
                2 * eps)
            assert g[j] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    @pytest.mark.parametrize("kind", ["linear", "logistic"])
    def test_optimum_is_stationary(self, kind):
        task = _small_task(kind=kind)
        grad = sum(a * task.user_grad(k, task.w_opt)
                   for k, a in enumerate(task.alphas))
        assert np.linalg.norm(grad) < 1e-5

    def test_loss_is_alpha_mixture(self):
        task = _small_task()
        w = np.random.default_rng(2).normal(size=task.model_dim)
        mix = sum(a * task.user_loss(k, w)
                  for k, a in enumerate(task.alphas))
        assert task.loss(w) == pytest.approx(mix)

    def test_curvature_ordering(self):
        task = _small_task()
        assert task.rho_s >= task.rho_c > 0.0


class TestHeterogeneityGap:
    def test_nonnegative_and_grows_with_shift(self):
        homog = _small_task(heterogeneity=0.0, samples=800)
        het = _small_task(heterogeneity=3.0, samples=800)
        assert heterogeneity_gap(homog) >= -1e-9
        assert heterogeneity_gap(het) > 2e-4
        assert heterogeneity_gap(het) > 3.0 * heterogeneity_gap(homog)

    def test_linear_per_user_optimum_closed_form(self):
        # The per-user minimizers inside the gap are ridge solutions;
        # verify against the normal equations directly.
        task = _small_task()
        k = 1
        x, y = task.xs[k], task.ys[k]
        lam = task.spec.reg_lambda
        wk = np.linalg.solve(x.T @ x / len(y) + lam * np.eye(task.model_dim),
                             x.T @ y / len(y))
        grad = task.user_grad(k, wk)
        assert np.linalg.norm(grad) < 1e-10


class TestLocalSgd:
    def test_zero_step_size_gives_zero_update(self):
        task = _small_task()
        w = np.random.default_rng(3).normal(size=task.model_dim)
        h = local_sgd(task, 0, w, 4, lambda t: 0.0, 0,
                      np.random.default_rng(4))
        assert np.array_equal(h, np.zeros(task.model_dim))

    def test_single_step_is_one_gradient(self):
        task = _small_task()
        w = np.random.default_rng(5).normal(size=task.model_dim)
        rng = np.random.default_rng(6)
        h = local_sgd(task, 1, w, 1, lambda t: 0.1, 0, rng)
        i = int(np.random.default_rng(6).integers(0, len(task.ys[1])))
        assert np.allclose(h, -0.1 * task.sample_grad(1, w, i))

    def test_does_not_mutate_input(self):
        task = _small_task()
        w = np.ones(task.model_dim)
        local_sgd(task, 0, w, 3, lambda t: 0.05, 0, np.random.default_rng(7))
        assert np.array_equal(w, np.ones(task.model_dim))


class TestAggregation:
    def test_identical_updates(self):
        w = np.zeros(3)
        h = np.array([1.0, -2.0, 0.5])
        out = fedavg_round(w, [h, h, h], [1 / 3, 1 / 3, 1 / 3])
        assert np.allclose(out, h)

    def test_opposite_updates_cancel(self):
        w = np.array([1.0, 1.0])
        v = np.array([3.0, -4.0])
        out = fedavg_round(w, [v, -v], [0.5, 0.5])
        assert np.allclose(out, w)

    def test_weighted(self):
        out = fedavg_round(np.zeros(1), [np.array([1.0]), np.array([5.0])],
                           [0.75, 0.25])
        assert out[0] == pytest.approx(2.0)


class TestBounds:
    def test_theorem6_hand_value(self):
        # 9 * tau * sigma2 * sum(eta^2) * sum(alpha^2 xi^2)
        # = 9 * 2 * 3 * (0.01 + 0.04) * (0.25*4 + 0.25*9) = 8.775
        val = theorem6_bound(3.0, [0.1, 0.2], [0.5, 0.5], [2.0, 3.0], 2)
        assert val == pytest.approx(9 * 2 * 3 * 0.05 * (0.25 * 4 + 0.25 * 9))

    def test_theorem6_linearity_and_zero(self):
        args = ([0.1, 0.2], [0.5, 0.5], [2.0, 3.0], 2)
        assert theorem6_bound(0.0, *args) == 0.0
        assert theorem6_bound(6.0, *args) == pytest.approx(
            2.0 * theorem6_bound(3.0, *args))

    def test_theorem7_frozen_reference(self):
        val = theorem7_bound(2.0, 0.3, 4.0, 0.5, [0.1] * 10, [2.0] * 10,
                             4, 9.0, 100)
        assert val == pytest.approx(THM7_REFERENCE, rel=1e-12)

    def test_theorem7_simplified_b(self):
        # tau=1, sigma2=0, psi=0: b = sum alpha^2 xi^2, phi = max branch.
        rho_s, rho_c = 2.0, 1.0
        alphas, xis = [0.5, 0.5], [1.0, 1.0]
        b = 0.5
        phi = 1.0 * max(1.0, 4.0 * rho_s / rho_c)
        lam = max((rho_c ** 2 + b) / rho_c, phi * 4.0)
        t = 50
        expect = rho_s / (2.0 * (t + phi)) * lam
        got = theorem7_bound(0.0, 0.0, rho_s, rho_c, alphas, xis, 1, 4.0, t)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_theorem7_decays_like_one_over_t(self):
        args = (2.0, 0.3, 4.0, 0.5, [0.1] * 10, [2.0] * 10, 4, 9.0)
        phi = 4 * max(1.0, 4.0 * 4.0 / 0.5)
        t = 1000
        t2 = int(2 * t + phi)  # so that t2 + phi = 2 (t + phi)
        assert theorem7_bound(*args, t2) == pytest.approx(
            0.5 * theorem7_bound(*args, t), rel=1e-12)


class TestRunExperiment:
    def _cfg(self, **kw):
        base = dict(
            task=TaskSpec(kind="linear", model_dim=6, samples_per_user=40,
                          heterogeneity=1.0, reg_lambda=0.1),
            codec=CodecSpec(family="scalar", rate=1, epsilon=3.0),
            baseline="plain", users=4, tau=2, rounds=40, eta=0.05,
            schedule="fixed", seed=0)
        base.update(kw)
        return FlConfig(**base)

    def test_deterministic_given_seed(self):
        cfg = self._cfg(baseline="jopeq", rounds=15)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert [m.loss_gap for m in a] == [m.loss_gap for m in b]
        assert [m.snr_db for m in a] == [m.snr_db for m in b]

    def test_seed_changes_trajectory(self):
        a = run_experiment(self._cfg(rounds=10, seed=0))
        b = run_experiment(self._cfg(rounds=10, seed=1))
        assert a[-1].loss_gap != b[-1].loss_gap

    def test_plain_decay_converges(self):
        cfg = self._cfg(schedule="decay", rounds=500)
        ms = run_experiment(cfg)
        early = np.mean([m.loss_gap for m in ms[40:60]])
        late = np.mean([m.loss_gap for m in ms[-20:]])
        assert late < early
        assert late < 0.05

    def test_jopeq_beats_separate_snr_at_low_rate(self):
        cfgs = {b: self._cfg(baseline=b, rounds=25)
                for b in ("jopeq", "separate")}
        task = build_task(cfgs["jopeq"].task, 4,
                          cfgs["jopeq"].alpha_vector(), 0)
        xis = calibrate_xi(task, cfgs["jopeq"])
        snrs = {b: np.mean([m.snr_db for m in run_experiment(c, task, xis)])
                for b, c in cfgs.items()}
        assert snrs["jopeq"] > snrs["separate"]

    def test_divergence_detected(self):
        # the oversized step overflows on purpose; silence the warnings
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError):
                run_experiment(self._cfg(eta=50.0, rounds=200))

    def test_unknown_baseline_rejected(self):
        with pytest.raises(ValueError):
            run_experiment(self._cfg(baseline="magic", rounds=2))

    def test_more_users_shrink_noise_floor(self):
        # Fixed-step plain training: the steady-state gap scales like the
        # SGD noise divided by the number of users; quadrupling K should
        # shrink it to roughly a quarter.
        gaps = {}
        for users in (10, 40):
            cfg = self._cfg(users=users, rounds=400, tau=1, eta=0.05,
                            task=TaskSpec(kind="linear", model_dim=6,
                                          samples_per_user=40,
                                          heterogeneity=0.0,
                                          reg_lambda=0.1))
            ms = run_experiment(cfg)
            gaps[users] = float(np.mean([m.loss_gap for m in ms[-100:]]))
        assert gaps[40] == pytest.approx(gaps[10] / 4.0, rel=0.3)
