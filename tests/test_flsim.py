"""Federated simulator: tasks, local SGD, aggregation, and the bounds."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from jopeq import flsim
from jopeq.codec import decode, encode, scale_rows
from jopeq.dither import SharedRandomness, dither_block
from jopeq.flsim import (BASELINES, CodecSpec, DivergenceError, FlConfig,
                         TaskSpec, build_task, calibrate_xi, fedavg_round,
                         heterogeneity_gap, local_sgd, run_experiment,
                         theorem6_bound, theorem7_bound, uplink)
from jopeq.privacy import build_ppn_sampler, mechanism_reference_sample
from stream_layout import SGD_TAG, layout_stream

# Independently computed value of the convergence bound at
# (sigma2=2, psi=0.3, rho_s=4, rho_c=0.5, alphas=0.1 x10, xis=2 x10,
# tau=4, ||w0-w*||^2=9, t=100).
THM7_REFERENCE = 53.08179824561404


def _small_task(kind="linear", heterogeneity=1.0, users=4, seed=0,
                samples=60, dim=6):
    spec = TaskSpec(kind=kind, model_dim=dim, samples_per_user=samples,
                    heterogeneity=heterogeneity, reg_lambda=0.1)
    alphas = np.full(users, 1.0 / users)
    return build_task(spec, users, alphas, seed)


def _user_grad(task, k, w):
    """User k's full gradient: the mean of the per-sample SGD gradients."""
    return np.mean([task.sample_grad(k, w, i)
                    for i in range(len(task.ys[k]))], axis=0)


def _sample_grad_alone(task, k, w, i):
    """One user's stochastic gradient from 1-D arrays: the reference."""
    lam = task.spec.reg_lambda
    xi, yi = task.xs[k][i], task.ys[k][i]
    if task.spec.kind == "linear":
        return (xi @ w - yi) * xi + lam * w
    p = 1.0 / (1.0 + math.exp(-float(xi @ w)))
    return (p - yi) * xi + lam * w


def _local_sgd_alone(task, k, w, eta_fn, t_start, picks, best=None):
    """
    One user's SGD steps, one per pick, from 1-D arrays: the reference
    for the stacked `local_sgd`. best[k], if given, is raised to the
    largest gradient norm.
    """
    wk = w.copy()
    for j, i in enumerate(picks):
        g = _sample_grad_alone(task, k, wk, int(i))
        if best is not None:
            best[k] = max(best[k], float(np.linalg.norm(g)))
        wk -= eta_fn(t_start + j) * g
    return wk - w


def _layout_picks(cfg, task):
    """
    A run's local-SGD picks, (users, rounds, tau), read from each user's
    layout stream (round 0 under the SGD tag) in one sized call.
    """
    return np.stack([
        layout_stream(cfg.seed, k, 0, SGD_TAG).integers(
            0, task.ys.shape[1], size=(cfg.rounds, cfg.tau))
        for k in range(task.users)])


def _fedavg_alone(w, updates, alphas):
    """w + sum_k alpha_k h_k added one user at a time: the reference."""
    out = w.copy()
    for a, h in zip(alphas, updates):
        out = out + a * h
    return out


def _calibrate_xi_alone(task, cfg):
    """calibrate_xi as a loop over users and steps: the reference."""
    eta_fn = flsim._eta_fn(cfg, task)
    picks = _layout_picks(cfg, task)
    w = np.zeros(task.model_dim)
    best = np.zeros(task.users)
    for r in range(cfg.rounds):
        hs = [_local_sgd_alone(task, k, w, eta_fn, r * cfg.tau, picks[k, r],
                               best)
              for k in range(task.users)]
        w = _fedavg_alone(w, hs, task.alphas)
    return 1.1 * best


class TestTask:
    @pytest.mark.parametrize("kind", ["linear", "logistic"])
    def test_user_grad_matches_finite_differences(self, kind):
        task = _small_task(kind=kind)
        rng = np.random.default_rng(1)
        w = rng.normal(0.0, 0.5, task.model_dim)
        g = _user_grad(task, 2, w)
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
        grad = sum(a * _user_grad(task, k, task.w_opt)
                   for k, a in enumerate(task.alphas))
        assert np.linalg.norm(grad) < 1e-5

    def test_loss_is_alpha_mixture(self):
        # Bit for bit: the stacked product and the user-order sum give
        # each term exactly as user_loss does. At d = 10 a flattened
        # (K n, d) @ w product rounds differently, and with 2 samples per
        # user that often reaches the loss.
        for kind, users, samples in itertools.product(
                ("linear", "logistic"), (1, 10), (2, 50)):
            task = _small_task(kind=kind, users=users, samples=samples,
                               dim=10)
            for seed in range(20):
                w = np.random.default_rng([2, seed]).normal(
                    size=task.model_dim)
                mix = sum(a * task.user_loss(k, w)
                          for k, a in enumerate(task.alphas))
                assert task.loss(w) == mix, (kind, users, samples, seed)

    @pytest.mark.parametrize("users", [8, 9, 40])
    def test_loss_adds_users_in_order(self, users):
        # With 8 or more users np.sum would add the terms pairwise, which
        # differs from the user-order sum on some of these draws.
        task = _small_task(users=users, samples=3, dim=1)
        task.alphas = np.random.default_rng(users).random(users)
        pairwise = 0
        for seed in range(40):
            w = np.random.default_rng([7, seed]).normal(0.0, 5.0, 1)
            terms = [a * task.user_loss(k, w)
                     for k, a in enumerate(task.alphas)]
            assert task.loss(w) == sum(terms), seed
            pairwise += float(np.sum(terms)) != sum(terms)
        assert pairwise > 0

    def test_data_is_stacked(self):
        task = _small_task(users=3, samples=20)
        assert task.xs.shape == (3, 20, task.model_dim)
        assert task.ys.shape == (3, 20)
        assert task.users == 3

    @pytest.mark.parametrize("alphas", [2, 4])
    def test_mismatched_weights_rejected(self, alphas):
        spec = TaskSpec(model_dim=6, samples_per_user=20)
        with pytest.raises(ValueError, match="3 users"):
            build_task(spec, 3, np.full(alphas, 1.0 / alphas), 0)

    def test_curvature_ordering(self):
        task = _small_task()
        assert task.rho_s >= task.rho_c > 0.0

    @pytest.mark.parametrize("kind", ["linear", "logistic"])
    def test_fewer_samples_than_dimensions(self, kind):
        # With n < d the constants come from the n x n Gram x x^T / n.
        spec = TaskSpec(kind=kind, model_dim=40, samples_per_user=12,
                        reg_lambda=0.1)
        task = build_task(spec, 3, np.full(3, 1.0 / 3), 4)
        smax = max(float(np.linalg.eigvalsh(x.T @ x / len(x))[-1])
                   for x in task.xs)
        lam = spec.reg_lambda
        if kind == "linear":
            assert task.rho_s == pytest.approx(smax + lam, rel=1e-10)
            assert task.rho_c == lam
        else:
            assert task.rho_s == pytest.approx(smax / 4.0 + lam, rel=1e-10)


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
        grad = _user_grad(task, k, wk)
        assert np.linalg.norm(grad) < 1e-10


class TestLocalSgd:
    def test_zero_step_size_gives_zero_update(self):
        task = _small_task()
        w = np.random.default_rng(3).normal(size=task.model_dim)
        h = local_sgd(task, 0, w, lambda t: 0.0, 0, [5, 0, 59, 5])
        assert np.array_equal(h, np.zeros(task.model_dim))

    def test_single_step_is_one_gradient(self):
        task = _small_task()
        w = np.random.default_rng(5).normal(size=task.model_dim)
        h = local_sgd(task, 1, w, lambda t: 0.1, 0, [17])
        assert np.allclose(h, -0.1 * task.sample_grad(1, w, 17))

    def test_does_not_mutate_input(self):
        task = _small_task()
        w = np.ones(task.model_dim)
        local_sgd(task, 0, w, lambda t: 0.05, 0, [1, 2, 3])
        local_sgd(task, [0, 1], w, lambda t: 0.05, 0, [[1, 2, 3], [4, 5, 6]])
        assert np.array_equal(w, np.ones(task.model_dim))

    @pytest.mark.parametrize("users", [1, 10])
    @pytest.mark.parametrize("tau", [1, 4])
    @pytest.mark.parametrize("kind", ["linear", "logistic"])
    def test_stacked_equals_users_alone(self, kind, tau, users):
        task = _small_task(kind=kind, users=users, samples=50, dim=10)
        eta_fn = lambda t: 0.3 / (1.0 + t)  # noqa: E731
        for r in range(10):
            w = np.random.default_rng([9, r]).normal(size=task.model_dim)
            picks = np.random.default_rng([r]).integers(0, 50, (users, tau))
            got = local_sgd(task, range(users), w, eta_fn, r * tau, picks)
            assert got.shape == (users, task.model_dim)
            solo = [local_sgd(task, k, w, eta_fn, r * tau, picks[k])
                    for k in range(users)]
            alone = [_local_sgd_alone(task, k, w, eta_fn, r * tau, picks[k])
                     for k in range(users)]
            assert np.array_equal(got, np.stack(solo))
            assert np.array_equal(got, np.stack(alone))

    def test_pick_rows_must_match_users(self):
        task = _small_task()
        w = np.zeros(task.model_dim)
        for users, picks in (([0, 1, 2], [[1, 2]]), ([0, 1], [1, 2]),
                             (0, [[1, 2]]), (0, 1)):
            with pytest.raises(ValueError):
                local_sgd(task, users, w, lambda t: 0.1, 0, picks)

    @pytest.mark.parametrize("n", [2, 3, 50, 2 ** 31 - 1, 2 ** 32,
                                   2 ** 32 + 1, 2 ** 40])
    def test_sized_picks_equal_scalar_picks(self, n):
        # A run draws each user's picks in one sized call; they are the
        # picks of scalar calls, round by round, on the user's stream, so
        # a shorter run's picks are a prefix of a longer run's.
        for seed in range(50):
            for tau in (1, 4, 7):
                sized = flsim._sgd_picks(seed, 2, 3, tau, n)
                assert sized.shape == (2, 3, tau)
                for k in range(2):
                    rng = layout_stream(seed, k, 0, SGD_TAG)
                    scalar = [int(rng.integers(0, n)) for _ in range(3 * tau)]
                    assert sized[k].ravel().tolist() == scalar


class TestCalibrateXi:
    @pytest.mark.parametrize("schedule", ["fixed", "decay"])
    @pytest.mark.parametrize("kind", ["linear", "logistic"])
    def test_equals_users_alone(self, kind, schedule):
        cfg = FlConfig(task=TaskSpec(kind=kind, model_dim=6,
                                     samples_per_user=40),
                       users=5, tau=3, rounds=20, schedule=schedule, seed=2)
        task = build_task(cfg.task, cfg.users, cfg.alpha_vector(), cfg.seed)
        assert np.array_equal(calibrate_xi(task, cfg),
                              _calibrate_xi_alone(task, cfg))


def test_no_generator_seeded_per_round(monkeypatch):
    # calibrate_xi and run_experiment draw their local-SGD picks once per
    # run: the seedings they make do not grow with the rounds.
    counts = {}
    for name in ("default_rng", "SeedSequence"):
        real = getattr(np.random, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.random, name, counting)

    def seedings(rounds):
        counts.update(default_rng=0, SeedSequence=0)
        cfg = FlConfig(task=TaskSpec(model_dim=4, samples_per_user=20),
                       users=3, tau=2, rounds=rounds, seed=5)
        task = build_task(cfg.task, cfg.users, cfg.alpha_vector(), cfg.seed)
        run_experiment(cfg, task, calibrate_xi(task, cfg))
        return dict(counts)

    few = seedings(5)
    assert few["default_rng"] >= 1  # build_task's seedings are counted
    assert seedings(50) == few


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

    @pytest.mark.parametrize("d,k", [(1, 8), (1, 9), (1, 40), (1, 1),
                                     (2, 8), (10, 10), (10, 40)])
    def test_adds_users_in_order(self, d, k):
        # Bit for bit the one-user-at-a-time sum, with updates given as a
        # (K, d) array or a list; at d = 1 and K >= 8 a pairwise sum
        # differs from it on some of these draws.
        rng = np.random.default_rng([d, k])
        pairwise = 0
        for _ in range(40):
            w = rng.normal(0.0, 1.0, d)
            hs = rng.normal(0.0, 1.0, (k, d)) * 10.0 ** rng.uniform(
                -8.0, 8.0, (k, 1))
            alphas = rng.random(k)
            want = _fedavg_alone(w, hs, alphas)
            for updates in (hs, list(hs)):
                assert (fedavg_round(w, updates, alphas).tobytes()
                        == want.tobytes())
            terms = np.concatenate([w[None], alphas[:, None] * hs])
            pairwise += np.sum(terms, axis=0).tobytes() != want.tobytes()
        if d == 1 and k >= 8:
            assert pairwise > 0

    @pytest.mark.parametrize("updates", [[], np.empty((0, 3))],
                             ids=["list", "array"])
    def test_no_updates_give_a_copy_of_w(self, updates):
        w = np.array([1.0, -2.0, 0.5])
        out = fedavg_round(w, updates, [])
        assert np.array_equal(out, w) and not np.shares_memory(out, w)


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


class TestSupportRule:
    @pytest.mark.parametrize("family", ["square", "hexagonal"])
    def test_laplace_2d_builds(self, family):
        # gamma = 1.5 (1 + 2 b^2) with b = 2/3; a small table builds.
        lat, spec = CodecSpec(family, epsilon=3.0,
                              mechanism="laplace").build()
        assert lat.support_radius == pytest.approx(1.5 * (1.0 + 8.0 / 9.0))
        samp = build_ppn_sampler(spec, lat, grid_points=128, refine_iters=30)
        assert not samp.degenerate
        assert np.isfinite(samp.validity["conv_residual"])

    def test_t_2d_rule_unchanged(self):
        lat, spec = CodecSpec("square", rate=4, epsilon=3.0, mechanism="t",
                              nu=5.0).build()
        assert lat.support_radius == 1.5 * (
            1.0 + spec.s2 * spec.nu / (spec.nu - 2.0))


def _uplink_alone(baseline, h, lat, spec, sampler, sr, noise_key,
                  noise_seed):
    """
    One update through a baseline's uplink, as the simulator sent them one
    user at a time: the reference for the batched `uplink`. A zero update
    gets the unit scale of the zero-point sentinel.
    """
    if baseline == "plain":
        return h, 0
    if baseline in ("ppn", "separate"):
        m = -(-len(h) // lat.dimension)
        zeta = scale_rows(h[None], m)[0]
        noise = mechanism_reference_sample(spec, m,
                                           np.random.default_rng(noise_key))
        h = h + noise.reshape(-1)[:len(h)] / zeta
        if baseline == "ppn":
            return h, 0
    enc = encode(h, lat, sampler if baseline == "jopeq" else None, sr,
                 noise_seed=noise_seed)
    return decode(enc, lat, sr), enc.overloads


def _rounds_one_user_at_a_time(cfg, task, xis):
    """
    run_experiment's round loop with each user's update sent alone through
    `_uplink_alone` and the SNR averaged user by user: the reference for
    the batched round. Returns (loss_gap, snr_db, weights_distortion,
    overloads) per round.
    """
    eta_fn = flsim._eta_fn(cfg, task)
    lat, spec = cfg.codec.build()
    sampler = (build_ppn_sampler(spec, lat, allow_degenerate=True)
               if cfg.baseline == "jopeq" else None)
    picks = _layout_picks(cfg, task)
    w = np.zeros(task.model_dim)
    out = []
    for r in range(cfg.rounds):
        hs, hts, ovs = [], [], 0
        for k in range(task.users):
            h = local_sgd(task, k, w, eta_fn, r * cfg.tau, picks[k, r])
            ht, ov = _uplink_alone(
                cfg.baseline, h, lat, spec, sampler,
                SharedRandomness(seed=cfg.seed, user=k, round_index=r),
                [cfg.seed, flsim._TAG_PPN_ONLY, k, r], cfg.seed + 1)
            hs.append(h)
            hts.append(ht)
            ovs += ov
        w_true, w_next = w.copy(), w.copy()
        for a, h, ht in zip(task.alphas, hs, hts):
            w_true = w_true + a * h
            w_next = w_next + a * ht
        snr_db = float("inf")
        if cfg.baseline != "plain":
            snr_db = _snr_user_by_user(hs, hts)
        out.append((task.loss(w_next) - task.f_opt, snr_db,
                    float(np.sum((w_next - w_true) ** 2)), ovs))
        w = w_next
    return out


def _snr_user_by_user(hs, hts):
    ratios = []
    for h, ht in zip(hs, hts):
        dv = float(np.var(h - ht))
        if dv == 0.0:
            return float("inf")
        ratios.append(float(np.var(h)) / dv)
    return 10.0 * math.log10(float(np.mean(ratios)))


def _codec(family):
    """A small codec of each family with its PPN sampler."""
    if family == "scalar":
        cspec = CodecSpec(rate=3)
    else:
        cspec = CodecSpec(family, rate=3, epsilon=3.0, mechanism="t")
    lat, spec = cspec.build()
    return lat, spec, build_ppn_sampler(spec, lat, allow_degenerate=True,
                                        grid_points=64, refine_iters=5)


class TestUplink:
    H = np.random.default_rng(8).normal(0.0, 1.0, (3, 501))
    SRS = [SharedRandomness(seed=3, user=k, round_index=2) for k in range(3)]
    KEYS = [[3, 9, k] for k in range(3)]

    def _send(self, baseline, h=None, cspec=CodecSpec(rate=3), sampler=None):
        lat, spec = cspec.build()
        return uplink(baseline, self.H if h is None else h, lat, spec,
                      sampler, self.SRS, self.KEYS, 4)

    def test_plain_is_identity(self):
        ht, ov = self._send("plain")
        assert np.array_equal(ht, self.H) and ov == 0

    def test_separate_is_sdq_of_ppn(self):
        noisy, ov = self._send("ppn")
        assert ov == 0 and not np.array_equal(noisy, self.H)
        want = self._send("sdq", h=noisy)
        got = self._send("separate")
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]

    def test_jopeq_with_degenerate_sampler_is_sdq(self):
        # gamma eps / 2^R = 1.5 sqrt(24): the cell noise alone exceeds
        # the target, so the PPN sampler draws zeros.
        cspec = CodecSpec(rate=2, epsilon=4.0, gamma=1.5 * np.sqrt(24.0))
        lat, spec = cspec.build()
        samp = build_ppn_sampler(spec, lat, allow_degenerate=True)
        assert samp.degenerate
        got = self._send("jopeq", cspec=cspec, sampler=samp)
        want = self._send("sdq", cspec=cspec)
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]

    def test_unknown_baseline_rejected(self):
        with pytest.raises(ValueError):
            self._send("magic")

    @pytest.mark.parametrize("users", [1, 4])
    @pytest.mark.parametrize("family", ["scalar", "square", "hexagonal"])
    @pytest.mark.parametrize("baseline", BASELINES)
    def test_batch_equals_rows_sent_alone(self, baseline, family, users):
        lat, spec, samp = _codec(family)
        # d = 1 gives one sub-vector per row; 9 pads the 2-D rows.
        for d in (1, 9):
            hs = np.random.default_rng([users, d]).normal(0.0, 1.0,
                                                          (users, d))
            srs = [SharedRandomness(seed=5, user=k, round_index=d)
                   for k in range(users)]
            keys = [[5, k, d] for k in range(users)]
            hts, ovs = uplink(baseline, hs, lat, spec, samp, srs, keys, 6)
            assert hts.shape == hs.shape
            alone = [_uplink_alone(baseline, h, lat, spec, samp, sr, key, 6)
                     for h, sr, key in zip(hs, srs, keys)]
            for ht, (want, _) in zip(hts, alone):
                assert np.array_equal(ht, want)
            assert ovs == sum(ov for _, ov in alone)

    @pytest.mark.parametrize("baseline", BASELINES)
    def test_zero_row_in_batch(self, baseline):
        # A user whose update is exactly zero (e.g. a zero step size) is
        # sent at the zero-point sentinel's unit scale; the round goes on.
        lat, spec, samp = _codec("scalar")
        hs = self.H.copy()
        hs[1] = 0.0
        hts, ovs = uplink(baseline, hs, lat, spec, samp, self.SRS,
                          self.KEYS, 4)
        alone = [_uplink_alone(baseline, h, lat, spec, samp, sr, key, 4)
                 for h, sr, key in zip(hs, self.SRS, self.KEYS)]
        for ht, (want, _) in zip(hts, alone):
            assert np.array_equal(ht, want)
        assert ovs == sum(ov for _, ov in alone)
        if baseline == "ppn":
            noise = mechanism_reference_sample(
                spec, hs.shape[1], np.random.default_rng(self.KEYS[1]))
            assert np.array_equal(hts[1], noise[:, 0])
        if baseline in ("sdq", "jopeq"):
            # The sentinel names the zero point, so the decoder is left
            # with minus the dither, also under the PPN.
            dith = dither_block(self.SRS[1], lat, hs.shape[1])
            assert np.array_equal(hts[1], -dith[:, 0])


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

    @pytest.mark.parametrize("baseline", BASELINES)
    def test_matches_one_user_at_a_time(self, baseline):
        cfg = self._cfg(baseline=baseline, rounds=15)
        task = build_task(cfg.task, cfg.users, cfg.alpha_vector(), cfg.seed)
        xis = calibrate_xi(task, cfg)
        got = [(m.loss_gap, m.snr_db, m.weights_distortion, m.overloads)
               for m in run_experiment(cfg, task, xis)]
        assert got == _rounds_one_user_at_a_time(cfg, task, xis)

    def test_shorter_run_is_prefix(self):
        # The bounds take xi from the whole run, so only they may differ.
        cfg = self._cfg(baseline="jopeq", rounds=20)
        long = run_experiment(cfg)
        short = run_experiment(replace(cfg, rounds=7))
        assert ([(m.loss_gap, m.snr_db, m.weights_distortion, m.overloads)
                 for m in short] ==
                [(m.loss_gap, m.snr_db, m.weights_distortion, m.overloads)
                 for m in long[:7]])

    @pytest.mark.parametrize("floor", [None, "calibrated", "large"])
    @pytest.mark.parametrize("baseline", ["plain", "ppn", "jopeq"])
    def test_bounds_use_xi_of_their_run(self, baseline, floor, monkeypatch):
        # Theorems 6 and 7 assume ||g|| <= xi_k for every stochastic
        # gradient of user k in the run they bound; xis is only a floor.
        cfg = self._cfg(baseline=baseline, rounds=30, schedule="decay")
        task = build_task(cfg.task, cfg.users, cfg.alpha_vector(), cfg.seed)
        xis = {None: None, "calibrated": calibrate_xi(task, cfg),
               "large": np.full(cfg.users, 1e3)}[floor]
        seen = np.zeros(cfg.users)
        used = []
        real_grad = flsim.Task.sample_grad

        def grad(self, k, w, i):
            g = real_grad(self, k, w, i)
            np.maximum.at(seen, k, np.linalg.norm(g, axis=-1))
            return g

        def bound(real, at):  # xis is positional argument `at`
            def wrapped(*args):
                used.append(np.array(args[at]))
                return real(*args)
            return wrapped

        monkeypatch.setattr(flsim.Task, "sample_grad", grad)
        monkeypatch.setattr(flsim, "theorem6_bound", bound(theorem6_bound, 3))
        monkeypatch.setattr(flsim, "theorem7_bound", bound(theorem7_bound, 5))
        run_experiment(cfg, task, xis)
        assert len(used) == 2 * cfg.rounds and np.all(seen > 0.0)
        want = 1.1 * seen if xis is None else np.maximum(xis, 1.1 * seen)
        for xi in used:
            assert np.all(seen <= xi)
            assert np.allclose(xi, want, rtol=1e-12, atol=0.0)

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

    def test_logistic_divergence_detected(self):
        # The margins fall below -709, where exp(-margin) overflows: the
        # sigmoid takes its limit 0 and the run ends in DivergenceError.
        cfg = FlConfig(task=TaskSpec(kind="logistic", model_dim=6,
                                     samples_per_user=40),
                       users=4, tau=2, rounds=200, eta=50.0,
                       baseline="plain")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError):
                run_experiment(cfg)

    def test_sigmoid_limit_where_exp_overflows(self):
        task = build_task(TaskSpec(kind="logistic", model_dim=2,
                                   samples_per_user=3), 1, np.ones(1), 0)
        x = task.xs[0, 0]
        w = -1000.0 * x / (x @ x)  # margin about -1000: exp(1000) overflows
        grad = task.sample_grad(0, w, 0)
        lam = task.spec.reg_lambda
        assert np.array_equal(grad, (0.0 - task.ys[0, 0]) * x + lam * w)

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
