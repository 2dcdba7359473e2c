"""Federated simulator: tasks, local SGD, aggregation, and the bounds."""

import itertools
import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jopeq import codec, flsim, lattice
from jopeq.codec import decode, encode, scale_rows
from jopeq.dither import SharedRandomness, dither_block
from jopeq.flsim import (BASELINES, CODING, PPN_CODING, PRIVATIZING,
                         CodecSpec, DivergenceError, FlConfig, TaskSpec,
                         build_task, calibrate_xi, fedavg_round,
                         heterogeneity_gap, local_sgd, run_experiment,
                         theorem6_bound, theorem7_bound, uplink)
from jopeq.privacy import build_ppn_sampler, mechanism_reference_sample
from stream_layout import SGD_TAG, layout_stream, small_blocks

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
    return np.mean([_sample_grad_alone(task, k, w, i)
                    for i in range(len(task.ys[k]))], axis=0)


def _sample_grad_alone(task, k, w, i):
    """One user's stochastic gradient from 1-D arrays: the reference."""
    lam = task.spec.reg_lambda
    xi, yi = task.xs[k][i], task.ys[k][i]
    if task.spec.kind == "linear":
        return (xi @ w - yi) * xi + lam * w
    p = 1.0 / (1.0 + math.exp(-float(xi @ w)))
    return (p - yi) * xi + lam * w


def _gather(task, picks):
    """
    The samples of users 0, ..., K-1 at their (K, tau) picks, as the
    (tau, K, d) features and (tau, K) labels `local_sgd` steps on.
    """
    rows = np.asarray(picks).T
    users = np.arange(rows.shape[1])
    return task.xs[users, rows], task.ys[users, rows]


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


def _eta_alone(cfg, task):
    """
    The step size at local iteration t, one Python float at a time: the
    reference for `flsim._step_sizes`.
    """
    if cfg.schedule == "fixed":
        return lambda t: cfg.eta
    phi = cfg.tau * max(1.0, 4.0 * task.rho_s / task.rho_c)
    return lambda t: cfg.tau / (task.rho_c * (t + phi))


def _calibrate_xi_alone(task, cfg):
    """calibrate_xi as a loop over users and steps: the reference."""
    eta_fn = _eta_alone(cfg, task)
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
        picks = [[5, 0, 59, 5]] * task.users
        h = local_sgd(task, *_gather(task, picks), w, [0.0] * 4)
        assert np.array_equal(h, np.zeros((task.users, task.model_dim)))

    def test_single_step_is_one_gradient(self):
        task = _small_task()
        w = np.random.default_rng(5).normal(size=task.model_dim)
        h = local_sgd(task, *_gather(task, [[17]] * task.users), w, [0.1])
        for k in range(task.users):
            assert np.allclose(h[k], -0.1 * _sample_grad_alone(task, k, w, 17))

    def test_does_not_mutate_input(self):
        task = _small_task()
        w = np.ones(task.model_dim)
        xs, ys = _gather(task, [[1, 2, 3], [4, 5, 6], [7, 8, 9], [1, 1, 1]])
        xs0, ys0 = xs.copy(), ys.copy()
        local_sgd(task, xs, ys, w, [0.05] * 3, np.zeros(task.users))
        assert np.array_equal(w, np.ones(task.model_dim))
        assert np.array_equal(xs, xs0) and np.array_equal(ys, ys0)

    @pytest.mark.parametrize("users", [1, 10])
    @pytest.mark.parametrize("tau", [1, 4])
    @pytest.mark.parametrize("kind", ["linear", "logistic"])
    def test_stacked_equals_users_alone(self, kind, tau, users):
        # Each row, and each row's largest gradient norm, is bit for bit
        # that user's SGD stepped alone on 1-D arrays.
        task = _small_task(kind=kind, users=users, samples=50, dim=10)
        eta_fn = lambda t: 0.3 / (1.0 + t)  # noqa: E731
        norms, want = np.zeros(users), np.zeros(users)
        for r in range(10):
            w = np.random.default_rng([9, r]).normal(size=task.model_dim)
            picks = np.random.default_rng([r]).integers(0, 50, (users, tau))
            etas = [eta_fn(r * tau + j) for j in range(tau)]
            got = local_sgd(task, *_gather(task, picks), w, etas, norms)
            assert got.shape == (users, task.model_dim)
            alone = [_local_sgd_alone(task, k, w, eta_fn, r * tau, picks[k],
                                      want)
                     for k in range(users)]
            assert np.array_equal(got, np.stack(alone))
            assert np.array_equal(norms, want)
        assert np.all(norms > 0.0)

    @pytest.mark.parametrize("users", [1, 10])
    @pytest.mark.parametrize("tau", [1, 4])
    @pytest.mark.parametrize("kind", ["linear", "logistic"])
    def test_gathered_steps_equal_local_sgd(self, kind, tau, users):
        # A run's rounds, gathered at once by `_picked_samples`, are each
        # round's samples, in C-contiguous (K, d) slabs, and local_sgd
        # steps them as it steps users alone.
        task = _small_task(kind=kind, users=users, samples=50, dim=10)
        eta_fn = lambda t: 0.3 / (1.0 + t)  # noqa: E731
        picks = np.random.default_rng([users, tau]).integers(
            0, 50, (users, 6, tau))
        for r, (xs, ys) in enumerate(flsim._picked_samples(task, picks)):
            assert xs.shape == (tau, users, task.model_dim)
            assert ys.shape == (tau, users) and xs[0].flags.c_contiguous
            want_xs, want_ys = _gather(task, picks[:, r])
            assert np.array_equal(xs, want_xs) and np.array_equal(ys, want_ys)
            w = np.random.default_rng([7, r]).normal(size=task.model_dim)
            etas = [eta_fn(r * tau + j) for j in range(tau)]
            alone = [_local_sgd_alone(task, k, w, eta_fn, r * tau,
                                      picks[k, r])
                     for k in range(users)]
            assert np.array_equal(local_sgd(task, xs, ys, w, etas),
                                  np.stack(alone))
        assert r == 5

    @pytest.mark.parametrize("kind", ["linear", "logistic"])
    def test_nan_gradient_keeps_the_old_norm(self, kind):
        # User 1's second pick has a NaN feature: from that step on its
        # gradients are NaN, and its largest norm stays the first step's.
        task = _small_task(kind=kind, users=3, samples=20, dim=4)
        task.xs = task.xs.copy()
        task.xs[1, 7, 2] = np.nan
        w = np.full(task.model_dim, 0.1)
        picks = np.array([[1, 2, 3, 4], [2, 7, 3, 5], [7, 6, 5, 4]])
        norms, want = np.zeros(3), np.zeros(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = local_sgd(task, *_gather(task, picks), w, [0.1] * 4,
                            grad_norms=norms)
        alone = [_local_sgd_alone(task, k, w, lambda t: 0.1, 0, picks[k],
                                  want)
                 for k in range(3)]
        assert np.array_equal(got, np.stack(alone), equal_nan=True)
        assert np.all(np.isnan(got[1])) and np.all(np.isfinite(got[[0, 2]]))
        first = _sample_grad_alone(task, 1, w, 2)
        assert norms[1] == math.sqrt(first @ first)
        assert np.array_equal(norms, want)

    @pytest.mark.parametrize("steps", [0, 1, 3, 5])
    def test_wrong_number_of_step_sizes_rejected(self, steps):
        task = _small_task()
        xs, ys = _gather(task, [[1, 2, 3, 4]] * task.users)
        with pytest.raises(ValueError, match=f"{steps} step sizes for 4"):
            local_sgd(task, xs, ys, np.zeros(task.model_dim),
                      [0.1] * steps, np.zeros(task.users))

    def test_runs_step_through_local_sgd(self, monkeypatch):
        # run_experiment and calibrate_xi take each round's local SGD from
        # flsim.local_sgd by name, the one local-SGD function.
        calls = []
        real = flsim.local_sgd

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(flsim, "local_sgd", counting)
        cfg = FlConfig(task=TaskSpec(model_dim=4, samples_per_user=10),
                       users=3, rounds=3, baseline="sdq")
        run_experiment(cfg)
        assert len(calls) == 3
        task = build_task(cfg.task, cfg.users, cfg.alpha_vector(), cfg.seed)
        calibrate_xi(task, cfg)
        assert len(calls) == 6 and all(t is task for t in calls[3:])

    @pytest.mark.parametrize("baseline", ["sdq", "separate", "jopeq"])
    def test_code_stage_quantizes_through_quantize_clipped(self, baseline,
                                                           monkeypatch):
        # A run's code stage quantizes each round in one call of
        # lattice.quantize_clipped, looked up by name wherever the package
        # binds it; the benchmark's tracer counts its calls there.
        calls = []
        real = lattice.quantize_clipped

        def counting(lat, x, **kwargs):
            calls.append(len(x))
            return real(lat, x, **kwargs)

        for name, module in list(sys.modules.items()):
            if (name.split(".")[0] == "jopeq"
                    and getattr(module, "quantize_clipped", None) is real):
                monkeypatch.setattr(module, "quantize_clipped", counting)
        cfg = FlConfig(task=TaskSpec(model_dim=5, samples_per_user=10),
                       users=3, rounds=4, baseline=baseline)
        run_experiment(cfg)
        assert calls == [cfg.users * cfg.task.model_dim] * cfg.rounds

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


class TestStepSizes:
    @pytest.mark.parametrize("kind", ["linear", "logistic"])
    @pytest.mark.parametrize("schedule", ["fixed", "decay"])
    @pytest.mark.parametrize("tau", [1, 4])
    def test_equal_per_step_floats(self, kind, schedule, tau):
        # The vectorized schedule is bit for bit the Python float of each
        # local iteration.
        task = _small_task(kind=kind, samples=20, dim=6)
        cfg = FlConfig(task=task.spec, users=task.users, tau=tau,
                       rounds=300, schedule=schedule)
        eta_fn = _eta_alone(cfg, task)
        got = flsim._step_sizes(cfg, task)
        assert got.shape == (cfg.rounds, tau)
        assert got.ravel().tolist() == [eta_fn(t)
                                        for t in range(cfg.rounds * tau)]

    def test_decay_is_the_theorem7_schedule(self):
        # theorem7_bound's phi is the schedule's: at t = 0, with sigma2,
        # psi, xi and the distance to w* zero, the bound is
        # rho_s rho_c / (2 tau phi) = rho_s rho_c^2 eta_0 / (2 tau^2).
        task = _small_task()
        cfg = FlConfig(task=task.spec, users=task.users, tau=3, rounds=2,
                       schedule="decay")
        eta0 = flsim._step_sizes(cfg, task)[0, 0]
        bound = theorem7_bound(0.0, 0.0, task.rho_s, task.rho_c,
                               task.alphas, np.zeros(task.users), cfg.tau,
                               0.0, 0)
        assert bound == pytest.approx(
            task.rho_s * task.rho_c ** 2 * eta0 / (2.0 * cfg.tau ** 2),
            rel=1e-12)


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

    @settings(deadline=None, max_examples=80)
    @given(c=st.integers(0, 5), k=st.integers(0, 40), d=st.integers(1, 6),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(c=4, k=8, d=1, seed=0)
    @example(c=3, k=40, d=1, seed=1)
    def test_stack_equals_calls_one_by_one(self, c, k, d, seed):
        # Bit for bit; at d = 1 and K >= 8 a pairwise sum over the users
        # would differ from the sum in user order.
        rng = np.random.default_rng(seed)
        ws = rng.normal(0.0, 1.0, (c, d))
        hs = rng.normal(0.0, 1.0, (c, k, d)) * 10.0 ** rng.uniform(
            -8.0, 8.0, (c, k, 1))
        alphas = rng.random(k)
        got = fedavg_round(ws, hs, alphas)
        assert got.shape == (c, d)
        for w, h, row in zip(ws, hs, got):
            assert row.tobytes() == fedavg_round(w, h, alphas).tobytes()

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

    @settings(deadline=None, max_examples=80)
    @given(rows=st.integers(0, 6), tau=st.integers(1, 6),
           users=st.integers(1, 12), sigma2=st.floats(0.0, 10.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_arrays_equal_scalar_calls(self, rows, tau, users, sigma2, seed):
        rng = np.random.default_rng(seed)
        etas = rng.uniform(0.0, 1.0, (rows, tau))
        alphas = rng.dirichlet(np.ones(users))
        xis = rng.uniform(0.0, 5.0, users)
        got = theorem6_bound(sigma2, etas, alphas, xis, tau)
        want = [theorem6_bound(sigma2, e, alphas, xis, tau) for e in etas]
        assert all(type(v) is float for v in want)
        assert got.tobytes() == np.array(want).tobytes()
        rho_c, psi, w0_dist2 = rng.uniform(0.01, 1.0, 3)
        rho_s = rho_c + rng.uniform(0.0, 10.0)
        args = (sigma2, psi, rho_s, rho_c, alphas, xis, tau, w0_dist2)
        ts = rng.integers(0, 10 ** 6, rows)
        got = theorem7_bound(*args, ts)
        want = [theorem7_bound(*args, t) for t in ts.tolist()]
        assert all(type(v) is float for v in want)
        assert got.tobytes() == np.array(want).tobytes()


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


class TestConfigChoices:
    """A named choice outside its list is refused when the config is made."""

    @pytest.mark.parametrize("kind", ["lineer", "Linear", ""])
    def test_unknown_task_kind_rejected(self, kind):
        with pytest.raises(ValueError, match="'linear', 'logistic'"):
            TaskSpec(kind=kind)

    @pytest.mark.parametrize("family", ["sqaure", "hex", "Scalar"])
    def test_unknown_lattice_family_rejected(self, family):
        with pytest.raises(ValueError,
                           match="'scalar', 'square', 'hexagonal'"):
            CodecSpec(family=family)

    @pytest.mark.parametrize("mechanism", ["gaussian", "Laplace", "t3"])
    def test_unknown_mechanism_rejected(self, mechanism):
        with pytest.raises(ValueError, match="'laplace', 't'"):
            CodecSpec(mechanism=mechanism)

    @pytest.mark.parametrize("baseline", ["jopec", "JOPEQ", "dp", ""])
    def test_unknown_baseline_rejected(self, baseline):
        allowed = "'plain', 'sdq', 'ppn', 'separate', 'jopeq'"
        with pytest.raises(ValueError, match=allowed):
            FlConfig(baseline=baseline)
        with pytest.raises(ValueError, match=allowed):
            replace(FlConfig(), baseline=baseline)

    @pytest.mark.parametrize("schedule", ["fixd", "Decay", "constant"])
    def test_unknown_schedule_rejected(self, schedule):
        with pytest.raises(ValueError, match="'fixed', 'decay'"):
            FlConfig(schedule=schedule)
        with pytest.raises(ValueError, match="'fixed', 'decay'"):
            replace(FlConfig(), schedule=schedule)

    @pytest.mark.parametrize("name, value", [
        ("users", 0), ("users", -3), ("tau", 0), ("tau", -1),
        ("rounds", 0), ("rounds", -1), ("eta", -0.05),
        ("eta", float("nan"))])
    def test_value_that_makes_no_run_rejected(self, name, value):
        # Unchecked, 0 users divides by zero, tau 0 runs rounds with no
        # local step, whose bounds read 0 and inf, 0 rounds return no
        # metrics, and -1 rounds fail in numpy without naming the field.
        with pytest.raises(ValueError, match=f"^{name} {value!r} is not"):
            FlConfig(**{name: value})
        with pytest.raises(ValueError, match=f"^{name} {value!r} is not"):
            replace(FlConfig(), **{name: value})

    @pytest.mark.parametrize("name, value", [
        ("model_dim", 0), ("model_dim", -2), ("samples_per_user", 0),
        ("samples_per_user", -1)])
    def test_task_size_that_makes_no_run_rejected(self, name, value):
        # Unchecked, model dimension 0 fails in run_experiment with an
        # IndexError, and 0 samples a user give NaN losses.
        with pytest.raises(ValueError, match=f"^{name} {value!r} is not"):
            FlConfig(task=TaskSpec(**{name: value}))
        with pytest.raises(ValueError, match=f"^{name} {value!r} is not"):
            replace(FlConfig(), task=replace(TaskSpec(), **{name: value}))
        # One is the least size that makes a run.
        run_experiment(FlConfig(task=TaskSpec(**{name: 1}), users=2,
                                rounds=2, baseline="sdq"))

    def test_baselines_and_their_stages(self):
        # The paper's five uplinks in their order, and each one's stages.
        assert BASELINES == ("plain", "sdq", "ppn", "separate", "jopeq")
        assert PRIVATIZING == ("ppn", "separate")
        assert CODING == ("sdq", "separate", "jopeq")
        assert PPN_CODING == ("jopeq",)


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


def _streams(baseline, srs, lat, d, sampler, noise_seed):
    """
    The noise of a baseline's code stage for rows of d coordinates, read
    from their keyed streams: jopeq's with the PPN sampler, the others'
    without.
    """
    return codec._Streams(srs, lat, -(-d // lat.dimension),
                          sampler if baseline in PPN_CODING else None,
                          noise_seed)


def _rounds_one_user_at_a_time(cfg, task, xis):
    """
    run_experiment's round loop with each user's update sent alone through
    `_uplink_alone`, the SNR averaged user by user, and the bounds taken
    round by round from scalar calls with the run's xi: the reference for
    the batched and chunked run. Returns (loss_gap, snr_db,
    weights_distortion, thm6_rhs, thm7_rhs, overloads) per round.
    """
    eta_fn = _eta_alone(cfg, task)
    lat, spec = cfg.codec.build()
    sampler = (build_ppn_sampler(spec, lat, allow_degenerate=True)
               if cfg.baseline == "jopeq" else None)
    picks = _layout_picks(cfg, task)
    w = np.zeros(task.model_dim)
    best = np.zeros(task.users)
    out = []
    for r in range(cfg.rounds):
        hs, hts, ovs = [], [], 0
        for k in range(task.users):
            h = _local_sgd_alone(task, k, w, eta_fn, r * cfg.tau,
                                 picks[k, r], best)
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
    xi = np.maximum(0.0 if xis is None else xis, 1.1 * best)
    # Separate quantizes at a second scale, which the bounds do not cover.
    sigma2 = {"plain": 0.0, "ppn": spec.variance, "jopeq": spec.variance,
              "sdq": lat.dimension * lattice.cell_variance_per_coord(lat),
              "separate": math.nan}[cfg.baseline]
    w0_dist2 = float(np.sum(task.w_opt ** 2))
    bounds = [(theorem6_bound(sigma2, [eta_fn(r * cfg.tau + j)
                                       for j in range(cfg.tau)],
                              task.alphas, xi, cfg.tau),
               theorem7_bound(sigma2, task.psi, task.rho_s, task.rho_c,
                              task.alphas, xi, cfg.tau, w0_dist2,
                              (r + 1) * cfg.tau))
              for r in range(cfg.rounds)]
    return [(gap, snr_db, dist, *bnd, ovs)
            for (gap, snr_db, dist, ovs), bnd in zip(out, bounds)]


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
        h = self.H if h is None else h
        return uplink(baseline, h, lat, spec, self.KEYS,
                      _streams(baseline, self.SRS, lat, h.shape[1], sampler,
                               4))

    def test_plain_is_identity(self):
        ht, ov = self._send("plain")
        assert np.array_equal(ht, self.H) and ov == 0

    def test_separate_is_sdq_of_ppn(self):
        # Three rows of an odd 501 coordinates, so the 2-D rows are padded.
        # The SNR sweep codes separate this way from one ppn output.
        for cspec in (CodecSpec(rate=3),
                      CodecSpec("square", rate=3, epsilon=3.0, mechanism="t"),
                      CodecSpec("hexagonal", rate=3, epsilon=3.0)):
            noisy, ov = self._send("ppn", cspec=cspec)
            assert ov == 0 and not np.array_equal(noisy, self.H)
            want = self._send("sdq", h=noisy, cspec=cspec)
            got = self._send("separate", cspec=cspec)
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
            hts, ovs = uplink(baseline, hs, lat, spec, keys,
                              _streams(baseline, srs, lat, d, samp, 6))
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
        hts, ovs = uplink(baseline, hs, lat, spec, self.KEYS,
                          _streams(baseline, self.SRS, lat, hs.shape[1],
                                   samp, 4))
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

    def test_snr_comes_from_codec_snr(self, monkeypatch):
        # A run takes each chunk's SNRs from codec.snr by name, the one SNR
        # function; here the 3 rounds fit in one chunk.
        shapes = []
        real = codec.snr

        def counting(h, ht):
            shapes.append(np.shape(h))
            return real(h, ht)

        monkeypatch.setattr(codec, "snr", counting)
        ms = run_experiment(self._cfg(baseline="sdq", rounds=3))
        assert shapes == [(3, 4, 6)]
        assert all(math.isfinite(m.snr_db) for m in ms)

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
        for schedule in ("fixed", "decay"):
            cfg = replace(cfg, schedule=schedule)
            got = _metrics(run_experiment(cfg, task, xis))
            assert _same(got, _rounds_one_user_at_a_time(cfg, task, xis))

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
        used, shapes = [], []
        real_grad = flsim.Task._grad

        def grad(self, x, y, w, out=None):
            # Each call takes one local step of every user: row k is user
            # k's stochastic gradient.
            g = real_grad(self, x, y, w, out)
            np.maximum(seen, np.linalg.norm(g, axis=-1), out=seen)
            return g

        def bound(real, at):  # xis is positional argument `at`
            def wrapped(*args):
                used.append(np.array(args[at]))
                out = real(*args)
                shapes.append(np.shape(out))
                return out
            return wrapped

        monkeypatch.setattr(flsim.Task, "_grad", grad)
        monkeypatch.setattr(flsim, "theorem6_bound", bound(theorem6_bound, 3))
        monkeypatch.setattr(flsim, "theorem7_bound", bound(theorem7_bound, 5))
        run_experiment(cfg, task, xis)
        # One call per bound, which bounds every round.
        assert shapes == [(cfg.rounds,)] * 2 and np.all(seen > 0.0)
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
        grad = task._grad(task.xs[0, 0], task.ys[0, 0], w)
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


# 10 users' rows of 2001 coordinates (odd, so 2-D rows are padded) hold
# 20,010 scalar or 20,020 2-D noise coordinates a round, so a chunk of
# codec._BLOCK coordinates holds 3 rounds, and 8 rounds are drawn in
# chunks of 3, 3 and 2. A fixed step diverges at this dimension.
CHUNKED = FlConfig(task=TaskSpec(model_dim=2001), users=10, rounds=8,
                   schedule="decay")


@pytest.fixture(scope="module")
def chunked_task():
    return build_task(CHUNKED.task, CHUNKED.users, CHUNKED.alpha_vector(),
                      CHUNKED.seed)


def _metrics(ms):
    """Every field of a run's RoundMetrics but the round index."""
    return [(m.loss_gap, m.snr_db, m.weights_distortion, m.thm6_rhs,
             m.thm7_rhs, m.overloads) for m in ms]


def _same(got, want):
    """Equal rows of metrics, separate's NaN bounds equal to NaN."""
    return np.array_equal(np.array(got), np.array(want), equal_nan=True)


class TestChunkedNoise:
    """run_experiment draws the dither and PPN a chunk of rounds at a time."""

    @staticmethod
    def _cfg(family, baseline):
        return replace(CHUNKED, baseline=baseline,
                       codec=CodecSpec(family, rate=4, epsilon=3.0))

    @pytest.mark.parametrize("family", ["scalar", "square", "hexagonal"])
    @pytest.mark.parametrize("baseline", ["sdq", "separate", "jopeq"])
    def test_chunks_match_one_user_at_a_time(self, baseline, family,
                                             chunked_task):
        cfg = self._cfg(family, baseline)
        lat, _ = cfg.codec.build()
        m = -(-cfg.task.model_dim // lat.dimension)
        assert codec._BLOCK // (cfg.users * m * lat.dimension) == 3
        got = _metrics(run_experiment(cfg, chunked_task))
        assert _same(got,
                     _rounds_one_user_at_a_time(cfg, chunked_task, None))
        if baseline == "jopeq" and family != "scalar":
            assert sum(ov for *_, ov in got) > 1000  # the overload path

    @pytest.mark.parametrize("block", ["round", 1000])
    @pytest.mark.parametrize("family", ["scalar", "hexagonal"])
    def test_outputs_do_not_depend_on_the_chunk_size(self, family, block,
                                                     chunked_task,
                                                     monkeypatch):
        # One round per chunk: a block of exactly one round, or blocks of
        # 1000 sub-vectors, which slice each row in the draws and the code.
        cfg = self._cfg(family, "jopeq")
        want = _metrics(run_experiment(cfg, chunked_task))
        lat, _ = cfg.codec.build()
        m = -(-cfg.task.model_dim // lat.dimension)
        small_blocks(monkeypatch, lat.dimension,
                     cfg.users * m if block == "round" else block)
        assert codec._BLOCK // (cfg.users * m * lat.dimension) <= 1
        assert _metrics(run_experiment(cfg, chunked_task)) == want

    @settings(deadline=None, max_examples=6)
    @given(baseline=st.sampled_from(BASELINES),
           family=st.sampled_from(["scalar", "square", "hexagonal"]))
    def test_chunks_equal_rounds_one_by_one(self, baseline, family,
                                            chunked_task):
        # Chunks of 3, 3 and 2 rounds against one round per chunk: the
        # noise draws and the chunk's metrics (SNR, true aggregate and
        # weights distortion) both follow the chunk.
        cfg = self._cfg(family, baseline)
        want = _metrics(run_experiment(cfg, chunked_task))
        lat, _ = cfg.codec.build()
        m = -(-cfg.task.model_dim // lat.dimension)
        with pytest.MonkeyPatch.context() as mp:
            small_blocks(mp, lat.dimension, cfg.users * m)
            chunks = [len(rounds) for rounds, _ in flsim._round_chunks(
                cfg, lat, None, cfg.users, cfg.task.model_dim)]
            assert chunks == [1] * cfg.rounds
            assert _same(_metrics(run_experiment(cfg, chunked_task)), want)

    def test_zero_distortion_variance_reads_inf_without_warning(self):
        # At model dimension 1 every user's distortion variance is 0, in
        # each of the chunk's 6 rounds.
        cfg = FlConfig(task=TaskSpec(model_dim=1), users=12, rounds=6,
                       baseline="sdq")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ms = run_experiment(cfg)
        assert [m.snr_db for m in ms] == [np.inf] * cfg.rounds

    def test_zero_updates_read_minus_inf_without_warning(self):
        # A zero step size makes every update zero, and sdq decodes them
        # to minus the dither: each round's mean SNR ratio is 0.
        cfg = FlConfig(task=TaskSpec(model_dim=6), users=4, rounds=3,
                       eta=0.0, baseline="sdq")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ms = run_experiment(cfg)
        assert [m.snr_db for m in ms] == [-np.inf] * cfg.rounds

    @pytest.mark.parametrize("family", ["scalar", "square", "hexagonal"])
    @pytest.mark.parametrize("baseline", ["sdq", "separate", "jopeq"])
    def test_drawn_noise_is_left_as_drawn(self, baseline, family):
        # A round's noise is the read-only rows of the chunk's draws: a
        # round coded twice with them (one row zero, sent at the sentinel)
        # gives the same outputs and leaves the draws as they were.
        lat, spec = CodecSpec(family, rate=4, epsilon=3.0).build()
        samp = build_ppn_sampler(spec, lat, grid_points=64, refine_iters=5)
        cfg = FlConfig(users=3, rounds=2, seed=6)
        d = 9
        m = -(-d // lat.dimension)
        (_, noise), = flsim._round_chunks(
            cfg, lat, samp if baseline == "jopeq" else None, cfg.users, d)
        dith, ppn = noise[1]
        assert (ppn is not None) == (baseline == "jopeq")
        arrays = [a for a in (dith, ppn) if a is not None]
        for a in arrays:
            assert a.shape == (cfg.users, m, lat.dimension)
            assert a.dtype == np.float64 and not a.flags.writeable
        before = [a.tobytes() for a in arrays]
        hs = np.random.default_rng(d).normal(0.0, 1.0, (cfg.users, d))
        hs[1] = 0.0
        keys = [[cfg.seed, k, 1] for k in range(cfg.users)]
        first, again = (uplink(baseline, hs, lat, spec, keys, (dith, ppn))
                        for _ in range(2))
        assert np.array_equal(first[0], again[0]) and first[1] == again[1]
        assert [a.tobytes() for a in arrays] == before
        for a in arrays:
            with pytest.raises(ValueError):
                a[0, 0, 0] = 1.0

    @pytest.mark.parametrize("family", ["scalar", "square", "hexagonal"])
    @pytest.mark.parametrize("baseline", ["sdq", "separate", "jopeq"])
    def test_whole_array_pass_equals_streamed_blocks(self, baseline, family,
                                                     monkeypatch):
        # A round spans several blocks of its chunk's draw, each a slice of
        # a row (8 sub-vectors, rows of 21 or 41); d is odd, so the 2-D
        # rows end in a padded sub-vector; one row of the coded batch is
        # zero, and a spike in each other row overloads sub-vectors of a
        # codebook of radius 1. The whole-array pass gives the streamed
        # blocks' outputs bit for bit, overload flags included.
        lat, spec = CodecSpec(family, rate=3, epsilon=3.0, gamma=1.0).build()
        samp = build_ppn_sampler(spec, lat, allow_degenerate=True,
                                 grid_points=64, refine_iters=5)
        sampler = samp if baseline in PPN_CODING else None
        small_blocks(monkeypatch, lat.dimension, 8)
        cfg = FlConfig(users=3, rounds=3, seed=9)
        d = 41
        m = -(-d // lat.dimension)
        chunks = list(flsim._round_chunks(cfg, lat, sampler, cfg.users, d))
        assert [len(rounds) for rounds, _ in chunks] == [1] * cfg.rounds
        assert len(list(codec._blocks(cfg.users, m, lat.dimension))) > 6
        rng = np.random.default_rng(d)
        for (rounds, (noise,)) in chunks:
            r = rounds[0]
            hs = rng.normal(0.0, 1.0, (cfg.users, d))
            if baseline in PRIVATIZING:
                keys = [[cfg.seed, k, r] for k in range(cfg.users)]
                hs = flsim.privatize(hs, lat, spec, keys)
            hs[:, 3] *= 40.0
            hs[r % cfg.users] = 0.0
            srs = [SharedRandomness(seed=cfg.seed, user=k, round_index=r)
                   for k in range(cfg.users)]
            streams = _streams(baseline, srs, lat, d, samp, cfg.seed + 1)
            idx, zetas, want_ov = codec._encode(hs, lat, streams)
            want = codec._decode(idx, zetas, lat, streams, d)
            got, got_ov = codec._round_trip(hs, lat, *noise)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert got_ov.tobytes() == want_ov.tobytes()
            assert want_ov.any()

    @pytest.mark.parametrize("family", ["scalar", "square", "hexagonal"])
    @pytest.mark.parametrize("baseline", ["sdq", "separate", "jopeq"])
    def test_drawn_rounds_equal_rounds_read_from_streams(self, baseline,
                                                         family):
        # Every round of one chunk has a zero row, sent at the sentinel.
        lat, spec, samp = _codec(family)
        cfg = FlConfig(users=3, rounds=5, seed=4)
        d = 9
        noise = itertools.chain.from_iterable(
            drawn for _, drawn in flsim._round_chunks(
                cfg, lat, samp if baseline == "jopeq" else None, cfg.users,
                d))
        rng = np.random.default_rng(d)
        for r, drawn in enumerate(noise):
            hs = rng.normal(0.0, 1.0, (cfg.users, d))
            hs[r % cfg.users] = 0.0
            srs = [SharedRandomness(seed=cfg.seed, user=k, round_index=r)
                   for k in range(cfg.users)]
            keys = [[cfg.seed, k, r] for k in range(cfg.users)]
            want = uplink(baseline, hs, lat, spec, keys,
                          _streams(baseline, srs, lat, d, samp, cfg.seed + 1))
            got = uplink(baseline, hs, lat, spec, keys, drawn)
            assert np.array_equal(got[0], want[0]) and got[1] == want[1]
        assert r == cfg.rounds - 1
