"""
Deterministic federated-learning simulator.

Local SGD at each user, federated averaging at the server, and a
configurable uplink: plain transmission, quantization only, privacy noise
only, separate noise-then-quantization, or the joint pipeline. Tasks are
synthetic strongly convex problems (l2-regularized linear or logistic
regression) with known optima so the loss gap, the heterogeneity gap and
the theorem bounds are all computable.

All randomness derives from explicit seeds, so a rerun with the same
configuration is bit-identical.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from . import codec, privacy
from .dither import SharedRandomness
from .lattice import Lattice, hexagonal_lattice, scalar_uniform, square_lattice

__all__ = [
    "TaskSpec",
    "Task",
    "CodecSpec",
    "FlConfig",
    "RoundMetrics",
    "build_task",
    "local_sgd",
    "fedavg_round",
    "theorem6_bound",
    "theorem7_bound",
    "heterogeneity_gap",
    "calibrate_xi",
    "run_experiment",
    "separate_uplink",
    "DivergenceError",
]

BASELINES = ("plain", "sdq", "ppn", "separate", "jopeq")

# SeedSequence spawn tags for the simulator's independent streams.
_TAG_DATA, _TAG_SGD, _TAG_PPN_ONLY = 101, 102, 103


class DivergenceError(RuntimeError):
    """Training diverged (loss gap above the abort threshold)."""


@dataclass(frozen=True)
class TaskSpec:
    """
    Synthetic task parameters.

    heterogeneity scales a per-user mean shift of the feature
    distribution; 0 gives identically distributed users.
    """

    kind: str = "linear"
    model_dim: int = 10
    samples_per_user: int = 50
    heterogeneity: float = 1.0
    reg_lambda: float = 0.1
    label_noise: float = 0.1


@dataclass(frozen=True)
class CodecSpec:
    """
    Uplink codec parameters: lattice family/rate/support and mechanism.

    gamma=None applies the support rule 2R + 1/epsilon for L=1 and
    1.5 * (1 + s^2 nu / (nu - 2)) for L=2.
    """

    family: str = "scalar"
    rate: int = 4
    epsilon: float = 2.0
    mechanism: str = "laplace"
    nu: float = 3.0
    gamma: float | None = None

    @property
    def dimension(self) -> int:
        return 1 if self.family == "scalar" else 2

    def build(self):
        """Construct (lattice, mechanism spec) from the rules above."""
        if self.mechanism == "laplace":
            spec = privacy.laplace_spec(self.epsilon, self.dimension)
        else:
            spec = privacy.t_spec(self.epsilon, self.dimension, self.nu)
        gamma = self.gamma
        if gamma is None:
            if self.dimension == 1:
                gamma = 2.0 * self.rate + 1.0 / self.epsilon
            else:
                gamma = 1.5 * (1.0 + spec.s2 * spec.nu / (spec.nu - 2.0))
        maker = {"scalar": scalar_uniform, "square": square_lattice,
                 "hexagonal": hexagonal_lattice}[self.family]
        return maker(gamma, self.rate), spec


@dataclass(frozen=True)
class FlConfig:
    """Full simulation configuration for one baseline mode."""

    task: TaskSpec = TaskSpec()
    codec: CodecSpec = CodecSpec()
    baseline: str = "jopeq"
    users: int = 10
    tau: int = 4
    rounds: int = 100
    eta: float = 0.05
    schedule: str = "fixed"  # "fixed" | "decay" (eta_t = tau/(rho_c (t+phi)))
    seed: int = 0

    def alpha_vector(self) -> np.ndarray:
        """Uniform aggregation weights 1/K."""
        return np.full(self.users, 1.0 / self.users)


@dataclass
class RoundMetrics:
    """Per-round measurements of one experiment."""

    round_index: int
    loss_gap: float
    snr_db: float
    weights_distortion: float
    thm6_rhs: float
    thm7_rhs: float
    overloads: int


@dataclass
class Task:
    """Instantiated task: per-user data and curvature/gradient constants."""

    spec: TaskSpec
    alphas: np.ndarray
    xs: list = field(repr=False)
    ys: list = field(repr=False)
    w_opt: np.ndarray = field(repr=False)
    f_opt: float = 0.0
    rho_s: float = 0.0
    rho_c: float = 0.0
    psi: float = 0.0

    @property
    def users(self) -> int:
        return len(self.xs)

    @property
    def model_dim(self) -> int:
        return self.spec.model_dim

    def _margin(self, k: int, w: np.ndarray) -> np.ndarray:
        return self.xs[k] @ w

    def user_loss(self, k: int, w: np.ndarray) -> float:
        lam = self.spec.reg_lambda
        if self.spec.kind == "linear":
            r = self._margin(k, w) - self.ys[k]
            return float(0.5 * np.mean(r * r) + 0.5 * lam * w @ w)
        z = self._margin(k, w)
        # log(1 + exp(z)) - y z, numerically stable
        ll = np.logaddexp(0.0, z) - self.ys[k] * z
        return float(np.mean(ll) + 0.5 * lam * w @ w)

    def loss(self, w: np.ndarray) -> float:
        return float(sum(a * self.user_loss(k, w)
                         for k, a in enumerate(self.alphas)))

    def user_grad(self, k: int, w: np.ndarray) -> np.ndarray:
        lam = self.spec.reg_lambda
        x, y = self.xs[k], self.ys[k]
        if self.spec.kind == "linear":
            return x.T @ (x @ w - y) / len(y) + lam * w
        p = 1.0 / (1.0 + np.exp(-(x @ w)))
        return x.T @ (p - y) / len(y) + lam * w

    def sample_grad(self, k: int, w: np.ndarray, i: int) -> np.ndarray:
        lam = self.spec.reg_lambda
        xi, yi = self.xs[k][i], self.ys[k][i]
        if self.spec.kind == "linear":
            return (xi @ w - yi) * xi + lam * w
        p = 1.0 / (1.0 + math.exp(-float(xi @ w)))
        return (p - yi) * xi + lam * w


def _solve_opt(spec: TaskSpec, alphas, xs, ys) -> np.ndarray:
    lam = spec.reg_lambda
    m = spec.model_dim
    if spec.kind == "linear":
        h = lam * np.eye(m)
        rhs = np.zeros(m)
        for a, x, y in zip(alphas, xs, ys):
            h += a * x.T @ x / len(y)
            rhs += a * x.T @ y / len(y)
        return np.linalg.solve(h, rhs)

    def fun(w):
        grad = lam * w.copy()
        val = 0.0
        for a, x, y in zip(alphas, xs, ys):
            z = x @ w
            val += a * float(np.mean(np.logaddexp(0.0, z) - y * z))
            p = 1.0 / (1.0 + np.exp(-z))
            grad += a * x.T @ (p - y) / len(y)
        val += 0.5 * lam * w @ w
        return val, grad

    res = optimize.minimize(fun, np.zeros(m), jac=True, method="L-BFGS-B",
                            options={"gtol": 1e-12, "ftol": 1e-16,
                                     "maxiter": 5000})
    return res.x


def build_task(spec: TaskSpec, users: int, alphas: np.ndarray,
               seed: int) -> Task:
    """Generate per-user datasets and solve for the global optimum."""
    xs, ys = [], []
    root = np.random.default_rng([seed, _TAG_DATA])
    w_true = root.normal(0.0, 1.0, spec.model_dim) / math.sqrt(spec.model_dim)
    for k in range(users):
        rng = np.random.default_rng([seed, _TAG_DATA, k])
        shift = spec.heterogeneity * rng.normal(0.0, 1.0, spec.model_dim)
        x = rng.normal(0.0, 1.0, (spec.samples_per_user, spec.model_dim))
        x = x + shift / math.sqrt(spec.model_dim)
        if spec.kind == "linear":
            y = x @ w_true + spec.label_noise * rng.normal(
                0.0, 1.0, spec.samples_per_user)
        else:
            p = 1.0 / (1.0 + np.exp(-(x @ w_true)))
            y = (rng.random(spec.samples_per_user) < p).astype(float)
        xs.append(x)
        ys.append(y)

    task = Task(spec, np.asarray(alphas, dtype=float), xs, ys,
                np.zeros(spec.model_dim))
    task.w_opt = _solve_opt(spec, task.alphas, xs, ys)
    task.f_opt = task.loss(task.w_opt)

    # Curvature constants from the data Gram matrices: exact for the
    # quadratic task, the standard 1/4-Hessian bound for logistic.
    lam = spec.reg_lambda
    smax, smin = 0.0, float("inf")
    for x in xs:
        eig = np.linalg.eigvalsh(x.T @ x / len(x))
        smax = max(smax, float(eig[-1]))
        smin = min(smin, float(eig[0]))
    if spec.kind == "linear":
        task.rho_s = smax + lam
        task.rho_c = max(smin, 0.0) + lam
    else:
        task.rho_s = smax / 4.0 + lam
        task.rho_c = lam
    task.psi = heterogeneity_gap(task)
    return task


def heterogeneity_gap(task: Task) -> float:
    """psi = F(w_opt) - sum_k alpha_k min_w F_k(w)."""
    spec = task.spec
    total = 0.0
    for k, a in enumerate(task.alphas):
        wk = _solve_opt(spec, [1.0], [task.xs[k]], [task.ys[k]])
        total += a * task.user_loss(k, wk)
    return task.f_opt - total


def local_sgd(task: Task, k: int, w: np.ndarray, tau: int, eta_fn,
              t_start: int, rng: np.random.Generator) -> np.ndarray:
    """tau single-sample SGD steps; returns the update h = w_end - w."""
    wk = w.copy()
    n = len(task.ys[k])
    for j in range(tau):
        i = int(rng.integers(0, n))
        wk -= eta_fn(t_start + j) * task.sample_grad(k, wk, i)
    return wk - w


def fedavg_round(w: np.ndarray, updates, alphas) -> np.ndarray:
    """Weighted aggregation w + sum_k alpha_k h_k."""
    out = w.copy()
    for a, h in zip(alphas, updates):
        out = out + a * h
    return out


def theorem6_bound(sigma2: float, etas, alphas, xis, tau: int) -> float:
    """Weights-distortion bound 9 tau sigma^2 (sum eta^2) sum alpha^2 xi^2."""
    etas = np.asarray(etas, dtype=float)
    alphas = np.asarray(alphas, dtype=float)
    xis = np.asarray(xis, dtype=float)
    return float(9.0 * tau * sigma2 * np.sum(etas ** 2)
                 * np.sum(alphas ** 2 * xis ** 2))


def theorem7_bound(sigma2: float, psi: float, rho_s: float, rho_c: float,
                   alphas, xis, tau: int, w0_dist2: float, t: int) -> float:
    """
    Convergence bound at local iteration t for the decaying step size
    eta_t = tau / (rho_c (t + phi)), phi = tau max(1, 4 rho_s / rho_c):
    rho_s / (2 (t+phi)) * max((rho_c^2 + tau^2 b)/(tau rho_c), phi ||w0-w*||^2)
    with b = (1 + 36 tau^2 sigma^2) sum alpha^2 xi^2 + 6 rho_s psi
           + 8 (tau-1)^2 sum alpha xi^2.
    """
    alphas = np.asarray(alphas, dtype=float)
    xis = np.asarray(xis, dtype=float)
    phi = tau * max(1.0, 4.0 * rho_s / rho_c)
    b = ((1.0 + 36.0 * tau ** 2 * sigma2) * np.sum(alphas ** 2 * xis ** 2)
         + 6.0 * rho_s * psi
         + 8.0 * (tau - 1) ** 2 * np.sum(alphas * xis ** 2))
    lam = max((rho_c ** 2 + tau ** 2 * b) / (tau * rho_c), phi * w0_dist2)
    return float(rho_s / (2.0 * (t + phi)) * lam)


def _eta_fn(cfg: FlConfig, task: Task):
    if cfg.schedule == "fixed":
        return lambda t: cfg.eta
    phi = cfg.tau * max(1.0, 4.0 * task.rho_s / task.rho_c)
    return lambda t: cfg.tau / (task.rho_c * (t + phi))


def calibrate_xi(task: Task, cfg: FlConfig) -> np.ndarray:
    """
    Per-user gradient-norm constants xi_k: 1.1 times the largest
    stochastic-gradient norm observed on a plain (uncoded) training pass
    with the same seeds and schedule.
    """
    eta_fn = _eta_fn(cfg, task)
    w = np.zeros(task.model_dim)
    best = np.zeros(task.users)
    for r in range(cfg.rounds):
        hs = []
        for k in range(task.users):
            rng = np.random.default_rng([cfg.seed, _TAG_SGD, k, r])
            wk = w.copy()
            n = len(task.ys[k])
            for j in range(cfg.tau):
                i = int(rng.integers(0, n))
                g = task.sample_grad(k, wk, i)
                best[k] = max(best[k], float(np.linalg.norm(g)))
                wk -= eta_fn(r * cfg.tau + j) * g
            hs.append(wk - w)
        w = fedavg_round(w, hs, task.alphas)
    return 1.1 * best


def _add_mechanism_noise(h: np.ndarray, lat: Lattice, spec,
                         rng: np.random.Generator) -> np.ndarray:
    """h plus direct mechanism noise on its zeta-scaled sub-vectors."""
    m = -(-len(h) // lat.dimension)
    zeta = codec.scale_coefficient(h, m)
    noise = privacy.mechanism_reference_sample(spec, m, rng)
    return h + noise.reshape(-1)[:len(h)] / zeta


def separate_uplink(h: np.ndarray, lat: Lattice, spec, sr: SharedRandomness,
                    rng: np.random.Generator):
    """
    Separate baseline, returning (h_tilde, overloads): privacy noise from
    `rng` first, then quantization of the noisy vector as an opaque second
    stage (its own scaling), which spends range on the noise.
    """
    noisy = _add_mechanism_noise(h, lat, spec, rng)
    enc = codec.encode(noisy, lat, None, sr)
    return codec.decode(enc, lat, sr), enc.overloads


def _uplink(cfg: FlConfig, lat: Lattice, spec, sampler, h: np.ndarray,
            k: int, r: int):
    """Apply the configured uplink transform; returns (h_tilde, overloads)."""
    mode = cfg.baseline
    if mode == "plain":
        return h, 0
    sr = SharedRandomness(seed=cfg.seed, user=k, round_index=r)
    if mode in ("ppn", "separate"):
        rng = np.random.default_rng([cfg.seed, _TAG_PPN_ONLY, k, r])
        if mode == "ppn":
            return _add_mechanism_noise(h, lat, spec, rng), 0
        return separate_uplink(h, lat, spec, sr, rng)
    if mode not in ("sdq", "jopeq"):
        raise ValueError(f"unknown baseline {mode!r}")
    enc = codec.encode(h, lat, sampler if mode == "jopeq" else None, sr,
                       noise_seed=cfg.seed + 1)
    return codec.decode(enc, lat, sr), enc.overloads


def run_experiment(cfg: FlConfig, task: Task | None = None,
                   xis: np.ndarray | None = None) -> list[RoundMetrics]:
    """
    Run one experiment; deterministic given cfg.seed.

    Returns per-round metrics including the Theorem-6/7 right-hand sides
    evaluated from the calibrated constants. Pass a prebuilt task/xis to
    share them (and the calibration cost) across baselines.
    """
    alphas = cfg.alpha_vector()
    if task is None:
        task = build_task(cfg.task, cfg.users, alphas, cfg.seed)
    if xis is None:
        xis = calibrate_xi(task, cfg)
    eta_fn = _eta_fn(cfg, task)

    needs_codec = cfg.baseline in ("sdq", "jopeq", "separate", "ppn")
    lat = spec = sampler = None
    if needs_codec:
        lat, spec = cfg.codec.build()
        if cfg.baseline == "jopeq":
            sampler = privacy.build_ppn_sampler(spec, lat,
                                                allow_degenerate=True)
    sigma2 = spec.variance if spec is not None else 0.0
    if cfg.baseline in ("plain", "sdq"):
        sigma2_bound = 0.0
    else:
        sigma2_bound = sigma2

    w = np.zeros(task.model_dim)
    w0_dist2 = float(np.sum((w - task.w_opt) ** 2))
    out = []
    for r in range(cfg.rounds):
        hs, hts, ovs = [], [], 0
        for k in range(task.users):
            rng = np.random.default_rng([cfg.seed, _TAG_SGD, k, r])
            h = local_sgd(task, k, w, cfg.tau, eta_fn, r * cfg.tau, rng)
            ht, ov = _uplink(cfg, lat, spec, sampler, h, k, r)
            hs.append(h)
            hts.append(ht)
            ovs += ov
        w_true = fedavg_round(w, hs, alphas)
        w_next = fedavg_round(w, hts, alphas)
        gap = task.loss(w_next) - task.f_opt
        if not math.isfinite(gap) or gap > 1e6:
            raise DivergenceError(
                f"loss gap {gap:.3g} at round {r} (baseline={cfg.baseline}, "
                f"eta={cfg.eta}, schedule={cfg.schedule})")
        etas = [eta_fn(r * cfg.tau + j) for j in range(cfg.tau)]
        out.append(RoundMetrics(
            round_index=r,
            loss_gap=gap,
            snr_db=codec.snr(hs, hts) if cfg.baseline != "plain" else
            float("inf"),
            weights_distortion=float(np.sum((w_next - w_true) ** 2)),
            thm6_rhs=theorem6_bound(sigma2_bound, etas, alphas, xis, cfg.tau),
            thm7_rhs=theorem7_bound(sigma2_bound, task.psi, task.rho_s,
                                    task.rho_c, alphas, xis, cfg.tau,
                                    w0_dist2, (r + 1) * cfg.tau),
            overloads=ovs,
        ))
        w = w_next
    return out
