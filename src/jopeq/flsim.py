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
from .dither import _KeyedStreams
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
    "uplink",
    "DivergenceError",
]

BASELINES = ("plain", "sdq", "ppn", "separate", "jopeq")

# Entropy words of the data and ppn-noise generators, and the domain tag
# of the keyed local-SGD stream (see jopeq.dither).
_TAG_DATA, _TAG_SGD, _TAG_PPN_ONLY = 101, 102, 103
# xi_k is this factor times the largest stochastic-gradient norm seen.
_XI_MARGIN = 1.1


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
    1.5 * (1 + v) for L=2, with v the mechanism's per-coordinate
    variance (2 b^2 for Laplace, s^2 nu / (nu - 2) for t).
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
                gamma = 1.5 * (1.0 + spec.variance_per_coord)
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
    """
    Instantiated task: stacked per-user data and curvature/gradient
    constants. xs is the (K, n, d) array of features and ys the (K, n)
    array of labels, so xs[k] and ys[k] are user k's data.
    """

    spec: TaskSpec
    alphas: np.ndarray
    xs: np.ndarray = field(repr=False)
    ys: np.ndarray = field(repr=False)
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

    def _mean_loss(self, z: np.ndarray, y: np.ndarray, w: np.ndarray):
        """Regularized mean loss over the last axis of margins z, labels y."""
        lam = self.spec.reg_lambda
        n = z.shape[-1]
        # Means as np.mean takes them, a sum and a division, without its
        # per-call overhead.
        if self.spec.kind == "linear":
            r = z - y
            return (0.5 * (np.add.reduce(r * r, axis=-1) / n)
                    + 0.5 * lam * w @ w)
        # log(1 + exp(z)) - y z, numerically stable
        ll = np.logaddexp(0.0, z) - y * z
        return np.add.reduce(ll, axis=-1) / n + 0.5 * lam * w @ w

    def user_loss(self, k: int, w: np.ndarray) -> float:
        return float(self._mean_loss(self.xs[k] @ w, self.ys[k], w))

    def loss(self, w: np.ndarray) -> float:
        """
        sum_k alpha_k F_k(w). The (K, n, d) @ w product gives each user's
        margins bit for bit as xs[k] @ w does; the terms are then added
        one by one in user order (see `fedavg_round`).
        """
        per_user = self._mean_loss(self.xs @ w, self.ys, w)
        return float(np.add.accumulate(self.alphas * per_user)[-1])

    def sample_grad(self, k, w: np.ndarray, i) -> np.ndarray:
        """
        Gradient of user k's loss at w on its sample i. k and i may also
        be (K,) arrays with w of shape (K, d): row r is then user k[r]'s
        gradient at w[r] on sample i[r], bit for bit the one-user result.
        """
        return self._grad(self.xs[k, i], self.ys[k, i], w)

    def _grad(self, x: np.ndarray, y, w: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
        """
        The stochastic gradient on samples x, of shape (..., d), with
        labels y at weights w of the same shape: row r is the gradient at
        w[r] on sample x[r] alone. Every stochastic gradient of the
        simulator is taken here; out, if given, takes the result.
        """
        # A stacked (1, d) @ (d, 1) product takes each row's margin by the
        # dot product of a 1-D x @ w; einsum and a flattened product
        # round differently.
        z = np.matmul(x[..., None, :], w[..., :, None])[..., 0, 0]
        if self.spec.kind != "linear":  # the residual is sigmoid(z) - y
            z = np.reshape([_sigmoid(m) for m in np.ravel(z).tolist()],
                           np.shape(z))
        out = np.multiply((z - y)[..., None], x, out=out)
        out += self.spec.reg_lambda * w
        return out


def _sigmoid(margin: float) -> float:
    """
    1 / (1 + exp(-margin)) by math.exp, which np.exp differs from in the
    last bits; 0.0, its limit, where exp(-margin) overflows (a margin
    below about -709, as a diverging run reaches).
    """
    try:
        return 1.0 / (1.0 + math.exp(-margin))
    except OverflowError:
        return 0.0


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
    if len(alphas) != users:
        raise ValueError(f"{len(alphas)} aggregation weights for {users} "
                         f"users")
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

    task = Task(spec, np.asarray(alphas, dtype=float), np.stack(xs),
                np.stack(ys), np.zeros(spec.model_dim))
    task.w_opt = _solve_opt(spec, task.alphas, task.xs, task.ys)
    task.f_opt = task.loss(task.w_opt)

    # Curvature constants from the data Gram matrices: exact for the
    # quadratic task, the standard 1/4-Hessian bound for logistic. With
    # fewer samples than dimensions, x x^T / n is the smaller matrix with
    # the nonzero spectrum of x^T x / n, whose least eigenvalue is then 0.
    lam = spec.reg_lambda
    n = spec.samples_per_user
    small = n < spec.model_dim
    smax, smin = 0.0, float("inf")
    for x in task.xs:
        eig = np.linalg.eigvalsh(x @ x.T / n if small else x.T @ x / n)
        smax = max(smax, float(eig[-1]))
        smin = min(smin, 0.0 if small else float(eig[0]))
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


def local_sgd(task: Task, k, w: np.ndarray, eta_fn, t_start: int, picks,
              grad_norms: np.ndarray | None = None) -> np.ndarray:
    """
    Single-sample SGD steps from w at user k, one on each sample index of
    the (tau,) array `picks`, step j with step size eta_fn(t_start + j);
    returns the update h = w_end - w, of shape (d,).

    `k` may also be a sequence of K users with `picks` a (K, tau) array,
    row r user k[r]'s picks: then the result is the (K, d) batch whose
    row r equals local_sgd(task, k[r], w, eta_fn, t_start, picks[r]) bit
    for bit, taken as one (K, d) step per local iteration (`_sgd` on the
    picked samples, gathered once).

    grad_norms, if given, is a float array with one entry per user (in
    the order of k); each entry is raised in place to the largest norm of
    that user's stochastic gradients in these steps.
    """
    solo = np.ndim(k) == 0
    users = np.asarray([k] if solo else k, dtype=np.intp)
    picks = np.asarray(picks, dtype=np.intp)
    if solo:
        picks = picks[None]
    if picks.ndim != 2 or len(picks) != len(users):
        raise ValueError(f"picks of shape {picks.shape} for {len(users)} "
                         f"users")
    etas = [eta_fn(t_start + j) for j in range(picks.shape[1])]
    h = _sgd(task, task.xs[users, picks.T], task.ys[users, picks.T], w, etas,
             grad_norms)
    return h[0] if solo else h


def _sgd(task: Task, xs: np.ndarray, ys: np.ndarray, w: np.ndarray, etas,
         grad_norms: np.ndarray | None = None) -> np.ndarray:
    """
    The local-SGD updates of K users from w, on their picked samples: xs
    and ys of shapes (tau, K, d) and (tau, K), step j of row r on sample
    xs[j, r] with step size etas[j]. Each step's (K, d) slab of xs is
    C-contiguous, as one gather lays it out. Returns the (K, d) updates;
    grad_norms, one entry per row, is raised in place to the largest norm
    of each row's stochastic gradients.
    """
    wk = np.repeat(w[None, :], xs.shape[1], axis=0)
    gs = np.empty(xs.shape)
    for x, y, g, eta in zip(xs, ys, gs, etas):
        wk -= eta * task._grad(x, y, wk, out=g)
    if grad_norms is not None and len(gs):
        # sqrt of each row's dot product, as np.linalg.norm of a row; fmax
        # passes over a NaN norm, and max is exact in any order.
        norms = np.sqrt(np.matmul(gs[..., None, :], gs[..., :, None]))
        np.fmax(grad_norms, np.fmax.reduce(norms[..., 0, 0], axis=0),
                out=grad_norms)
    return wk - w


def _picked_samples(task: Task, picks: np.ndarray):
    """
    The samples of a run's local-SGD picks, a (K, rounds, tau) array of
    users 0, ..., K-1, round by round: yields the (tau, K, d) features and
    (tau, K) labels that `_sgd` steps on, each one `take` of the rows.
    """
    n, d = task.ys.shape[1], task.model_dim
    rows = picks + n * np.arange(len(picks))[:, None, None]
    rows = np.ascontiguousarray(np.transpose(rows, (1, 2, 0)))
    xs, ys = task.xs.reshape(-1, d), task.ys.reshape(-1)
    for sel in rows:
        yield xs.take(sel, axis=0), ys.take(sel)


def _sgd_picks(seed: int, users: int, rounds: int, tau: int,
               n: int) -> np.ndarray:
    """
    The local-SGD sample picks of a whole run, as a (users, rounds, tau)
    array: user k's are one integers(0, n, size=(rounds, tau)) call on
    the keyed stream of (seed, k, round 0) under _TAG_SGD. The draws are
    sequential, so a shorter run's picks are a prefix of a longer run's.
    """
    return np.stack([g.integers(0, n, size=(rounds, tau)) for g in
                     _KeyedStreams.grid(seed, users, [0], _TAG_SGD)])


def fedavg_round(w: np.ndarray, updates, alphas) -> np.ndarray:
    """
    Weighted aggregation w + sum_k alpha_k h_k of K updates (a (K, d)
    array or a sequence of K), as a new array. w and the terms are added
    one by one in user order: np.add.accumulate is sequential, where
    np.sum and np.add.reduce may add pairwise (they do when d = 1 and
    K >= 8).

    A (..., d) stack w with (..., K, d) updates gives each pair's call.
    """
    alphas = np.asarray(alphas, dtype=float)
    shape = np.shape(w)
    terms = np.empty(shape[:-1] + (len(alphas) + 1, shape[-1]))
    terms[..., 0, :] = w
    tail = terms[..., 1:, :]
    np.multiply(alphas[:, None], np.reshape(updates, tail.shape), out=tail)
    return np.add.accumulate(terms, axis=-2)[..., -1, :]


def theorem6_bound(sigma2: float, etas, alphas, xis, tau: int):
    """
    Weights-distortion bound 9 tau sigma^2 (sum eta^2) sum alpha^2 xi^2;
    etas of shape (..., tau) give one bound per row (a float for one row).
    """
    etas = np.asarray(etas, dtype=float)
    alphas = np.asarray(alphas, dtype=float)
    xis = np.asarray(xis, dtype=float)
    out = (9.0 * tau * sigma2 * np.sum(etas ** 2, axis=-1)
           * np.sum(alphas ** 2 * xis ** 2))
    return float(out) if etas.ndim == 1 else out


def theorem7_bound(sigma2: float, psi: float, rho_s: float, rho_c: float,
                   alphas, xis, tau: int, w0_dist2: float, t):
    """
    Convergence bound at local iteration t for the decaying step size
    eta_t = tau / (rho_c (t + phi)), phi = tau max(1, 4 rho_s / rho_c):
    rho_s / (2 (t+phi)) * max((rho_c^2 + tau^2 b)/(tau rho_c), phi ||w0-w*||^2)
    with b = (1 + 36 tau^2 sigma^2) sum alpha^2 xi^2 + 6 rho_s psi
           + 8 (tau-1)^2 sum alpha xi^2.
    An array t gives one bound per entry (a float for an integer t).
    """
    alphas = np.asarray(alphas, dtype=float)
    xis = np.asarray(xis, dtype=float)
    phi = tau * max(1.0, 4.0 * rho_s / rho_c)
    b = ((1.0 + 36.0 * tau ** 2 * sigma2) * np.sum(alphas ** 2 * xis ** 2)
         + 6.0 * rho_s * psi
         + 8.0 * (tau - 1) ** 2 * np.sum(alphas * xis ** 2))
    lam = max((rho_c ** 2 + tau ** 2 * b) / (tau * rho_c), phi * w0_dist2)
    out = rho_s / (2.0 * (np.asarray(t) + phi)) * lam
    return float(out) if np.ndim(t) == 0 else out


def _eta_fn(cfg: FlConfig, task: Task):
    if cfg.schedule == "fixed":
        return lambda t: cfg.eta
    phi = cfg.tau * max(1.0, 4.0 * task.rho_s / task.rho_c)
    return lambda t: cfg.tau / (task.rho_c * (t + phi))


def _step_sizes(cfg: FlConfig, task: Task) -> np.ndarray:
    """The (rounds, tau) step sizes of a run, round r's in row r."""
    eta_fn = _eta_fn(cfg, task)
    return np.reshape([eta_fn(t) for t in range(cfg.rounds * cfg.tau)],
                      (cfg.rounds, cfg.tau))


def calibrate_xi(task: Task, cfg: FlConfig) -> np.ndarray:
    """
    Per-user gradient-norm constants xi_k: 1.1 times the largest
    stochastic-gradient norm observed on a plain (uncoded) training pass
    with the same picks and schedule. `run_experiment` measures xi on the
    run it bounds; this pass can give it a floor.
    """
    picks = _sgd_picks(cfg.seed, task.users, cfg.rounds, cfg.tau,
                       task.ys.shape[1])
    w = np.zeros(task.model_dim)
    best = np.zeros(task.users)
    for (xs, ys), etas in zip(_picked_samples(task, picks),
                              _step_sizes(cfg, task).tolist()):
        hs = _sgd(task, xs, ys, w, etas, best)
        w = fedavg_round(w, hs, task.alphas)
    return _XI_MARGIN * best


def uplink(baseline: str, hs: np.ndarray, lat: Lattice, spec, sampler,
           srs, noise_keys, noise_seed: int, *, _drawn=None):
    """
    Send a round's (K, d) batch of updates, row k from user k, through a
    baseline's uplink; returns the (K, d) h_tilde and the round's overload
    count. Row k uses the shared stream srs[k] and the noise key
    noise_keys[k], and comes out as it would if sent alone.

    plain sends the rows as they are. ppn adds direct mechanism noise,
    drawn from `default_rng(noise_keys[k])`, to the zeta-scaled sub-vectors
    of row k (a zero row at unit scale). sdq quantizes the rows. separate
    quantizes the ppn output as an opaque second stage (its own scaling),
    which spends range on the noise. jopeq encodes the rows with the PPN
    `sampler`, its noise keyed on `noise_seed`.

    `run_experiment` passes _drawn, the round's dither and PPN drawn ahead
    from those streams (`codec._draw`), and no srs: the quantizing
    baselines then code with it, and the server decodes with the dither the
    encoder added instead of drawing it again. The codec reads views of
    those read-only draws and copies none of them.
    """
    if baseline == "plain":
        return hs, 0
    k, d = hs.shape
    if baseline in ("ppn", "separate"):
        m = -(-d // lat.dimension)
        zetas = codec.scale_rows(hs, m)
        # No name holds the noise, so it is freed before the sdq stage.
        hs = hs + np.stack([
            privacy.mechanism_reference_sample(spec, m,
                                               np.random.default_rng(key))
            for key in noise_keys]).reshape(k, -1)[:, :d] / zetas[:, None]
        if baseline == "ppn":
            return hs, 0
    elif baseline not in ("sdq", "jopeq"):
        raise ValueError(f"unknown baseline {baseline!r}")
    if _drawn is None:
        idx, zetas, overloaded = codec.encode_rows(
            hs, lat, sampler if baseline == "jopeq" else None, srs, noise_seed)
        hts = codec.decode_rows(idx, zetas, lat, srs, d)
    else:
        idx, zetas, overloaded = codec._encode(hs, lat, _drawn)
        hts = codec._decode(idx, zetas, lat, _drawn, d)
    return hts, int(np.count_nonzero(overloaded))


def _round_chunks(cfg: FlConfig, lat: Lattice, sampler, users: int,
                  dim: int):
    """
    The rounds of a run of `users` updates of dim coordinates each, in
    chunks of as many rounds as keep each noise array within `codec._BLOCK`
    coordinates (at least one round). Yields (rounds, noise) per chunk,
    noise one `codec._Drawn` per round, its rows the users', cut from one
    `codec._draw` over the chunk's rows, for the quantizing baselines, or
    None per round for the others.
    """
    m = -(-dim // lat.dimension)
    per = max(1, codec._BLOCK // (users * m * lat.dimension))
    for r0 in range(0, cfg.rounds, per):
        rounds = range(r0, min(r0 + per, cfg.rounds))
        if cfg.baseline not in ("sdq", "separate", "jopeq"):
            yield rounds, [None] * len(rounds)
            continue
        drawn = codec._draw(_KeyedStreams.grid(cfg.seed, users, rounds),
                            lat, sampler, cfg.seed + 1, m)
        yield rounds, [drawn.rows(i * users, (i + 1) * users)
                       for i in range(len(rounds))]


def run_experiment(cfg: FlConfig, task: Task | None = None,
                   xis: np.ndarray | None = None) -> list[RoundMetrics]:
    """
    Run one experiment; deterministic given cfg.seed.

    Returns per-round metrics including the Theorem-6/7 right-hand sides,
    evaluated after the last round with xi_k = 1.1 times the largest
    stochastic-gradient norm of user k in this run, so the theorems'
    hypothesis ||g|| <= xi holds of the run they bound. xis, if given, is
    a per-user floor on xi. Pass a prebuilt task to share it across
    baselines.

    The rounds run a chunk at a time (`_round_chunks`). The quantizing
    baselines (sdq, separate, jopeq) take their dither and jopeq its PPN
    from one draw per chunk; the server decodes with the dither the users
    added. A round computes only what the next needs: local SGD, uplink,
    aggregate and loss gap. Its local SGD steps all users at once on the
    round's picked samples, gathered once (`_picked_samples`), with the
    step sizes of the list the Theorem-6 bound takes (`_sgd`, as
    `local_sgd` steps). The SNR, true aggregate and weights distortion of
    a chunk's rounds are computed at its end, and the bounds of every
    round after the last. Each row reads its own keyed stream, of (seed,
    user, round), so no output depends on the chunk size.
    """
    alphas = cfg.alpha_vector()
    if task is None:
        task = build_task(cfg.task, cfg.users, alphas, cfg.seed)
    etas = _step_sizes(cfg, task)

    lat, spec = cfg.codec.build()
    sampler = (privacy.build_ppn_sampler(spec, lat, allow_degenerate=True)
               if cfg.baseline == "jopeq" else None)
    sigma2_bound = (spec.variance
                    if cfg.baseline in ("ppn", "separate", "jopeq") else 0.0)

    w = np.zeros(task.model_dim)
    w0_dist2 = float(np.sum((w - task.w_opt) ** 2))
    gaps, snrs, dists, ovs = [], [], [], []
    norms = np.zeros(task.users)
    users = range(task.users)
    samples = _picked_samples(task, _sgd_picks(
        cfg.seed, task.users, cfg.rounds, cfg.tau, task.ys.shape[1]))
    steps = etas.tolist()
    for rounds, noise in _round_chunks(cfg, lat, sampler, task.users,
                                       task.model_dim):
        # ws[i] is the weights before the chunk's round i, ws[-1] after.
        ws = np.empty((len(rounds) + 1, task.model_dim))
        hs = np.empty((len(rounds), task.users, task.model_dim))
        hts = np.empty_like(hs)
        ws[0] = w
        for i, r in enumerate(rounds):
            hs[i] = h = _sgd(task, *next(samples), w, steps[r], norms)
            keys = ([[cfg.seed, _TAG_PPN_ONLY, k, r] for k in users]
                    if cfg.baseline in ("ppn", "separate") else None)
            hts[i], ov = uplink(cfg.baseline, h, lat, spec, sampler, None,
                                keys, cfg.seed + 1, _drawn=noise[i])
            ws[i + 1] = w = fedavg_round(w, hts[i], alphas)
            gap = task.loss(w) - task.f_opt
            if not math.isfinite(gap) or gap > 1e6:
                raise DivergenceError(
                    f"loss gap {gap:.3g} at round {r} (baseline="
                    f"{cfg.baseline}, eta={cfg.eta}, schedule={cfg.schedule})")
            gaps.append(gap)
            ovs.append(ov)
        w_true = fedavg_round(ws[:-1], hs, alphas)
        dists += np.sum((ws[1:] - w_true) ** 2, axis=-1).tolist()
        snrs += (codec._snr_rounds(hs, hts) if cfg.baseline != "plain" else
                 [float("inf")] * len(rounds))

    xis = np.maximum(0.0 if xis is None else xis, _XI_MARGIN * norms)
    thm6 = theorem6_bound(sigma2_bound, etas, alphas, xis, cfg.tau)
    thm7 = theorem7_bound(sigma2_bound, task.psi, task.rho_s, task.rho_c,
                          alphas, xis, cfg.tau, w0_dist2,
                          cfg.tau * np.arange(1, cfg.rounds + 1))
    return [RoundMetrics(*row) for row in zip(
        range(cfg.rounds), gaps, snrs, dists, thm6.tolist(), thm7.tolist(),
        ovs)]
