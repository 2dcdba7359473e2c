"""
Deterministic federated-learning simulator.

Local SGD at each user, federated averaging at the server, and a
configurable uplink: plain transmission, quantization only (sdq), privacy
noise only (ppn), separate noise-then-quantization (separate), or the
joint pipeline (jopeq); each runs the stages whose lists name it
(PRIVATIZING, CODING, PPN_CODING; see `uplink`). Tasks are synthetic
strongly convex problems (l2-regularized linear or logistic regression)
with known optima so the loss gap, the heterogeneity gap and the theorem
bounds are all computable.

All randomness derives from explicit seeds, so a rerun with the same
configuration is bit-identical.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from . import codec, privacy
from .dither import _KeyedStreams
from .lattice import (Lattice, cell_variance_per_coord, hexagonal_lattice,
                      scalar_uniform, square_lattice)

__all__ = [
    "BASELINES",
    "PRIVATIZING",
    "CODING",
    "PPN_CODING",
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
    "privatize",
    "code",
    "uplink",
    "DivergenceError",
]

BASELINES = ("plain", "sdq", "ppn", "separate", "jopeq")
# The baselines that run each uplink stage: add mechanism noise
# (`privatize`), code on the lattice (`code`), and add the PPN while coding.
PRIVATIZING = ("ppn", "separate")
CODING = ("sdq", "separate", "jopeq")
PPN_CODING = ("jopeq",)

# Entropy words of the data and ppn-noise generators, and the domain tag
# of the keyed local-SGD stream (see jopeq.dither).
_TAG_DATA, _TAG_SGD, _TAG_PPN_ONLY = 101, 102, 103
# xi_k is this factor times the largest stochastic-gradient norm seen.
_XI_MARGIN = 1.1
# The values a config's named choices may take.
_TASK_KINDS = ("linear", "logistic")
_FAMILIES = ("scalar", "square", "hexagonal")
_MECHANISMS = ("laplace", "t")
_SCHEDULES = ("fixed", "decay")


def _require(name: str, value, allowed) -> None:
    """Raise ValueError unless value is one of allowed."""
    if value not in allowed:
        raise ValueError(f"{name} {value!r} is not one of "
                         f"{', '.join(map(repr, allowed))}")


def _require_at_least(spec, bounds) -> None:
    """Raise ValueError naming the first field of spec below its bound."""
    for name, low in bounds:
        value = getattr(spec, name)
        if not value >= low:
            raise ValueError(f"{name} {value!r} is not >= {low}")


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

    def __post_init__(self):
        _require("task kind", self.kind, _TASK_KINDS)
        _require_at_least(self, (("model_dim", 1), ("samples_per_user", 1)))


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

    def __post_init__(self):
        _require("lattice family", self.family, _FAMILIES)
        _require("mechanism", self.mechanism, _MECHANISMS)

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
        # The constructors are looked up by name on each call, where the
        # benchmark's tracer wraps them.
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

    def __post_init__(self):
        _require("baseline", self.baseline, BASELINES)
        _require("schedule", self.schedule, _SCHEDULES)
        _require_at_least(self, (("users", 1), ("tau", 1), ("rounds", 1),
                                 ("eta", 0)))

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


def local_sgd(task: Task, xs: np.ndarray, ys: np.ndarray, w: np.ndarray,
              etas, grad_norms: np.ndarray | None = None) -> np.ndarray:
    """
    The local-SGD updates of K users from w, on their picked samples: xs
    and ys of shapes (tau, K, d) and (tau, K), step j of row r on sample
    xs[j, r] with step size etas[j]. Each step's (K, d) slab of xs is
    C-contiguous, as one gather lays it out. Returns the (K, d) updates;
    grad_norms, one entry per row, is raised in place to the largest norm
    of each row's stochastic gradients. Raises ValueError unless etas has
    one step size per step.
    """
    if len(etas) != len(xs):
        raise ValueError(f"{len(etas)} step sizes for {len(xs)} steps")
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
    (tau, K) labels that `local_sgd` steps on, each one `take` of the rows.
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


def _phi(tau: int, rho_s: float, rho_c: float) -> float:
    """The decay schedule's offset phi = tau max(1, 4 rho_s / rho_c)."""
    return tau * max(1.0, 4.0 * rho_s / rho_c)


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
    phi = _phi(tau, rho_s, rho_c)
    b = ((1.0 + 36.0 * tau ** 2 * sigma2) * np.sum(alphas ** 2 * xis ** 2)
         + 6.0 * rho_s * psi
         + 8.0 * (tau - 1) ** 2 * np.sum(alphas * xis ** 2))
    lam = max((rho_c ** 2 + tau ** 2 * b) / (tau * rho_c), phi * w0_dist2)
    out = rho_s / (2.0 * (np.asarray(t) + phi)) * lam
    return float(out) if np.ndim(t) == 0 else out


def _sigma2(baseline: str, lat: Lattice, spec) -> float:
    """
    The sigma^2 of a baseline's Theorem-6 and -7 bounds, read from its
    stages: the mechanism's variance per sub-vector for a privatize stage
    alone or a PPN code stage, the cell error's for a code stage alone, 0
    for none. Separate codes the privatized row at a second scale, which
    the theorems' one zeta does not cover: NaN.
    """
    if baseline in PRIVATIZING and baseline in CODING:
        return math.nan
    if baseline in PRIVATIZING + PPN_CODING:
        return spec.variance
    if baseline in CODING:
        return lat.dimension * cell_variance_per_coord(lat)
    return 0.0


def _step_sizes(cfg: FlConfig, task: Task) -> np.ndarray:
    """The (rounds, tau) step sizes of a run (`FlConfig.schedule`)."""
    if cfg.schedule == "fixed":
        return np.full((cfg.rounds, cfg.tau), cfg.eta)
    phi = _phi(cfg.tau, task.rho_s, task.rho_c)
    t = np.arange(float(cfg.rounds * cfg.tau)).reshape(cfg.rounds, cfg.tau)
    return cfg.tau / (task.rho_c * (t + phi))


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
        hs = local_sgd(task, xs, ys, w, etas, best)
        w = fedavg_round(w, hs, task.alphas)
    return _XI_MARGIN * best


def privatize(hs: np.ndarray, lat: Lattice, spec, noise_keys) -> np.ndarray:
    """
    The privatize stage: a (K, d) batch of updates with direct mechanism
    noise added, row k's drawn from `default_rng(noise_keys[k])` at spec
    and added to its zeta-scaled sub-vectors (a zero row at unit scale).
    """
    k, d = hs.shape
    m = -(-d // lat.dimension)
    zetas = codec.scale_rows(hs, m)
    # No name holds the noise, so it is freed before a code stage runs.
    return hs + np.stack([
        privacy.mechanism_reference_sample(spec, m, np.random.default_rng(key))
        for key in noise_keys]).reshape(k, -1)[:, :d] / zetas[:, None]


def code(hs: np.ndarray, lat: Lattice, noise):
    """
    The code stage: a (K, d) batch encoded on lat and decoded with the
    dither the encoder added, reading the rows' dither and any PPN from
    `noise`: the (dither, PPN) arrays of `codec._draw` drawn ahead, coded
    in one whole-array pass (`codec._round_trip`), or a `codec._Streams`
    read block by block. Returns the (K, d) h_tilde and the overload
    count.
    """
    if isinstance(noise, codec._Streams):
        idx, zetas, overloaded = codec._encode(hs, lat, noise)
        hts = codec._decode(idx, zetas, lat, noise, hs.shape[1])
    else:
        hts, overloaded = codec._round_trip(hs, lat, *noise)
    return hts, int(np.count_nonzero(overloaded))


def uplink(baseline: str, hs: np.ndarray, lat: Lattice, spec, noise_keys,
           noise):
    """
    Send a round's (K, d) batch of updates, row k from user k, through a
    baseline's uplink: `privatize` with spec and noise_keys if it is in
    PRIVATIZING, then `code` with noise if it is in CODING (so separate
    codes the noisy rows at their own scale). Returns the (K, d) h_tilde
    and the overload count; each row comes out as it would if sent alone.
    """
    _require("baseline", baseline, BASELINES)
    if baseline in PRIVATIZING:
        hs = privatize(hs, lat, spec, noise_keys)
    return code(hs, lat, noise) if baseline in CODING else (hs, 0)


def _round_chunks(cfg: FlConfig, lat: Lattice, sampler, users: int,
                  dim: int):
    """
    The rounds of a run of `users` updates of dim coordinates each, in
    chunks of as many rounds as keep each noise array within `codec._BLOCK`
    coordinates (at least one round). Yields (rounds, noise) per chunk,
    noise one (dither, PPN) pair per round, the users' rows of the arrays
    of one `codec._draw` over the chunk's rows, for the baselines in
    CODING, or None per round for the others.
    """
    m = -(-dim // lat.dimension)
    per = max(1, codec._BLOCK // (users * m * lat.dimension))
    for r0 in range(0, cfg.rounds, per):
        rounds = range(r0, min(r0 + per, cfg.rounds))
        if cfg.baseline not in CODING:
            yield rounds, [None] * len(rounds)
            continue
        dith, ppn = codec._draw(_KeyedStreams.grid(cfg.seed, users, rounds),
                                lat, sampler, cfg.seed + 1, m)
        yield rounds, [
            (dith[i:i + users], None if ppn is None else ppn[i:i + users])
            for i in range(0, len(rounds) * users, users)]


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

    The rounds run a chunk at a time (`_round_chunks`). The baselines in
    CODING take their dither and jopeq its PPN from one draw per chunk;
    the server decodes with the dither the users added. A round computes
    only what the next needs: local SGD, uplink, aggregate and loss gap.
    Its `local_sgd` steps all users at once on the round's picked samples,
    gathered once (`_picked_samples`), with the step sizes of the list the
    Theorem-6 bound takes. The SNR, true aggregate and weights distortion
    of a chunk's rounds are computed at its end, and the bounds of every
    round after the last. Each row reads its own keyed stream, of (seed,
    user, round), so no output depends on the chunk size.
    """
    alphas = cfg.alpha_vector()
    if task is None:
        task = build_task(cfg.task, cfg.users, alphas, cfg.seed)
    etas = _step_sizes(cfg, task)

    lat, spec = cfg.codec.build()
    sampler = (privacy.build_ppn_sampler(spec, lat, allow_degenerate=True)
               if cfg.baseline in PPN_CODING else None)
    sigma2_bound = _sigma2(cfg.baseline, lat, spec)
    privatize_spec = spec if cfg.baseline in PRIVATIZING else None

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
            hs[i] = h = local_sgd(task, *next(samples), w, steps[r], norms)
            keys = ([[cfg.seed, _TAG_PPN_ONLY, k, r] for k in users]
                    if privatize_spec is not None else None)
            hts[i], ov = uplink(cfg.baseline, h, lat, privatize_spec, keys,
                                noise[i])
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
        snrs += codec.snr(hs, hts)

    xis = np.maximum(0.0 if xis is None else xis, _XI_MARGIN * norms)
    thm6 = theorem6_bound(sigma2_bound, etas, alphas, xis, cfg.tau)
    thm7 = theorem7_bound(sigma2_bound, task.psi, task.rho_s, task.rho_c,
                          alphas, xis, cfg.tau, w0_dist2,
                          cfg.tau * np.arange(1, cfg.rounds + 1))
    return [RoundMetrics(*row) for row in zip(
        range(cfg.rounds), gaps, snrs, dists, thm6.tolist(), thm7.tolist(),
        ovs)]
