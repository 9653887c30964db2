"""Named experiments mapping one-to-one onto the acceptance checks.

Every experiment is a pure function of its configuration (grid, path count,
master seed, difference steps): reports are byte-identical across runs and
across worker counts because path streams are keyed by path index and batch
results are reassembled in index order before any reduction.

Pass/fail thresholds are encoded here, not in the configuration, so they
cannot be tuned away from the command line.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .bessel import bessel_spectrum, default_truncation
from .chaos import exponential_vector, iterated_integral
from .drivers import martingale_batch, rotate
from .errors import ConfigurationError, DomainError
from .functionals import evaluate_functional, make_b1, make_functional, make_second_chaos
from .functionals import make_square
from .gradients import gradient_chaos, integration_by_parts_pair, lent_particle_sde_poisson
from .gradients import lent_particle_sde_table, supremum_decomposition, supremum_gradient
from .grid import TimeGrid
from .kernels import SimplexKernel
from .ou import (
    carre_du_champ,
    inner_hat_batch,
    mehler_samples,
    richardson_limit,
    semigroup_limit_gamma,
)
from .sde import make_sde
from .stepfn import StepFunction

DEFAULT_SEED = 20240901


@dataclass
class ExperimentConfig:
    experiment: str
    horizon: float = 1.0
    n_steps: int = 1000
    n_paths: int = 100_000
    master_seed: int = DEFAULT_SEED
    theta: float | None = None
    workers: int = 1
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigurationError(
                f"unknown experiment {self.experiment!r}; known: {sorted(EXPERIMENTS)}"
            )
        if self.horizon <= 0 or self.n_steps < 1 or self.n_paths < 1 or self.workers < 1:
            raise ConfigurationError("horizon, n_steps, n_paths and workers must be positive")
        if self.theta is not None and self.theta <= 0:
            raise ConfigurationError("theta must be positive")
        spec = EXPERIMENTS[self.experiment]
        unknown = set(self.params) - set(spec.param_defaults)
        if unknown:
            raise ConfigurationError(
                f"unknown parameters for {self.experiment!r}: {sorted(unknown)}"
            )

    @property
    def grid(self) -> TimeGrid:
        return TimeGrid(self.horizon, self.n_steps)

    def param(self, key: str):
        return self.params.get(key, EXPERIMENTS[self.experiment].param_defaults[key])

    def describe(self) -> dict:
        spec = EXPERIMENTS[self.experiment]
        params = {k: self.param(k) for k in spec.param_defaults}
        return {
            "experiment": self.experiment,
            "horizon": self.horizon,
            "n_steps": self.n_steps,
            "n_paths": self.n_paths,
            "master_seed": self.master_seed,
            "theta": self.theta,
            "workers": self.workers,
            "params": params,
        }


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    rows: list[dict]
    checks: list[dict]
    excluded_paths: int = 0

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def summary(self) -> dict:
        return {
            "version": __version__,
            "config": self.config.describe(),
            "checks": self.checks,
            "excluded_paths": self.excluded_paths,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class ExperimentSpec:
    description: str
    runner: callable
    param_defaults: dict = field(default_factory=dict)
    defaults: dict = field(default_factory=dict)  # config-field overrides


def parallel_batches(fn, n_paths: int, workers: int, chunk: int = 4096) -> list:
    """Run fn(start, count) over index batches; results in batch order.

    Aggregation stays order-insensitive because callers concatenate the
    returned per-path arrays in index order before reducing.
    """
    batches = []
    start = 0
    while start < n_paths:
        count = min(chunk, n_paths - start)
        batches.append((start, count))
        start += count
    if workers <= 1:
        return [fn(s, c) for s, c in batches]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda sc: fn(*sc), batches))


def _mean_se(samples: np.ndarray) -> tuple[float, float]:
    if samples.size < 2:
        raise DomainError(f"a standard error needs at least 2 samples, got {samples.size}")
    mean = float(samples.mean())
    se = float(samples.std(ddof=1) / math.sqrt(samples.size))
    return mean, se


def _check(name: str, passed: bool, **detail) -> dict:
    out = {"name": name, "passed": bool(passed)}
    out.update(detail)
    return out


# --- 1. isometry ------------------------------------------------------------

ISOMETRY_DRIVERS = ("brownian", "poisson", "compound", "rotation")


def _run_isometry(cfg: ExperimentConfig) -> ExperimentResult:
    grid = cfg.grid
    orders = cfg.param("orders")
    rotation_theta = cfg.param("rotation_theta")
    h = StepFunction.constant(1.0 / math.sqrt(grid.horizon), grid.horizon)
    kernels = {n: SimplexKernel.power(h, n) for n in orders}

    def batch(start, count):
        B = martingale_batch("brownian", grid, cfg.master_seed, start, count)
        N = martingale_batch("poisson", grid, cfg.master_seed, start, count)
        M = martingale_batch("compound", grid, cfg.master_seed, start, count)
        Y = rotate(B, N, rotation_theta)
        paths = {"brownian": B, "poisson": N, "compound": M, "rotation": Y}
        return {
            (n, d): iterated_integral(kernels[n], paths[d]) ** 2
            for n in orders
            for d in ISOMETRY_DRIVERS
        }

    parts = parallel_batches(batch, cfg.n_paths, cfg.workers)
    rows, checks = [], []
    for n in orders:
        target = kernels[n].isometry_target
        for d in ISOMETRY_DRIVERS:
            sq = np.concatenate([p[(n, d)] for p in parts])
            mean, se = _mean_se(sq)
            z = (mean - target) / se
            theta = rotation_theta if d == "rotation" else 0.0
            rows.append(
                {"order": n, "driver": d, "theta": theta, "empirical": mean,
                 "exact": target, "std_error": se, "z_score": z}
            )
            checks.append(_check(f"isometry_order{n}_{d}", abs(z) <= 4.0, z_score=z))
    return ExperimentResult(cfg, rows, checks)


# --- 2. covariance decay ----------------------------------------------------

def _run_covariance_decay(cfg: ExperimentConfig) -> ExperimentResult:
    grid = cfg.grid
    orders = cfg.param("orders")
    phis = cfg.param("phis")
    h = StepFunction.constant(1.0 / math.sqrt(grid.horizon), grid.horizon)
    kernels = {n: SimplexKernel.power(h, n) for n in orders}

    def batch(start, count):
        B = martingale_batch("brownian", grid, cfg.master_seed, start, count)
        N = martingale_batch("poisson", grid, cfg.master_seed, start, count)
        base = {n: iterated_integral(kernels[n], B) for n in orders}
        out = {}
        for phi in phis:
            Y = rotate(B, N, phi)
            for n in orders:
                out[(n, phi)] = iterated_integral(kernels[n], Y) * base[n]
        return out

    parts = parallel_batches(batch, cfg.n_paths, cfg.workers)
    rows, checks = [], []
    for n in orders:
        norm = kernels[n].isometry_target
        for phi in phis:
            prods = np.concatenate([p[(n, phi)] for p in parts]) / norm
            mean, se = _mean_se(prods)
            target = math.cos(phi) ** n
            z = (mean - target) / se
            rows.append(
                {"order": n, "phi": phi, "empirical": mean, "exact": target,
                 "std_error": se, "z_score": z}
            )
            checks.append(
                _check(f"covariance_order{n}_phi{phi:.4f}", abs(z) <= 4.0, z_score=z)
            )
    return ExperimentResult(cfg, rows, checks)


# --- 3. bessel --------------------------------------------------------------

def _run_bessel(cfg: ExperimentConfig) -> ExperimentResult:
    values = cfg.param("h_norm_sq")
    if isinstance(values, (int, float)):
        values = [float(values)]
    angles = cfg.param("angles")
    rows, checks = [], []
    for x in values:
        report = bessel_spectrum(x, default_truncation(x))
        for row in report.rows():
            rows.append({"h_norm_sq": x, **row})
        defect = report.parseval_defect()
        checks.append(
            _check(f"parseval_x{x}", defect <= 1e-10, defect=defect, target=math.exp(x))
        )
        for phi in angles:
            err = abs(report.fourier(phi) - math.exp(x * math.cos(phi)))
            checks.append(_check(f"fourier_x{x}_phi{phi:.4f}", err <= 1e-8, error=err))
        nonneg = bool(np.all(report.coefficients >= 0.0))
        checks.append(_check(f"nonnegative_x{x}", nonneg))
    return ExperimentResult(cfg, rows, checks)


# --- 4. exponential-vector covariance --------------------------------------

def _run_expvector_covariance(cfg: ExperimentConfig) -> ExperimentResult:
    grid = cfg.grid
    phis = cfg.param("phis")
    h_norm_sq = cfg.param("h_norm_sq")
    h = StepFunction.constant(math.sqrt(h_norm_sq / grid.horizon), grid.horizon)
    zero = StepFunction.constant(0.0, grid.horizon)
    T = grid.horizon

    def batch(start, count):
        B = martingale_batch("brownian", grid, cfg.master_seed, start, count)
        N = martingale_batch("poisson", grid, cfg.master_seed, start, count)
        base = exponential_vector(h, zero, B, N, 0.0, T)
        return {phi: exponential_vector(h, zero, B, N, phi, T) * base for phi in phis}

    parts = parallel_batches(batch, cfg.n_paths, cfg.workers)
    rows, checks = [], []
    for phi in phis:
        prods = np.concatenate([p[phi] for p in parts])
        mean, se = _mean_se(prods)
        target = math.exp(h_norm_sq * math.cos(phi))
        z = (mean - target) / se
        rows.append({"phi": phi, "empirical": mean, "exact": target,
                     "std_error": se, "z_score": z})
        checks.append(_check(f"expvector_phi{phi:.4f}", abs(z) <= 4.0, z_score=z))
    return ExperimentResult(cfg, rows, checks)


# --- 5. finite-chaos energy -------------------------------------------------

def _run_chaos_energy(cfg: ExperimentConfig) -> ExperimentResult:
    grid = cfg.grid
    theta = cfg.theta if cfg.theta is not None else 1e-3
    F = make_functional(cfg.param("functional"), grid.horizon)
    target = F.gradient_energy

    def batch(start, count):
        B = martingale_batch("brownian", grid, cfg.master_seed, start, count)
        out = {}
        for kind in ("poisson", "compound"):
            M = martingale_batch(kind, grid, cfg.master_seed, start, count)
            out[kind] = gradient_chaos(F, B, M, theta) ** 2
        return out

    parts = parallel_batches(batch, cfg.n_paths, cfg.workers)
    rows, checks = [], []
    for kind in ("poisson", "compound"):
        sq = np.concatenate([p[kind] for p in parts])
        mean, se = _mean_se(sq)
        z = (mean - target) / se
        rows.append({"driver": kind, "theta": theta, "empirical": mean,
                     "exact": target, "std_error": se, "z_score": z})
        checks.append(_check(f"chaos_energy_{kind}", abs(z) <= 4.0, z_score=z))
    return ExperimentResult(cfg, rows, checks)


# --- 6. SDE lent particle vs flow oracle ------------------------------------

def _run_sde_lent_particle(cfg: ExperimentConfig) -> ExperimentResult:
    grid = cfg.grid
    theta = cfg.theta if cfg.theta is not None else 1e-4
    names = cfg.param("sde")
    if isinstance(names, str):
        names = [names]
    u_list = cfg.param("u_grid")
    t_list = cfg.param("t_grid")
    sde_params = cfg.param("sde_params")
    specs = [make_sde(name, **sde_params.get(name, {})) for name in names]

    def batch(start, count):
        B = martingale_batch("brownian", grid, cfg.master_seed, start, count)
        return [lent_particle_sde_table(spec, B, u_list, t_list, theta) for spec in specs]

    parts = parallel_batches(batch, cfg.n_paths, cfg.workers, chunk=512)
    rows, checks = [], []
    excluded = 0
    for i, name in enumerate(names):
        worst_frac = 1.0
        worst_rel = 0.0
        for u, t in sorted(parts[0][i]):
            est = np.concatenate([p[i][u, t].value for p in parts])
            oracle = np.concatenate([p[i][u, t].analytic for p in parts])
            finite = np.isfinite(est) & np.isfinite(oracle)
            excluded += int(np.sum(~finite))
            rel = np.abs(est[finite] - oracle[finite]) / (np.abs(oracle[finite]) + 1e-8)
            frac_ok = float(np.mean(rel <= 1e-2))
            worst_frac = min(worst_frac, frac_ok)
            worst_rel = max(worst_rel, float(rel.max()))
            rows.append(
                {"sde": name, "u": u, "t": t, "method": "jump_difference",
                 "estimate": float(est[finite].mean()),
                 "oracle": float(oracle[finite].mean()),
                 "max_rel_err": float(rel.max()), "frac_within_1e-2": frac_ok}
            )
        checks.append(
            _check(f"sde_{name}_frac_ok", worst_frac >= 0.99, worst_frac=worst_frac)
        )
        if name == "additive":
            checks.append(
                _check("sde_additive_exact", worst_rel <= 1e-10, max_rel_err=worst_rel)
            )
    total = cfg.n_paths * len(names)
    checks.append(
        _check("sde_exclusion_rate", excluded <= 0.001 * total, excluded=excluded)
    )
    return ExperimentResult(cfg, rows, checks, excluded_paths=excluded)


# --- 7. Poisson-driver variant ---------------------------------------------

def _run_sde_poisson(cfg: ExperimentConfig) -> ExperimentResult:
    grid = cfg.grid
    theta = cfg.theta if cfg.theta is not None else 1e-4
    name = cfg.param("sde")
    spec = make_sde(name, **cfg.param("sde_params").get(name, {}))

    def batch(start, count):
        B = martingale_batch("brownian", grid, cfg.master_seed, start, count)
        M = martingale_batch("compound", grid, cfg.master_seed, start, count)
        jumps = M.jump_increments
        n_jumps = np.count_nonzero(jumps, axis=-1)
        single = (n_jumps == 1) & (np.abs(jumps).max(axis=-1) == 1.0)
        # on single-jump paths the sum is the mark J_1; the flow oracle at U_1 is `analytic`
        grad = lent_particle_sde_poisson(spec, B, M, grid.horizon, theta)
        return {
            "single": single,
            "debiased": np.where(single, jumps.sum(axis=-1) * grad.value, np.nan),
            "oracle": np.where(single, grad.analytic, np.nan),
        }

    parts = parallel_batches(batch, cfg.n_paths, cfg.workers, chunk=512)
    single = np.concatenate([p["single"] for p in parts])
    debiased = np.concatenate([p["debiased"] for p in parts])[single]
    oracle = np.concatenate([p["oracle"] for p in parts])[single]
    rel = np.abs(debiased - oracle) / (np.abs(oracle) + 1e-8)
    frac_ok = float(np.mean(rel <= 1e-2))
    freq = float(np.mean(single))
    freq_se = math.sqrt(freq * (1.0 - freq) / cfg.n_paths)
    z = (freq - math.exp(-1.0)) / freq_se
    rows = [
        {"sde": name, "u": "U1", "t": grid.horizon, "method": "jump_difference",
         "estimate": float(debiased.mean()), "oracle": float(oracle.mean()),
         "max_rel_err": float(rel.max()), "frac_within_1e-2": frac_ok,
         "single_jump_freq": freq, "freq_z_score": z},
    ]
    checks = [
        _check("poisson_frac_ok", frac_ok >= 0.99, frac_ok=frac_ok),
        _check("single_jump_freq", abs(z) <= 4.0, freq=freq, z_score=z),
    ]
    return ExperimentResult(cfg, rows, checks)


# --- 8. integration by parts ------------------------------------------------

def _ibp_pairs(horizon: float):
    unit = StepFunction.constant(1.0, horizon)
    h = StepFunction.constant(1.0 / math.sqrt(horizon), horizon)
    return [
        ("b1_unit", make_b1(horizon), unit),
        ("second_chaos_h", make_second_chaos(horizon), h),
        ("square_unit", make_square(horizon), unit),
    ]


def _run_ibp(cfg: ExperimentConfig) -> ExperimentResult:
    grid = cfg.grid
    rows, checks = [], []
    for label, F, G in _ibp_pairs(grid.horizon):

        def batch(start, count, F=F, G=G):
            B = martingale_batch("brownian", grid, cfg.master_seed, start, count)
            lhs, rhs = integration_by_parts_pair(F, G, B)
            lhs = np.broadcast_to(np.asarray(lhs, dtype=float), (count,))
            rhs = np.broadcast_to(np.asarray(rhs, dtype=float), (count,))
            return lhs.copy(), rhs.copy()

        parts = parallel_batches(batch, cfg.n_paths, cfg.workers)
        lhs = np.concatenate([p[0] for p in parts])
        rhs = np.concatenate([p[1] for p in parts])
        diff_mean, pooled_se = _mean_se(lhs - rhs)
        z = diff_mean / pooled_se
        rows.append({"pair": label, "lhs": float(lhs.mean()), "rhs": float(rhs.mean()),
                     "pooled_std_error": pooled_se, "z_score": z})
        checks.append(_check(f"ibp_{label}", abs(diff_mean) <= 4.0 * pooled_se, z_score=z))
    return ExperimentResult(cfg, rows, checks)


# --- 9. Mehler suite --------------------------------------------------------

def _run_mehler(cfg: ExperimentConfig) -> ExperimentResult:
    grid = cfg.grid
    n_outer = cfg.param("n_outer")
    n_inner = cfg.param("n_inner")
    t_eigen = cfg.param("t_eigen")
    t_list = cfg.param("t_bracket")
    theta = cfg.theta if cfg.theta is not None else 1e-4
    b1 = make_b1(grid.horizon)
    f2 = make_second_chaos(grid.horizon)
    rows, checks = [], []

    def outer_stats(i):
        B = martingale_batch("brownian", grid, cfg.master_seed, i, 1).select(0)
        hats = inner_hat_batch(grid, cfg.master_seed, i, n_inner)
        gamma_b1 = carre_du_champ(b1, B, hats, theta)
        gamma_f2 = carre_du_champ(f2, B, hats, theta)
        brackets = semigroup_limit_gamma(f2, B, t_list, hats)
        return gamma_b1, richardson_limit(list(zip(t_list, brackets))) - gamma_f2

    stats = parallel_batches(lambda s, c: [outer_stats(s + j) for j in range(c)],
                             n_outer, cfg.workers, chunk=max(1, n_outer // 16))
    flat = [x for part in stats for x in part]
    gamma_b1 = np.array([x[0] for x in flat])
    mean_g, se_g = _mean_se(gamma_b1)
    z_g = (mean_g - 1.0) / se_g
    rows.append({"quantity": "gamma_b1", "t": 0.0, "estimate": mean_g,
                 "std_error": se_g, "target": 1.0})
    checks.append(_check("gamma_b1", abs(z_g) <= 4.0, z_score=z_g))

    # eigenvalue property P_t F = lam F on a few outer paths, inner-MC error
    # bars; lam is measured by weighted least squares over the paths
    if cfg.param("n_eigen_paths") < 1:
        raise ConfigurationError("n_eigen_paths must be >= 1")
    eigen = {1: [], 2: []}  # per order: (F, inner mean, inner SE) per path
    for i in range(cfg.param("n_eigen_paths")):
        B = martingale_batch("brownian", grid, cfg.master_seed, 10_000 + i, 1).select(0)
        hats = inner_hat_batch(grid, cfg.master_seed, 10_000 + i, n_inner)
        for n, F in ((1, b1), (2, f2)):
            eigen[n].append((float(evaluate_functional(F, B)),
                             *_mean_se(mehler_samples(F, B, t_eigen, hats))))
    for n, paths in eigen.items():
        lam = math.exp(-n * t_eigen / 2.0)
        worst = 0.0
        ok = True
        for f, mean, se in paths:
            dev = abs(mean - lam * f)
            worst = max(worst, dev / se)
            ok = ok and dev <= 4.0 * se
        f, mean, se = np.array(paths).T
        norm = float(np.sum(f**2))
        rows.append({"quantity": f"eigenvalue_n{n}", "t": t_eigen,
                     "estimate": float(np.sum(f * mean)) / norm,
                     "std_error": math.sqrt(float(np.sum(f**2 * se**2))) / norm,
                     "target": lam})
        checks.append(_check(f"eigenvalue_n{n}", ok, worst_z=worst))

    diffs = np.array([x[1] for x in flat])
    mean_d, se_d = _mean_se(diffs)
    z_d = mean_d / se_d
    rows.append({"quantity": "bracket_vs_gamma", "t": min(t_list), "estimate": mean_d,
                 "std_error": se_d, "target": 0.0})
    checks.append(_check("bracket_vs_gamma", abs(mean_d) <= 3.0 * se_d, z_score=z_d))
    return ExperimentResult(cfg, rows, checks)


# --- 10. supremum -----------------------------------------------------------

def _run_supremum(cfg: ExperimentConfig) -> ExperimentResult:
    grid = cfg.grid
    u = cfg.param("u")
    a = cfg.param("a")

    def batch(start, count):
        B = martingale_batch("brownian", grid, cfg.master_seed, start, count)
        before, after = supremum_decomposition(None, B, u)
        gap = after - before
        tied = (gap == 0.0) | ((gap < 0.0) & (gap > -a))
        # the library's difference quotient must be the 0/1 indicator averaged below
        quotient = supremum_gradient(None, B, u, a)[~tied]
        offending = int(np.sum(quotient != (gap[~tied] >= 0.0)))
        return gap, tied, offending

    parts = parallel_batches(batch, cfg.n_paths, cfg.workers)
    gap = np.concatenate([p[0] for p in parts])
    tied = np.concatenate([p[1] for p in parts])
    offending = sum(p[2] for p in parts)
    indicator = (gap[~tied] >= 0.0).astype(float)
    mean, se = _mean_se(indicator)
    z = (mean - 0.5) / se
    rows = [{"u": u, "a": a, "mean_gradient": mean, "std_error": se,
             "target": 0.5, "tied_paths": int(tied.sum())}]
    checks = [
        _check("supremum_binary", offending == 0, offending_paths=offending),
        _check("supremum_mean", abs(z) <= 4.0, z_score=z),
        _check("supremum_tie_rate", tied.mean() <= 0.001, tie_rate=float(tied.mean())),
    ]
    return ExperimentResult(cfg, rows, checks, excluded_paths=int(tied.sum()))


# --- 11. reproducibility ----------------------------------------------------

def _run_reproducibility(cfg: ExperimentConfig) -> ExperimentResult:
    from .reporting import render_csv, render_json

    target = cfg.param("target")
    if target == cfg.experiment:
        raise ConfigurationError("reproducibility cannot target itself")
    n_paths = cfg.param("target_n_paths")
    renders = []
    for workers in (1, 1, 8):
        sub = ExperimentConfig(
            experiment=target,
            horizon=cfg.horizon,
            n_steps=cfg.n_steps,
            n_paths=n_paths,
            master_seed=cfg.master_seed,
            workers=workers,
        )
        res = EXPERIMENTS[target].runner(sub)
        summary = res.summary()
        summary["config"]["workers"] = None  # worker count may legally differ
        renders.append((render_csv(res.rows), render_json(summary)))
    rerun_ok = renders[0] == renders[1]
    workers_ok = renders[0] == renders[2]
    rows = [{"target": target, "n_paths": n_paths,
             "rerun_identical": rerun_ok, "workers_identical": workers_ok}]
    checks = [
        _check("rerun_identical", rerun_ok),
        _check("workers_identical", workers_ok),
    ]
    return ExperimentResult(cfg, rows, checks)


EXPERIMENTS: dict[str, ExperimentSpec] = {}


def _register(name, runner, description, param_defaults=None, defaults=None):
    EXPERIMENTS[name] = ExperimentSpec(
        description, runner, param_defaults or {}, defaults or {}
    )


_register(
    "isometry", _run_isometry,
    "E[I_n(f_n)^2] = n! ||f_n||^2 for orders 1-3 against all drivers",
    {"orders": (1, 2, 3), "rotation_theta": 0.7},
)
_register(
    "covariance-decay", _run_covariance_decay,
    "E[I_n^phi I_n^0] / (n! ||f_n||^2) = cos^n(phi)",
    {"orders": (1, 2, 3),
     "phis": (0.0, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2)},
)
_register(
    "bessel", _run_bessel,
    "Parseval and Fourier identities of the spectral coefficients",
    {"h_norm_sq": (0.5, 1.0, 4.0, 10.0),
     "angles": (0.0, math.pi / 4, math.pi / 2, math.pi)},
)
_register(
    "exp-vector-covariance", _run_expvector_covariance,
    "E[E^phi E^0] = exp(||h||^2 cos(phi)) for the exponential vector",
    {"phis": (0.0, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2),
     "h_norm_sq": 1.0},
)
_register(
    "chaos-energy", _run_chaos_energy,
    "E[((F^t - F^-t)/2t)^2] = sum n n! ||f_n||^2 for both jump drivers",
    {"functional": "three-term"},
)
_register(
    "sde-lent-particle", _run_sde_lent_particle,
    "jump-difference D_u X_t vs the first-variation flow oracle",
    {"sde": ("gbm", "additive", "sine-diffusion"),
     "sde_params": {},
     "u_grid": (0.08, 0.24, 0.4, 0.56, 0.72),
     "t_grid": (0.76, 0.82, 0.88, 0.94, 1.0)},
    defaults={"n_steps": 10_000, "n_paths": 1000},
)
_register(
    "sde-poisson", _run_sde_poisson,
    "compound-Poisson perturbation: J1 x estimate vs flow oracle at U1",
    {"sde": "gbm", "sde_params": {}},
    defaults={"n_steps": 10_000, "n_paths": 1000},
)
_register(
    "ibp", _run_ibp,
    "E[F int G dB] = E[int D_u F G_u du] for the registered (F, G) pairs",
)
_register(
    "mehler", _run_mehler,
    "Mehler semigroup: Gamma[B_1], chaos eigenvalues, bracket limit",
    {"n_outer": 400, "n_inner": 256, "n_eigen_paths": 8,
     "t_eigen": 0.3, "t_bracket": (1e-1, 1e-2, 1e-3)},
)
_register(
    "supremum", _run_supremum,
    "gradient of sup(B + K): 0/1 values and the arcsine mean at u = 0.5",
    {"u": 0.5, "a": 1e-6},
)
_register(
    "reproducibility", _run_reproducibility,
    "byte-identical reports across reruns and 1-vs-8 workers",
    {"target": "covariance-decay", "target_n_paths": 4097},
)


def make_config(experiment: str, **overrides) -> ExperimentConfig:
    spec = EXPERIMENTS.get(experiment)
    if spec is None:
        raise ConfigurationError(
            f"unknown experiment {experiment!r}; known: {sorted(EXPERIMENTS)}"
        )
    fields = dict(spec.defaults)
    params = overrides.pop("params", {})
    fields.update({k: v for k, v in overrides.items() if v is not None})
    return ExperimentConfig(experiment=experiment, params=params, **fields)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    return EXPERIMENTS[cfg.experiment].runner(cfg)


def list_experiments(filter_text: str = "") -> list[tuple[str, str, dict]]:
    out = []
    for name in sorted(EXPERIMENTS):
        if filter_text and filter_text not in name:
            continue
        spec = EXPERIMENTS[name]
        out.append((name, spec.description, dict(spec.param_defaults)))
    return out
