"""Named experiments mapping one-to-one onto the acceptance checks.

Every experiment is a pure function of its configuration (grid, path count,
master seed, parameters): reports are byte-identical across runs and
across worker counts because path streams are keyed by path index and
``parallel_batches`` joins the per-path results of its batches in index order
before any reduction.

Pass/fail thresholds are encoded here, not in the configuration, so they
cannot be tuned away from the command line.
"""

from __future__ import annotations

import math
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__
from .bessel import bessel_spectrum, default_truncation, require_exponent
# iterated_integral is unused here: the benchmark's restore test reads this binding
from .chaos import chaotic_extension, exponential_vector, iterated_integral, iterated_integrals
from .drivers import brownian_rows, martingale_batch, rotate
from .errors import ConfigurationError, require_kind
from .functionals import evaluate_functional, make_b1, make_functional, make_second_chaos
from .functionals import FUNCTIONALS, make_square
from .gradients import gradient_chaos, integration_by_parts_pair, lent_particle_sde_poisson
from .gradients import lent_particle_sde_table, require_step, supremum_decomposition
from .gradients import supremum_quotient
from .grid import TimeGrid
from .kernels import ChaosVector, SimplexKernel
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
JOINED_BYTES = 2**30  # the per-path results a run joins, counted at 8 bytes a value


def _param_value(name: str, value, default):
    """value checked against the kind of its registered default: a tuple's entries by
    its first entry (one value becomes a 1-tuple), at least one and without repeats, since
    each entry gives its own report rows and checks; a dict's (``sde_params``) as objects."""
    if isinstance(default, tuple):
        value = value if isinstance(value, (list, tuple)) else (value,)
        if not value:
            raise ConfigurationError(f"{name} must be a non-empty list")
        for i, entry in enumerate(value):
            require_kind(f"{name}[{i}]", entry, type(default[0]))
            if entry in value[:i]:
                raise ConfigurationError(f"{name}[{i}] repeats an earlier entry: {entry!r}")
        return value
    require_kind(name, value, type(default))
    if isinstance(default, dict):
        for key, entry in value.items():
            require_kind(f"{name}[{key!r}]", entry, dict)
    return value


@dataclass
class ExperimentConfig:
    """The configuration schema: field kinds come from the annotations, parameter
    kinds from the registered defaults, and every number is finite (``require_kind``).
    Parameter ranges are the runners' to check."""

    experiment: str
    horizon: float = 1.0
    n_steps: int = 1000
    n_paths: int = 100_000
    master_seed: int = DEFAULT_SEED
    workers: int = 1
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, kind in _FIELD_KINDS.items():
            require_kind(name, getattr(self, name), kind)
        if self.experiment not in EXPERIMENTS:
            raise ConfigurationError(
                f"unknown experiment {self.experiment!r}; known: {sorted(EXPERIMENTS)}"
            )
        if self.n_steps < 1 or self.n_paths < 1 or self.workers < 1:
            raise ConfigurationError("n_steps, n_paths and workers must be positive")
        TimeGrid(self.horizon, self.n_steps)  # the grid's rules, also where none is built
        if self.master_seed < 0:
            raise ConfigurationError(f"master_seed must be non-negative, got {self.master_seed}")
        spec = EXPERIMENTS[self.experiment]
        unknown = set(self.params) - set(spec.param_defaults)
        if unknown:
            raise ConfigurationError(
                f"unknown parameters for {self.experiment!r}: {sorted(unknown)}"
            )
        # a new dict with the defaults filled in: callers reuse theirs
        given = {k: _param_value(k, v, spec.param_defaults[k]) for k, v in self.params.items()}
        self.params = {**spec.param_defaults, **given}

    @property
    def grid(self) -> TimeGrid:
        return TimeGrid(self.horizon, self.n_steps)

    def param(self, key: str):
        return self.params[key]

    def describe(self) -> dict:
        return asdict(self)


_FIELD_KINDS = typing.get_type_hints(ExperimentConfig)  # field -> kind


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
    runner: callable
    description: str
    param_defaults: dict = field(default_factory=dict)
    defaults: dict = field(default_factory=dict)  # config-field overrides


def parallel_batches(fn, n_paths: int, workers: int, chunk: int, width: int) -> dict:
    """Run fn(start, count) over index batches and join them in index order.

    fn returns a dict of arrays with the same keys for every batch, each with
    rows from the paths of its batch, one per path or fewer (a selection); each
    entry comes back concatenated over the batches in path-index order, so
    every reduction sees the same arrays whatever the worker count or chunk.
    Every runner passes ``chunk=grid.batch_rows``: as many paths as keep one
    paths x steps float64 array within ``grid.BATCH_BYTES``, at most
    ``grid.MAX_BATCH_ROWS``; a grid on which not one path fits is refused when
    it is built.  fn returns at most ``width`` values per path, and a run whose joined
    arrays could pass JOINED_BYTES is refused before any batch exists.
    """
    if n_paths < 1:
        raise ConfigurationError(f"need at least one path, got {n_paths}")
    if n_paths * width * 8 > JOINED_BYTES:
        raise ConfigurationError(f"{n_paths} paths of {width} results pass {JOINED_BYTES} bytes")
    batches = [(s, min(chunk, n_paths - s)) for s in range(0, n_paths, chunk)]
    if workers <= 1:
        parts = [fn(s, c) for s, c in batches]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda sc: fn(*sc), batches))
    return {key: np.concatenate([p[key] for p in parts]) for key in parts[0]}


def _mean_se(samples: np.ndarray) -> tuple[float, float]:
    if samples.size < 2:
        raise ConfigurationError(
            f"a standard error needs at least 2 samples, got {samples.size}")
    mean = float(samples.mean())
    se = float(samples.std(ddof=1) / math.sqrt(samples.size))
    if se == 0.0:
        raise ConfigurationError(
            f"all {samples.size} samples are {mean}: the standard error is 0")
    return mean, se


def _check(name: str, passed: bool, **detail) -> dict:
    out = {"name": name, "passed": bool(passed)}
    out.update(detail)
    return out


def _z_test(name: str, samples: np.ndarray, target: float, bound: float = 4.0):
    """Sample mean against target: (mean, standard error, z, check |z| <= bound)."""
    mean, se = _mean_se(samples)
    z = (mean - target) / se
    return mean, se, z, _check(name, abs(z) <= bound, z_score=z)


def _z_result(cfg: ExperimentConfig, tests) -> ExperimentResult:
    """One z-tested row per (check name, row labels, samples, target)."""
    rows, checks = [], []
    for name, labels, samples, target in tests:
        mean, se, z, check = _z_test(name, samples, target)
        rows.append({**labels, "empirical": mean, "exact": target,
                     "std_error": se, "z_score": z})
        checks.append(check)
    return ExperimentResult(cfg, rows, checks)


# --- 1. isometry ------------------------------------------------------------

ISOMETRY_DRIVERS = ("brownian", "poisson", "compound", "rotation")


def _power_kernels(cfg: ExperimentConfig) -> tuple:
    """``orders`` and {n: h^(x)n} for its entries, h = 1/sqrt(T), before any path is drawn."""
    orders = cfg.param("orders")
    if min(orders) < 1:  # I_0 is a constant: its standard error is 0
        raise ConfigurationError(f"orders must be a non-empty list of orders >= 1, got {orders}")
    h = StepFunction.constant(1.0 / math.sqrt(cfg.horizon), cfg.horizon)
    return orders, {n: SimplexKernel.power(h, n) for n in orders}


def _run_isometry(cfg: ExperimentConfig) -> ExperimentResult:
    grid = cfg.grid
    orders, kernels = _power_kernels(cfg)
    rotation_theta = cfg.param("rotation_theta")

    def batch(start, count):
        B = martingale_batch("brownian", grid, cfg.master_seed, start, count)
        N = martingale_batch("poisson", grid, cfg.master_seed, start, count)
        M = martingale_batch("compound", grid, cfg.master_seed, start, count)
        paths = (B, N, M, rotate(B, N, rotation_theta))
        return {(n, d): value ** 2 for d, path in zip(ISOMETRY_DRIVERS, paths)
                for n, value in zip(kernels, iterated_integrals(list(kernels.values()), path))}

    joined = parallel_batches(batch, cfg.n_paths, cfg.workers, chunk=grid.batch_rows,
                              width=len(kernels) * len(ISOMETRY_DRIVERS))
    return _z_result(cfg, [
        (f"isometry_order{n}_{d}",
         {"order": n, "driver": d, "theta": rotation_theta if d == "rotation" else 0.0},
         joined[n, d], kernels[n].isometry_target)
        for n in orders
        for d in ISOMETRY_DRIVERS
    ])


# --- 2. covariance decay ----------------------------------------------------

def _run_covariance_decay(cfg: ExperimentConfig) -> ExperimentResult:
    grid = cfg.grid
    orders, kernels = _power_kernels(cfg)
    phis = cfg.param("phis")
    F = ChaosVector(0.0, tuple(kernels.values()))

    def batch(start, count):
        B = martingale_batch("brownian", grid, cfg.master_seed, start, count)
        N = martingale_batch("poisson", grid, cfg.master_seed, start, count)
        rotated = chaotic_extension(F, B, N)
        base = rotated.integrals(0.0)
        out = {}
        for phi in phis:
            for n, value, b in zip(kernels, rotated.integrals(phi), base):
                out[(n, phi)] = value * b
        return out

    joined = parallel_batches(batch, cfg.n_paths, cfg.workers, chunk=grid.batch_rows,
                              width=len(kernels) * len(phis))
    return _z_result(cfg, [
        (f"covariance_order{n}_phi{phi:.4f}", {"order": n, "phi": phi},
         joined[n, phi] / kernels[n].isometry_target, math.cos(phi) ** n)
        for n in orders
        for phi in phis
    ])


# --- 3. bessel --------------------------------------------------------------

def _run_bessel(cfg: ExperimentConfig) -> ExperimentResult:
    values = cfg.param("h_norm_sq")
    angles = cfg.param("angles")
    for x in values:
        require_exponent(x)
    rows, checks = [], []
    for x in values:
        report = bessel_spectrum(x, default_truncation(x))
        for row in report.rows():
            rows.append({"h_norm_sq": x, **row})
        # roundings of n_max + 1 terms of size e^x (and of n phi): correct code stays below
        # 0.09 (n_max + 1) eps e^x max(1, |phi|); the bound is a quarter, 9.9e-11 at x = 10
        rounding = (report.truncation_n + 1) * math.ulp(1.0) / 4.0 * math.exp(x)
        defect = report.parseval_defect()
        checks.append(
            _check(f"parseval_x{x}", defect <= rounding, defect=defect, target=math.exp(x))
        )
        for phi in angles:
            err = abs(report.fourier(phi) - math.exp(x * math.cos(phi)))
            checks.append(_check(f"fourier_x{x}_phi{phi:.4f}",
                                 err <= rounding * max(1.0, abs(phi)), error=err))
        nonneg = bool(np.all(report.coefficients >= 0.0))
        checks.append(_check(f"nonnegative_x{x}", nonneg))
    return ExperimentResult(cfg, rows, checks)


# --- 4. exponential-vector covariance --------------------------------------

def _run_expvector_covariance(cfg: ExperimentConfig) -> ExperimentResult:
    grid = cfg.grid
    phis = cfg.param("phis")
    h_norm_sq = cfg.param("h_norm_sq")
    if h_norm_sq <= 0.0:
        raise ConfigurationError(f"h_norm_sq must be positive and finite, got {h_norm_sq}")
    require_exponent(h_norm_sq)  # the target e^h_norm_sq must be finite
    h = StepFunction.constant(math.sqrt(h_norm_sq / grid.horizon), grid.horizon)

    def batch(start, count):
        B = martingale_batch("brownian", grid, cfg.master_seed, start, count)
        N = martingale_batch("poisson", grid, cfg.master_seed, start, count)
        base, *rotated = exponential_vector(h, B, N, (0.0, *phis))
        return {phi: value * base for phi, value in zip(phis, rotated)}

    joined = parallel_batches(batch, cfg.n_paths, cfg.workers, chunk=grid.batch_rows,
                              width=len(phis))
    return _z_result(cfg, [
        (f"expvector_phi{phi:.4f}", {"phi": phi}, joined[phi],
         math.exp(h_norm_sq * math.cos(phi)))
        for phi in phis
    ])


# --- 5. finite-chaos energy -------------------------------------------------

def _run_chaos_energy(cfg: ExperimentConfig) -> ExperimentResult:
    grid = cfg.grid
    theta = cfg.param("theta")
    require_step("theta", theta)  # theta and the functional fail before any path is drawn
    name = cfg.param("functional")
    F = make_functional(name, grid.horizon)
    if not isinstance(F, ChaosVector):  # F-sharp's energy is read off the kernels
        chaos = [key for key, make in FUNCTIONALS.items() if isinstance(make(1.0), ChaosVector)]
        raise ConfigurationError(f"functional must be a chaos vector, one of {chaos}; got {name!r}")
    target = F.gradient_energy

    def batch(start, count):
        B = martingale_batch("brownian", grid, cfg.master_seed, start, count)
        out = {}
        for kind in ("poisson", "compound"):
            M = martingale_batch(kind, grid, cfg.master_seed, start, count)
            out[kind] = gradient_chaos(chaotic_extension(F, B, M), theta) ** 2
        return out

    joined = parallel_batches(batch, cfg.n_paths, cfg.workers, chunk=grid.batch_rows, width=2)
    return _z_result(cfg, [
        (f"chaos_energy_{kind}", {"driver": kind, "theta": theta}, joined[kind], target)
        for kind in ("poisson", "compound")
    ])


# --- 6. SDE lent particle vs flow oracle ------------------------------------

def _agreement_row(name: str, u, t: float, estimate: np.ndarray, oracle: np.ndarray):
    """One SDE report row over the paths whose estimate and oracle are both finite (the
    means, the largest relative error of the estimates against the oracle and the share
    of them within 1e-2; NaN where no path is finite), and the mask of the other paths."""
    excluded = ~(np.isfinite(estimate) & np.isfinite(oracle))
    estimate, oracle = estimate[~excluded], oracle[~excluded]
    rel = np.abs(estimate - oracle) / (np.abs(oracle) + 1e-8)
    stats = ((estimate.mean(), oracle.mean(), rel.max(), np.mean(rel <= 1e-2)) if rel.size
             else (math.nan,) * 4)
    keys = ("estimate", "oracle", "max_rel_err", "frac_within_1e-2")
    return {"sde": name, "u": u, "t": t, "method": "jump_difference",
            **dict(zip(keys, map(float, stats)))}, excluded


def _make_sdes(cfg: ExperimentConfig, names) -> list:
    """make_sde for each name with its ``sde_params`` entry; an entry for an SDE
    that is not run is a configuration error (a misspelt name would run the defaults)."""
    sde_params = cfg.param("sde_params")
    unknown = set(sde_params) - set(names)
    if unknown:
        raise ConfigurationError(
            f"sde_params names SDEs that are not run: {sorted(unknown)}; run: {list(names)}")
    return [make_sde(name, **sde_params.get(name, {})) for name in names]


def _run_sde_lent_particle(cfg: ExperimentConfig) -> ExperimentResult:
    grid = cfg.grid
    theta = cfg.param("theta")
    require_step("theta", theta)  # theta and the SDEs fail before any path is drawn
    names = cfg.param("sde")
    u_list = cfg.param("u_grid")
    t_list = cfg.param("t_grid")
    specs = _make_sdes(cfg, names)
    ms = [grid.index_of(t) for t in t_list]  # an off-grid t fails before any path is drawn
    ks = [grid.index_at_or_after(u) for u in u_list]  # and so does a u outside (0, T]
    if not any(k <= m for k in ks for m in ms):  # and a report without a row
        raise ConfigurationError(f"no pair of u_grid {u_list} and t_grid {t_list} has u <= t")

    def batch(start, count):
        B = martingale_batch("brownian", grid, cfg.master_seed, start, count)
        return {
            (i, u, t): np.stack([g.value, g.analytic], axis=-1)
            for i, spec in enumerate(specs)
            for (u, t), g in lent_particle_sde_table(spec, B, u_list, t_list, theta).items()
        }

    joined = parallel_batches(batch, cfg.n_paths, cfg.workers, chunk=grid.batch_rows,
                              width=2 * len(specs) * len(ks) * len(ms))
    rows, checks = [], []
    excluded = 0
    for i, name in enumerate(names):
        own = [_agreement_row(name, u, t, *joined[i, u, t].T)
               for u, t in sorted(key[1:] for key in joined if key[0] == i)]
        rows += [row for row, _ in own]
        # a path counts once per SDE, however many of its rows are non-finite
        excluded += int(np.sum(np.any([mask for _, mask in own], axis=0)))
        # np.min and np.max propagate NaN, so an all-excluded row fails both checks
        worst_frac = float(np.min([row["frac_within_1e-2"] for row, _ in own]))
        worst_rel = float(np.max([row["max_rel_err"] for row, _ in own]))
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
    theta = cfg.param("theta")
    require_step("theta", theta)  # theta and the SDE fail before any path is drawn
    name = cfg.param("sde")
    (spec,) = _make_sdes(cfg, (name,))

    def batch(start, count):
        M = martingale_batch("compound", grid, cfg.master_seed, start, count)
        single = M.particles.counts() == 1
        if not single.any():
            return {"single": single, "debiased": np.empty(0), "oracle": np.empty(0)}
        # the estimator runs on the single-jump paths alone, and only their B is drawn:
        # there its value is D_{U_1} X_t, and the flow oracle at U_1 is `analytic`
        B = brownian_rows(grid, cfg.master_seed, start + np.flatnonzero(single))
        grad = lent_particle_sde_poisson(spec, B, M.select(single), grid.horizon, theta)
        return {"single": single, "debiased": grad.value, "oracle": grad.analytic}

    joined = parallel_batches(batch, cfg.n_paths, cfg.workers, chunk=grid.batch_rows, width=3)
    single = joined["single"]
    freq = float(np.mean(single))
    freq_se = math.sqrt(freq * (1.0 - freq) / cfg.n_paths)
    if freq_se == 0.0:
        raise ConfigurationError(f"single-jump frequency {freq}: the standard error is 0")
    z = (freq - math.exp(-1.0)) / freq_se
    row, excluded = _agreement_row(name, "U1", grid.horizon, joined["debiased"], joined["oracle"])
    row.update(single_jump_freq=freq, freq_z_score=z)
    # over every single-jump path: a blown-up one counts as a miss, not as absent
    frac_ok = row["frac_within_1e-2"] * float(1.0 - np.mean(excluded))
    checks = [
        _check("poisson_frac_ok", frac_ok >= 0.99, frac_ok=frac_ok),
        _check("single_jump_freq", abs(z) <= 4.0, freq=freq, z_score=z),
    ]
    return ExperimentResult(cfg, [row], checks, excluded_paths=int(excluded.sum()))


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
            sides = integration_by_parts_pair(F, G, B)
            return {side: np.broadcast_to(np.asarray(value, dtype=float), (count,))
                    for side, value in zip(("lhs", "rhs"), sides)}

        joined = parallel_batches(batch, cfg.n_paths, cfg.workers, chunk=grid.batch_rows,
                                  width=2)
        lhs, rhs = joined["lhs"], joined["rhs"]
        _, pooled_se, z, check = _z_test(f"ibp_{label}", lhs - rhs, 0.0)
        rows.append({"pair": label, "lhs": float(lhs.mean()), "rhs": float(rhs.mean()),
                     "pooled_std_error": pooled_se, "z_score": z})
        checks.append(check)
    return ExperimentResult(cfg, rows, checks)


# --- 9. Mehler suite --------------------------------------------------------

def _run_mehler(cfg: ExperimentConfig) -> ExperimentResult:
    grid = cfg.grid
    n_outer = cfg.param("n_outer")
    n_inner = cfg.param("n_inner")
    t_eigen = cfg.param("t_eigen")
    t_list = cfg.param("t_bracket")
    n_eigen = cfg.param("n_eigen_paths")
    theta = cfg.param("theta")
    require_step("theta", theta)
    if not 1 <= n_eigen <= n_outer:
        raise ConfigurationError(
            f"n_eigen_paths must be in 1..n_outer = {n_outer}, got {n_eigen}")
    if n_inner < 2:  # Gamma and the eigen rows' standard errors need two hat paths
        raise ConfigurationError(f"n_inner must be at least 2, got {n_inner}")
    if t_eigen <= 0.0:
        raise ConfigurationError(f"t_eigen must be positive and finite, got {t_eigen}")
    if min(t_list) <= 0.0:
        raise ConfigurationError(f"t_bracket entries must be positive and finite, got {t_list}")
    if len(set(t_list)) < 2:
        raise ConfigurationError(f"t_bracket needs at least two distinct times, got {t_list}")
    b1, f2 = make_b1(grid.horizon), make_second_chaos(grid.horizon)

    def outer_stats(i, B):
        hats = inner_hat_batch(grid, cfg.master_seed, i, n_inner)
        ext_b1, ext_f2 = (chaotic_extension(F, B, hats) for F in (b1, f2))
        f2_at_b = float(evaluate_functional(f2, B))
        gamma_b1, gamma_f2 = carre_du_champ(ext_b1, theta), carre_du_champ(ext_f2, theta)
        brackets = semigroup_limit_gamma(ext_f2, f2_at_b, t_list)
        # the first n_eigen outer paths also give (F, inner mean, inner SE) of P_t F per order
        eigen = [(f0, *_mean_se(mehler_samples(ext, (t_eigen,))[0]))
                 for f0, ext in ((float(evaluate_functional(b1, B)), ext_b1), (f2_at_b, ext_f2))
                 ] if i < n_eigen else []
        return gamma_b1, richardson_limit(list(zip(t_list, brackets))) - gamma_f2, eigen

    def batch(start, count):
        B = martingale_batch("brownian", grid, cfg.master_seed, start, count)  # keyed per row
        gamma_b1, bracket_vs_gamma, eigen = zip(*(outer_stats(start + r, B.select(r))
                                                  for r in range(count)))
        return {"gamma_b1": np.array(gamma_b1), "bracket_vs_gamma": np.array(bracket_vs_gamma),
                "eigen": np.reshape([order for path in eigen for order in path], (-1, 2, 3))}

    # gamma_b1, bracket_vs_gamma and 2 x 3 eigen values on the first n_eigen outer paths
    joined = parallel_batches(batch, n_outer, cfg.workers, chunk=grid.batch_rows, width=8)
    rows, checks = [], []
    mean_g, se_g, _, check = _z_test("gamma_b1", joined["gamma_b1"], 1.0)
    rows.append({"quantity": "gamma_b1", "t": 0.0, "estimate": mean_g,
                 "std_error": se_g, "target": 1.0})
    checks.append(check)

    # eigenvalue property P_t F = lam F on the first outer paths, inner-MC error
    # bars; lam is measured by weighted least squares over the paths
    for n in (1, 2):
        lam = math.exp(-n * t_eigen / 2.0)
        f, mean, se = joined["eigen"][:, n - 1].T
        dev = np.abs(mean - lam * f)
        norm = float(np.sum(f**2))
        rows.append({"quantity": f"eigenvalue_n{n}", "t": t_eigen,
                     "estimate": float(np.sum(f * mean)) / norm,
                     "std_error": math.sqrt(float(np.sum(f**2 * se**2))) / norm,
                     "target": lam})
        checks.append(_check(f"eigenvalue_n{n}", np.all(dev <= 4.0 * se),
                             worst_z=float(np.max(dev / se))))

    mean_d, se_d, _, check = _z_test("bracket_vs_gamma", joined["bracket_vs_gamma"], 0.0,
                                     bound=3.0)
    rows.append({"quantity": "bracket_vs_gamma", "t": min(t_list), "estimate": mean_d,
                 "std_error": se_d, "target": 0.0})
    checks.append(check)
    return ExperimentResult(cfg, rows, checks)


# --- 10. supremum -----------------------------------------------------------

def _run_supremum(cfg: ExperimentConfig) -> ExperimentResult:
    grid = cfg.grid
    u = cfg.param("u")
    a = cfg.param("a")
    require_step("a", a)  # a and u fail before any path is drawn
    grid.index_at_or_after(u)

    def batch(start, count):
        B = martingale_batch("brownian", grid, cfg.master_seed, start, count)
        before, after = supremum_decomposition(None, B, u)
        gap = after - before
        tied = (gap == 0.0) | ((gap < 0.0) & (gap > -a))
        # the library's difference quotient must be the 0/1 indicator averaged below
        quotient = supremum_quotient(gap, a)
        return {"gap": gap, "tied": tied, "offending": ~tied & (quotient != (gap >= 0.0))}

    joined = parallel_batches(batch, cfg.n_paths, cfg.workers, chunk=grid.batch_rows, width=3)
    gap, tied = joined["gap"], joined["tied"]
    offending = int(np.sum(joined["offending"]))
    mean, se, _, mean_check = _z_test("supremum_mean", (gap[~tied] >= 0.0).astype(float), 0.5)
    rows = [{"u": u, "a": a, "mean_gradient": mean, "std_error": se,
             "target": 0.5, "tied_paths": int(tied.sum())}]
    checks = [
        _check("supremum_binary", offending == 0, offending_paths=offending),
        mean_check,
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
        sub = replace(cfg, experiment=target, n_paths=n_paths, workers=workers, params={})
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


EXPERIMENTS: dict[str, ExperimentSpec] = {
    "isometry": ExperimentSpec(
        _run_isometry, "E[I_n(f_n)^2] = n! ||f_n||^2 for orders 1-3 against all drivers",
        {"orders": (1, 2, 3), "rotation_theta": 0.7},
    ),
    "covariance-decay": ExperimentSpec(
        _run_covariance_decay, "E[I_n^phi I_n^0] / (n! ||f_n||^2) = cos^n(phi)",
        {"orders": (1, 2, 3),
         "phis": (0.0, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2)},
    ),
    "bessel": ExperimentSpec(
        _run_bessel, "Parseval and Fourier identities of the spectral coefficients",
        {"h_norm_sq": (0.5, 1.0, 4.0, 10.0),
         "angles": (0.0, math.pi / 4, math.pi / 2, math.pi)},
    ),
    "exp-vector-covariance": ExperimentSpec(
        _run_expvector_covariance,
        "E[E^phi E^0] = exp(||h||^2 cos(phi)) for the exponential vector",
        {"phis": (0.0, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2),
         "h_norm_sq": 1.0},
    ),
    "chaos-energy": ExperimentSpec(
        _run_chaos_energy, "E[((F^t - F^-t)/2t)^2] = sum n n! ||f_n||^2 for both jump drivers",
        {"functional": "three-term", "theta": 1e-3},
    ),
    "sde-lent-particle": ExperimentSpec(
        _run_sde_lent_particle, "jump-difference D_u X_t vs the first-variation flow oracle",
        {"sde": ("gbm", "additive", "sine-diffusion"),
         "sde_params": {},
         "u_grid": (0.08, 0.24, 0.4, 0.56, 0.72),
         "t_grid": (0.76, 0.82, 0.88, 0.94, 1.0), "theta": 1e-4},
        defaults={"n_steps": 10_000, "n_paths": 1000},
    ),
    "sde-poisson": ExperimentSpec(
        _run_sde_poisson, "compound-Poisson perturbation: J1 x estimate vs flow oracle at U1",
        {"sde": "gbm", "sde_params": {}, "theta": 1e-4},
        defaults={"n_steps": 10_000, "n_paths": 1000},
    ),
    "ibp": ExperimentSpec(
        _run_ibp, "E[F int G dB] = E[int D_u F G_u du] for the registered (F, G) pairs",
    ),
    "mehler": ExperimentSpec(
        _run_mehler, "Mehler semigroup: Gamma[B_1], chaos eigenvalues, bracket limit",
        {"n_outer": 400, "n_inner": 256, "n_eigen_paths": 8,
         "t_eigen": 0.3, "t_bracket": (1e-1, 1e-2, 1e-3), "theta": 1e-4},
    ),
    "supremum": ExperimentSpec(
        _run_supremum, "gradient of sup(B + K): 0/1 values and the arcsine mean at u = 0.5",
        {"u": 0.5, "a": 1e-6},
    ),
    "reproducibility": ExperimentSpec(
        _run_reproducibility, "byte-identical reports across reruns and 1-vs-8 workers",
        {"target": "covariance-decay", "target_n_paths": 4097},
    ),
}


def make_config(experiment: str, **overrides) -> ExperimentConfig:
    """The experiment's registered field defaults, then the overrides that are not None."""
    unknown = set(overrides) - set(_FIELD_KINDS)
    if unknown:
        raise ConfigurationError(f"unknown config fields: {sorted(unknown)}")
    # ExperimentConfig rejects an unknown experiment
    defaults = EXPERIMENTS[experiment].defaults if experiment in EXPERIMENTS else {}
    given = {k: v for k, v in overrides.items() if v is not None}
    return ExperimentConfig(experiment=experiment, **{**defaults, **given})


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    return EXPERIMENTS[cfg.experiment].runner(cfg)


def list_experiments(filter_text: str = "") -> list[tuple[str, str, dict]]:
    return [(name, spec.description, dict(spec.param_defaults))
            for name, spec in sorted(EXPERIMENTS.items()) if filter_text in name]
