"""Workload definitions and the benchmark's own correctness checks.

A workload is a list of (experiment, config overrides).  The workload seed
becomes every config's ``master_seed``; nothing else depends on it.  Path
counts and grids sit below the acceptance defaults so that one pass takes a
few seconds and a run can repeat it.

The independent checks compare each report with values computed here from
the mathematics, never with the program's own ``exact`` / ``target``
columns.  Every statistical check, the experiments' own included, holds a
z-score to a family-wise limit derived here (see ``z_limit``), not to the
experiments' fixed 3 or 4.
"""

from __future__ import annotations

import math
import os

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from lentparticle import experiments, gradients, reporting
from lentparticle.drivers import martingale_batch
from lentparticle.kernels import SimplexKernel
from lentparticle.stepfn import StepFunction

# At most this many threads per experiment, and never more than the cores.
WORKERS = min(2, os.cpu_count() or 1)

# Why each workload exists is recorded in BENCHMARK.json and the README.
WORKLOADS: dict[str, list[tuple[str, dict]]] = {
    # Simplex recursion and rotations; two 4096-path batches run in parallel.
    # 500 steps (default 1000), so that a run times several passes.
    "chaos-rotation": [
        ("covariance-decay", {"n_paths": 8192, "n_steps": 500, "workers": WORKERS}),
        ("chaos-energy", {"n_paths": 8192, "n_steps": 500, "workers": WORKERS}),
    ],
    # Euler and first-variation loops.  They cost per step, not per path, so
    # the grid is cut from the default 10^4 steps to 4000.
    "sde-flow": [
        ("sde-lent-particle", {"n_paths": 128, "n_steps": 4000}),
        ("sde-poisson", {"n_paths": 512, "n_steps": 4000}),
    ],
    # Mehler averaging: 256-path keyed inner batches per outer path.
    "ou-nested": [
        ("mehler", {"params": {"n_outer": 32}}),
    ],
    # Keyed Brownian and Poisson generation with light chaos work.
    "stream-scan": [
        ("supremum", {"n_paths": 8192}),
        ("ibp", {"n_paths": 4096}),
        ("exp-vector-covariance", {"n_paths": 4096}),
    ],
}


def build_configs(workload: str, seed: int, **overrides) -> list:
    """Configs of one workload; ``overrides`` replace fields (tests shrink sizes)."""
    out = []
    for name, fields in WORKLOADS[workload]:
        merged = {**fields, **overrides, "master_seed": seed}
        out.append(experiments.make_config(name, **merged))
    return out


def run_one(cfg) -> tuple[object, str, str]:
    """Run one experiment and render its reports: (result, csv, json).

    Functions are looked up on their modules at call time, so a traced pass
    goes through the tracer's wrappers.
    """
    result = experiments.run_experiment(cfg)
    return result, reporting.render_csv(result.rows), reporting.render_json(result.summary())


def run_pass(configs) -> list[tuple[object, str, str]]:
    """One pass: every experiment of the workload, run and rendered."""
    return [run_one(cfg) for cfg in configs]


# --- independent values -------------------------------------------------------

def three_term_gradient_energy() -> float:
    """sum_n n n! ||f_n||^2 for functionals.make_three_term on [0, 1].

    f_1 = h1 with h1 = 1; f_2 = sym(h1 x h2) with h2 = 1.2 on [0, 1/2) and
    0.4 after, so ||f_2||^2 = (|h1|^2 |h2|^2 + <h1, h2>^2) / 2!; f_3 = h3^3
    with h3 = 0.7.
    """
    h2_sq = 0.5 * 1.2**2 + 0.5 * 0.4**2
    h1_h2 = 0.5 * 1.2 + 0.5 * 0.4
    norms = {1: 1.0, 2: (h2_sq + h1_h2**2) / 2.0, 3: 0.49**3}
    return sum(n * math.factorial(n) * norms[n] for n in norms)


def energy_variance() -> float:
    """Variance of one chaos-energy sample G^2, G the rotation gradient of the
    three-term functional (see ``three_term_gradient_energy``), in the
    continuous-time limit.

    With Y = B cos + M sin, d/dtheta at 0 turns one B of each chaos into M:
    G = M_1 + (M_1 B(h2) + B_1 M(h2)) + 3 * 0.7^3 M_1 (B_1^2 - 1), where
    B(h2) = 1.2 B_{1/2} + 0.4 (B_1 - B_{1/2}) and likewise M(h2).  The halves
    of B are independent N(0, 1/2).  G is linear in the two halves of M, so
    E[G^4] needs only their second and fourth moments, which the compensated
    Poisson driver and the compound one (marks +-1) share: take N - 1/2 with
    N Poisson(1/2).  E[G^4] is Gauss-Hermite quadrature over the B halves,
    exact for this polynomial, and a Poisson sum over the M halves.
    """
    x, w = hermegauss(12)
    w = w / w.sum()
    k = np.arange(40.0)
    pm = np.exp(k * math.log(0.5) - 0.5 - np.array([math.lgamma(j + 1) for j in k]))
    b, m = x * math.sqrt(0.5), k - 0.5
    ba, bb, ma, mb = np.ix_(b, b, m, m)
    weight = np.multiply.outer(np.outer(w, w), np.outer(pm, pm))
    b1, m1 = ba + bb, ma + mb
    g = m1 + m1 * (1.2 * ba + 0.4 * bb) + b1 * (1.2 * ma + 0.4 * mb) + 3 * 0.343 * m1 * (b1**2 - 1)
    return float(np.sum(weight * g**4) - np.sum(weight * g**2) ** 2)


def covariance_variance(n: int, phi: float) -> float:
    """Variance of one covariance-decay sample I_n(h^n)(Y^phi) I_n(h^n)(B) / n!.

    h = 1 on [0, 1] and Y^phi = B cos(phi) + M sin(phi), M the compensated
    unit Poisson process; in the continuous-time limit.  I_n(h^n) is n! times
    the n-th elementary symmetric sum of the increments, so with y = Y_1,
    q = [Y]_1 and r = sum (dY)^3: I_1 = y, I_2 = y^2 - q, I_3 = y^3 - 3yq + 2r.
    Here y = x cos + (N - 1) sin, q = cos^2 + N sin^2 and r = N sin^3 with
    x = B_1 standard normal and N = N_1 Poisson(1).  The mean over x is
    Gauss-Hermite quadrature, exact for these polynomials; over N a Poisson sum.
    """
    c, s = math.cos(phi), math.sin(phi)
    x, w = hermegauss(40)
    w = w / w.sum()

    def chaos(y, q, r):
        return (y, y * y - q, y**3 - 3.0 * y * q + 2.0 * r)[n - 1]

    base = chaos(x, 1.0, 0.0)
    second = 0.0
    for k in range(60):
        y = c * x + s * (k - 1.0)
        prod = chaos(y, c * c + s * s * k, s**3 * k) * base / math.factorial(n)
        second += math.exp(-1.0 - math.lgamma(k + 1)) * float(np.sum(w * prod**2))
    return second - math.cos(phi) ** (2 * n)


def expvector_variance(x: float, phi: float) -> float:
    """Variance of one exp-vector-covariance sample E(h)(Y^phi) E(h)(B), |h|^2 = x.

    With h constant, E(h)(Y^phi) = exp(c h B - c^2 x / 2) (1 + s h)^N e^{-s x}
    (c, s = cos, sin phi; unit horizon), so E[(E^phi E^0)^2] = exp(x (2 + 4c))
    and the mean is exp(x c).
    """
    c = math.cos(phi)
    return math.exp(x * (2.0 + 4.0 * c)) - math.exp(2.0 * x * c)


# --- checks ---------------------------------------------------------------------

# The chance that correct code fails one family of statistical tests (the rows
# of one experiment, or the paths of one eigenvalue check) in one run.
ALPHA = 1e-5


def z_limit(m: int, dof: int | None = None) -> float:
    """Bonferroni |z| limit for m tests at family-wise level ALPHA.

    Normal quantile, or Student's t with ``dof`` degrees of freedom when the
    standard error comes from few samples.
    """
    from scipy import stats  # here, so that set-up does not pay for it

    p = ALPHA / (2.0 * m)
    return float(stats.norm.isf(p) if dof is None else stats.t.isf(p, dof))


# Experiments whose z-tests use ``_standard_error``; each has one z-test per row.
FLOORED = ("covariance-decay", "chaos-energy", "exp-vector-covariance")


def _standard_error(cfg, row) -> float:
    """The larger of the row's standard error and the exact one computed here.

    Products of chaos values, squared gradients and products of exponential
    vectors are heavy-tailed: a sample that misses their rare large values has
    a low mean and a low sample standard error together, and the sample-SE
    z-score of correct code then reads below -4 on a seed-dependent share of
    runs.  The exact standard error removes that tail.
    """
    if cfg.grid.horizon != 1.0:
        raise ValueError("the exact variances are for the unit horizon")
    if cfg.experiment == "covariance-decay":
        var = covariance_variance(row["order"], row["phi"])
    elif cfg.experiment == "chaos-energy":
        var = energy_variance()
    else:
        var = expvector_variance(cfg.param("h_norm_sq"), row["phi"])
    return max(row["std_error"], math.sqrt(var / cfg.n_paths))


def own_checks(result) -> list[tuple[str, bool]]:
    """Every check of the experiment itself, one operation each.

    A deterministic check counts with the program's verdict.  A z-test counts
    with the same z, held to ``z_limit`` over the experiment's z-tests instead
    of the program's fixed 3 or 4, which correct code exceeds on some seeds;
    the rows of the FLOORED experiments use ``_standard_error``.  The label
    records the program's own verdict too.
    """
    cfg = result.config
    name = cfg.experiment
    ztests = [c for c in result.checks if "z_score" in c]
    # mehler's z-tests average over the outer paths, its eigenvalue checks over
    # each path's inner batch.
    dof = cfg.param("n_outer") - 1 if name == "mehler" else None
    limit = z_limit(max(1, len(ztests)), dof)
    rows = {}
    if name in FLOORED:
        if len(ztests) != len(result.rows):
            raise ValueError(f"{name}: expected one z-test per report row")
        rows = {id(c): r for c, r in zip(ztests, result.rows)}
    out = []
    for c in result.checks:
        label = f"{name}:{c['name']} (program: {'passed' if c['passed'] else 'FAILED'})"
        if "z_score" in c:
            z = c["z_score"]
            row = rows.get(id(c))
            if row is not None:
                z = (row["empirical"] - row["exact"]) / _standard_error(cfg, row)
            out.append((f"{label} |z| = {abs(z):.2f} <= {limit:.2f}", abs(z) <= limit))
        elif "worst_z" in c:
            k = z_limit(cfg.param("n_eigen_paths"), cfg.param("n_inner") - 1)
            out.append((f"{label} max |z| = {c['worst_z']:.2f} <= {k:.2f}", c["worst_z"] <= k))
        else:
            out.append((label, bool(c["passed"])))
    return out


def _within(what: str, estimate: float, target: float, se: float, limit: float):
    z = (estimate - target) / se
    return f"{what}: |z| = {abs(z):.2f} <= {limit:.2f}", abs(z) <= limit


def independent_checks(result) -> list[tuple[str, bool]]:
    """(label, passed) for one experiment result, against values computed here."""
    cfg = result.config
    name = cfg.experiment
    rows = result.rows
    out = []
    if name == "covariance-decay":
        limit = z_limit(len(rows))
        for r in rows:
            n, phi = r["order"], r["phi"]
            out.append(_within(f"cos^{n}(phi={phi:.4f})", r["empirical"], math.cos(phi) ** n,
                               _standard_error(cfg, r), limit))
        # The unit-norm power kernel the experiment builds: E[I_n(h^n)^2] = n!.
        h = StepFunction.constant(1.0 / math.sqrt(cfg.grid.horizon), cfg.grid.horizon)
        for n in sorted({r["order"] for r in rows}):
            target = SimplexKernel.power(h, n).isometry_target
            nf = math.factorial(n)
            out.append((f"isometry target {target!r} = {n}! = {nf}",
                        abs(target - nf) <= 1e-12 * nf))
    elif name == "chaos-energy":
        energy, limit = three_term_gradient_energy(), z_limit(len(rows))
        for r in rows:
            out.append(_within(f"gradient energy {r['driver']} = {energy:.6f}",
                               r["empirical"], energy, _standard_error(cfg, r), limit))
    elif name == "sde-lent-particle":
        # Additive SDE dX = 1 dB: D_u X_t = sigma = 1 for every u <= t.
        for r in rows:
            if r["sde"] == "additive":
                out.append((f"additive D_u X_t = 1, u={r['u']} t={r['t']}",
                            abs(r["estimate"] - 1.0) <= 1e-10))
    elif name == "sde-poisson":
        # A unit-rate Poisson process has exactly one jump on [0, 1] w.p. 1/e.
        (r,) = rows
        p = math.exp(-1.0)
        out.append(_within("single-jump frequency 1/e", r["single_jump_freq"], p,
                           math.sqrt(p * (1.0 - p) / cfg.n_paths), z_limit(1)))
    elif name == "mehler":
        # The rotation gradient of B_1 is the inner path's B_1, so each outer
        # path's Gamma[B_1] is a mean of n_inner chi-square(1) values: the
        # estimate's variance is 2 / (n_inner n_outer).
        (r,) = [r for r in rows if r["quantity"] == "gamma_b1"]
        se = math.sqrt(2.0 / (cfg.param("n_inner") * cfg.param("n_outer")))
        out.append(_within("Gamma[B_1] = 1", r["estimate"], 1.0, se, z_limit(1)))
    elif name == "supremum":
        (r,) = rows
        out.append(_within("arcsine mean 1/2", r["mean_gradient"], 0.5, r["std_error"],
                           z_limit(1)))
        out.append(("supremum gradient in {0, 1}", _supremum_binary(cfg, r["u"], r["a"])))
    elif name == "exp-vector-covariance":
        x, limit = cfg.param("h_norm_sq"), z_limit(len(rows))
        for r in rows:
            out.append(_within(f"exp(|h|^2 cos phi={r['phi']:.4f})", r["empirical"],
                               math.exp(x * math.cos(r["phi"])), _standard_error(cfg, r),
                               limit))
    return out


def _supremum_binary(cfg, u: float, a: float) -> bool:
    """supremum_gradient is 0 or 1 on every path that the experiment does not call tied."""
    grid = cfg.grid
    start = 0
    while start < cfg.n_paths:
        count = min(4096, cfg.n_paths - start)
        B = martingale_batch("brownian", grid, cfg.master_seed, start, count)
        before, after = gradients.supremum_decomposition(None, B, u)
        gap = after - before
        untied = ~((gap == 0.0) | ((gap < 0.0) & (gap > -a)))
        values = gradients.supremum_gradient(None, B, u, a)[untied]
        if not ((values == 0.0) | (values == 1.0)).all():
            return False
        start += count
    return True


def checks(result) -> list[tuple[str, bool]]:
    """The experiment's own checks, then the benchmark's independent ones."""
    name = result.config.experiment
    return own_checks(result) + [(f"{name}: {label}", ok)
                                 for label, ok in independent_checks(result)]
