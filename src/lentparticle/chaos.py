"""Iterated stochastic integration and chaotic extensions.

Two routes evaluate I_n of a symmetrized elementary-tensor kernel weight *
sym(g_1 (x) ... (x) g_n), both with left-endpoint (predictable) evaluation.

``iterated_integrals`` runs one forward recursion over factor classes (equal
factors form a class).  For m counting the factors of each class used so far,

    J_0 = 1,   J_m(t_k) = sum_c sum_{j < k} J_{m - e_c}(t_j) g_c(t_j) dX_{(t_j, t_{j+1}]}

sums the ordered-simplex integrals over the distinct orderings of those
factors, and I_n = weight * prod_c m_c! * J_full(T); a state that no later state
needs is one sequential reduction to J(T).  Kernels with the same classes in the
same first-use order share one walk, whose states sum their predecessors in a
one-kernel walk's order, so each kernel (``iterated_integral`` is the one-kernel
case) reads its J_full(T) bit for bit, and equal kernels once.

``chaotic_extension(F, B, M)`` is the rotation theta -> F^theta on Y^theta =
B cos(theta) + M sin(theta) as one object.  F-sharp is its derivative at 0
(gradients.gradient_chaos), P_t its value at theta_t, cos(theta_t) = e^{-t/2}
(the ou module), and covariance-decay reads its integrals.  For a chaos
vector it is a ``RotatedChaos``: I_n is weight times the sum of prod_i
g_i(t_{j_i}) dX_{j_i} over injective maps from factors to steps; Moebius
inversion on the lattice of set partitions (Peccati and Taqqu, *Wiener
Chaos: Moments, Cumulants and Diagrams*, 2011, ch. 2) turns it into

    I_n = weight * sum_pi mu(pi) prod_{B in pi} p_B,   p_B = sum_j prod_{i in B} g_i(t_j) dX_j^|B|,

with mu(pi) = prod_B (-1)^(|B|-1) (|B|-1)!.  On Y^theta each p_B is a
polynomial in (cos theta, sin theta) whose coefficients are the mixed sums
sum_j w_B(t_j) b_j^a m_j^(|B|-a), so one set of row reductions per batch gives
every angle.  On a jump driver's particle list (M = its jumps plus a drift d
per step) only the sums without m, and for d != 0 the power sums
sum_j w b^a scaled by d^r, are dense passes; every term with a jump is one
bincount over the particles.  A martingale without such a list (a
Brownian copy, or a rotated path) takes dense sums throughout.  The
alternating sum cancels more as the order grows (8 distinct
factors on an 8-step path: 7.7e-11 relative, against 4.3e-14 for the
recursion), which is why every other evaluation keeps the recursion.  At a
generic angle the two routes agree to a few 1e-13 of the batch's largest
value at every order up to MAX_ORDER; near pi/2, a jump path with fewer jumps
than the order stays at the rounding of its power sums (order 8: ~1e-9
against values of ~1e-4).

``exponential_vector(h, B, M, thetas)`` likewise takes every angle from one
set of sums: the continuous part of V = int h dY^theta is linear in
(cos theta, sin theta) with two row sums for coefficients, and its jump product
reads the martingale's particles.  It serves exp-vector-covariance.

Every batch reduction here runs one grid.ROW_BLOCK of rows at a time
(``_reduce_blocks``, on grid.reduce_rows; a single path is one block of one
row): the recursion's states, the powers b^a, m^r of the mixed sums and a
driver's continuous part exist for one block only, and a jump driver's block is
scattered from its particle list, so its dense arrays stay unbuilt.  The only
paths x steps arrays a batch holds are its drivers' own increments (a
rotation's block is its parts' blocks combined).  Each row reduces as alone.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import Counter

import numpy as np

from .drivers import _cos_sin, rotate
from .errors import ConfigurationError
from .grid import Particles, SamplePath, TimeGrid, reduce_rows, require_same_grid
from .kernels import ChaosVector, SimplexKernel
from .stepfn import StepFunction


def _factor_classes(kernel: SimplexKernel, grid: TimeGrid) -> tuple[list, tuple, list]:
    """The distinct factors in order of first use, the count of each, and each on the grid."""
    classes = list(dict.fromkeys(kernel.factors))
    return classes, tuple(map(kernel.factors.count, classes)), [g.on_grid(grid) for g in classes]


def _reduce_blocks(shape: tuple, reduce, sources, count: int = 1) -> list:
    """``count`` per-row results of reduce(*blocks) over the batch ``shape``, one
    grid.ROW_BLOCK of flat rows at a time, so no temporary outlives its block.

    A source is a pair (block, own): block(rows) gives the (rows, n_steps) rows of
    a batch with leading axes ``own`` that broadcasts to ``shape`` (a path's
    ``block`` and ``shape``).  A source of one path gives that row, which
    broadcasts against the block's rows.
    """
    def reduce_block(rows, _):
        blocks = []
        for block, own in sources:
            size = math.prod(own)
            if own == shape:
                blocks.append(block(rows))
            elif size == 1:
                blocks.append(block(slice(0, 1)))
            else:  # a batch broadcast along some axes: its rows under those of the block
                index = np.broadcast_to(np.arange(size).reshape(own), shape).reshape(-1)
                blocks.append(block(slice(0, size))[index[rows]])
        return reduce(*blocks)

    return reduce_rows(shape, 0, reduce_block, count)


def iterated_integrals(kernels, driver: SamplePath) -> list:
    """I_n(f_n) of each kernel against the driver path(s), in order; a scalar or batch array each.

    Level k holds the J_m with |m| = k that some kernel's counts reach, built from
    level k - 1 alone, which it pops as it goes; a power kernel is the simplex chain.
    A state no further state needs is J(T) alone, its products summed in order from
    +0.0: the cumsum's last entry bit for bit, but +0.0 where a row's are all -0.0.
    The walks run one row block at a time (``_reduce_blocks``), so a state holds
    (block, n_steps + 1) floats.
    """
    shape = driver.shape
    walks: dict = {}  # class list -> (classes on the grid, {counts: kernels read there})
    for kernel in dict.fromkeys(k for k in kernels if k.order):
        classes, full, gvals = _factor_classes(kernel, driver.grid)
        walks.setdefault(tuple(classes), (gvals, {}))[1].setdefault(full, []).append(kernel)
    read = [k for _, reads in walks.values() for ks in reads.values() for k in ks]

    def walk(inc):
        values = {}
        for gvals, reads in walks.values():
            level = {(0,) * len(gvals): np.ones(inc.shape[-1] + 1)}
            while level:
                nxt: dict[tuple[int, ...], np.ndarray] = {}
                for m in list(level):
                    J = level.pop(m)
                    for kernel in reads.get(m, ()):
                        values[kernel] = (kernel.weight * math.prod(map(math.factorial, m))
                                          * J[..., -1])
                    for c, g in enumerate(gvals):
                        target = m[:c] + (m[c] + 1,) + m[c + 1 :]
                        if not (reaching := [f for f in reads
                                             if all(map(operator.le, target, f))]):
                            continue
                        if reaching == [target]:  # no further state needs it: J(T) alone
                            out = np.einsum("...j,j,...j->...", J[..., :-1], g, inc)[..., None]
                        else:
                            out = np.empty(inc.shape[:-1] + (inc.shape[-1] + 1,))
                            out[..., 0] = 0.0
                            tail = out[..., 1:]
                            jg = (J[:-1] * g if J.ndim == 1
                                  else np.multiply(J[..., :-1], g, out=tail))
                            np.cumsum(np.multiply(jg, inc, out=tail), axis=-1, out=tail)
                        if target in nxt:
                            out += nxt[target]  # addition commutes: the bits of a one-kernel walk
                        nxt[target] = out
                level = nxt
        return [values[k] for k in read]

    values = (dict(zip(read, _reduce_blocks(shape, walk, [(driver.block, shape)], len(read))))
              if read else {})
    return [values[k] if k.order else np.full(shape, k.weight) if shape else k.weight
            for k in kernels]


def iterated_integral(kernel: SimplexKernel, driver: SamplePath) -> np.ndarray:
    """I_n(f_n) against the driver path(s): the one-kernel case of ``iterated_integrals``."""
    return iterated_integrals((kernel,), driver)[0]


def _set_partitions(n: int):
    """Every set partition of range(n), as a list of blocks."""
    if n == 0:
        yield []
        return
    for partition in _set_partitions(n - 1):
        for i in range(len(partition)):
            yield partition[:i] + [partition[i] + [n - 1]] + partition[i + 1 :]
        yield partition + [[n - 1]]


@functools.lru_cache(maxsize=None)
def _partition_table(full: tuple[int, ...]) -> tuple:
    """(coefficient, block types) per set partition of a kernel's factors, merged by type.

    ``full`` counts the factors of each class; a block type counts the
    factors of each class in one block, and p_B depends on nothing else.
    Partitions with the same sorted block types share one entry, whose
    coefficient sums their mu(pi) = prod_B (-1)^(|B|-1) (|B|-1)!.
    """
    labels = [c for c, count in enumerate(full) for _ in range(count)]
    coefficients: Counter = Counter()
    for partition in _set_partitions(len(labels)):
        types = []
        mu = 1
        for block in partition:
            counts = [0] * len(full)
            for i in block:
                counts[labels[i]] += 1
            types.append(tuple(counts))
            mu *= (-1) ** (len(block) - 1) * math.factorial(len(block) - 1)
        coefficients[tuple(sorted(types))] += mu
    return tuple((coef, types) for types, coef in sorted(coefficients.items()) if coef)


def _powers(x: np.ndarray, top: int) -> list:
    """[None, x, x^2, ..., x^(top - 1)] by repeated multiplication."""
    out = [None, x]
    for _ in range(2, top):
        out.append(out[-1] * x)
    return out


def _dense_sums(sums: dict, paths: tuple, shape: tuple) -> dict:
    """{key: sum_j w_j x_j [y_j]} for each key: (w, factors) of ``sums``, in one blocked pass.

    A factor (i, a) is paths[i]'s increments to the power a.  One factor is the
    einsum "...j,j->...", two are "...j,...j,j->...": the two forms round
    differently, so a sum keeps its form.  Each is one fixed-order row reduction
    (never BLAS), run one row block at a time (``_reduce_blocks``) with the
    powers built per block by repeated multiplication, so each row is bit for
    bit that of its path alone whatever the batch.
    """
    top = [1 + max((a for _, factors in sums.values() for j, a in factors if j == i), default=0)
           for i in range(len(paths))]

    def block(*incs):
        pows = [_powers(x, t) for x, t in zip(incs, top)]
        return [np.einsum("...j,j->..." if len(factors) == 1 else "...j,...j,j->...",
                          *(pows[i][a] for i, a in factors), w)
                for w, factors in sums.values()]

    values = _reduce_blocks(shape, block, [(p.block, p.shape) for p in paths], len(sums))
    return dict(zip(sums, values))


def _mixed_sums(weights: dict, brownian: SamplePath, martingale: SamplePath, shape: tuple) -> dict:
    """{key: [sum_j w(t_j) b_j^a m_j^(k-a) for a = 0..k]} for each key: (k, w) of ``weights``.

    All of them come from one blocked pass (``_dense_sums``), rows of the batch
    ``shape``.  A sum of a block of size 1 is the two-operand form; a larger
    block's splits its product in two, the last factor riding in the reduction:
    (m^(k-1), m), (b^a, m^(k-a)) and (b^(k-1), b), each in the three-operand form.
    """
    B, M = 0, 1
    sums = {}
    for key, (k, w) in weights.items():
        if k == 1:
            factors = [((M, 1),), ((B, 1),)]
        else:
            factors = ([((M, k - 1), (M, 1))] + [((B, a), (M, k - a)) for a in range(1, k)]
                       + [((B, k - 1), (B, 1))])
        for a, f in enumerate(factors):
            sums[key, a] = (w, f)
    values = _dense_sums(sums, (brownian, martingale), shape)
    return {key: [values[key, a] for a in range(k + 1)] for key, (k, _) in weights.items()}


def _particle_sums(weights: dict, brownian: SamplePath, jumps: Particles, shape: tuple) -> dict:
    """``_mixed_sums`` for a martingale that is its particles plus a drift d per step.

    With m_j = d + J_j (J_j the mark of a particle at step j, else 0),

        sum_j w b^a m^r = d^r sum_j w b^a + sum over particles of w b^a ((d + J)^r - d^r),

    so the dense sums are the power sums sum_j w b^a in the two-operand form
    (for d = 0 none) and each block's pure-b sum in ``_mixed_sums``' form, all
    from one blocked pass (``_dense_sums``).  They are keyed by w's bytes, the
    power and the form, since blocks of different sizes can share byte-equal
    weights (h = 1 on a power kernel) while the forms round differently.  Each
    particle sum is one bincount over the particles.  Both are fixed-order per
    row, so each row is still bit for bit that of the path alone.
    """
    top = max(k for k, _ in weights.values())
    d, n, b = jumps.drift, brownian.grid.n_steps, brownian.increments
    b_at = np.broadcast_to(b, jumps.shape + (n,)).reshape(-1, n)[jumps.rows, jumps.steps]
    bpow_at = [np.ones_like(b_at)] + _powers(b_at, top)[1:]
    m_at, shift, jump_terms = d + jumps.marks, d, [None]
    for m_r in _powers(m_at, top + 1)[1:]:  # (d + J)^r - d^r for r = 1..top
        jump_terms.append(m_r - shift)
        shift = shift * d
    n_rows = math.prod(jumps.shape)

    def pure_b(k):  # the factors of a block's last sum, sum_j w b^k
        return ((0, 1),) if k == 1 else ((0, k - 1), (0, 1))

    dense = {}  # (w's bytes, factors) -> (w, factors)
    for k, w in weights.values():
        for factors in [((0, a),) for a in range(1, k) if d] + [pure_b(k)]:
            dense.setdefault((w.tobytes(), factors), (w, factors))
    dense = _dense_sums(dense, (brownian,), shape)
    out = {}
    for key, (k, w) in weights.items():
        sums = []
        w_at, shift = w[jumps.steps], d
        for a in range(k - 1, -1, -1):  # r = k - a = 1..k
            terms = w_at * bpow_at[a] * jump_terms[k - a]
            S = np.bincount(jumps.rows, weights=terms, minlength=n_rows).reshape(jumps.shape)[()]
            if d:
                S = shift * (dense[w.tobytes(), ((0, a),)] if a else math.fsum(w)) + S
                shift = shift * d
            sums.append(S)
        sums.reverse()
        sums.append(dense[w.tobytes(), pure_b(k)])
        out[key] = sums
    return out


class RotatedChaos:
    """F(Y^theta), Y^theta = B cos(theta) + M sin(theta), at any theta from one set of sums.

    The mixed sums of every block of every kernel of F are reduced once, at
    construction, one row block at a time: over the martingale's particles when
    it is a driver path spanning the batch (``_particle_sums``), which never
    builds its dense arrays, else dense (``_mixed_sums``).
    Each angle then costs a polynomial in (cos, sin) per block and the
    partition terms per kernel.  (cos, sin) are those of drivers.rotate,
    clamped at multiples of pi/2.
    """

    def __init__(self, F: ChaosVector, brownian: SamplePath, martingale: SamplePath):
        grid = require_same_grid(brownian, martingale)
        jumps = martingale.particles
        self.constant = float(F.constant)
        self.shape = np.broadcast_shapes(brownian.shape, martingale.shape)
        self._terms = []  # per kernel: (weight, [(coefficient, block keys)])
        weights = {}  # block key -> (block size, block weight on the grid)
        for kernel in F.kernels:
            classes, full, gvals = _factor_classes(kernel, grid)
            terms = []
            for coef, types in _partition_table(full):
                keys = []
                for counts in types:
                    key = frozenset((classes[c], k) for c, k in enumerate(counts) if k)
                    if key not in weights:
                        w = np.ones(grid.n_steps)
                        for g, k in zip(gvals, counts):
                            for _ in range(k):
                                w = w * g
                        weights[key] = (sum(counts), w)
                    keys.append(key)
                terms.append((coef, keys))
            self._terms.append((kernel.weight, terms))
        if not weights:
            self._sums = {}
        elif jumps is None or jumps.drift is None or jumps.shape != self.shape:
            self._sums = _mixed_sums(weights, brownian, martingale, self.shape)
        else:  # a driver's particles spanning the batch
            self._sums = _particle_sums(weights, brownian, jumps, self.shape)

    def integrals(self, theta: float) -> list:
        """I_n(f_n) against Y^theta for each kernel of F, in order."""
        c, s = _cos_sin(theta)
        p = {}
        for key, sums in self._sums.items():
            k = len(sums) - 1
            p[key] = sum(math.comb(k, a) * c**a * s ** (k - a) * S
                         for a, S in enumerate(sums) if (c or a == 0) and (s or a == k))
        out = []
        for weight, terms in self._terms:
            total = 0.0
            for coef, keys in terms:
                term = float(coef)
                for key in keys:
                    term = term * p[key]
                total = total + term
            value = weight * total
            out.append(value if np.shape(value) == self.shape  # else an order-0 kernel
                       else np.full(self.shape, value))
        return out

    def __call__(self, theta: float) -> np.ndarray:
        """f(0) + sum_n I_n(f_n) against Y^theta."""
        total = np.full(self.shape, self.constant) if self.shape else self.constant
        return functools.reduce(operator.add, self.integrals(theta), total)


def evaluate_chaos(F: ChaosVector, driver: SamplePath) -> np.ndarray:
    """f(0) + sum_n I_n(f_n) against a given driver path."""
    shape = driver.shape
    total = np.full(shape, float(F.constant)) if shape else float(F.constant)
    return functools.reduce(operator.add, iterated_integrals(F.kernels, driver), total)


def chaotic_extension(F, brownian: SamplePath, martingale: SamplePath):
    """theta -> F^theta on Y^theta = B cos(theta) + M sin(theta): the RotatedChaos of a
    chaos vector, or any other functional (a callable on a path) on each rotated path."""
    if isinstance(F, ChaosVector):
        return RotatedChaos(F, brownian, martingale)
    return lambda theta: F(rotate(brownian, martingale, theta))


def stochastic_integral(g: StepFunction, driver: SamplePath) -> np.ndarray:
    """First-order integral sum_j g(t_j) dX_j (left endpoints), one row block at a time."""
    gv = g.on_grid(driver.grid)
    return reduce_rows(driver.shape, driver.grid.n_steps, lambda rows, buf: (
        np.sum(np.multiply(gv, driver.block(rows), out=buf), axis=-1),))[0]


def exponential_vector(h: StepFunction, brownian: SamplePath, martingale: SamplePath,
                       thetas) -> list:
    """E(int h dY^theta) at the horizon, Y^theta = B cos(theta) + M sin(theta), per theta.

    Evaluates the closed product form exp(V - [V,V]^c / 2) prod (1 + dV) e^{-dV}
    for V = int h dY^theta: the Brownian component contributes the continuous
    bracket, int (cos(theta) h)^2 over h's pieces in [0, T] (exact from the step
    function), the martingale's jumps contribute the product factors, and any
    continuous drift of the martingale (the compensator of a compensated Poisson
    driver) rides in V through the plain increment sums.  V's continuous part is
    c sum h b + s sum h m_c for (c, s) those of drivers.rotate, so two fixed-order
    row reductions serve every angle, one row block at a time.  The martingale
    is a driver path: continuous, or a jump driver's particle list, on which
    m_c is scattered per block: the drift d at every step and (J + d) - J at
    each particle, the values of increments - jump_increments without building
    either.  A list without its drift (a rotated or jump-augmented path) is
    refused.  The product runs over the particles only, in step order: a step
    without a jump has the factor 1.0 exactly, so it is bit for bit the
    product over every step.

    A vanishing factor (1 + dV) = 0 is legal and yields the value 0.
    """
    grid = require_same_grid(brownian, martingale)
    jumps = martingale.particles
    if jumps is not None and jumps.drift is None:
        raise ConfigurationError("the martingale of an exponential vector must be a driver "
                                 "path, not a rotated or jump-augmented one")
    angles = [_cos_sin(theta) for theta in thetas]
    n = grid.n_steps
    h_grid = h.on_grid(grid)
    widths, values = np.diff(np.clip(h.breakpoints, 0.0, grid.horizon)), np.asarray(h.values)
    if jumps is None:
        cont = martingale.block
    else:  # a driver's increments - jump_increments, value for value, from its list
        def cont(rows):
            sub, d = jumps.block(rows), jumps.drift
            return sub.scatter(n, (sub.marks + d) - sub.marks, d)
    h_at = None if jumps is None else h_grid[jumps.steps]
    sb, sm = _reduce_blocks(
        np.broadcast_shapes(brownian.shape, martingale.shape),
        lambda b, m: [np.einsum("...j,j->...", x, h_grid) for x in (b, m)],
        [(brownian.block, brownian.shape), (cont, martingale.shape)], count=2)
    out = []
    for c, s in angles:
        value = np.exp(c * sb + s * sm - 0.5 * np.dot(widths, (c * values) ** 2))
        if jumps is not None:
            product = np.ones(math.prod(jumps.shape))
            np.multiply.at(product, jumps.rows, 1.0 + (s * h_at) * jumps.marks)
            value = value * product.reshape(jumps.shape)[()]
        out.append(value)
    return out
