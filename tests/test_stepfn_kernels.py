import math

import numpy as np
import pytest
from scipy.integrate import quad

from lentparticle.errors import ConfigurationError
from lentparticle.grid import TimeGrid
from lentparticle.kernels import MAX_ORDER, ChaosVector, SimplexKernel, permanent
from lentparticle.stepfn import StepFunction


class TestStepFunction:
    def test_piecewise_values(self):
        f = StepFunction((0.0, 0.5, 1.0), (2.0, -1.0))
        assert f(0.0) == 2.0
        assert f(0.49) == 2.0
        assert f(0.5) == -1.0
        assert f(0.999) == -1.0
        assert f(1.0) == 0.0  # zero outside [b_0, b_m)
        assert f(-0.1) == 0.0

    def test_vectorized_call(self):
        f = StepFunction((0.2, 0.6), (3.0,))
        out = f(np.array([0.0, 0.2, 0.5, 0.6, 0.9]))
        np.testing.assert_array_equal(out, [0.0, 3.0, 3.0, 0.0, 0.0])

    def test_inner_matches_quadrature(self):
        f = StepFunction((0.0, 0.3, 1.0), (1.5, -0.5))
        g = StepFunction((0.1, 0.7, 1.2), (2.0, 1.0))
        oracle, _ = quad(lambda t: f(t) * g(t), 0.0, 1.2)
        assert f.inner(g) == pytest.approx(oracle, abs=1e-12)
        assert f.inner(g) == pytest.approx(g.inner(f), abs=1e-15)

    def test_norm_sq(self):
        f = StepFunction((0.0, 0.5, 1.0), (2.0, -1.0))
        assert f.norm_sq == pytest.approx(0.5 * 4 + 0.5 * 1)

    def test_on_grid_uses_left_endpoints(self):
        grid = TimeGrid(1.0, 4)
        f = StepFunction((0.5, 1.0), (1.0,))
        np.testing.assert_array_equal(f.on_grid(grid), [0.0, 0.0, 1.0, 1.0])

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StepFunction((0.0, 0.0), (1.0,))
        with pytest.raises(ConfigurationError):
            StepFunction((0.0, 1.0), (1.0, 2.0))


class TestPermanent:
    def test_known_values(self):
        assert permanent(np.array([[1.0, 2.0], [3.0, 4.0]])) == 1 * 4 + 2 * 3
        assert permanent(np.eye(3)) == 1.0
        assert permanent(np.ones((3, 3))) == math.factorial(3)
        assert permanent(np.empty((0, 0))) == 1.0


class TestSimplexKernel:
    def test_norm_via_permanent(self):
        g1 = StepFunction.constant(1.0, 1.0)
        g2 = StepFunction((0.0, 0.5), (2.0,))
        # Gram: <g1,g1>=1, <g1,g2>=1, <g2,g2>=2 -> perm = 2 + 1 = 3, /2! = 1.5
        k = SimplexKernel(2, (g1, g2))
        assert k.norm_sq == pytest.approx(1.5)
        assert k.isometry_target == pytest.approx(3.0)

    def test_power_kernel_norm(self):
        h = StepFunction.constant(2.0, 0.25)  # ||h||^2 = 1
        k = SimplexKernel.power(h, 3, weight=0.5)
        assert k.norm_sq == pytest.approx(0.25)
        assert k.isometry_target == pytest.approx(6 * 0.25)

    def test_power_matches_symmetrized(self):
        h = StepFunction((0.0, 0.5, 1.0), (1.0, 3.0))
        k = SimplexKernel.power(h, 3)
        assert not k.symmetrize
        assert k.norm_sq == pytest.approx(permanent(k.gram(k)) / math.factorial(3), rel=1e-12)

    def test_inner_orthogonal_orders(self):
        h = StepFunction.constant(1.0, 1.0)
        assert SimplexKernel.power(h, 1).inner(SimplexKernel.power(h, 2)) == 0.0

    def test_contractions(self):
        g1 = StepFunction.constant(1.0, 1.0)
        g2 = StepFunction((0.0, 0.5), (2.0,))
        k = SimplexKernel(2, (g1, g2), weight=0.5)
        slices = k.contractions()
        assert [s[0] for s in slices] == [g1, g2]
        assert all(s[1].order == 1 and s[1].weight == 0.5 for s in slices)

    def test_order_zero(self):
        k = SimplexKernel(0, (), weight=1.5)
        assert k.norm_sq == pytest.approx(2.25)
        assert k.inner(SimplexKernel(0, (), weight=2.0)) == pytest.approx(3.0)

    def test_hash_is_the_field_hash_taken_once(self, monkeypatch):
        h = StepFunction((0.0, 0.5, 1.0), (1.0, -1.0))
        g = StepFunction.constant(2.0, 1.0)
        k = SimplexKernel(3, (h, g, h), weight=0.5)
        twin = SimplexKernel(3, [StepFunction((0.0, 0.5, 1.0), (1.0, -1.0)), g, h], weight=0.5)
        assert k == twin and hash(k) == hash(twin)
        assert hash(k) == hash((k.order, k.factors, k.weight, k.symmetrize))
        assert k != SimplexKernel(3, (h, h, g), weight=0.5)
        assert len({k, twin, SimplexKernel(3, (h, h, g), weight=0.5)}) == 2
        rehashed = []
        monkeypatch.setattr(StepFunction, "__hash__", lambda f: rehashed.append(f) or 0)
        hash(k), hash(k), {k: 1}[twin]
        assert rehashed == []

    def test_validation(self):
        h = StepFunction.constant(1.0, 1.0)
        with pytest.raises(ConfigurationError):
            SimplexKernel(2, (h,))
        with pytest.raises(ConfigurationError):
            SimplexKernel.power(h, MAX_ORDER + 1)
        # symmetrize is read off the factors, never set
        with pytest.raises(TypeError):
            SimplexKernel(2, (h, h), symmetrize=False)
        assert SimplexKernel(2, (h, StepFunction((0.0, 0.5, 1.0), (2.0, 0.5)))).symmetrize


class TestChaosVector:
    def test_norm_with_cross_terms(self):
        g1 = StepFunction.constant(1.0, 1.0)
        g2 = StepFunction((0.0, 0.5), (2.0,))
        F = ChaosVector(0.5, (SimplexKernel(1, (g1,)), SimplexKernel(1, (g2,))))
        # sum_n n n! ||f_n||^2 = 1 * (<g1,g1> + 2<g1,g2> + <g2,g2>) = 1 + 2 + 2
        assert F.gradient_energy == pytest.approx(5.0)  # constant drops out

    def test_gradient_energy_weights_orders(self):
        h = StepFunction.constant(1.0, 1.0)  # ||h||^2 = 1
        F = ChaosVector(0.0, (SimplexKernel.power(h, 2), SimplexKernel.power(h, 3)))
        assert F.gradient_energy == pytest.approx(2 * 2 + 3 * 6)
