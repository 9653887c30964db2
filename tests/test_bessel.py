import math

import numpy as np
import pytest
from scipy.special import iv

from lentparticle.bessel import SpectrumReport, bessel_spectrum, default_truncation
from lentparticle.errors import ConfigurationError


class TestCoefficients:
    @pytest.mark.parametrize("x", [0.5, 1.0, 4.0, 10.0])
    def test_against_modified_bessel(self, x):
        # The squared coefficient series is exactly the modified Bessel
        # function I_n evaluated at x; scipy computes it by an unrelated
        # algorithm, so this is an independent oracle.
        report = bessel_spectrum(x, 25)
        oracle = iv(np.arange(26), x)
        np.testing.assert_allclose(report.coefficients, oracle, rtol=1e-12)

    def test_zero_argument(self):
        report = bessel_spectrum(0.0, 5)
        np.testing.assert_array_equal(report.coefficients, [1, 0, 0, 0, 0, 0])
        assert report.parseval_defect() == 0.0

    def test_large_order_underflow_safe(self):
        report = bessel_spectrum(1.0, 300)
        assert np.all(np.isfinite(report.coefficients))
        assert np.all(report.coefficients >= 0.0)
        assert report.coefficients[300] < 1e-100


class TestIdentities:
    @pytest.mark.parametrize("x", [0.5, 1.0, 4.0, 10.0])
    def test_parseval(self, x):
        report = bessel_spectrum(x, default_truncation(x))
        assert report.parseval_defect() <= 1e-10
        assert report.parseval_total() == pytest.approx(math.exp(x), abs=1e-10)

    @pytest.mark.parametrize("x", [0.5, 1.0, 4.0, 10.0])
    @pytest.mark.parametrize("phi", [0.0, math.pi / 4, math.pi / 2, math.pi])
    def test_fourier(self, x, phi):
        report = bessel_spectrum(x, default_truncation(x))
        assert report.fourier(phi) == pytest.approx(
            math.exp(x * math.cos(phi)), abs=1e-8
        )

    def test_fourier_at_zero_is_parseval(self):
        report = bessel_spectrum(3.0, default_truncation(3.0))
        assert report.fourier(0.0) == pytest.approx(report.parseval_total(), abs=1e-14)

    def test_rows_schema(self):
        report = bessel_spectrum(1.0, 3)
        rows = report.rows()
        assert [r["n"] for r in rows] == [0, 1, 2, 3]
        assert all(r["c_n_sq"] >= 0 for r in rows)


class TestValidation:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            bessel_spectrum(-1.0, 10)
        with pytest.raises(ConfigurationError):
            bessel_spectrum(1.0, -1)

    def test_angle_with_an_infinite_multiple(self):
        report = bessel_spectrum(1.0, 40)
        with pytest.raises(ConfigurationError, match="40 \\* angle"):
            report.fourier(1e308)
        assert math.isfinite(report.fourier(1e306))

    def test_default_truncation_grows(self):
        assert default_truncation(0.5) >= 40
        assert default_truncation(50.0) > default_truncation(5.0)
