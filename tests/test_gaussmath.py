"""Normal pdf/cdf primitives against independent quadrature oracles."""

import math

import numpy as np
import pytest

from polarsolve.errors import DomainError
from polarsolve.gaussmath import _mills, std_normal_cdf, std_normal_pdf

# Frozen oracle values.  phi(2.5) was confirmed by the Fourier identity
# below; Phi(0.25) by direct quadrature of the density.
PHI0 = 0.3989422804014327          # 1/sqrt(2*pi)
PDF_AT_2_5 = 0.01752830049356854
CDF_AT_0_25 = 0.5987063256829237


def pdf_by_fourier_identity(x: float) -> float:
    # The standard normal density is its own Fourier transform:
    #   phi(x) = (1/2pi) * Integral exp(-t^2/2) cos(x t) dt
    # Trapezoid on [-40, 40] converges to machine precision here and
    # never evaluates exp(-x^2/2)/sqrt(2pi) itself.
    ts = np.linspace(-40.0, 40.0, 160_001)
    integrand = np.exp(-0.5 * ts * ts) * np.cos(x * ts)
    return float(np.trapezoid(integrand, ts) / (2.0 * math.pi))


def cdf_by_quadrature(x: float) -> float:
    # Composite trapezoid of the density from far in the left tail.
    xs = np.linspace(-12.0, x, 2**20 + 1)
    dens = np.exp(-0.5 * xs * xs) / math.sqrt(2.0 * math.pi)
    return float(np.trapezoid(dens, xs))


def test_pdf_at_zero_is_inverse_root_two_pi():
    assert std_normal_pdf(0.0) == PHI0


def test_pdf_matches_fourier_oracle():
    assert abs(pdf_by_fourier_identity(2.5) - PDF_AT_2_5) < 1e-12
    assert abs(std_normal_pdf(2.5) - PDF_AT_2_5) < 1e-16


def test_cdf_matches_quadrature_oracle():
    assert abs(cdf_by_quadrature(0.25) - CDF_AT_0_25) < 1e-10
    assert abs(std_normal_cdf(0.25) - CDF_AT_0_25) < 1e-15


def test_cdf_at_zero_is_exactly_half():
    assert std_normal_cdf(0.0) == 0.5


@pytest.mark.parametrize("x", [39.0, 38.001, 100.0, 1e300])
def test_cdf_saturates_exactly_in_far_tails(x):
    assert std_normal_cdf(x) == 1.0
    assert std_normal_cdf(-x) == 0.0


def test_pdf_is_symmetric_and_positive(rng):
    for x in rng.uniform(-8.0, 8.0, 200):
        assert std_normal_pdf(float(x)) == std_normal_pdf(float(-x))
        assert std_normal_pdf(float(x)) > 0.0


def test_cdf_reflection_identity(rng):
    for x in rng.uniform(-6.0, 6.0, 200):
        total = std_normal_cdf(float(x)) + std_normal_cdf(float(-x))
        assert math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-15)


def test_cdf_is_monotone(rng):
    xs = np.sort(rng.uniform(-10.0, 10.0, 300))
    vals = [std_normal_cdf(float(x)) for x in xs]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_cdf_derivative_is_pdf(rng):
    # h trades truncation against cancellation in Phi(x+h)-Phi(x-h);
    # at h=1e-5 both sit comfortably below 1e-7 relative on [-3, 3].
    h = 1e-5
    for x in rng.uniform(-3.0, 3.0, 50):
        x = float(x)
        fd = (std_normal_cdf(x + h) - std_normal_cdf(x - h)) / (2.0 * h)
        assert math.isclose(fd, std_normal_pdf(x), rel_tol=1e-7)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_arguments_are_rejected(bad):
    with pytest.raises(DomainError):
        std_normal_pdf(bad)
    with pytest.raises(DomainError):
        std_normal_cdf(bad)
    with pytest.raises(DomainError):
        _mills(bad)


# Phi(x)/phi(x) to 17 digits, from 60-digit mpmath (ncdf/npdf).  Below -5
# the continued fraction is accurate to a few 1e-17; at and above -5 the
# ratio of the primitives inherits exp's argument rounding (~1e-14 at 30).
@pytest.mark.parametrize(
    "x, expected, rel",
    [
        (-1000.0, 0.00099999900000299999, 5e-16),
        (-100.0, 0.0099990002998501049, 5e-16),
        (-38.5, 0.025956537944110659, 5e-16),
        (-10.0, 0.099028596471731921, 5e-16),
        (-5.5, 0.17632298575710270, 5e-16),
        (-5.0, 0.19280810471531576, 3e-14),
        (-2.0, 0.42136922928805447, 3e-14),
        (0.0, 1.2533141373155003, 3e-14),
        (1.5, 7.2051430072747785, 3e-14),
        (8.0, 197930788642469.18, 3e-14),
        (30.0, 6.7858896130611187e195, 3e-14),
    ],
)
def test_mills_ratio_frozen_values(x, expected, rel):
    assert _mills(x) == pytest.approx(expected, rel=rel, abs=0.0)


def test_mills_ratio_is_infinite_where_the_density_underflows():
    # phi(40) underflows to 0 while Phi(40) = 1
    assert std_normal_pdf(40.0) == 0.0
    assert _mills(40.0) == math.inf
