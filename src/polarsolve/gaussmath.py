"""Standard-normal primitives.

Every probabilistic expression in the package routes through the two
functions here, so their accuracy budget (relative error at or below
1e-15 on [-8, 8]) is what all downstream equilibrium tolerances assume.

The CDF is evaluated through the complementary error function
(``math.erfc`` is correctly rounded on every mainstream libm), which is
numerically superior to ``0.5*(1+erf(x/sqrt(2)))`` in the lower tail.
Inputs beyond |x| = 38 clamp to exact 0/1: the true tail mass there is
below 1e-315 and computing it would only produce denormal noise.
"""

from __future__ import annotations

import math

from .errors import DomainError

__all__ = ["std_normal_pdf", "std_normal_cdf"]

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_INV_SQRT_2 = 1.0 / math.sqrt(2.0)

#: |x| beyond which the CDF is clamped to exact 0 or 1.
_CDF_CLAMP = 38.0

def _require_finite(x: float) -> float:
    if not math.isfinite(x):
        raise DomainError(f"expected a finite real number, got {x!r}")
    return x


def std_normal_pdf(x: float) -> float:
    """Density of the standard normal: exp(-x^2/2)/sqrt(2*pi).

    Strictly positive and symmetric; underflows to 0.0 only beyond
    |x| ~ 38.6 where the true value is below the smallest double.
    """
    _require_finite(x)
    return math.exp(-0.5 * x * x) * _INV_SQRT_2PI


def std_normal_cdf(x: float) -> float:
    """Distribution function of the standard normal.

    Strictly increasing with Phi(-x) = 1 - Phi(x); clamps to exact 0/1
    for |x| > 38 (see module docstring).
    """
    _require_finite(x)
    if x > _CDF_CLAMP:
        return 1.0
    if x < -_CDF_CLAMP:
        return 0.0
    return 0.5 * math.erfc(-x * _INV_SQRT_2)
