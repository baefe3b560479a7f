"""Core game objects: parameterization, voter utility, win rule, payoffs.

The game: two parties sit at fixed ideological anchors i_L = 0 and
i_R = 1 and simultaneously commit to policy platforms p_L, p_R on the
real line.  A single representative voter has known policy bliss point
1/2, an ideological bliss point drawn from N(mu_i, sigma_i^2), and
breaks between the parties subject to a valence shock v ~ N(mu_v,
sigma_v^2) that favours party R.  The voter picks L iff

    -w*(i_hat - 0)^2 - (1/2 - p_L)^2  >  -w*(i_hat - 1)^2 - (1/2 - p_R)^2 + v

which collapses to a linear inequality in (i_hat, v); hence L's winning
probability is a normal CDF of the standardized margin computed by
:func:`win_margin`.  Everything here is a pure function of immutable
values and safe to call concurrently.

Inputs are validated where they enter: :class:`ModelParams` and
:class:`PlatformPair` check their fields on construction, and
:func:`polarsolve.solver.best_response` checks its opponent's platform
once on entry.  The private kernel :func:`_margin` takes those checked
values as plain floats ``(p_L, p_R, params, sn)``, with the noise scale
``sn = noise_scale(params)`` passed in, so the derivative kernels in
:mod:`polarsolve.calculus` can evaluate it many times without
rebuilding a ``PlatformPair`` or recomputing ``sn``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParamsError
from .gaussmath import std_normal_cdf

__all__ = [
    "SIGMA_V_TILDE",
    "ModelParams",
    "PlatformPair",
    "voter_utility",
    "noise_scale",
    "win_margin",
    "win_probability_L",
    "expected_utility_L",
    "expected_utility_R",
]

#: Valence-noise level above which both parties' objectives are
#: guaranteed single-peaked in their own platform: sqrt(32/3125).
SIGMA_V_TILDE = math.sqrt(32.0 / 3125.0)


def _finite(name: str, x: float) -> float:
    if not isinstance(x, (int, float)) or isinstance(x, bool) or not math.isfinite(x):
        raise InvalidParamsError(f"{name} must be a finite real number, got {x!r}")
    return float(x)


@dataclass(frozen=True, slots=True)
class ModelParams:
    """Full parameterization of one game instance.

    The ideological anchors and policy bliss points are part of the
    model's normalization and the constructor rejects any other values;
    they are fields only so that serialized configurations are explicit
    about the convention.
    """

    w: float                  # ideological-polarization weight, >= 0
    V: float = 1.0            # office rent, > 0
    sigma_i: float = 1.0      # std. dev. of the voter's ideological bliss, > 0
    sigma_v: float = 1.0      # std. dev. of the valence shock, > 0
    mu_i: float = 0.5         # mean ideological bliss
    mu_v: float = 0.0         # mean valence shock (favours R)
    i_L: float = 0.0          # L's ideological anchor (fixed by normalization)
    i_R: float = 1.0          # R's ideological anchor
    p_hat_L: float = 0.0      # L's policy bliss
    p_hat_R: float = 1.0      # R's policy bliss
    p_hat_V: float = 0.5      # voter's policy bliss

    def __post_init__(self) -> None:
        for name in ("w", "V", "sigma_i", "sigma_v", "mu_i", "mu_v"):
            object.__setattr__(self, name, _finite(name, getattr(self, name)))
        if self.w < 0.0:
            raise InvalidParamsError(f"w must be >= 0, got {self.w}")
        if self.V <= 0.0:
            raise InvalidParamsError(f"V must be > 0, got {self.V}")
        if self.sigma_i <= 0.0:
            raise InvalidParamsError(f"sigma_i must be > 0, got {self.sigma_i}")
        if self.sigma_v <= 0.0:
            raise InvalidParamsError(f"sigma_v must be > 0, got {self.sigma_v}")
        _checked_noise_scale(self.w, self.sigma_i, self.sigma_v)
        anchors = {"i_L": 0.0, "i_R": 1.0, "p_hat_L": 0.0, "p_hat_R": 1.0, "p_hat_V": 0.5}
        for name, required in anchors.items():
            if getattr(self, name) != required:
                raise InvalidParamsError(
                    f"{name} is fixed at {required} by the model normalization, "
                    f"got {getattr(self, name)!r}"
                )

    @property
    def single_peaked_guaranteed(self) -> bool:
        """True iff sigma_v is at or above the unimodality bound sqrt(32/3125)."""
        return self.sigma_v >= SIGMA_V_TILDE


@dataclass(frozen=True, slots=True)
class PlatformPair:
    """A strategy profile.  Platforms may be any finite reals; interior
    equilibria end up with p_L in (0, 1/2) and p_R in (1/2, 1)."""

    p_L: float
    p_R: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p_L", _finite("p_L", self.p_L))
        object.__setattr__(self, "p_R", _finite("p_R", self.p_R))

    @property
    def delta(self) -> float:
        """Platform polarization |p_R - p_L|."""
        return abs(self.p_R - self.p_L)


def voter_utility(i: float, p: float, i_hat: float, params: ModelParams) -> float:
    """Voter's utility -w*(i_hat - i)^2 - (p_hat_V - p)^2 from a party at
    ideological anchor ``i`` offering platform ``p``.  Never positive."""
    di = i_hat - i
    dp = params.p_hat_V - p
    return -params.w * di * di - dp * dp


def _noise_scale(w: float, sigma_i: float, sigma_v: float) -> float:
    """:func:`noise_scale` of plain floats."""
    return math.sqrt(sigma_v**2 + 4.0 * w**2 * sigma_i**2)


def _checked_noise_scale(w: float, sigma_i: float, sigma_v: float) -> float:
    """:func:`_noise_scale`, or :class:`InvalidParamsError` naming ``w``,
    ``sigma_i`` and ``sigma_v`` when it is not a positive finite double."""
    try:
        sn = _noise_scale(w, sigma_i, sigma_v)
    except OverflowError:
        sn = math.inf
    if not 0.0 < sn < math.inf:
        raise InvalidParamsError(
            f"noise scale sqrt(sigma_v^2 + 4 w^2 sigma_i^2) is {sn!r}, not a positive "
            f"finite double, for w={w!r}, sigma_i={sigma_i!r}, sigma_v={sigma_v!r}"
        )
    return sn


def noise_scale(params: ModelParams) -> float:
    """Standard deviation of the combined shock 2*w*i_hat + v."""
    return _noise_scale(params.w, params.sigma_i, params.sigma_v)


def _margin(p_L: float, p_R: float, params: ModelParams, sn: float) -> float:
    """:func:`win_margin` of the profile ``(p_L, p_R)``, given ``sn``."""
    num = (
        p_L * (1.0 - p_L)
        - p_R * (1.0 - p_R)
        + params.w * (1.0 - 2.0 * params.mu_i)
        - params.mu_v
    )
    return num / sn


def win_margin(pp: PlatformPair, params: ModelParams) -> float:
    """Standardized margin kappa such that Pr(L wins) = Phi(kappa).

    kappa = [p_L(1-p_L) - p_R(1-p_R) + w(1-2*mu_i) - mu_v] / sigma_n.
    Positive numerator terms favour L; at a symmetric profile with
    mu_v = w(1-2*mu_i) the margin is exactly zero.
    """
    return _margin(pp.p_L, pp.p_R, params, noise_scale(params))


def win_probability_L(pp: PlatformPair, params: ModelParams) -> float:
    """Probability that party L wins the election (R's is the complement)."""
    return std_normal_cdf(_margin(pp.p_L, pp.p_R, params, noise_scale(params)))


def expected_utility_L(pp: PlatformPair, params: ModelParams) -> float:
    """E[pi_L] = Pr*(V - p_L^2) - (1-Pr)*(w + p_R^2).

    Winning yields the rent V minus the cost of running on a platform
    away from L's own bliss at 0; losing costs the full ideological
    distance (w * 1^2) plus R's platform distance.  The CDF is taken
    before the squares, so a margin that is not finite raises
    :class:`~polarsolve.errors.DomainError` before a huge platform can
    overflow ``**``.
    """
    pr = std_normal_cdf(_margin(pp.p_L, pp.p_R, params, noise_scale(params)))
    return pr * (params.V - pp.p_L**2) - (1.0 - pr) * (params.w + pp.p_R**2)


def expected_utility_R(pp: PlatformPair, params: ModelParams) -> float:
    """E[pi_R] = (1-Pr)*(V - (1-p_R)^2) - Pr*(w + (1-p_L)^2)."""
    pr = std_normal_cdf(_margin(pp.p_L, pp.p_R, params, noise_scale(params)))
    return (1.0 - pr) * (params.V - (1.0 - pp.p_R) ** 2) - pr * (params.w + (1.0 - pp.p_L) ** 2)
