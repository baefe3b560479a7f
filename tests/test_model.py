"""Parameterization, the win rule, and the payoff functions."""

import math
from dataclasses import replace

import numpy as np
import pytest

from polarsolve import (
    SIGMA_V_TILDE,
    InvalidParamsError,
    ModelParams,
    PlatformPair,
    expected_utility_L,
    expected_utility_R,
    noise_scale,
    voter_utility,
    win_margin,
    win_probability_L,
)
from polarsolve.calculus import (
    _d2_euL_d_pL2,
    _d2_euR_d_pR2,
    _d_euL_d_pL,
    _d_euR_d_pR,
    d2_euL_d_pL2,
    d2_euR_d_pR2,
    d_euL_d_pL,
    d_euR_d_pR,
)
from polarsolve.gaussmath import std_normal_cdf
from polarsolve.model import _margin

# Frozen anchor: a lopsided instance where ideology dominates.  The win
# probability was cross-checked against Monte Carlo on the raw vote rule.
HEAVY_W = ModelParams(w=1000.0, mu_i=0.6, sigma_i=0.02, sigma_v=1.0)
HEAVY_W_PP = PlatformPair(0.3, 0.7)
HEAVY_W_SIGMA_N = 40.01249804748511
HEAVY_W_KAPPA = -4.998438232040613
HEAVY_W_PR = 2.8898257119129714e-07


def swap_params(params: ModelParams) -> ModelParams:
    return replace(params, mu_i=1.0 - params.mu_i, mu_v=-params.mu_v)


def swap_platforms(pp: PlatformPair) -> PlatformPair:
    return PlatformPair(1.0 - pp.p_R, 1.0 - pp.p_L)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"w": -0.1},
        {"w": 1.0, "V": 0.0},
        {"w": 1.0, "V": -2.0},
        {"w": 1.0, "sigma_i": 0.0},
        {"w": 1.0, "sigma_v": -1.0},
        {"w": math.nan},
        {"w": math.inf},
        {"w": 1.0, "mu_v": math.nan},
        {"w": True},
        {"w": 1.0, "i_L": 0.1},
        {"w": 1.0, "i_R": 0.9},
        {"w": 1.0, "p_hat_L": 0.2},
        {"w": 1.0, "p_hat_R": 0.8},
        {"w": 1.0, "p_hat_V": 0.4},
    ],
)
def test_invalid_params_are_rejected(kwargs):
    with pytest.raises(InvalidParamsError):
        ModelParams(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"w": 1e308, "mu_i": -1.0},  # w**2 raises OverflowError
        {"w": 1e200},
        {"w": 1e153, "sigma_i": 10.0},  # 4 w^2 sigma_i^2 overflows to inf
        {"w": 0.0, "sigma_v": 1e-200},  # sigma_v**2 underflows to 0
    ],
)
def test_noise_scale_out_of_double_range_is_rejected(kwargs):
    with pytest.raises(InvalidParamsError, match="noise scale") as info:
        ModelParams(**kwargs)
    for name in ("w=", "sigma_i=", "sigma_v="):
        assert name in str(info.value)


def test_boundary_w_zero_is_allowed():
    assert ModelParams(w=0.0).w == 0.0


def test_params_are_immutable(baseline):
    with pytest.raises(AttributeError):
        baseline.w = 2.0


def test_single_peakedness_bound_value():
    assert SIGMA_V_TILDE == math.sqrt(32.0 / 3125.0)
    assert ModelParams(w=1.0, sigma_v=0.102).single_peaked_guaranteed
    assert ModelParams(w=1.0, sigma_v=SIGMA_V_TILDE).single_peaked_guaranteed
    assert not ModelParams(w=1.0, sigma_v=0.1).single_peaked_guaranteed


def test_platform_pair_delta_and_validation():
    assert PlatformPair(0.2, 0.9).delta == pytest.approx(0.7)
    assert PlatformPair(0.9, 0.2).delta == pytest.approx(0.7)
    with pytest.raises(InvalidParamsError):
        PlatformPair(math.nan, 0.5)
    with pytest.raises(InvalidParamsError):
        PlatformPair(0.5, math.inf)


def test_voter_utility_hand_value():
    params = ModelParams(w=2.0)
    # -2*(0.2-0)^2 - (0.5-0.3)^2
    assert voter_utility(0.0, 0.3, 0.2, params) == pytest.approx(-0.12, rel=1e-14)
    assert voter_utility(0.0, 0.5, 0.0, params) == 0.0  # bliss platform, anchor hit


def test_voter_utility_never_positive(rng):
    params = ModelParams(w=0.7)
    for _ in range(100):
        i_hat = float(rng.uniform(-2.0, 3.0))
        p = float(rng.uniform(-1.0, 2.0))
        assert voter_utility(1.0, p, i_hat, params) <= 0.0


def test_noise_scale_values():
    assert noise_scale(ModelParams(w=0.0, sigma_v=0.7)) == 0.7
    assert noise_scale(ModelParams(w=1.0)) == pytest.approx(math.sqrt(5.0), rel=1e-15)
    assert noise_scale(HEAVY_W) == pytest.approx(HEAVY_W_SIGMA_N, rel=1e-15)


def test_symmetric_profile_has_even_odds(baseline):
    # dyadic platforms so that 1 - p is exact and the margin cancels to 0.0
    pp = PlatformPair(0.25, 0.75)
    assert win_margin(pp, baseline) == 0.0
    assert win_probability_L(pp, baseline) == 0.5


def test_win_margin_frozen_anchor():
    assert win_margin(HEAVY_W_PP, HEAVY_W) == pytest.approx(HEAVY_W_KAPPA, rel=1e-14)
    assert win_probability_L(HEAVY_W_PP, HEAVY_W) == pytest.approx(HEAVY_W_PR, rel=1e-12)


def test_win_probability_reduces_to_cdf_of_margin():
    # w=0 kills the ideology channel: kappa = [p_L(1-p_L) - p_R(1-p_R)]/sigma_v
    params = ModelParams(w=0.0)
    pp = PlatformPair(0.5, 1.0)
    assert win_margin(pp, params) == pytest.approx(0.25, rel=1e-15)
    assert win_probability_L(pp, params) == std_normal_cdf(0.25)


def test_probability_bounds_and_valence_direction(rng):
    for _ in range(200):
        params = ModelParams(
            w=float(rng.uniform(0.0, 3.0)),
            V=float(rng.uniform(0.2, 3.0)),
            sigma_i=float(rng.uniform(0.1, 2.0)),
            sigma_v=float(rng.uniform(0.15, 2.0)),
            mu_i=float(rng.uniform(0.0, 1.0)),
            mu_v=float(rng.uniform(-1.0, 1.0)),
        )
        pp = PlatformPair(float(rng.uniform(-0.5, 1.5)), float(rng.uniform(-0.5, 1.5)))
        pr = win_probability_L(pp, params)
        assert 0.0 <= pr <= 1.0
        # a larger mean valence advantage for R can only hurt L
        worse = replace(params, mu_v=params.mu_v + 0.5)
        assert win_probability_L(pp, worse) <= pr


def test_relabeling_symmetry(rng):
    # Mirroring platforms about 1/2, the ideology mean about 1/2 and
    # negating the valence mean exchanges the parties' roles exactly.
    for _ in range(200):
        params = ModelParams(
            w=float(rng.uniform(0.0, 3.0)),
            V=float(rng.uniform(0.2, 3.0)),
            sigma_i=float(rng.uniform(0.1, 2.0)),
            sigma_v=float(rng.uniform(0.15, 2.0)),
            mu_i=float(rng.uniform(0.0, 1.0)),
            mu_v=float(rng.uniform(-1.0, 1.0)),
        )
        pp = PlatformPair(float(rng.uniform(-0.4, 1.4)), float(rng.uniform(-0.4, 1.4)))
        mirrored = win_probability_L(swap_platforms(pp), swap_params(params))
        assert math.isclose(
            win_probability_L(pp, params), 1.0 - mirrored, rel_tol=0.0, abs_tol=1e-14
        )
        assert math.isclose(
            expected_utility_R(pp, params),
            expected_utility_L(swap_platforms(pp), swap_params(params)),
            rel_tol=1e-12,
            abs_tol=1e-12,
        )


def test_expected_utilities_decompose(baseline):
    pp = PlatformPair(0.25, 0.8)
    pr = win_probability_L(pp, baseline)
    v, w = baseline.V, baseline.w
    assert expected_utility_L(pp, baseline) == pytest.approx(
        pr * (v - 0.25**2) - (1.0 - pr) * (w + 0.8**2), rel=1e-15
    )
    assert expected_utility_R(pp, baseline) == pytest.approx(
        (1.0 - pr) * (v - 0.2**2) - pr * (w + 0.75**2), rel=1e-15
    )


def test_expected_utility_is_bounded_by_the_rent(rng):
    for _ in range(100):
        params = ModelParams(w=float(rng.uniform(0.0, 3.0)), V=float(rng.uniform(0.2, 3.0)))
        pp = PlatformPair(float(rng.uniform(-0.5, 1.5)), float(rng.uniform(-0.5, 1.5)))
        assert expected_utility_L(pp, params) <= params.V
        assert expected_utility_R(pp, params) <= params.V


def test_public_functions_equal_the_float_kernels_bit_for_bit(rng):
    # the kernels behind the best-response search must return exactly what
    # the validated public API returns, and the payoffs exactly what the
    # documented formulas give when evaluated in the same order
    pairs = [
        (win_margin, _margin),
        (d_euL_d_pL, _d_euL_d_pL),
        (d_euR_d_pR, _d_euR_d_pR),
        (d2_euL_d_pL2, _d2_euL_d_pL2),
        (d2_euR_d_pR2, _d2_euR_d_pR2),
    ]
    for _ in range(100):
        params = ModelParams(
            w=float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3)))),
            V=float(np.exp(rng.uniform(np.log(1e-2), np.log(1e2)))),
            sigma_i=float(np.exp(rng.uniform(np.log(1e-2), np.log(10.0)))),
            sigma_v=float(np.exp(rng.uniform(np.log(0.05), np.log(10.0)))),
            mu_i=float(rng.uniform(-1.0, 2.0)),
            mu_v=float(rng.uniform(-3.0, 3.0)),
        )
        p_l, p_r = float(rng.uniform(-1.0, 2.0)), float(rng.uniform(-1.0, 2.0))
        pp, sn = PlatformPair(p_l, p_r), noise_scale(params)
        for public, kernel in pairs:
            assert public(pp, params) == kernel(p_l, p_r, params, sn), public.__name__
        kappa = (
            p_l * (1.0 - p_l) - p_r * (1.0 - p_r) + params.w * (1.0 - 2.0 * params.mu_i)
        ) - params.mu_v
        pr = std_normal_cdf(kappa / sn)
        assert expected_utility_L(pp, params) == pr * (params.V - p_l**2) - (1.0 - pr) * (
            params.w + p_r**2
        )
        assert expected_utility_R(pp, params) == (1.0 - pr) * (
            params.V - (1.0 - p_r) ** 2
        ) - pr * (params.w + (1.0 - p_l) ** 2)
