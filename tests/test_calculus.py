"""Closed-form payoff derivatives and the implicit platform slopes."""

import math
from dataclasses import replace

import pytest

from polarsolve import (
    DomainError,
    ModelParams,
    PlatformPair,
    PreconditionError,
    expected_utility_L,
    expected_utility_R,
    noise_scale,
    solve_symmetric,
)
from polarsolve.calculus import (
    _raw_pair,
    d2_euL_d_pL2,
    d2_euR_d_pR2,
    d_euL_d_pL,
    d_euR_d_pR,
    dpL_dw_polar,
    dpL_dw_symmetric,
    foc_symmetric,
    foc_symmetric_derivative,
    foc_symmetric_ideology_only,
    foc_symmetric_valence_only,
)

FD_H = 1e-6
FD_REL_FIRST = 1e-6
FD_REL_SECOND = 1e-4


def central_first(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def central_second(f, x, h):
    return (
        -f(x - 2.0 * h)
        + 16.0 * f(x - h)
        - 30.0 * f(x)
        + 16.0 * f(x + h)
        - f(x + 2.0 * h)
    ) / (12.0 * h * h)


def random_params(rng) -> ModelParams:
    return ModelParams(
        w=float(rng.uniform(0.0, 3.0)),
        V=float(rng.uniform(0.2, 3.0)),
        sigma_i=float(rng.uniform(0.1, 2.0)),
        sigma_v=float(rng.uniform(0.15, 2.0)),
        mu_i=float(rng.uniform(0.1, 0.9)),
        mu_v=float(rng.uniform(-1.0, 1.0)),
    )


def test_first_derivatives_match_finite_differences(rng):
    for _ in range(150):
        params = random_params(rng)
        p_l = float(rng.uniform(-0.4, 1.4))
        p_r = float(rng.uniform(-0.4, 1.4))

        fd_l = central_first(
            lambda x: expected_utility_L(PlatformPair(x, p_r), params), p_l, FD_H
        )
        got_l = d_euL_d_pL(PlatformPair(p_l, p_r), params)
        assert got_l == pytest.approx(fd_l, rel=FD_REL_FIRST, abs=1e-8)

        fd_r = central_first(
            lambda x: expected_utility_R(PlatformPair(p_l, x), params), p_r, FD_H
        )
        got_r = d_euR_d_pR(PlatformPair(p_l, p_r), params)
        assert got_r == pytest.approx(fd_r, rel=FD_REL_FIRST, abs=1e-8)


def test_second_derivatives_match_finite_differences(rng):
    # wider stencil step: the 5-point formula is 4th order, so h=1e-4
    # keeps truncation and cancellation both far below the tolerance
    for _ in range(150):
        params = random_params(rng)
        p_l = float(rng.uniform(-0.4, 1.4))
        p_r = float(rng.uniform(-0.4, 1.4))

        fd_l = central_second(
            lambda x: expected_utility_L(PlatformPair(x, p_r), params), p_l, 1e-4
        )
        got_l = d2_euL_d_pL2(PlatformPair(p_l, p_r), params)
        assert got_l == pytest.approx(fd_l, rel=FD_REL_SECOND, abs=1e-6)

        fd_r = central_second(
            lambda x: expected_utility_R(PlatformPair(p_l, x), params), p_r, 1e-4
        )
        got_r = d2_euR_d_pR2(PlatformPair(p_l, p_r), params)
        assert got_r == pytest.approx(fd_r, rel=FD_REL_SECOND, abs=1e-6)


def test_symmetric_foc_endpoints(baseline):
    """Positive at the anchor, exactly -1/2 at the bliss point."""
    assert foc_symmetric(0.0, baseline) > 0.0
    assert foc_symmetric(0.5, baseline) == -0.5


def test_symmetric_foc_is_strictly_decreasing(baseline):
    grid = [i * 0.005 for i in range(101)]
    vals = [foc_symmetric(p, baseline) for p in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(foc_symmetric_derivative(p, baseline) < 0.0 for p in grid)


def test_symmetric_foc_derivative_matches_fd(baseline):
    for p in (0.0, 0.1, 0.25, 0.4, 0.5):
        fd = central_first(lambda x: foc_symmetric(x, baseline), p, FD_H)
        assert foc_symmetric_derivative(p, baseline) == pytest.approx(fd, rel=1e-7)


def test_symmetric_foc_ignores_population_means(baseline, rng):
    # on the symmetry locus the win margin vanishes identically, so the
    # FOC cannot depend on where the voter distributions are centred
    for _ in range(50):
        shifted = replace(
            baseline,
            mu_i=float(rng.uniform(-1.0, 2.0)),
            mu_v=float(rng.uniform(-3.0, 3.0)),
        )
        p = float(rng.uniform(0.0, 0.5))
        assert foc_symmetric(p, shifted) == foc_symmetric(p, baseline)


def test_symmetric_foc_agrees_with_general_derivative(baseline):
    # specialization check: along p_R = 1 - p_L with balanced means the
    # general dE[pi_L]/dp_L collapses to the one-variable FOC
    for p in (0.0, 0.125, 0.25, 0.375, 0.5):
        pp = PlatformPair(p, 1.0 - p)
        assert d_euL_d_pL(pp, baseline) == pytest.approx(
            foc_symmetric(p, baseline), rel=1e-14, abs=1e-14
        )


def test_polar_focs_are_limits_of_the_full_foc():
    p = 0.3
    near_valence = ModelParams(w=1.0, sigma_i=1e-9)
    assert foc_symmetric(p, near_valence) == pytest.approx(
        foc_symmetric_valence_only(p, near_valence), rel=1e-12
    )
    near_ideology = ModelParams(w=1.0, sigma_v=1e-9)
    assert foc_symmetric(p, near_ideology) == pytest.approx(
        foc_symmetric_ideology_only(p, near_ideology), rel=1e-12
    )


def test_ideology_only_foc_rejects_w_zero():
    with pytest.raises(DomainError):
        foc_symmetric_ideology_only(0.25, ModelParams(w=0.0))


def test_implicit_slope_requires_a_root(baseline):
    with pytest.raises(PreconditionError):
        dpL_dw_symmetric(0.45, baseline)
    with pytest.raises(PreconditionError):
        dpL_dw_polar(0.45, baseline, "valence_only")


def test_implicit_slope_matches_fd_along_the_root_path():
    params0 = ModelParams(w=1.0)
    p0 = solve_symmetric(params0).platforms.p_L
    h = 1e-5

    def root_at(w: float) -> float:
        return solve_symmetric(replace(params0, w=w)).platforms.p_L

    fd = (root_at(1.0 + h) - root_at(1.0 - h)) / (2.0 * h)
    assert dpL_dw_symmetric(p0, params0) == pytest.approx(fd, rel=1e-6)


def test_implicit_slope_sign_flips_across_the_boundary():
    # small w: valence noise dominates, platforms drift away from 1/2;
    # large w: ideology noise dominates and the pull reverses
    lo = ModelParams(w=0.01)
    p_lo = solve_symmetric(lo).platforms.p_L
    assert dpL_dw_symmetric(p_lo, lo) > 0.0

    hi = ModelParams(w=3.0)
    p_hi = solve_symmetric(hi).platforms.p_L
    assert dpL_dw_symmetric(p_hi, hi) < 0.0

    boundary = lo.sigma_v**2 / (4.0 * lo.sigma_i**2 * (1.0 + lo.V - 2.0 * p_lo))
    assert lo.w < boundary
    p_hi_boundary = hi.sigma_v**2 / (4.0 * hi.sigma_i**2 * (1.0 + hi.V - 2.0 * p_hi))
    assert hi.w > p_hi_boundary


def bisect(f, lo, hi, tol=1e-13):
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if hi - lo < tol:
            return mid
        if (flo > 0.0) == (fm > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_polar_slopes_have_opposite_signs():
    params = ModelParams(w=0.8, sigma_i=1.0, sigma_v=1.0)
    p_val = bisect(lambda p: foc_symmetric_valence_only(p, params), 0.0, 0.5)
    assert dpL_dw_polar(p_val, params, "valence_only") > 0.0

    p_ideo = bisect(lambda p: foc_symmetric_ideology_only(p, params), 0.0, 0.5)
    assert dpL_dw_polar(p_ideo, params, "ideology_only") < 0.0


def test_polar_slope_matches_fd():
    params0 = ModelParams(w=0.8)
    h = 1e-5

    def val_root(w: float) -> float:
        params = replace(params0, w=w)
        return bisect(lambda p: foc_symmetric_valence_only(p, params), 0.0, 0.5)

    def ideo_root(w: float) -> float:
        params = replace(params0, w=w)
        return bisect(lambda p: foc_symmetric_ideology_only(p, params), 0.0, 0.5)

    p_val = val_root(0.8)
    fd_val = (val_root(0.8 + h) - val_root(0.8 - h)) / (2.0 * h)
    assert dpL_dw_polar(p_val, params0, "valence_only") == pytest.approx(fd_val, rel=1e-5)

    p_ideo = ideo_root(0.8)
    fd_ideo = (ideo_root(0.8 + h) - ideo_root(0.8 - h)) / (2.0 * h)
    assert dpL_dw_polar(p_ideo, params0, "ideology_only") == pytest.approx(fd_ideo, rel=1e-5)


def test_polar_slope_rejects_unknown_case(baseline):
    p = bisect(lambda x: foc_symmetric(x, baseline), 0.0, 0.5)
    with pytest.raises(ValueError):
        dpL_dw_polar(p, baseline, "both")  # type: ignore[arg-type]


def test_second_derivative_negative_at_symmetric_root(baseline):
    res = solve_symmetric(baseline)
    assert d2_euL_d_pL2(res.platforms, baseline) < 0.0
    assert d2_euR_d_pR2(res.platforms, baseline) < 0.0


def test_payoff_slope_relabeling_antisymmetry(rng):
    # the mirror map that swaps party roles sends p_R to 1 - p_R, so the
    # first derivative flips sign under it while the second keeps its
    for _ in range(100):
        params = random_params(rng)
        mirrored = replace(params, mu_i=1.0 - params.mu_i, mu_v=-params.mu_v)
        p_l = float(rng.uniform(-0.4, 1.4))
        p_r = float(rng.uniform(-0.4, 1.4))
        got = d_euR_d_pR(PlatformPair(p_l, p_r), params)
        want = -d_euL_d_pL(PlatformPair(1.0 - p_r, 1.0 - p_l), mirrored)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        got2 = d2_euR_d_pR2(PlatformPair(p_l, p_r), params)
        want2 = d2_euL_d_pL2(PlatformPair(1.0 - p_r, 1.0 - p_l), mirrored)
        assert got2 == pytest.approx(want2, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("deriv", [d_euL_d_pL, d_euR_d_pR, d2_euL_d_pL2, d2_euR_d_pR2])
@pytest.mark.parametrize(
    "pp", [PlatformPair(0.3, 1e160), PlatformPair(1e200, 0.5), PlatformPair(0.5, -1e200)]
)
def test_derivatives_at_a_huge_platform_are_domain_errors(deriv, pp):
    # the margin is not finite here, and it is checked before any platform
    # is squared, so no bare OverflowError escapes
    with pytest.raises(DomainError):
        deriv(pp, ModelParams(w=1.0))


@pytest.mark.parametrize(
    "pp, soc, foc",
    [
        (PlatformPair(1e154, 0.7), d2_euL_d_pL2, d_euL_d_pL),
        (PlatformPair(0.3, 1e154), d2_euR_d_pR2, d_euR_d_pR),
    ],
)
def test_second_derivative_whose_square_overflows_is_a_domain_error(pp, soc, foc):
    # the margin is still finite near 1e154, but (1 - 2p)**2 overflows: that
    # is a DomainError, also for the first derivative, which the same kernel
    # computes
    params = ModelParams(w=1.0)
    with pytest.raises(DomainError):
        soc(pp, params)
    with pytest.raises(DomainError):
        _raw_pair(pp.p_L, pp.p_R, params, noise_scale(params))
    with pytest.raises(DomainError):
        foc(pp, params)
