"""The brute-force oracles: grid argmax, Monte Carlo votes, peak scans."""

import math

import numpy as np
import pytest

from polarsolve import (
    DomainError,
    InvalidParamsError,
    ModelParams,
    PlatformPair,
    SpanTooSmallError,
    expected_utility_L,
    expected_utility_R,
    grid_best_response,
    mc_win_probability,
    peak_scan,
    solve_symmetric,
    win_margin,
    win_probability_L,
)
from polarsolve.oracle import DEFAULT_SPAN, _grid_payoffs

# A genuinely bimodal instance found by random search below the
# unimodality bound; frozen so the scan keeps something real to detect.
BIMODAL_PARAMS = ModelParams(
    w=0.4398517433402567,
    V=2.136124282546395,
    sigma_i=0.1438368691369653,
    sigma_v=0.012536064968401543,
    mu_i=0.39365526822529884,
    mu_v=0.24990415967877477,
)
BIMODAL_OPPONENT = 0.19196101690418765


def binom_se(p: float, n: int) -> float:
    return math.sqrt(p * (1.0 - p) / n)


def pair(x: float, opponent: float, party: str) -> PlatformPair:
    return PlatformPair(x, opponent) if party == "L" else PlatformPair(opponent, x)


def seeded_draw(seed: int, sigma_v_lo: float, sigma_v_hi: float) -> tuple[ModelParams, float]:
    rng = np.random.default_rng([seed, 4])
    params = ModelParams(
        w=float(rng.uniform(0.0, 3.0)),
        V=float(rng.uniform(0.2, 3.0)),
        sigma_i=float(rng.uniform(0.1, 3.0)),
        sigma_v=float(rng.uniform(sigma_v_lo, sigma_v_hi)),
        mu_i=float(rng.uniform(0.2, 0.8)),
        mu_v=float(rng.uniform(-1.0, 1.0)),
    )
    return params, float(rng.uniform(0.0, 1.0))


# (params, opponent, span): seeded draws above and below the single-peak
# bound, and a lopsided race on the widest best-response bracket, where
# |kappa| > 38 clamps the CDF at the span ends but not in the middle.
BIT_CASES = {
    **{
        f"{side}-bound-{seed}": (*seeded_draw(seed, lo, hi), DEFAULT_SPAN)
        for side, lo, hi in (("above", 0.102, 10.0), ("below", 0.01, 0.1))
        for seed in range(3)
    },
    "lopsided-wide": (
        ModelParams(w=0.5, sigma_i=0.01, sigma_v=0.05, mu_v=1.5), 0.6, (-8.0, 9.0)
    ),
}


@pytest.mark.parametrize("grid_step", [0.0, -1e-4])
def test_grid_rejects_bad_step(baseline, grid_step):
    with pytest.raises(ValueError):
        grid_best_response(0.75, "L", baseline, grid_step=grid_step)


def test_grid_rejects_empty_span(baseline):
    for span in [(1.0, 1.0), (1.5, -0.5), (0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0)]:
        with pytest.raises(ValueError):
            grid_best_response(0.75, "L", baseline, span=span)


def test_grid_rejects_unknown_party(baseline):
    with pytest.raises(ValueError):
        grid_best_response(0.75, "X", baseline)  # type: ignore[arg-type]


@pytest.mark.parametrize("opponent", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("party", ["L", "R"])
def test_grid_rejects_a_nonfinite_opponent(baseline, opponent, party):
    with pytest.raises(InvalidParamsError):
        grid_best_response(opponent, party, baseline)
    with pytest.raises(InvalidParamsError):
        peak_scan(opponent, party, baseline)


@pytest.mark.parametrize("party", ["L", "R"])
def test_grid_nonfinite_margin_raises_domain_error(party):
    # 1 - 2*mu_i overflows to inf, so every margin on the grid is inf
    params = ModelParams(w=1.0, mu_i=-1e308)
    with pytest.raises(DomainError):
        grid_best_response(0.5, party, params)
    with pytest.raises(DomainError):
        peak_scan(0.5, party, params)


@pytest.mark.parametrize("party", ["L", "R"])
@pytest.mark.parametrize("case", BIT_CASES)
def test_grid_payoffs_match_the_scalar_payoffs_bit_for_bit(case, party):
    params, opponent, span = BIT_CASES[case]
    step = 1e-3
    xs, vals = _grid_payoffs(opponent, party, params, span, step)
    assert not xs.flags.writeable
    assert xs.tolist() == [span[0] + k * step for k in range(len(xs))]
    utility = expected_utility_L if party == "L" else expected_utility_R
    ref = np.array([utility(pair(x, opponent, party), params) for x in xs.tolist()])
    assert np.array_equal(vals.view(np.int64), ref.view(np.int64))
    if case == "lopsided-wide":
        kappa = np.array([win_margin(pair(x, opponent, party), params) for x in xs.tolist()])
        assert (np.abs(kappa) > 38.0).any() and (np.abs(kappa) <= 38.0).any()


def test_grid_tie_breaks_toward_one_half_on_a_flat_payoff():
    # mu_v=100 clamps Pr(L wins) to exactly 0 on the whole span, so L's
    # payoff is the same sure-loss value at every grid point
    assert grid_best_response(0.75, "L", ModelParams(w=0.0, mu_v=100.0)) == 0.5


def test_grid_finds_the_symmetric_best_response(baseline):
    p_star = solve_symmetric(baseline).platforms.p_L
    got = grid_best_response(1.0 - p_star, "L", baseline, grid_step=1e-4)
    assert abs(got - p_star) <= 1e-4


def test_grid_refinement_converges(baseline):
    coarse = grid_best_response(0.75, "L", baseline, grid_step=1e-3)
    fine = grid_best_response(0.75, "L", baseline, grid_step=1e-4)
    assert abs(coarse - fine) <= 1e-3


def test_grid_argmax_is_interior_maximum(baseline):
    step = 1e-4
    x = grid_best_response(0.9, "L", baseline, grid_step=step)
    mid = expected_utility_L(PlatformPair(x, 0.9), baseline)
    assert mid >= expected_utility_L(PlatformPair(x - step, 0.9), baseline)
    assert mid >= expected_utility_L(PlatformPair(x + step, 0.9), baseline)


def test_grid_edge_argmax_raises(baseline):
    # the true best response to 0.9 is near 0.23, outside this window,
    # so the windowed scan must refuse rather than clip
    with pytest.raises(SpanTooSmallError):
        grid_best_response(0.9, "L", baseline, grid_step=1e-3, span=(0.9, 1.1))


def test_mc_rejects_small_samples(baseline):
    with pytest.raises(ValueError):
        mc_win_probability(PlatformPair(0.3, 0.7), baseline, 9_999, seed=1)


def test_mc_is_bit_reproducible(baseline):
    pp = PlatformPair(0.3, 0.7)
    a = mc_win_probability(pp, baseline, 50_000, seed=7)
    b = mc_win_probability(pp, baseline, 50_000, seed=7)
    assert a == b
    c = mc_win_probability(pp, baseline, 50_000, seed=8)
    assert c != a  # different stream, almost surely a different count


def test_mc_batching_is_invisible(baseline):
    # 600_000 spans three internal batches; the count must not depend on
    # whether the caller could have drawn it in one go
    pp = PlatformPair(0.2, 0.9)
    est = mc_win_probability(pp, baseline, 600_000, seed=11)
    exact = win_probability_L(pp, baseline)
    assert abs(est - exact) <= 3.0 * binom_se(exact, 600_000)


def test_mc_even_odds_at_symmetric_profile(baseline):
    est = mc_win_probability(PlatformPair(0.25, 0.75), baseline, 200_000, seed=3)
    assert abs(est - 0.5) <= 3.0 * binom_se(0.5, 200_000)


def test_mc_matches_reduced_form_without_ideology():
    # w=0 silences the ideology channel; the margin is 0.25 sigma and
    # the win probability is the normal CDF there, about 0.5987
    params = ModelParams(w=0.0)
    pp = PlatformPair(0.5, 1.0)
    exact = win_probability_L(pp, params)
    assert exact == pytest.approx(0.5987063256829237, rel=1e-12)
    est = mc_win_probability(pp, params, 400_000, seed=5)
    assert abs(est - exact) <= 3.0 * binom_se(exact, 400_000)


def test_mc_matches_reduced_form_in_heavy_ideology_tail():
    params = ModelParams(w=1000.0, mu_i=0.6, sigma_i=0.02, sigma_v=1.0)
    pp = PlatformPair(0.3, 0.7)
    exact = win_probability_L(pp, params)  # ~2.9e-7: a 5-sigma election
    est = mc_win_probability(pp, params, 1_000_000, seed=13)
    assert abs(est - exact) <= 3.0 * binom_se(exact, 1_000_000)


def test_peak_scan_rejects_coarse_grids(baseline):
    with pytest.raises(ValueError):
        peak_scan(0.75, "L", baseline, grid_step=2e-3)


def test_peak_scan_unimodal_at_baseline(baseline, rng):
    for _ in range(50):
        opp = float(rng.uniform(0.0, 1.0))
        party = "L" if rng.uniform() < 0.5 else "R"
        verdict = peak_scan(opp, party, baseline)
        assert verdict.unimodal, (opp, party, verdict)
        assert verdict.n_local_maxima == 1


def test_peak_scan_unimodal_just_above_the_bound():
    params = ModelParams(w=1.0, sigma_v=0.15)
    for opp in (0.2, 0.5, 0.8):
        assert peak_scan(opp, "L", params).unimodal
        assert peak_scan(opp, "R", params).unimodal


def test_peak_scan_detects_bimodality_below_the_bound():
    verdict = peak_scan(BIMODAL_OPPONENT, "L", BIMODAL_PARAMS)
    assert not verdict.unimodal
    assert verdict.n_local_maxima >= 2


def test_peak_scan_finer_grid_confirms_the_fixture():
    verdict = peak_scan(BIMODAL_OPPONENT, "L", BIMODAL_PARAMS, grid_step=5e-4)
    assert verdict.n_local_maxima >= 2
