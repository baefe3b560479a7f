"""The brute-force oracles: grid argmax, Monte Carlo votes, peak scans."""

import importlib.util
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import polarsolve
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
    run_checks,
    solve_asymmetric,
    solve_symmetric,
    win_margin,
    win_probability_L,
)
from polarsolve import oracle, verify
from polarsolve.gaussmath import _cdf
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


def test_the_array_cdf_calls_erfc_only_inside_the_clamp(monkeypatch):
    # +-38 and the zeros are inside; the next double past 38 and 1e300 are not
    edges = (38.0, math.nextafter(38.0, 39.0), 1e300, 0.0, -0.0, 1e-300)
    x = np.array([sign * e for e in edges for sign in (1.0, -1.0)])
    sizes, erfc = [], oracle._erfc
    monkeypatch.setattr(oracle, "_erfc", lambda a: sizes.append(a.size) or erfc(a))
    cdf = oracle._std_normal_cdf_array(x)
    want = np.array([_cdf(v) for v in x.tolist()])
    assert np.array_equal(cdf.view(np.int64), want.view(np.int64))
    assert sizes == [8]


# an infinite step once reached the payoffs as NaN grid points and raised
# a DomainError that named the wrong cause
@pytest.mark.parametrize("grid_step", [0.0, -1e-4, math.inf, math.nan])
def test_grid_rejects_bad_step(baseline, grid_step):
    with pytest.raises(InvalidParamsError, match="grid_step"):
        grid_best_response(0.75, "L", baseline, grid_step=grid_step)


def test_grid_rejects_empty_span(baseline):
    for span in [(1.0, 1.0), (1.5, -0.5), (0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0)]:
        with pytest.raises(ValueError):
            grid_best_response(0.75, "L", baseline, span=span)


@pytest.mark.parametrize(
    "span", [(0.0,), None, ("a", "b"), (0.0, 1.0, 2.0), (True, 1.0), (0.0, None)]
)
def test_grid_rejects_a_malformed_span_by_name(baseline, span):
    with pytest.raises(InvalidParamsError, match="span"):
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


def _recorded_grid_calls(monkeypatch, module, run):
    """(opponent, party, params, response) of every default-grid best
    response that ``run()`` makes through ``module``."""
    calls = []
    grid = module.grid_best_response

    def record(opponent, party, params, grid_step=1e-4, span=DEFAULT_SPAN):
        response = grid(opponent, party, params, grid_step, span)
        if (grid_step, span) == (1e-4, DEFAULT_SPAN):
            calls.append((opponent, party, params, response))
        return response

    with monkeypatch.context() as patch:
        patch.setattr(module, "grid_best_response", record)
        run()
    return calls


def _rugged_solves():
    # the benchmark's below-bound solves at seeds 1-30; each certificate
    # runs one grid best response per party
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(workloads)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", polarsolve.SinglePeakednessWarning)
        for seed in range(1, 31):
            for params in workloads.Rugged().inputs(polarsolve, seed):
                solve_asymmetric(params)


def test_the_gap_form_keeps_every_clear_argmax_of_the_raw_payoff(monkeypatch):
    # where the raw payoff's maximum beats every other grid point by more
    # than 64 ulps, the grid best response is that point: the gap form
    # changes only the rounding of the same function.  Configs: seeded
    # draws on both sides of the single-peak bound, the oracle-br check's
    # 50 and the certificates of the rugged solves
    cases = []
    for seed in range(100):
        for lo, hi in ((0.102, 10.0), (0.01, 0.1)):
            params, opponent = seeded_draw(seed, lo, hi)
            party = "L" if seed % 2 == 0 else "R"
            cases.append((opponent, party, params, grid_best_response(opponent, party, params)))
    cases += _recorded_grid_calls(monkeypatch, verify, lambda: run_checks(only=["oracle-br"]))
    cases += _recorded_grid_calls(monkeypatch, oracle, _rugged_solves)
    clear = 0
    for opponent, party, params, response in cases:
        xs, vals = _grid_payoffs(opponent, party, params, DEFAULT_SPAN, 1e-4)
        i = int(np.argmax(vals))
        if vals[i] - np.delete(vals, i).max() > 64 * math.ulp(abs(vals[i])):
            clear += 1
            assert response == xs[i], (params, opponent, party)
    assert clear >= 480


def test_the_gap_form_ranks_a_race_the_party_surely_loses():
    # offlocus-sweep seed 1, base 9 at w=1: L leads by kappa ~ 8.7, so R's
    # raw payoff is -2.0 at every grid point near its best response and a
    # raw argmax falls to the tie-break at 1/2; the gap ranks Phi(-kappa)
    params = ModelParams(
        w=1.0,
        V=0.11079471346757126,
        sigma_i=0.03906858079438248,
        sigma_v=0.34271095974641524,
        mu_i=-0.07386764934875423,
        mu_v=-2.1752004872624813,
    )
    opponent = 1.9593e-17
    _, vals = _grid_payoffs(opponent, "R", params, DEFAULT_SPAN, 1e-4)
    assert (vals == vals.max()).sum() > 1
    assert abs(grid_best_response(opponent, "R", params) - 0.5104) <= 1e-4


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


# NaN once passed the size check and returned NaN; 1e5 and seed=-1 raised a
# bare TypeError and ValueError; a bool was accepted as a count or a seed
@pytest.mark.parametrize(
    "n_samples, seed, name",
    [
        (math.nan, 1, "n_samples"),
        (1e5, 1, "n_samples"),
        (True, 1, "n_samples"),
        (10**5, -1, "seed"),
        (10**5, True, "seed"),
        (10**5, 1.0, "seed"),
    ],
)
def test_mc_rejects_a_bad_sample_size_or_seed(baseline, n_samples, seed, name):
    with pytest.raises(InvalidParamsError, match=name):
        mc_win_probability(PlatformPair(0.25, 0.75), baseline, n_samples, seed)


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
