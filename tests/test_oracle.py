"""The brute-force oracles: grid argmax, Monte Carlo votes, peak scans."""

import importlib.util
import math
import sys
import threading
import tracemalloc
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


def _recorded_grid_calls(module, run):
    """(opponent, party, params, response) of every default-grid best
    response that ``run()`` makes through ``module``."""
    calls = []
    grid = module.grid_best_response

    def record(opponent, party, params, grid_step=1e-4, span=DEFAULT_SPAN):
        response = grid(opponent, party, params, grid_step, span)
        if (grid_step, span) == (1e-4, DEFAULT_SPAN):
            calls.append((opponent, party, params, response))
        return response

    with pytest.MonkeyPatch.context() as patch:
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


@pytest.fixture(scope="module")
def certificate_calls():
    """The recorded best responses of the oracle-br check's 50 configs and
    of the rugged solves' certificates."""
    return _recorded_grid_calls(
        verify, lambda: run_checks(only=["oracle-br"])
    ) + _recorded_grid_calls(oracle, _rugged_solves)


def test_the_gap_form_keeps_every_clear_argmax_of_the_raw_payoff(certificate_calls):
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
    cases += certificate_calls
    clear = 0
    for opponent, party, params, response in cases:
        xs, vals = _grid_payoffs(opponent, party, params, DEFAULT_SPAN, 1e-4)
        i = int(np.argmax(vals))
        if vals[i] - np.delete(vals, i).max() > 64 * math.ulp(abs(vals[i])):
            clear += 1
            assert response == xs[i], (params, opponent, party)
    assert clear >= 480


def _full_scan(opponent, party, params, grid_step=1e-4, span=DEFAULT_SPAN):
    """The grid best response by the exact gap at every grid point, with
    its tie-break, NaN-gap error and span-edge error: the reference for the
    bounded scan."""
    xs, k, win, lose = oracle._grid_terms(opponent, party, params, span, grid_step)
    gaps = oracle._std_normal_cdf_array(k if party == "L" else -k) * (win + lose)
    if math.isnan(gaps.max()):
        raise DomainError(
            f"grid gaps for party {party} are NaN (an infinite stake where its "
            f"win probability is 0), so no grid point is the argmax"
        )
    candidates = xs[gaps == gaps.max()]
    response = float(candidates[np.argmin(np.abs(candidates - 0.5))])
    if response == xs[0] or response == xs[-1]:
        raise SpanTooSmallError(
            f"grid argmax for party {party} sits on the span edge at {response}; "
            f"widen span={span}"
        )
    return response


def _outcome(scan, *args):
    """The response's bits, or the class and message of what it raised."""
    try:
        return scan(*args).hex()
    except Exception as e:  # the class and message are the outcome
        return type(e), str(e)


def _edge_cases():
    """The bounded scan's edge cases, by name: (opponent, party, params,
    grid_step, span)."""
    step = 1e-4
    response = grid_best_response(0.75, "L", BIMODAL_PARAMS, step)
    hi = response + 10 * step
    all_negative = ModelParams(w=0.0, V=0.05, sigma_v=0.5, mu_v=-1.25)
    small_v = ModelParams(w=0.2, V=0.05, sigma_v=0.05, mu_i=0.4)
    huge = ModelParams(w=1.0, V=sys.float_info.max, mu_i=sys.float_info.max / 2, sigma_v=0.05)
    return {
        # a flat sure loss ties everywhere
        "flat": (0.75, "L", ModelParams(w=0.0, mu_v=100.0), 1e-4, DEFAULT_SPAN),
        # Phi = 1/2 and the stake are flat to their last bit: every point ties
        # inside the clamp, so no block is pruned
        "tied": (0.3, "L", ModelParams(w=0.0, V=1e20, sigma_v=1e20), 1e-4, DEFAULT_SPAN),
        # stakes negative on most of a wide span: those blocks bound by their
        # smallest y.  Where every stake is negative, the first point of sure
        # loss (gap -0) is the maximum, in a block whose largest y is far from it
        "small-V-L": (0.3, "L", small_v, 1e-3, (-8.0, 9.0)),
        "small-V-R": (0.3, "R", small_v, 1e-3, (-8.0, 9.0)),
        "negative-L": (0.5, "L", all_negative, 1e-3, (2.0, 9.0)),
        "negative-R": (0.5, "R", all_negative, 1e-3, (-8.0, -1.0)),
        # kappa is -mu_v / 2^25 at 1/2 and one ulp lower beside it, where glibc's
        # erfc, not monotone by an ulp at 1.25, gives the larger Phi: the
        # maximum is not at its block's bound point
        "erfc-bump": (
            0.5, "L", ModelParams(w=0.0, V=2.0**60, sigma_v=2.0**25, mu_v=59316416.01223603),
            1e-4, DEFAULT_SPAN,
        ),
        # an infinite stake times Phi = 0 is NaN, so no point is the argmax
        "nan-gap": (1.3e154, "L", huge, 1e-4, DEFAULT_SPAN),
        # the response in a short last block: 128 * 40 + 41 points, 10 steps from the end
        "short-block": (0.75, "L", BIMODAL_PARAMS, step, (hi - (128 * 40 + 40) * step, hi)),
        # the response beyond the span: it lands on the edge
        "edge": (0.9, "L", ModelParams(w=1.0), 1e-3, (0.9, 1.1)),
    }


def _scan_cases():
    """(opponent, party, params, grid_step, span) for the bounded scan's
    equivalence: seeded draws on three spans at three steps, then the edges."""
    cases = []
    for seed in range(36):
        span = (DEFAULT_SPAN, (-8.0, 9.0), (0.0, 1.0))[seed % 3]
        step = (1e-4, 3e-4, 1e-3)[seed // 3 % 3]
        for lo, hi in ((0.102, 10.0), (0.01, 0.1)):
            params, opponent = seeded_draw(seed, lo, hi)
            cases += [(opponent, party, params, step, span) for party in "LR"]
    return cases + list(_edge_cases().values())


def test_the_bounded_scan_matches_the_full_scan(certificate_calls):
    # the same response bits, or the same exception class and message, as
    # the exact gap at every grid point
    with np.errstate(over="ignore", invalid="ignore"):
        for case in _scan_cases():
            assert _outcome(grid_best_response, *case) == _outcome(_full_scan, *case), case
    edge = _edge_cases()
    assert grid_best_response(*edge["flat"]) == grid_best_response(*edge["tied"]) == 0.5
    for name in ("small-V-L", "small-V-R", "negative-L", "negative-R"):
        opponent, party, params, step, span = edge[name]
        _, _, win, lose = oracle._grid_terms(opponent, party, params, span, step)
        assert (win + lose < 0.0).mean() > 0.5
        assert (win + lose > 0.0).any() == name.startswith("small")
    _, _, _, step, span = edge["short-block"]
    xs = oracle._grid_columns(*span, step)[0]
    assert xs.size % 128 == 41 and grid_best_response(*edge["short-block"]) == xs[-11]
    with pytest.raises(SpanTooSmallError):
        grid_best_response(*edge["edge"])
    with pytest.raises(DomainError, match="^grid gaps for party L are NaN"), \
            np.errstate(over="ignore", invalid="ignore"):
        grid_best_response(*edge["nan-gap"])
    for opponent, party, params, response in certificate_calls:
        assert response == _full_scan(opponent, party, params), (params, opponent, party)


_HUGE_MARGIN = dict(w=1.0, sigma_i=1e-200, sigma_v=1.0, mu_i=-sys.float_info.max / 2)

# (opponent, party, params, grid_step, span) whose margin kappa is infinite at
# some grid points only, or with both signs
NONFINITE_CASES = {
    # w (1 - 2 mu_i) is the largest double, so kappa overflows where the lead
    # has the magnitude of its last bit: for L at the points nearest 1/2, for
    # R at the span's ends (-inf for R's own margin, which no block maximum sees)
    "L-near-one-half": (
        0.5, "L", ModelParams(**_HUGE_MARGIN, mu_v=-1.5 * 2.0**970), 1e143, (-1e147, 1e147)
    ),
    "R-at-the-ends": (0.5, "R", ModelParams(**_HUGE_MARGIN, mu_v=0.0), 1e143, (-1e147, 1e147)),
    # over the smallest noise scale, kappa is -inf at the first point, whose
    # stake is 0, and +inf after it: the first block's largest y is +inf, but
    # the full scan meets -inf first
    "L-both-signs": (
        1e150, "L", ModelParams(w=0.0, sigma_v=2.2e-162, mu_v=1e147), 1e146, (-1e150, 1e150)
    ),
}


@pytest.mark.parametrize("case", NONFINITE_CASES)
def test_the_bounded_scan_checks_every_margin_before_it_bounds(case):
    opponent, party, params, step, span = args = NONFINITE_CASES[case]
    with np.errstate(over="ignore"):
        _, k, _, _ = oracle._grid_terms(opponent, party, params, span, step)
        assert not np.isfinite(k).all() and np.unique(k).size > 1
        outcome = _outcome(grid_best_response, *args)
        assert outcome == _outcome(_full_scan, *args)
    assert outcome[0] is DomainError


def test_a_below_bound_certificate_takes_erfc_at_few_grid_points(monkeypatch):
    # the bound points, the block of highest bound, then the blocks whose
    # bound reaches that block's maximum: the full scan took every point
    sizes, erfc = [], oracle._erfc
    monkeypatch.setattr(oracle, "_erfc", lambda a: sizes.append(a.size) or erfc(a))
    work, grid = [], oracle.grid_best_response

    def counted(opponent, party, params, grid_step=1e-4, span=DEFAULT_SPAN):
        sizes.clear()
        try:
            return grid(opponent, party, params, grid_step, span)
        finally:
            work.append((sum(sizes), oracle._grid_columns(*span, grid_step)[0].size))

    monkeypatch.setattr(oracle, "grid_best_response", counted)
    with pytest.warns(polarsolve.SinglePeakednessWarning):
        assert solve_asymmetric(ModelParams(w=1.0, sigma_v=0.08, mu_v=0.3)).certified
    assert len(work) == 2 and all(n == 20_001 and 0 < taken < 2_000 for taken, n in work)
    with np.errstate(over="ignore", invalid="ignore"):
        for case in _scan_cases():
            _outcome(counted, *case)
    assert all(taken <= n + -(-n // 128) + 128 for taken, n in work)
    assert max(taken - n for taken, n in work) == -(-20_001 // 128) + 128


def test_the_grid_scans_build_their_terms_in_their_threads_work_arrays():
    # the bits of the terms computed into new arrays, in the memory of the
    # calling thread's two work arrays, which each thread keeps for itself
    # and which no grid over the size limit replaces
    cases = [case[:3] + (1e-4, DEFAULT_SPAN) for case in _scan_cases()[:40]]
    for opponent, party, params, step, span in cases[:8] + [cases[0][:3] + (1e-3, (-8.0, 9.0))]:
        xs, k, win, lose = oracle._grid_terms(opponent, party, params, span, step)
        xs_sq, one_minus_xs_sq = oracle._grid_columns(*span, step)[1:]
        own, opp = xs * (1.0 - xs), opponent * (1.0 - opponent)
        lead = own - opp if party == "L" else opp - own
        num = (lead + params.w * (1.0 - 2.0 * params.mu_i)) - params.mu_v
        want = params.V - (xs_sq if party == "L" else one_minus_xs_sq)
        assert (num / polarsolve.noise_scale(params)).tobytes() == k.tobytes()
        assert want.tobytes() == win.tobytes()
        assert np.shares_memory(k, oracle._work.arrays[0])
        assert np.shares_memory(win, oracle._work.arrays[1])
    serial = [_outcome(grid_best_response, *case) for case in cases]
    arrays = oracle._work.arrays
    assert peak_scan(*cases[0][:3]).n_local_maxima >= 1
    assert [_outcome(grid_best_response, *case) for case in cases] == serial
    assert oracle._work.arrays is arrays

    results = {}

    def scan(half):
        got = [_outcome(grid_best_response, *case) for case in cases[half::2]]
        results[half] = got, oracle._work.arrays

    threads = [threading.Thread(target=scan, args=(half,)) for half in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    (even, a), (odd, b) = results[0], results[1]
    assert even == serial[0::2] and odd == serial[1::2]
    assert not any(np.shares_memory(x[0], y[0]) for x, y in ((arrays, a), (arrays, b), (a, b)))
    big = oracle._work_arrays(oracle._WORK_MAX + 1)
    assert big[0].size == oracle._WORK_MAX + 1 and oracle._work.arrays is arrays


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


def whole_batch_mc(pp, params, n_samples, seed):
    """The Monte Carlo oracle as it was written before the chunked pass:
    each batch's draws whole, and the vote rule as one array expression."""
    wins = 0
    remaining = n_samples
    batch_index = 0
    while remaining > 0:
        m = min(oracle._MC_BATCH, remaining)
        rng = np.random.default_rng([seed, batch_index])
        i_hat = rng.normal(params.mu_i, params.sigma_i, m)
        v = rng.normal(params.mu_v, params.sigma_v, m)
        u_l = -params.w * (i_hat - params.i_L) ** 2 - (params.p_hat_V - pp.p_L) ** 2
        u_r = -params.w * (i_hat - params.i_R) ** 2 - (params.p_hat_V - pp.p_R) ** 2
        wins += int(np.count_nonzero(u_l > u_r + v))
        remaining -= m
        batch_index += 1
    return wins / n_samples


def oracle_mc_draw(rng):
    """One config from the ranges of verify's oracle-mc check."""
    params = ModelParams(
        w=float(rng.uniform(0.0, 3.0)),
        V=float(rng.uniform(0.2, 3.0)),
        sigma_i=float(rng.uniform(0.2, 2.0)),
        sigma_v=float(rng.uniform(0.2, 2.0)),
        mu_i=float(rng.uniform(0.0, 1.0)),
        mu_v=float(rng.uniform(-1.0, 1.0)),
    )
    pp = PlatformPair(float(rng.uniform(0.0, 0.5)), float(rng.uniform(0.5, 1.0)))
    return pp, params, int(rng.integers(0, 2**32))


def test_the_chunked_pass_counts_what_the_whole_batch_form_counts():
    # 40,000 draws are two whole chunks and a partial one
    rng = np.random.default_rng(34)
    for _ in range(200):
        pp, params, seed = oracle_mc_draw(rng)
        assert mc_win_probability(pp, params, 40_000, seed) == whole_batch_mc(
            pp, params, 40_000, seed
        ), (pp, params, seed)


@pytest.mark.parametrize("n_samples", [10_000, 250_001, 654_321])
def test_the_chunked_pass_counts_sizes_off_the_chunk_and_the_batch(n_samples):
    rng = np.random.default_rng([34, n_samples])
    for _ in range(3):
        pp, params, seed = oracle_mc_draw(rng)
        assert mc_win_probability(pp, params, n_samples, seed) == whole_batch_mc(
            pp, params, n_samples, seed
        )


@pytest.mark.parametrize(
    "pp, params, n_samples, seed",
    [
        (PlatformPair(0.5, 1.0), ModelParams(w=0.0), 400_000, 5),
        # the heavy ideology tail of the reduced-form test, Pr(L wins) ~2.9e-7
        (PlatformPair(0.3, 0.7), ModelParams(w=1000.0, mu_i=0.6, sigma_i=0.02, sigma_v=1.0),
         1_000_000, 13),
        # a race decided in the utilities' last bits: policy costs near 10^6
        # and margins near 10^-9, so any other rounding order moves the count
        (PlatformPair(-1000.0, 1001.0), ModelParams(w=1.0, sigma_i=1e-9, sigma_v=1e-10),
         40_000, 1),
    ],
    ids=["w-zero", "heavy-tail", "last-bit-race"],
)
def test_the_chunked_pass_counts_the_edge_cases(pp, params, n_samples, seed):
    assert mc_win_probability(pp, params, n_samples, seed) == whole_batch_mc(
        pp, params, n_samples, seed
    )


def test_the_monte_carlo_counts_are_frozen():
    # the whole-batch form's values, so a change to the stream fails by name
    assert mc_win_probability(PlatformPair(0.3, 0.7), ModelParams(w=1.0), 10**6, 3) == 0.500466
    assert mc_win_probability(
        PlatformPair(0.5, 1.0), ModelParams(w=0.0), 654_321, 5
    ) == 0.5993144037865207


@pytest.mark.parametrize("loc, scale", [(0.0, 1.0), (0.5, 0.3), (-0.7, 1.9), (0.25, 1e-3)])
def test_numpy_normal_draws_are_standard_draws_scaled_in_place(loc, scale):
    # the chunked pass draws standard normals into its buffers and scales
    # them there; a numpy whose normal() fused the multiply-add, or whose
    # stream depended on how a draw is split, would move its counts
    n = 10**5
    want = np.random.default_rng(7).normal(loc, scale, n)
    got = np.empty(n)
    np.random.default_rng(7).standard_normal(out=got)
    got *= scale
    got += loc
    assert np.array_equal(want.view(np.int64), got.view(np.int64))

    rng = np.random.default_rng(7)
    chunked = np.empty(n)
    for lo in range(0, n, 16_384):
        rng.standard_normal(out=chunked[lo:lo + 16_384])
    whole = np.random.default_rng(7).standard_normal(n)
    assert np.array_equal(whole.view(np.int64), chunked.view(np.int64))
    # and a square in place is numpy's ** 2
    x = want - loc
    squared = x.copy()
    squared *= squared
    assert np.array_equal((x**2).view(np.int64), squared.view(np.int64))


def test_a_million_draws_trace_under_four_megabytes(baseline):
    pp = PlatformPair(0.3, 0.7)
    mc_win_probability(pp, baseline, 10_000, seed=3)  # numpy's first-call setup
    tracemalloc.start()
    try:
        mc_win_probability(pp, baseline, 10**6, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 10**6, peak


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
