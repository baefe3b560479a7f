"""Equilibrium solvers and their certificates."""

import collections
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from polarsolve import (
    DomainError,
    InvalidParamsError,
    ModelParams,
    PolarsolveError,
    SinglePeakednessWarning,
    SolverConfig,
    SpanTooSmallError,
    SymmetryLocusError,
    best_response,
    find_equilibria,
    solve_asymmetric,
    solve_symmetric,
    sweep_w,
    symmetric_foc_root,
)
from polarsolve.calculus import (
    _foc_symmetric,
    _foc_symmetric_derivative,
    _scaled_foc_L,
    _scaled_foc_R,
    d_euL_d_pL,
    d_euR_d_pR,
    foc_symmetric,
)
from polarsolve.model import PlatformPair, _checked_noise_scale, noise_scale, win_margin
from polarsolve.oracle import grid_best_response
from polarsolve import analysis, oracle, solver

# Frozen solver anchors, cross-checked against the 1e-4 grid oracle and
# (for w=0) the closed-form polarization at zero ideological weight.
P_STAR_W0 = 0.2691827215728084
P_STAR_W1 = 0.23702503069772776


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tol_root": 0.0},
        {"tol_fp": -1e-9},
        {"tol_root": math.nan},
        {"tol_fp": math.nan},
        {"max_iter": 0},
        # an infinite tol_fp would stop the pair Newton after one step and
        # make the certificate's residual test vacuous
        {"tol_root": math.inf},
        {"tol_fp": math.inf},
        # a fractional max_iter would reach range() as a bare TypeError
        {"max_iter": 2.5},
        {"max_iter": True},
        {"tol_root": True},
        {"tol_fp": True},
    ],
)
def test_solver_config_validation(kwargs):
    with pytest.raises(InvalidParamsError):
        SolverConfig(**kwargs)


def test_symmetric_root_frozen_anchors(baseline):
    p0, _ = symmetric_foc_root(ModelParams(w=0.0))
    assert p0 == pytest.approx(P_STAR_W0, abs=5e-13)
    p1, _ = symmetric_foc_root(baseline)
    assert p1 == pytest.approx(P_STAR_W1, abs=5e-13)


def test_symmetric_root_frozen_value_and_iterations():
    # one Newton step from the closed form: the correctly rounded root
    # 0.237025030697727722403... (50-digit reference), with one FOC evaluation
    assert symmetric_foc_root(ModelParams(w=1.0)) == (0.23702503069772773, 1)


def _wide_range_params(rng, n):
    """Seeded draws with V, w, sigma_i and sigma_v log-uniform over
    [1e-12, 1e12], every tenth at w = 0, plus the corners of that box;
    draws whose noise scale leaves the doubles are skipped."""
    corners = [
        ModelParams(w=w, V=v, sigma_i=s_i, sigma_v=s_v)
        for w in (0.0, 1e-12, 1e12)
        for v in (1e-12, 1e12)
        for s_i in (1e-12, 1e12)
        for s_v in (1e-12, 1e12)
    ]
    out = list(corners)
    while len(out) < n:
        v, w, s_i, s_v = 10.0 ** rng.uniform(-12.0, 12.0, size=4)
        if len(out) % 10 == 0:
            w = 0.0
        try:
            out.append(ModelParams(w=float(w), V=float(v), sigma_i=float(s_i), sigma_v=float(s_v)))
        except InvalidParamsError:
            continue
    return out


def _within_ulps_of_a_sign_change(p, foc, n):
    """Whether the nonincreasing ``foc`` changes sign (or vanishes) between
    ``n`` doubles below ``p`` and ``n`` above it, clamped to [0, 1/2]."""
    lo = hi = p
    for _ in range(n):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    return foc(max(lo, 0.0)) >= 0.0 >= foc(min(hi, 0.5))


@pytest.mark.parametrize("tol_root", [1e-12, 1e-9, 1e-300, 0.5, 0.75, 2.0**-40, 2.0**-50, 2.0**-51])
def test_symmetric_root_lies_within_ulps_of_a_foc_sign_change(tol_root):
    # the Newton step from the closed form lands on the computed FOC's sign
    # change to a few ulps at every tolerance, also one coarser than the
    # bracket, and takes one or two FOC evaluations unless tol_root is
    # below the float spacing
    cfg = SolverConfig(tol_root=tol_root)
    for params in _wide_range_params(np.random.default_rng(20261018), 2000):
        p, evaluations = symmetric_foc_root(params, cfg)
        assert 0.0 <= p <= 0.5, params
        assert _within_ulps_of_a_sign_change(p, lambda x: foc_symmetric(x, params), 4), params
        assert tol_root <= 1e-300 or evaluations <= 2, (params, evaluations)


def test_symmetric_root_falls_back_when_the_closed_form_is_off(monkeypatch):
    # a start at either end of [0, 1/2] or 1e-3 off the root makes the
    # safeguarded Newton search halve its bracket or take longer steps;
    # it must reach the same root within a few evaluations
    closed_form = solver._symmetric_closed_form
    cases = [ModelParams(w=w, V=v) for w in (0.0, 0.3, 1.0, 50.0) for v in (0.1, 1.0, 10.0)]
    expected = [symmetric_foc_root(params)[0] for params in cases]
    for start in (lambda r: 0.0, lambda r: 0.5, lambda r: r + 1e-3, lambda r: r - 1e-3):
        monkeypatch.setattr(
            solver, "_symmetric_closed_form",
            lambda V, w, sn: min(max(start(closed_form(V, w, sn)), 0.0), 0.5),
        )
        for params, p_ref in zip(cases, expected):
            p, evaluations = symmetric_foc_root(params)
            assert abs(p - p_ref) <= math.ulp(p_ref) and evaluations <= 8, (params, p, evaluations)


def _symmetric_root_cases():
    """(V, w, sn) of the locus-statics box (V, sigma_i and sigma_v
    log-uniform over [1e-2, 1e2], [1e-2, 10] and [0.102, 10]) at each w of
    its grid and of that w's FD stencil, then of the float-limit fuzz's
    symmetric sweeps; cases whose noise scale leaves the doubles are skipped."""
    from test_errors import _float_limit_draws

    h = 1e-4
    grid = [i * 0.05 for i in range(61)] + [float(w) for w in np.geomspace(3.0, 1e6, 31)[1:]]
    rng = np.random.default_rng(20261025)
    draws = [
        (v, w_, s_i, s_v)
        for v, s_i, s_v in 10.0 ** rng.uniform([-2.0, -2.0, -0.99], [2.0, 1.0, 1.0], size=(30, 3))
        for w in grid
        for w_ in (w, w + h, w + 2.0 * h, w - h)
        if w_ >= 0.0
    ]
    for draw in _float_limit_draws(2000):
        w = draw["w"]
        for w_ in [0.5 * w, w, 2.0 * w] if w > 0.0 else [0.0, 0.5, 1.0]:
            draws.append((draw["V"], w_, draw["sigma_i"], draw["sigma_v"]))
    for v, w, s_i, s_v in draws:
        try:
            yield float(v), float(w), _checked_noise_scale(float(w), float(s_i), float(s_v))
        except InvalidParamsError:
            continue


def test_the_symmetric_roots_own_newton_step_is_the_root_finders(monkeypatch):
    # _sym_root takes the closed form's Newton step itself only where
    # _rtsafe's first iteration returns it: the same root bits and the same
    # evaluation count as _rtsafe from the closed form.  A few float-limit
    # cases decline at the default tolerance; tol=5e-324 declines every
    # step but a zero one; a slope of the wrong sign sends the step out of
    # the bracket the first value narrows, where _rtsafe bisects
    rtsafe = solver._rtsafe
    wrong_way = lambda x, V, w, sn: -_foc_symmetric_derivative(x, V, w, sn)
    declined = collections.Counter()
    cases = list(_symmetric_root_cases())
    for slope, tol in [
        (_foc_symmetric_derivative, 1e-12),
        (_foc_symmetric_derivative, 2.0**-52),
        (_foc_symmetric_derivative, 5e-324),
        (wrong_way, 1e-12),
    ]:
        monkeypatch.setattr(solver, "_foc_symmetric_derivative", slope)
        monkeypatch.setattr(
            solver, "_rtsafe", lambda *args: declined.update([(slope, tol)]) or rtsafe(*args)
        )
        for V, w, sn in cases:
            fdf = lambda x: (_foc_symmetric(x, V, w, sn), slope(x, V, w, sn), None)
            x, n = rtsafe(fdf, 0.0, 0.5, solver._symmetric_closed_form(V, w, sn), tol)
            p, evaluations = solver._sym_root(V, w, sn, tol)
            assert (p.hex(), evaluations) == (x.hex(), n), (V, w, sn, tol)
    assert 0 < declined[_foc_symmetric_derivative, 1e-12] < len(cases) // 100
    assert declined[_foc_symmetric_derivative, 5e-324] > len(cases) // 2
    assert declined[wrong_way, 1e-12] > len(cases) // 4


def test_a_coarse_root_tolerance_still_certifies():
    # one Newton step from the closed form ends within tol_root of a root
    # that is already machine-accurate: tol_root bounds the step, not the error
    cfg = SolverConfig(tol_root=0.1)
    res = solve_symmetric(ModelParams(w=1.0), cfg)
    assert res.certified
    assert abs(res.platforms.p_L - symmetric_foc_root(ModelParams(w=1.0))[0]) <= 1e-16
    rows = sweep_w([0.0, 0.5, 1.0, 2.0, 5.0], ModelParams(w=0.0), cfg)
    assert all(r.certified for r in rows)


def test_symmetric_root_residual_is_machine_level(baseline):
    p, iterations = symmetric_foc_root(baseline)
    assert abs(foc_symmetric(p, baseline)) < 1e-14
    assert iterations > 0


def test_symmetric_root_ignores_population_means(baseline):
    p_ref, _ = symmetric_foc_root(baseline)
    for mu_i, mu_v in [(0.0, 0.0), (0.9, 2.0), (0.5, -1.0)]:
        p, _ = symmetric_foc_root(replace(baseline, mu_i=mu_i, mu_v=mu_v))
        assert p == p_ref  # byte-identical: the FOC never reads the means


def test_solve_symmetric_certificate(baseline):
    res = solve_symmetric(baseline)
    assert res.kind == "symmetric"
    assert res.certified
    assert res.platforms.p_R == 1.0 - res.platforms.p_L
    assert res.pr_L == pytest.approx(0.5, abs=1e-12)
    assert abs(res.foc_residual_L) < 1e-10 and abs(res.foc_residual_R) < 1e-10
    assert res.soc_L < 0.0 and res.soc_R < 0.0
    assert res.delta == pytest.approx(1.0 - 2.0 * res.platforms.p_L, rel=1e-15)


def test_solve_symmetric_rejects_off_locus_means():
    with pytest.raises(SymmetryLocusError, match="solve_asymmetric"):
        solve_symmetric(ModelParams(w=1.0, mu_v=0.3))
    with pytest.raises(SymmetryLocusError):
        solve_symmetric(ModelParams(w=1.0, mu_i=0.6))  # needs mu_v = -0.2


def test_solve_symmetric_on_tilted_locus(baseline):
    # mu_i=0.75 with w=1 puts the locus at mu_v=-0.5; the platform root
    # itself is unchanged because the symmetric FOC never sees the means
    tilted = ModelParams(w=1.0, mu_i=0.75, mu_v=-0.5)
    res = solve_symmetric(tilted)
    assert res.certified
    assert res.platforms.p_L == solve_symmetric(baseline).platforms.p_L


def test_low_sigma_v_warns_but_still_certifies():
    params = ModelParams(w=1.0, sigma_v=0.05)
    with pytest.warns(SinglePeakednessWarning):
        res = solve_symmetric(params)
    assert res.certified
    assert 0.0 < res.platforms.p_L < 0.5


def test_single_peakedness_warning_names_the_callers_line():
    with pytest.warns(SinglePeakednessWarning) as record:
        solve_symmetric(ModelParams(w=1.0, sigma_v=0.05))
    assert record[0].filename == __file__


def test_find_equilibria_below_the_bound_warns_once():
    # nine starts, one warning, naming the caller's line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        found = find_equilibria(ModelParams(w=1.0, sigma_v=0.08, mu_v=0.3))
    assert found and all(res.certified for res in found)
    assert [w.category for w in caught] == [SinglePeakednessWarning]
    assert caught[0].filename == __file__


def test_solve_asymmetric_below_the_bound_frozen_value(monkeypatch):
    # below sqrt(32/3125) the pair Newton's point is certified against the
    # grid oracle in 3 steps; the pre-scan route, forced, where each of R's
    # best responses starts at the grid argmax, reaches the same bits in 4
    # evaluations of the reduced FOC
    params = ModelParams(w=1.0, sigma_v=0.08, mu_v=0.3)
    with pytest.warns(SinglePeakednessWarning):
        newton = solve_asymmetric(params)
    for res, iterations in ((newton, 3), (_pre_scan_solve(monkeypatch, params), 4)):
        assert (res.platforms.p_L, res.platforms.p_R) == (
            0.2641356252348499, 0.7657555661173802
        )
        assert res.iterations == iterations
        assert res.certified


def test_best_response_satisfies_first_order_condition(baseline):
    b_l = best_response(0.75, "L", baseline)
    assert abs(d_euL_d_pL(PlatformPair(b_l, 0.75), baseline)) < 1e-9
    b_r = best_response(0.25, "R", baseline)
    assert abs(d_euR_d_pR(PlatformPair(0.25, b_r), baseline)) < 1e-9


def test_best_response_agrees_with_grid_oracle(baseline):
    for opp in (0.4, 0.75, 1.0):
        b = best_response(opp, "L", baseline)
        g = grid_best_response(opp, "L", baseline, grid_step=1e-4)
        assert abs(b - g) <= 1e-4


def test_best_response_fixed_point_is_the_symmetric_root(baseline):
    p_star, _ = symmetric_foc_root(baseline)
    assert best_response(1.0 - p_star, "L", baseline) == pytest.approx(p_star, abs=1e-9)
    assert best_response(p_star, "R", baseline) == pytest.approx(1.0 - p_star, abs=1e-9)


def test_best_response_frozen_values():
    # bit-identity anchors: the float-kernel search must reproduce these
    # exactly, FOC Newton steps included
    p = ModelParams(w=1.0, mu_i=0.3, mu_v=0.1)
    assert best_response(0.75, "L", p) == 0.223319170101579
    assert best_response(0.25, "R", p) == 0.7512376301124426


def _reduced_foc_solve(monkeypatch, params, cfg=None):
    # solve_asymmetric forced onto the reduced-FOC fallback: the pair Newton declines
    with monkeypatch.context() as m:
        m.setattr(solver, "_pair_newton", lambda *args: None)
        return solve_asymmetric(params, cfg)


def test_solve_asymmetric_frozen_value(monkeypatch):
    # 4 Newton steps; the reduced-FOC fallback, forced, lands one ulp of p_L
    # away in 4 evaluations
    params = ModelParams(w=1.0, mu_i=0.3, mu_v=0.1)
    newton, forced = solve_asymmetric(params), _reduced_foc_solve(monkeypatch, params)
    for res, p_L in ((newton, 0.22331295107760948), (forced, 0.2233129510776095)):
        assert (res.platforms.p_L, res.platforms.p_R) == (p_L, 0.7498706867408111)
        assert res.iterations == 4
        assert res.certified


# offlocus-sweep seed 1, base 13: L trails so far that phi(kappa) ~ 1e-15
# and the raw FOC is below tol_fp whatever p_L is; its sign lives in the
# FOC divided by phi(kappa).  A search on the raw payoff, flat to rounding
# here, once certified p_L = 0.28497 at w=1000.
_BASE_13 = dict(
    V=13.95926091518241,
    sigma_i=0.081564335882881,
    sigma_v=0.1029496035374516,
    mu_i=1.1641572388799872,
    mu_v=-1.4178709420834927,
)


@pytest.mark.parametrize("w, p_L", [(1000.0, 0.49044533684933445), (100.0, 0.49143700670200774)])
def test_lopsided_race_certifies_the_root_of_the_scaled_foc(w, p_L):
    params = ModelParams(w=w, **_BASE_13)
    res = solve_asymmetric(params)
    assert res.certified
    assert res.platforms.p_L == pytest.approx(p_L, abs=1e-12)
    scaled, slope, _ = _scaled_foc_L(
        res.platforms.p_L, res.platforms.p_R, params, noise_scale(params)
    )
    assert slope < 0.0 and abs(scaled / slope) < 1e-12


def test_solve_asymmetric_where_r_sits_at_its_bliss_point():
    # offlocus-sweep seed 1, base 0 at w=10: R's best response is its bliss
    # point 1.0, the end of its bracket
    params = ModelParams(
        w=10.0,
        V=0.2083274125304709,
        sigma_i=0.04193379134602997,
        sigma_v=0.1646495621560118,
        mu_i=1.6405763521365806,
        mu_v=-0.8791919639152201,
    )
    res = solve_asymmetric(params)
    assert res.certified
    assert res.platforms.p_L == pytest.approx(0.49847008168581625, abs=1e-12)
    assert res.platforms.p_R == pytest.approx(1.0, abs=1e-12)


def _wide_draws(seed, n):
    # log-uniform w in [1e-3, 1e3], V in [1e-2, 1e2], sigma_i in [1e-2, 10]
    # and sigma_v in [0.102, 10]; mu_i in [-1, 2], mu_v in [-3, 3] and the
    # opponent in [-3, 4]
    rng = np.random.default_rng(seed)
    lo_log, hi_log = np.log([1e-3, 1e-2, 1e-2, 0.102]), np.log([1e3, 1e2, 10.0, 10.0])
    for _ in range(n):
        w, v, s_i, s_v = (float(x) for x in np.exp(rng.uniform(lo_log, hi_log)))
        mu_i, mu_v, opponent = (float(x) for x in rng.uniform([-1.0, -3.0, -3.0], [2.0, 3.0, 4.0]))
        yield rng, ModelParams(w=w, V=v, sigma_i=s_i, sigma_v=s_v, mu_i=mu_i, mu_v=mu_v), opponent


def test_best_response_wide_range_fuzz():
    # every best response exists and lies in its party's half of [0, 1]
    for _, params, opponent in _wide_draws(20261018, 500):
        assert 0.0 <= best_response(opponent, "L", params) <= 0.5, (params, opponent)
        assert 0.5 <= best_response(opponent, "R", params) <= 1.0, (params, opponent)


def test_warm_started_best_response_equals_the_cold_one():
    # the safeguarded Newton search from any start in the bracket, its ends
    # included, ends within 1e-11 of the search from the bracket's midpoint
    cfg = SolverConfig()
    checked = 0
    for rng, params, opp in _wide_draws(20261019, 1500):
        sn = noise_scale(params)
        for party, lo, hi in (("L", 0.0, 0.5), ("R", 0.5, 1.0)):
            cold = best_response(opp, party, params)
            near = [cold + s * d for d in (1e-12, 1e-9, 1e-5) for s in (1.0, -1.0)]
            for guess in [lo, hi, *(float(g) for g in rng.uniform(lo, hi, 3)), *near]:
                if lo <= guess <= hi:
                    warm = solver._best_response(opp, party, params, sn, cfg, guess)
                    assert lo <= warm <= hi and abs(warm - cold) <= 1e-11, (params, opp, guess)
                    checked += 1
    assert checked > 30000


def test_rtsafe_steps_on_straight_lines():
    evals = []

    def line(root, slope_at=lambda x: -1.0):
        evals.clear()
        return lambda x: evals.append(x) or (root - x, slope_at(x), math.nan)

    # a Newton step that lands on the bracket's end is taken
    assert solver._rtsafe(line(1.0), 0.0, 1.0, 0.5, 1e-12) == (1.0, 2)
    assert evals == [0.5, 1.0]
    # a step shorter than tol is taken although it is not half the last one
    assert solver._rtsafe(line(0.7), 0.0, 1.0, 0.0, 0.8) == (0.7, 1)
    # an infinite slope makes a bisection step, not a zero Newton step
    steep_at_0 = line(0.3, lambda x: -math.inf if x == 0.0 else -1.0)
    assert solver._rtsafe(steep_at_0, 0.0, 0.5, 0.0, 1e-12) == (0.3, 3)
    assert evals == [0.0, 0.25, 0.3]
    # tol=0 is below any float spacing: with no usable slope, only the
    # bisection step's guard at adjacent doubles can end the search
    x, evaluations = solver._rtsafe(line(0.1, lambda x: math.nan), 0.0, 1.0, 0.5, 0.0)
    assert abs(x - 0.1) <= math.ulp(0.1) and evaluations < 100
    # the first step is compared with the bracket's width, 1: a Newton step
    # of 0.75 lands inside [10, 11] but is bisected, twice, before Newton
    # steps onto the root
    assert solver._rtsafe(line(10.125), 10.0, 11.0, 10.875, 1e-12) == (10.125, 4)
    assert evals == [10.875, 10.4375, 10.21875, 10.125]
    # with no usable slope every step bisects, and the search stops once the
    # bisection's step, the distance to the bracket's end, is below tol
    assert solver._rtsafe(line(1.3, lambda x: math.nan), 1.0, 2.0, 1.5, 0.2) == (1.375, 2)
    assert evals == [1.5, 1.25]


# offlocus-sweep seed 1, base 9: R's best response sits near 0.5104 in a
# race L leads by kappa ~ 8.7
_BASE_9 = dict(
    V=0.11079471346757126,
    sigma_i=0.03906858079438248,
    sigma_v=0.34271095974641524,
    mu_i=-0.07386764934875423,
    mu_v=-2.1752004872624813,
)
# offlocus-sweep seed 1, base 0: R sits at its bliss point 1.0 at w=10
_BASE_0 = dict(
    V=0.2083274125304709,
    sigma_i=0.04193379134602997,
    sigma_v=0.1646495621560118,
    mu_i=1.6405763521365806,
    mu_v=-0.8791919639152201,
)


_SWEEP_GRID = [float(w) for w in np.geomspace(1e-3, 1e3, 13)]
# offlocus-sweep seed 1, bases 5 and 23: at the top of the w grid L loses
# so surely that kappa < -38, where Phi(kappa) and phi(kappa) underflow
_BASE_5 = dict(
    V=8.793781137087384,
    sigma_i=0.01871349761835721,
    sigma_v=1.1408572533995445,
    mu_i=1.6881074624225043,
    mu_v=-2.932530032441475,
)
_BASE_23 = dict(
    V=2.4872583078330246,
    sigma_i=0.016243588430897,
    sigma_v=4.942721424852895,
    mu_i=1.259219459451833,
    mu_v=0.47545292086399726,
)


def test_wide_fuzz_certifies_only_mutual_best_responses(monkeypatch):
    # a Newton finish on FOCs scaled by phi(kappa) ~ 1e-17 once certified
    # 207 of these draws at a profile up to 0.0202 from a mutual best
    # response, 156 of them with a platform at exactly 0.5; the pair Newton
    # is accepted on every draw, in 3 to 8 steps
    fallbacks = _count_reduced_foc_fallbacks(monkeypatch)
    n_certified = 0
    for _, params, _ in _wide_draws(20261020, 3000):
        res = solve_asymmetric(params)
        if res.certified:
            n_certified += 1
            p_l, p_r = res.platforms.p_L, res.platforms.p_R
            assert abs(best_response(p_r, "L", params) - p_l) <= 1e-8, params
            assert abs(best_response(p_l, "R", params) - p_r) <= 1e-8, params
    assert n_certified == 3000
    assert not fallbacks


def test_base_9_is_certified_at_rs_best_response_not_at_one_half():
    # L leads by kappa ~ 8.7, so R's raw payoff is flat to rounding; the
    # raw Newton finish left p_R at exactly 0.5 and the raw certificate passed
    params = ModelParams(w=1.0, **_BASE_9)
    res = solve_asymmetric(params)
    assert res.certified
    want = best_response(res.platforms.p_L, "R", params)
    assert want == pytest.approx(0.51038840918836, abs=1e-13)
    assert abs(res.platforms.p_R - want) <= 1e-9


@pytest.mark.parametrize(
    "base, w",
    [(_BASE_5, w) for w in _SWEEP_GRID[9:]] + [(_BASE_23, w) for w in _SWEEP_GRID[11:]],
    ids=[f"base5-w{w:.4g}" for w in _SWEEP_GRID[9:]]
    + [f"base23-w{w:.4g}" for w in _SWEEP_GRID[11:]],
)
def test_a_race_l_surely_loses_certifies(base, w):
    # the raw SOC_L is exactly 0 here and R's FOC divided by phi(kappa) is
    # not finite: neither the raw certificate nor its Newton finish could pass
    params = ModelParams(w=w, **base)
    res = solve_asymmetric(params)
    assert win_margin(res.platforms, params) < -38.0
    assert res.certified
    p_l, p_r = res.platforms.p_L, res.platforms.p_R
    assert abs(best_response(p_r, "L", params) - p_l) <= 1e-8
    assert abs(best_response(p_l, "R", params) - p_r) <= 1e-8


@pytest.mark.parametrize(
    "base, w",
    [(_BASE_0, _SWEEP_GRID[8]), (_BASE_0, _SWEEP_GRID[9]), (_BASE_23, _SWEEP_GRID[10])],
    ids=["base0-w10", "base0-w31.6", "base23-w100"],
)
def test_where_l_trails_far_the_solve_does_not_depend_on_its_start(base, w):
    # kappa between -27 and -25: the FD re-solve at w + 1e-4 starts warm at
    # the row's solution; a raw Newton finish left p_L start-dependent by
    # up to 9.4e-11 on these rows
    row = solve_asymmetric(ModelParams(w=w, **base))
    assert -27.0 < win_margin(row.platforms, ModelParams(w=w, **base)) < -25.0
    params = ModelParams(w=w + 1e-4, **base)
    warm = solve_asymmetric(params, start=(row.platforms.p_L, row.platforms.p_R))
    cold = solve_asymmetric(params)
    assert warm.certified and cold.certified
    assert abs(warm.platforms.p_L - cold.platforms.p_L) <= 1e-12
    assert abs(warm.platforms.p_R - cold.platforms.p_R) <= 1e-12


def test_the_certificate_refuses_a_root_where_a_payoff_has_a_minimum():
    # L's payoff falls from its peak and climbs back toward its sure-loss
    # asymptote, so its FOC has a second root, a minimum, at p_L ~ -1.885;
    # R sits at its best response to it.  Both scaled FOCs are at their
    # roots, but L's slope there is positive
    params = ModelParams(w=1.0)
    pp = PlatformPair(-1.8851217732319294, 0.9578142525705995)
    sn = noise_scale(params)
    g_l, slope_l, _ = _scaled_foc_L(pp.p_L, pp.p_R, params, sn)
    g_r, slope_r, _ = _scaled_foc_R(pp.p_L, pp.p_R, params, sn)
    assert slope_l > 0.0 > slope_r
    assert abs(g_l / slope_l) < 1e-15 and abs(g_r / slope_r) < 1e-15
    at, _ = solver._at(params, params.w)
    dist = solver._scaled_pair(pp.p_L, pp.p_R, at, sn)[0]
    assert dist == math.inf
    assert not solver._certify(pp.p_L, pp.p_R, dist, at, SolverConfig())
    assert solver._result(at, sn, pp.p_L, pp.p_R, 0, False, "asymmetric").soc_L > 0.0


def test_scaled_foc_slopes_agree_with_central_differences():
    # each kernel's two closed-form partials, against central differences
    # of its value, relative to the larger of the two
    h = 1e-7
    for rng, params, _ in _wide_draws(20261021, 400):
        sn = noise_scale(params)
        p_l, p_r = (float(x) for x in rng.uniform([0.0, 0.5], [0.5, 1.0]))
        for party, kernel in (("L", _scaled_foc_L), ("R", _scaled_foc_R)):
            f = lambda a, b: kernel(a, b, params, sn)[0]
            _, d_own, d_opp = kernel(p_l, p_r, params, sn)
            fd_l = (f(p_l + h, p_r) - f(p_l - h, p_r)) / (2.0 * h)
            fd_r = (f(p_l, p_r + h) - f(p_l, p_r - h)) / (2.0 * h)
            fd_own, fd_opp = (fd_l, fd_r) if party == "L" else (fd_r, fd_l)
            tol = 1e-6 * max(abs(d_own), abs(d_opp))
            assert abs(d_own - fd_own) <= tol, (party, params, p_l, p_r)
            assert abs(d_opp - fd_opp) <= tol, (party, params, p_l, p_r)


class _Captured(Exception):
    pass


def _reduced_foc_of(monkeypatch, params):
    """The function of p_L the fallback hands to its search on [0, 1/2]:
    H(p_L) = G_L(p_L, BR_R(p_L)), its slope, and ``None``."""

    def capture(fdf, *args):
        raise _Captured(fdf)

    at, sn = solver._at(params, params.w)
    with monkeypatch.context() as m, pytest.raises(_Captured) as captured:
        m.setattr(solver, "_rtsafe", capture)
        solver._reduced_foc(0.25, 0.75, at, sn, SolverConfig())
    return captured.value.args[0]


def test_the_reduced_foc_slope_agrees_with_central_differences(monkeypatch):
    # H' = dG_L/dp_L - dG_L/dp_R (dG_R/dp_L) / (dG_R/dp_R), against a
    # central difference of H, each of whose values solves R's best
    # response, relative to H'
    h = 1e-7
    for rng, params, _ in _wide_draws(20261021, 400):
        reduced = _reduced_foc_of(monkeypatch, params)
        p_l = float(rng.uniform(h, 0.5 - h))
        _, slope, _ = reduced(p_l)
        fd = (reduced(p_l + h)[0] - reduced(p_l - h)[0]) / (2.0 * h)
        assert abs(slope - fd) <= 1e-6 * abs(slope), (params, p_l, slope, fd)


def _count_reduced_foc_fallbacks(monkeypatch):
    calls = []
    reduced_foc = solver._reduced_foc

    def counted(*args):
        calls.append(1)
        return reduced_foc(*args)

    monkeypatch.setattr(solver, "_reduced_foc", counted)
    return calls


@pytest.mark.parametrize(
    "base", [_BASE_0, _BASE_5, _BASE_9, _BASE_23], ids=["base0", "base5", "base9", "base23"]
)
def test_sweep_rows_need_no_reduced_foc_fallback_and_equal_its_rows(base, monkeypatch):
    # kappa < -38 at the top of the grid on bases 5 and 23, R at its bliss
    # point on base 0, R flat to rounding on base 9: the pair Newton is
    # accepted on every row and FD re-solve, and the reduced-FOC fallback,
    # forced, certifies every row at the same platforms to 1e-12
    base = ModelParams(w=1.0, **base)
    fallbacks = _count_reduced_foc_fallbacks(monkeypatch)
    rows = sweep_w(_SWEEP_GRID, base, mode="asymmetric")
    assert not fallbacks
    monkeypatch.setattr(solver, "_pair_newton", lambda *args: None)
    forced = sweep_w(_SWEEP_GRID, base, mode="asymmetric")
    assert len(fallbacks) == 3 * len(_SWEEP_GRID)
    assert all(r.certified for r in rows)
    _same_certified_rows(rows, forced)
    for row, want in zip(rows, forced):
        assert row.dpL_dw_fd == pytest.approx(want.dpL_dw_fd, abs=1e-10), row


def _same_certified_rows(rows, ref):
    assert [r.certified for r in rows] == [r.certified for r in ref]
    for row, want in zip(rows, ref):
        if want.certified:
            assert row.p_L == pytest.approx(want.p_L, abs=1e-12), row
            assert row.p_R == pytest.approx(want.p_R, abs=1e-12), row


@pytest.mark.parametrize("base", [_BASE_0, _BASE_9, _BASE_13], ids=["base0", "base9", "base13"])
def test_warm_started_sweep_equals_the_cold_sweep(base, monkeypatch):
    # best responses run only on the reduced-FOC fallback, forced here; the
    # cold sweep drops every guess, so each starts at the midpoint of its
    # bracket
    base = ModelParams(w=1.0, **base)
    monkeypatch.setattr(solver, "_pair_newton", lambda *args: None)
    warm = sweep_w(_SWEEP_GRID, base, mode="asymmetric")
    best = solver._best_response
    monkeypatch.setattr(
        solver, "_best_response",
        lambda opp, party, params, sn, cfg, guess=None: best(opp, party, params, sn, cfg),
    )
    _same_certified_rows(warm, sweep_w(_SWEEP_GRID, base, mode="asymmetric"))


def _cap_scaled_foc_calls(monkeypatch, cap):
    """Count the scaled-FOC kernel's calls, failing past ``cap`` so that a
    search that never stops fails instead of hanging."""
    calls = []

    def counted(kernel):
        def call(*args):
            calls.append(1)
            assert len(calls) <= cap, "scaled-FOC call cap exceeded"
            return kernel(*args)
        return call

    for name in ("_scaled_foc_L", "_scaled_foc_R"):
        monkeypatch.setattr(solver, name, counted(getattr(solver, name)))
    return calls


def test_the_finest_tol_root_terminates_and_certifies(monkeypatch):
    # tol_root = 1e-300 is below every step: the search must stop once its
    # iterate no longer moves, on the default platforms
    fine = SolverConfig(tol_root=1e-300)
    params = ModelParams(w=1.0, mu_i=0.3, mu_v=0.1)
    bases = [ModelParams(w=1.0, **base) for base in (_BASE_9, _BASE_13)]
    ref = solve_asymmetric(params)
    ref_rows = [sweep_w(_SWEEP_GRID, base, mode="asymmetric") for base in bases]
    calls = _cap_scaled_foc_calls(monkeypatch, 50_000)
    res = solve_asymmetric(params, fine)
    assert res.certified
    assert (res.platforms.p_L, res.platforms.p_R) == pytest.approx(
        (ref.platforms.p_L, ref.platforms.p_R), abs=1e-12
    )
    for base, want in zip(bases, ref_rows):
        rows = sweep_w(_SWEEP_GRID, base, mode="asymmetric", cfg=fine)
        assert all(r.certified for r in rows)
        _same_certified_rows(rows, want)
    assert calls


# below the single-peak bound; the pair Newton certifies it with the pre-scan
# route's bits (test_solve_asymmetric_below_the_bound_frozen_value)
_BELOW = ModelParams(w=1.0, sigma_v=0.08, mu_v=0.3)


def _pre_scan_solve(monkeypatch, params, cfg=None):
    # solve_asymmetric below the bound forced onto the reduced-FOC fallback,
    # which pre-scans in each of R's best responses: the pair Newton declines
    with pytest.warns(SinglePeakednessWarning):
        return _reduced_foc_solve(monkeypatch, params, cfg)


def _fail_the_first_grid_certificate(monkeypatch, then=lambda: None):
    grid_certified = solver._grid_certified

    def fail_once(pp, params):
        monkeypatch.setattr(solver, "_grid_certified", grid_certified)
        then()
        return False

    monkeypatch.setattr(solver, "_grid_certified", fail_once)


def _count_grid_scans(monkeypatch):
    scans = []
    grid = oracle.grid_best_response
    monkeypatch.setattr(
        oracle, "grid_best_response", lambda *args, **kw: scans.append(1) or grid(*args, **kw)
    )
    return scans


def test_below_the_bound_no_best_response_uses_a_warm_cell(monkeypatch):
    # on the pre-scan route (public best_response, and solve_asymmetric's
    # fallback once the pair Newton's point fails the grid oracle) each
    # search starts at the grid argmax and ignores the previous response
    sn, cfg = noise_scale(_BELOW), SolverConfig()
    for guess in (None, 0.0, 0.25, 0.5, 0.7):
        assert solver._best_response(0.75, "L", _BELOW, sn, cfg, guess) == (
            best_response(0.75, "L", _BELOW)
        )
    seeds, starts = [], []
    grid, rtsafe = oracle.grid_best_response, solver._rtsafe

    def seed(*args, **kw):
        seeds.append(grid(*args, **kw))
        return seeds[-1]

    def start(f, lo, hi, x, tol):
        starts.append(x)
        return rtsafe(f, lo, hi, x, tol)

    def record_starts():
        monkeypatch.setattr(oracle, "grid_best_response", seed)
        monkeypatch.setattr(solver, "_rtsafe", start)

    _fail_the_first_grid_certificate(monkeypatch, then=record_starts)
    with pytest.warns(SinglePeakednessWarning):
        res = solve_asymmetric(_BELOW)
    assert res.certified
    # the reduced FOC's search from L's start, then one best response of R
    # per evaluation, each started at its own pre-scan; the certificate's
    # two scans follow
    assert starts[0] == 0.25 and len(starts) == res.iterations + 1
    assert seeds[: res.iterations] == starts[1:] and len(seeds) == res.iterations + 2


@pytest.mark.parametrize("params, steps, want_scans", [
    (_BELOW, 3, 2),  # the certificate's, one per party
    (ModelParams(w=1.0, mu_i=0.3, mu_v=0.1), 4, 0),  # above the bound: none
], ids=["below", "above"])
def test_below_the_bound_the_pair_newton_runs_no_grid_scan_in_a_best_response(
    params, steps, want_scans, monkeypatch
):
    # the certificate alone accepts the pair Newton's point: no best
    # response runs, and below the bound only the certificate scans
    scans = _count_grid_scans(monkeypatch)
    best = solver._best_response
    responses = []
    monkeypatch.setattr(
        solver, "_best_response", lambda *args: responses.append(1) or best(*args)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SinglePeakednessWarning)
        res = solve_asymmetric(params)
    assert res.certified and res.iterations == steps
    assert not responses
    assert len(scans) == want_scans


def test_below_the_bound_an_uncertified_result_falls_back_to_the_pre_scan_route(monkeypatch):
    # the pair Newton's point fails its grid certificate (patched, so it
    # scans nothing), and the pair Newton declines it
    forced = _pre_scan_solve(monkeypatch, _BELOW)
    _fail_the_first_grid_certificate(monkeypatch)
    fallbacks = _count_reduced_foc_fallbacks(monkeypatch)
    scans = _count_grid_scans(monkeypatch)
    with pytest.warns(SinglePeakednessWarning):
        res = solve_asymmetric(_BELOW)
    assert repr(res) == repr(forced) and len(fallbacks) == 1
    # a pre-scan in each of the fallback's best responses, one per
    # evaluation, then its certificate
    assert len(scans) == forced.iterations + 2


@pytest.mark.parametrize("cause", ["uncertified", "no convergence"])
def test_a_solve_that_falls_back_warns_once(cause, monkeypatch):
    # "no convergence": two steps are too few for the pair Newton
    if cause == "uncertified":
        _fail_the_first_grid_certificate(monkeypatch)
        cfg = SolverConfig()
    else:
        cfg = SolverConfig(max_iter=2)
    fallbacks = _count_reduced_foc_fallbacks(monkeypatch)
    with pytest.warns(SinglePeakednessWarning) as record:
        assert solve_asymmetric(_BELOW, cfg).certified
    assert [w.category for w in record] == [SinglePeakednessWarning]
    assert len(fallbacks) == 1


def test_below_the_bound_fuzz_matches_the_pre_scan_route(monkeypatch):
    # sigma_v in [0.02, 0.1], w in [0, 3], V in [0.05, 3], sigma_i in
    # [0.1, 3], mu_i in [0, 1], mu_v in [-1.5, 1.5]: the reduced-FOC
    # fallback, forced, certifies every draw the pair Newton certifies, at
    # the same platforms to 1e-12
    rng = np.random.default_rng(20261020)
    lo, hi = [0.0, 0.05, 0.1, 0.02, 0.0, -1.5], [3.0, 3.0, 3.0, 0.1, 1.0, 1.5]
    for _ in range(12):
        w, v, s_i, s_v, mu_i, mu_v = (float(x) for x in rng.uniform(lo, hi))
        params = ModelParams(w=w, V=v, sigma_i=s_i, sigma_v=s_v, mu_i=mu_i, mu_v=mu_v)
        forced = _pre_scan_solve(monkeypatch, params)
        with pytest.warns(SinglePeakednessWarning):
            res = solve_asymmetric(params)
        assert forced.certified >= res.certified, params
        if res.certified:
            gap = max(
                abs(res.platforms.p_L - forced.platforms.p_L),
                abs(res.platforms.p_R - forced.platforms.p_R),
            )
            assert gap <= 1e-12, params


def test_a_below_bound_solve_that_pair_newton_declines_ends_in_a_result(monkeypatch):
    # a float-limit draw where the damped loop it replaced spent its 500
    # rounds (1,000 grid scans, 26,004 scaled-FOC calls) and raised
    # ConvergenceError: the reduced FOC ends after 34 evaluations (1,386
    # calls) and certifies
    params = ModelParams(
        w=3.305041707209043e-24,
        V=5.986775711433046e-167,
        sigma_i=2.126546824830104e-205,
        sigma_v=4.872799805622364e-11,
        mu_i=0.41461483876295135,
        mu_v=-0.14029059323597926,
    )
    calls = _cap_scaled_foc_calls(monkeypatch, 2_000)
    with pytest.warns(SinglePeakednessWarning):
        res = solve_asymmetric(params)
    assert isinstance(res, solver.EquilibriumResult)
    assert res.certified and res.iterations == 34
    assert calls


def test_warm_started_solve_makes_fewer_scaled_foc_calls(monkeypatch):
    # the reduced-FOC fallback, forced: each of R's best responses starts
    # at the previous one, 25 calls here
    params = ModelParams(w=1.0, mu_i=0.3, mu_v=0.1)
    calls = _cap_scaled_foc_calls(monkeypatch, 40)
    assert _reduced_foc_solve(monkeypatch, params).iterations == 4
    assert calls


def test_the_pair_newton_solve_makes_few_scaled_foc_calls(monkeypatch):
    # 4 Newton steps (a kernel pair each), then the finish (two pairs),
    # whose distance the certificate reads without a pair of its own: 12
    # calls here
    calls = _cap_scaled_foc_calls(monkeypatch, 12)
    assert solve_asymmetric(ModelParams(w=1.0, mu_i=0.3, mu_v=0.1)).iterations == 4
    assert calls


@pytest.mark.parametrize(
    "start", [("a", 0.75), (0.25,), (0.25, 0.75, 0.5), None, (True, 0.75), (0.25, True)]
)
def test_solve_asymmetric_rejects_a_bad_start(start, baseline):
    with pytest.raises(InvalidParamsError, match="start must be a pair|must be a finite real"):
        solve_asymmetric(baseline, start=start)


@pytest.mark.parametrize("name, start", [
    ("p_L", (math.nan, 0.75)), ("p_L", (-math.inf, 0.75)),
    ("p_R", (0.25, math.nan)), ("p_R", (0.25, math.inf)),
])
def test_solve_asymmetric_rejects_a_non_finite_start(name, start, baseline):
    with pytest.raises(InvalidParamsError, match=f"^{name} must be a finite real number"):
        solve_asymmetric(baseline, start=start)


def test_solve_asymmetric_accepts_a_start_outside_the_brackets(baseline):
    # a start outside [0, 1/2] x [1/2, 1] is a valid profile; it is only
    # no guess for the first round's best responses
    far = solve_asymmetric(baseline, start=(-5.0, 0.75))
    assert far.certified
    assert far.platforms.p_L == pytest.approx(solve_asymmetric(baseline).platforms.p_L, abs=1e-8)


@pytest.mark.parametrize("sigma_v", [1.0, 0.08])  # bisection alone; grid pre-scan first
@pytest.mark.parametrize("party, name", [("L", "p_R"), ("R", "p_L")])
@pytest.mark.parametrize("opponent", [math.nan, math.inf, True])
def test_best_response_rejects_a_bad_opponent(opponent, party, name, sigma_v):
    params = ModelParams(w=1.0, sigma_v=sigma_v)
    with pytest.raises(InvalidParamsError, match=f"^{name} must be a finite real number"):
        best_response(opponent, party, params)


@pytest.mark.parametrize("party", ["L", "R"])
def test_best_response_to_a_huge_opponent_is_a_domain_error(party):
    # the opponent's margin term overflows to inf; the CDF must see it
    # before the payoff squares the opponent's platform
    with pytest.raises(DomainError):
        best_response(1e200, party, ModelParams(w=1.0))


def test_best_response_rejects_unknown_party(baseline):
    with pytest.raises(ValueError, match="party"):
        best_response(0.5, "C", baseline)  # type: ignore[arg-type]


def test_solve_asymmetric_on_locus_reproduces_symmetric(baseline):
    sym = solve_symmetric(baseline)
    asym = solve_asymmetric(baseline)
    assert asym.kind == "asymmetric"
    assert asym.certified
    assert abs(asym.platforms.p_L + asym.platforms.p_R - 1.0) < 1e-9
    assert asym.platforms.p_L == pytest.approx(sym.platforms.p_L, abs=1e-9)


def test_solve_asymmetric_off_locus():
    # voter ideology leans toward R's anchor with no offsetting valence
    # bias, so R is advantaged and the profile genuinely desymmetrizes
    res = solve_asymmetric(ModelParams(w=1.0, mu_i=0.65))
    assert res.certified
    assert res.pr_L < 0.5
    assert abs(res.platforms.p_L + res.platforms.p_R - 1.0) > 1e-3
    assert abs(res.foc_residual_L) < 1e-10 and abs(res.foc_residual_R) < 1e-10
    assert res.soc_L < 0.0 and res.soc_R < 0.0


def test_solve_asymmetric_is_start_independent():
    params = ModelParams(w=1.0, mu_i=0.65)
    a = solve_asymmetric(params, start=(0.1, 0.9))
    b = solve_asymmetric(params, start=(0.4, 0.6))
    assert abs(a.platforms.p_L - b.platforms.p_L) < 1e-8
    assert abs(a.platforms.p_R - b.platforms.p_R) < 1e-8


def test_find_equilibria_dedupes_to_one(baseline):
    found = find_equilibria(baseline)
    assert len(found) == 1
    direct = solve_asymmetric(baseline)
    assert found[0].platforms.p_L == pytest.approx(direct.platforms.p_L, abs=1e-8)


def test_find_equilibria_off_locus_sorted():
    found = find_equilibria(ModelParams(w=1.0, mu_i=0.65))
    assert found == sorted(found, key=lambda r: r.platforms.p_L)
    assert all(r.certified for r in found)
    assert len(found) >= 1


def _count_row_calls(monkeypatch, point):
    """Count, per sweep row, the raw kernel, the result and platform-pair
    constructors and the point function ``point``, in both modules."""
    calls = collections.Counter()

    def counted(name, f):
        def call(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return call

    for module, names in (
        (solver, ("_raw_pair", "EquilibriumResult", "PlatformPair", point)),
        (analysis, ("_raw_pair", point)),
    ):
        for name in names:
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


@pytest.mark.parametrize("base", [_BASE_9, _BASE_13], ids=["base9", "base13"])
def test_an_asymmetric_sweep_row_builds_no_result(base, monkeypatch):
    # three solves per row, each returning only its point: the row's own,
    # at which the raw kernel runs once, and its two FD re-solves
    base = ModelParams(w=1.0, **base)
    calls = _count_row_calls(monkeypatch, "_asymmetric_point")
    for w in _SWEEP_GRID:
        calls.clear()
        (row,) = sweep_w([w], base, mode="asymmetric")
        assert row.certified, (w, row)
        assert calls == {"_raw_pair": 1, "_asymmetric_point": 3}, w


def test_a_symmetric_sweep_row_builds_no_result(monkeypatch):
    # the row's own point, at which the raw kernel runs once; the FD
    # stencil's two roots are bare symmetric roots
    calls = _count_row_calls(monkeypatch, "_symmetric_point")
    for w in _SWEEP_GRID:
        calls.clear()
        (row,) = sweep_w([w], ModelParams(w=1.0))
        assert row.certified, (w, row)
        assert calls == {"_raw_pair": 1, "_symmetric_point": 1}, w


def _fresh_certificate(res, params, cfg):
    """The certificate of ``res`` recomputed from scratch: the scaled pair's
    Newton distance at its platforms below ``cfg.tol_fp`` and, below the
    single-peak bound, each platform within 1e-3 of the grid argmax."""
    p_l, p_r = res.platforms.p_L, res.platforms.p_R
    at, sn = solver._at(params, params.w)
    if not solver._scaled_pair(p_l, p_r, at, sn)[0] < cfg.tol_fp:
        return False
    if params.single_peaked_guaranteed:
        return True
    try:
        g_l = grid_best_response(p_r, "L", params)
        g_r = grid_best_response(p_l, "R", params)
    except SpanTooSmallError:
        return False
    return abs(g_l - p_l) <= 1e-3 and abs(g_r - p_r) <= 1e-3


def test_every_certificate_equals_a_fresh_one_at_the_returned_platforms(monkeypatch):
    # the certificate reads the distance the Newton finish computed; it must
    # be the decision a fresh evaluation at the returned platforms makes, on
    # both routes (max_iter=1 declines the pair Newton; with a coarse
    # tol_root the finish starts far from the roots), both sides of the
    # single-peak bound, and on the locus for the symmetric solve
    from test_errors import _float_limit_draws

    fallbacks = _count_reduced_foc_fallbacks(monkeypatch)
    seen = collections.Counter()
    below = [
        ModelParams(w=1.0, sigma_v=0.08, mu_v=0.3),
        ModelParams(w=0.4, V=0.5, sigma_i=0.2, sigma_v=0.07, mu_i=0.6, mu_v=-0.4),
    ]
    draws = [d for d in _float_limit_draws(400) if d["w"] > 0.0]
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", SinglePeakednessWarning)
        for draw in [*draws, *below]:
            try:
                params = draw if isinstance(draw, ModelParams) else ModelParams(**draw)
                locus = replace(params, mu_v=params.w * (1.0 - 2.0 * params.mu_i))
            except InvalidParamsError:
                continue
            for cfg in (
                SolverConfig(), SolverConfig(max_iter=1), SolverConfig(tol_root=1e-4, max_iter=1)
            ):
                for solve, p in ((solve_asymmetric, params), (solve_symmetric, locus)):
                    try:
                        res = solve(p, cfg)
                    except PolarsolveError:
                        continue
                    assert res.certified == _fresh_certificate(res, p, cfg), (p, cfg, res)
                    seen[res.kind, res.certified, p.single_peaked_guaranteed] += 1
    # certified on both sides of the bound, and refuted (below it, here)
    assert fallbacks
    cells = [(True, True), (True, False), (False, False)]
    assert all(seen[(kind, *cell)] for kind in ("symmetric", "asymmetric") for cell in cells), seen
