"""Equilibrium solvers and their certificates."""

import math
from dataclasses import replace

import numpy as np
import pytest

from polarsolve import (
    ConvergenceError,
    DomainError,
    InvalidParamsError,
    ModelParams,
    SinglePeakednessWarning,
    SolverConfig,
    SymmetryLocusError,
    best_response,
    find_equilibria,
    solve_asymmetric,
    solve_symmetric,
    symmetric_foc_root,
)
from polarsolve.calculus import _scaled_foc_L, d_euL_d_pL, d_euR_d_pR, foc_symmetric
from polarsolve.model import PlatformPair, noise_scale
from polarsolve.oracle import grid_best_response
from polarsolve import solver
from polarsolve.solver import _bisect

# Frozen solver anchors, cross-checked against the 1e-4 grid oracle and
# (for w=0) the closed-form polarization at zero ideological weight.
P_STAR_W0 = 0.2691827215728084
P_STAR_W1 = 0.23702503069772776


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tol_root": 0.0},
        {"tol_fp": -1e-9},
        {"damping": 0.0},
        {"damping": 1.5},
        {"tol_root": math.nan},
        {"tol_fp": math.nan},
        {"max_iter": 0},
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
    # 39 bisection halvings of [0, 1/2] to 1e-12 plus 2 Newton steps
    assert symmetric_foc_root(ModelParams(w=1.0)) == (0.2370250306977277, 41)


def test_bisect_stops_at_adjacent_doubles():
    # tol=0 is below any float spacing: only the endpoint guard can end the loop
    x, iterations = _bisect(lambda t: 25962.0 - t, 0.0, 65536.0, 0.0)
    assert x == 25962.0
    assert iterations < 100


def test_bisect_keeps_lo_where_f_is_positive():
    # f(0.25) == 0 moves hi there, and lo then closes in from below:
    # the final bracket is [0.25 - 2**-10, 0.25]
    x, iterations = _bisect(lambda t: 0.25 - t, 0.0, 1.0, 1e-3)
    assert x == 0.25 - 2.0**-11
    assert iterations == 10


def _reference_symmetric_root(params, tol):
    """Bisection of the symmetric FOC itself, then two Newton steps, with
    the FOC, its derivative and the noise scale written out as documented."""
    sn = math.sqrt(params.sigma_v**2 + 4.0 * params.w**2 * params.sigma_i**2)
    phi0 = 1.0 / math.sqrt(2.0 * math.pi)
    v_w = params.V + params.w
    foc = lambda p: (1.0 - 2.0 * p) * phi0 * (v_w + 1.0 - 2.0 * p) / sn - p
    dfoc = lambda p: -2.0 * phi0 * (v_w + 2.0 * (1.0 - 2.0 * p)) / sn - 1.0
    p, iterations = _bisect(foc, 0.0, 0.5, tol)
    for _ in range(2):
        p -= foc(p) / dfoc(p)
        p = min(max(p, 0.0), 0.5)
        iterations += 1
    return p, iterations


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


@pytest.mark.parametrize("tol_root", [1e-12, 1e-9, 1e-300])
def test_symmetric_root_replays_the_bisection_bit_for_bit(tol_root):
    # the closed-form replay must give the bisection's (p, iterations) exactly,
    # also when tol_root is below the float spacing near the root
    cfg = SolverConfig(tol_root=tol_root)
    for params in _wide_range_params(np.random.default_rng(20261018), 2000):
        assert symmetric_foc_root(params, cfg) == _reference_symmetric_root(params, tol_root), params


def test_symmetric_root_falls_back_when_the_closed_form_is_off(monkeypatch):
    # a closed-form root one final-bracket width too high steers the replay
    # into the neighbouring bracket: the FOC sign check must catch it and
    # the real bisection must give the same answer
    closed_form = solver._symmetric_closed_form
    fallbacks = []

    def off_by_one_bracket(V, w, sn):
        return closed_form(V, w, sn) + 0.5 * 2.0**-39

    def counting_bisect(f, lo, hi, tol):
        fallbacks.append(lo)
        return _bisect(f, lo, hi, tol)

    cases = [ModelParams(w=w, V=v) for w in (0.0, 0.3, 1.0, 50.0) for v in (0.1, 1.0, 10.0)]
    expected = [symmetric_foc_root(params) for params in cases]
    monkeypatch.setattr(solver, "_symmetric_closed_form", off_by_one_bracket)
    monkeypatch.setattr(solver, "_bisect", counting_bisect)
    assert [symmetric_foc_root(params) for params in cases] == expected
    assert len(fallbacks) == len(cases)
    assert expected[cases.index(ModelParams(w=1.0))] == (0.2370250306977277, 41)


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


def test_solve_asymmetric_below_the_bound_frozen_value():
    # below sqrt(32/3125) every best response runs the grid oracle; these
    # bits and the iteration count pin the oracle's argmaxes
    with pytest.warns(SinglePeakednessWarning):
        res = solve_asymmetric(ModelParams(w=1.0, sigma_v=0.08, mu_v=0.3))
    assert (res.platforms.p_L, res.platforms.p_R) == (0.2641356252348499, 0.7657555661173803)
    assert res.iterations == 29
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
    assert best_response(0.25, "R", p) == 0.7512376301124425


def test_solve_asymmetric_frozen_value():
    res = solve_asymmetric(ModelParams(w=1.0, mu_i=0.3, mu_v=0.1))
    assert (res.platforms.p_L, res.platforms.p_R) == (0.22331295107760948, 0.7498706867408111)
    assert res.iterations == 29
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
    scaled = _scaled_foc_L(res.platforms.p_L, res.platforms.p_R, params, noise_scale(params))
    assert abs(scaled) < 1e-12


def test_solve_asymmetric_where_r_sits_at_its_bliss_point():
    # offlocus-sweep seed 1, base 0 at w=10: a best-response search whose
    # bracket had to be found by widening raised UnboundedResponseError
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


def test_best_response_wide_range_fuzz():
    # log-uniform w in [1e-3, 1e3], V in [1e-2, 1e2], sigma_i in [1e-2, 10]
    # and sigma_v in [0.102, 10]; mu_i in [-1, 2], mu_v in [-3, 3] and the
    # opponent in [-3, 4]: every best response exists and lies in its
    # party's half of [0, 1]
    rng = np.random.default_rng(20261018)
    lo_log, hi_log = np.log([1e-3, 1e-2, 1e-2, 0.102]), np.log([1e3, 1e2, 10.0, 10.0])
    for _ in range(500):
        w, v, s_i, s_v = (float(x) for x in np.exp(rng.uniform(lo_log, hi_log)))
        mu_i, mu_v, opponent = (float(x) for x in rng.uniform([-1.0, -3.0, -3.0], [2.0, 3.0, 4.0]))
        params = ModelParams(w=w, V=v, sigma_i=s_i, sigma_v=s_v, mu_i=mu_i, mu_v=mu_v)
        assert 0.0 <= best_response(opponent, "L", params) <= 0.5, (params, opponent)
        assert 0.5 <= best_response(opponent, "R", params) <= 1.0, (params, opponent)


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


def test_exhausted_budget_raises_with_trace(baseline):
    cfg = SolverConfig(max_iter=2)
    with pytest.raises(ConvergenceError) as excinfo:
        solve_asymmetric(baseline, cfg, start=(0.0, 1.0))
    trace = excinfo.value.trace
    assert len(trace) == 3  # start plus one point per spent iteration
    assert all(
        isinstance(pt, tuple) and len(pt) == 2 and all(math.isfinite(x) for x in pt)
        for pt in trace
    )


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
