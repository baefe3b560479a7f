"""Equilibrium solvers and their certificates."""

import math
from dataclasses import replace

import pytest

from polarsolve import (
    ConvergenceError,
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
from polarsolve.calculus import d_euL_d_pL, d_euR_d_pR, foc_symmetric
from polarsolve.model import PlatformPair
from polarsolve.oracle import grid_best_response
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
        {"bracket_lo": 1.0, "bracket_hi": 1.0},
        {"bracket_lo": 2.0, "bracket_hi": -2.0},
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
