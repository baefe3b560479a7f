"""Comparative statics: sweeps, shape diagnosis, thresholds, closed forms."""

import math
import re
from fractions import Fraction
import warnings
from dataclasses import replace

import numpy as np
import pytest

from polarsolve import (
    ConvergenceError,
    DegenerateError,
    DomainError,
    InvalidParamsError,
    ModelParams,
    SinglePeakednessWarning,
    classify_moderate,
    delta_at_zero,
    delta_limit_infinity,
    prop5_slope_identity,
    shape_report,
    solve_asymmetric,
    solve_symmetric,
    sweep_w,
    symmetric_foc_root,
    symmetry_locus_mu_v,
    w_hat,
    w_tilde,
)
from polarsolve import analysis, solver
from polarsolve.analysis import SweepRow
from polarsolve.calculus import _PHI0, _dpL_dw_symmetric
from polarsolve.errors import PolarsolveError

# Frozen baseline anchors (V = sigma_i = sigma_v = 1, balanced means).
DELTA_AT_ZERO_BASELINE = 0.46163455685438337
DELTA_LIMIT_BASELINE = 0.7148257751656814
W_TILDE_BASELINE = 0.17244641066434457


def test_delta_at_zero_frozen_value(baseline):
    assert delta_at_zero(baseline) == pytest.approx(DELTA_AT_ZERO_BASELINE, abs=1e-15)


def test_delta_at_zero_matches_the_solver(baseline):
    res = solve_symmetric(ModelParams(w=0.0))
    assert res.delta == pytest.approx(delta_at_zero(baseline), abs=1e-10)


def test_delta_at_zero_ignores_w_and_ideology(baseline):
    # the w=0 polarization depends only on V and sigma_v
    assert delta_at_zero(replace(baseline, w=3.0, sigma_i=0.01)) == delta_at_zero(baseline)


def test_delta_limit_frozen_value(baseline):
    assert delta_limit_infinity(baseline) == pytest.approx(DELTA_LIMIT_BASELINE, abs=1e-15)


def test_delta_limit_is_approached_from_below(baseline):
    # polarization rises toward (but never attains) the large-w limit
    limit = delta_limit_infinity(baseline)
    deltas = [
        1.0 - 2.0 * symmetric_foc_root(replace(baseline, w=w))[0]
        for w in (1e2, 1e4, 1e6)
    ]
    assert all(a < b for a, b in zip(deltas, deltas[1:]))
    assert all(d < limit for d in deltas)
    assert deltas[-1] == pytest.approx(limit, rel=1e-3)


def test_sweep_rows_are_complete_and_certified(baseline):
    grid = [i * 0.1 for i in range(11)]
    rows = sweep_w(grid, baseline)
    assert [r.w for r in rows] == grid
    for r in rows:
        assert r.certified
        assert r.p_R == pytest.approx(1.0 - r.p_L, abs=1e-12)
        assert r.delta == pytest.approx(1.0 - 2.0 * r.p_L, abs=1e-12)
        assert r.pr_L == pytest.approx(0.5, abs=1e-12)
        assert r.soc_L < 0.0 and r.soc_R < 0.0
        assert r.dpL_dw_analytic == pytest.approx(r.dpL_dw_fd, abs=1e-6)


@pytest.mark.parametrize(
    "grid, message",
    [
        ([], "nonempty"),
        ([0.0, 0.0, 1.0], "strictly increasing"),
        ([1.0, 0.5], "strictly increasing"),
        ([-0.5, 1.0], "finite and nonnegative"),
        ([0.0, math.inf], "finite and nonnegative"),
    ],
)
def test_sweep_rejects_bad_grids(baseline, grid, message):
    with pytest.raises(ValueError, match=message):
        sweep_w(grid, baseline)


@pytest.mark.parametrize(
    "grid, message",
    [
        (["a"], "w_grid[0]='a'"),
        ([math.nan, 1.0], "w_grid[0]=nan"),
        ([True, 2.0], "w_grid[0]=True"),
        ([0.5, None], "w_grid[1]=None"),
        ([1.0, -math.inf], "w_grid[1]=-inf"),
        (None, "w_grid must be a sequence"),
        (5.0, "w_grid must be a sequence"),
    ],
)
def test_sweep_rejects_a_malformed_grid_by_name(baseline, grid, message):
    # each entry's type and finiteness are checked before the grid's order,
    # so a nan or a bool is named as such, not blamed on the order
    with pytest.raises(InvalidParamsError, match=re.escape(message)) as info:
        sweep_w(grid, baseline)
    assert "increasing" not in str(info.value)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_sweep_accepts_numpy_float_arrays(baseline, dtype):
    grid = np.array([0.5, 1.0, 1.5], dtype=dtype)
    assert sweep_w(grid, baseline) == sweep_w([float(w) for w in grid], baseline)


def test_sweep_rejects_bad_mode(baseline):
    with pytest.raises(ValueError, match="mode"):
        sweep_w([0.0, 1.0], baseline, mode="diagonal")  # type: ignore[arg-type]


def test_symmetric_sweep_off_locus_yields_nan_rows():
    # fixed means keep the symmetry locus only at w=1; the other rows
    # must degrade to NaN rather than aborting the sweep
    params = ModelParams(w=1.0, mu_i=0.6, mu_v=-0.2)
    rows = sweep_w([0.5, 1.0, 1.5], params)
    assert math.isnan(rows[0].p_L) and not rows[0].certified
    assert math.isnan(rows[2].delta) and not rows[2].certified
    assert rows[1].certified
    assert rows[1].pr_L == pytest.approx(0.5, abs=1e-9)


def test_asymmetric_sweep_crosses_the_moderation_threshold():
    # mu_v=-1, mu_i=1 puts the threshold at w=1: below it R is the
    # moderate party, above it L is
    params = ModelParams(w=1.0, mu_i=1.0, mu_v=-1.0)
    rows = sweep_w([0.5, 1.0, 1.5], params, mode="asymmetric")
    sums = [r.p_L + r.p_R - 1.0 for r in rows]
    assert sums[0] < -1e-6
    assert abs(sums[1]) < 1e-8
    assert sums[2] > 1e-6
    for r in rows:
        assert r.certified
        assert math.isnan(r.dpL_dw_analytic)  # defined only on the manifold
        assert math.isfinite(r.dpL_dw_fd)


def test_symmetric_sweep_frozen_fd_column():
    # bit-identity anchors for the symmetric FD column: the one-sided
    # stencil at w = 0 and at 0 < w < h, a central one, and the large-w end
    params = ModelParams(w=0.0, V=0.5, sigma_i=2.0, sigma_v=0.5)
    rows = sweep_w([0.0, 5e-5, 1.0, 1e6], params)
    assert [(r.p_L, r.dpL_dw_fd) for r in rows] == [
        (0.29586695700132315, 0.10505052410819671),
        (0.2958722017875133, 0.10474092808326896),
        (0.15152963332791067, -0.05100838542798636),
        (0.08314971294794139, -6.938893903907228e-14),
    ]
    assert all(r.certified for r in rows)


def test_symmetric_sweep_row_fails_cleanly_when_its_stencil_leaves_valid_params():
    # at w = h the central stencil reaches w = 0, where sigma_v^2 underflows
    # and the noise scale is 0: that row is a NaN row, the next one is solved
    with pytest.warns(SinglePeakednessWarning):
        rows = sweep_w([1e-4, 1.0], ModelParams(w=1.0, sigma_v=1e-170))
    assert math.isnan(rows[0].p_L) and not rows[0].certified
    assert math.isfinite(rows[1].dpL_dw_fd)


def _row_from_public_solves(w, params):
    """A symmetric sweep row built from the public ``solve_symmetric`` and
    ``symmetric_foc_root`` at ``replace(params, w=...)``."""
    try:
        res = solve_symmetric(replace(params, w=w))
        p_l = res.platforms.p_L
        analytic = _dpL_dw_symmetric(p_l, params.V, w, params.sigma_i, params.sigma_v)
        fd = analysis._fd_slope(lambda wp: symmetric_foc_root(replace(params, w=wp))[0], w, p_l)
    except PolarsolveError:
        return analysis._nan_row(w)
    return SweepRow(
        w, p_l, res.platforms.p_R, res.delta, res.pr_L, analytic, fd,
        res.soc_L, res.soc_R, res.certified,
    )


@pytest.mark.parametrize(
    "params, grid",
    [
        (ModelParams(w=0.0), [0.0, 5e-5, 0.05, 1.0, 3.0, 1e6]),
        (ModelParams(w=0.0, V=0.02, sigma_i=7.0, sigma_v=0.2), [0.0, 0.5, 100.0]),
        # on the tilted locus only at w=1
        (ModelParams(w=1.0, mu_i=0.75, mu_v=-0.5), [0.5, 1.0, 2.0]),
        # off the locus at every w: every row is NaN
        (ModelParams(w=1.0, mu_v=0.3), [0.0, 1.0, 2.0]),
        # 4 w^2 sigma_i^2 overflows at the last w, so its row is NaN
        (ModelParams(w=0.0, sigma_i=1e150), [0.0, 1.0, 1e10]),
    ],
)
def test_symmetric_sweep_rows_equal_rows_from_the_public_solver(params, grid):
    expected = [_row_from_public_solves(w, params) for w in grid]
    assert repr(sweep_w(grid, params)) == repr(expected)


def _asymmetric_row_from_public_solves(w, params):
    """An asymmetric sweep row built from the public ``solve_asymmetric`` at
    ``replace(params, w=...)``, its re-solves started at the row's platforms."""
    try:
        res = solve_asymmetric(replace(params, w=w))
        start = (res.platforms.p_L, res.platforms.p_R)
        fd = analysis._fd_slope(
            lambda wp: solve_asymmetric(replace(params, w=wp), start=start).platforms.p_L,
            w, res.platforms.p_L,
        )
    except PolarsolveError:
        return analysis._nan_row(w)
    return SweepRow(
        w, res.platforms.p_L, res.platforms.p_R, res.delta, res.pr_L, math.nan, fd,
        res.soc_L, res.soc_R, res.certified,
    )


@pytest.mark.parametrize(
    "mode, params, row_from_public_solves",
    [
        ("symmetric", ModelParams(w=0.0, sigma_v=0.05), _row_from_public_solves),
        (
            "asymmetric",
            ModelParams(w=1.0, sigma_v=0.08, mu_v=0.3),
            _asymmetric_row_from_public_solves,
        ),
    ],
    ids=["symmetric", "asymmetric"],
)
def test_a_sweep_below_the_bound_grid_certifies_and_warns_once(
    mode, params, row_from_public_solves
):
    # every row and re-solve is grid-certified, but the sweep warns once,
    # naming the caller's line, not once per row or per re-solve
    grid = [0.0, 0.5, 2.0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SinglePeakednessWarning)
        expected = [row_from_public_solves(w, params) for w in grid]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = sweep_w(grid, params, mode=mode)
    assert repr(rows) == repr(expected)
    assert all(r.certified for r in rows)
    assert [w.category for w in caught] == [SinglePeakednessWarning]
    assert caught[0].filename == __file__


def test_asymmetric_sweep_frozen_rows(monkeypatch):
    # bit-identity anchors for the asymmetric sweep, FD column included
    # (its re-solves start from the row's own solution), on the pair Newton
    # and on the reduced-FOC fallback, forced; the first row is the pair
    # Newton's to the last bit, FD column included
    params = ModelParams(w=1.0, V=0.5, sigma_i=2.0, sigma_v=0.5, mu_i=0.8, mu_v=-1.0)
    rows = sweep_w([0.01, 1.0, 100.0], params, mode="asymmetric")
    assert [(r.p_L, r.p_R, r.dpL_dw_fd) for r in rows] == [
        (0.07786370093181222, 0.5850649348264017, 0.2461565624844314),
        (0.1428095449175483, 0.8398201148680681, -0.02750855051109058),
        (0.09234438109729072, 0.9241109199066427, -8.555141733923577e-06),
    ]
    assert all(r.certified for r in rows)
    monkeypatch.setattr(solver, "_pair_newton", lambda *args: None)
    rows = sweep_w([0.01, 1.0, 100.0], params, mode="asymmetric")
    assert [(r.p_L, r.p_R, r.dpL_dw_fd) for r in rows] == [
        (0.07786370093181222, 0.5850649348264017, 0.2461565624844314),
        (0.14280954491754833, 0.8398201148680681, -0.02750855051109058),
        (0.09234438109729072, 0.9241109199066427, -8.555141733923577e-06),
    ]
    assert all(r.certified for r in rows)


def _asymmetric_row_from_public_solves(w, params):
    """An asymmetric sweep row built from the public ``solve_asymmetric``
    at ``replace(params, w=...)``, its re-solves started at the row."""
    try:
        res = solve_asymmetric(replace(params, w=w))
        start = (res.platforms.p_L, res.platforms.p_R)
        solve_pl = lambda wp: solve_asymmetric(replace(params, w=wp), start=start).platforms.p_L
        fd = analysis._fd_slope(solve_pl, w, res.platforms.p_L)
    except PolarsolveError:
        return analysis._nan_row(w)
    return SweepRow(
        w, res.platforms.p_L, res.platforms.p_R, res.delta, res.pr_L, math.nan, fd,
        res.soc_L, res.soc_R, res.certified,
    )


@pytest.mark.parametrize(
    "params, grid",
    [
        (ModelParams(w=1.0, mu_i=0.3, mu_v=0.1), [0.0, 5e-5, 1.0, 100.0]),
        (ModelParams(w=1.0, V=13.95926091518241, sigma_i=0.081564335882881,
                     sigma_v=0.1029496035374516, mu_i=1.1641572388799872,
                     mu_v=-1.4178709420834927), [1.0, 100.0, 1000.0]),
        # below the single-peak bound: the grid oracle reads a ModelParams at w
        (ModelParams(w=1.0, sigma_v=0.08, mu_v=0.3), [0.5, 1.0]),
        # 4 w^2 sigma_i^2 overflows at the last w, so its row is NaN
        (ModelParams(w=0.0, sigma_i=1e150, mu_v=0.3), [0.0, 1e-151, 1e10]),
    ],
)
def test_asymmetric_sweep_rows_equal_rows_from_the_public_solver(params, grid):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SinglePeakednessWarning)
        expected = [_asymmetric_row_from_public_solves(w, params) for w in grid]
        assert repr(sweep_w(grid, params, mode="asymmetric")) == repr(expected)


def test_shape_report_baseline_u_shape(baseline):
    rows = sweep_w([i * 0.02 for i in range(51)], baseline)
    report = shape_report(rows, baseline)
    assert report.is_u_shaped
    assert report.is_single_peaked
    assert report.sign_changes == 1
    assert report.w_tilde == pytest.approx(W_TILDE_BASELINE, abs=1e-9)


def test_shape_report_grid_peak_without_params(baseline):
    rows = sweep_w([i * 0.02 for i in range(51)], baseline)
    report = shape_report(rows)
    assert abs(report.w_tilde - W_TILDE_BASELINE) <= 0.02 + 1e-12


def test_shape_report_validation(baseline):
    rows = sweep_w([0.0, 0.5], baseline)
    with pytest.raises(ValueError, match="3 rows"):
        shape_report(rows)
    nan_rows = sweep_w([0.5, 1.0, 1.5], ModelParams(w=1.0, mu_v=0.3))
    with pytest.raises(ValueError, match="NaN"):
        shape_report(nan_rows)


def test_w_tilde_frozen_value(baseline):
    assert w_tilde(baseline) == pytest.approx(W_TILDE_BASELINE, abs=1e-9)


def test_w_tilde_self_consistency(baseline):
    # at the peak the IFT slope boundary is attained:
    # w = sigma_v^2 / (4 sigma_i^2 (1 + V - 2 p_L*(w)))
    wt = w_tilde(baseline)
    p = symmetric_foc_root(replace(baseline, w=wt))[0]
    boundary = baseline.sigma_v**2 / (
        4.0 * baseline.sigma_i**2 * (1.0 + baseline.V - 2.0 * p)
    )
    assert wt == pytest.approx(boundary, abs=1e-9)


def _w_tilde_cases():
    """The baseline, a trough far out at w~ ~ 25962, seeded log-uniform
    draws over V in [1e-2, 1e2], sigma_i in [1e-2, 10], sigma_v in [0.102, 10]
    and a tiny trough."""
    cases = [ModelParams(w=1.0), ModelParams(w=0.0, V=1.0, sigma_i=0.03, sigma_v=10.0)]
    rng = np.random.default_rng(20261018)
    for _ in range(12):
        v, s_i, s_v = np.exp(rng.uniform(np.log([1e-2, 1e-2, 0.102]), np.log([1e2, 10.0, 10.0])))
        cases.append(ModelParams(w=0.0, V=float(v), sigma_i=float(s_i), sigma_v=float(s_v)))
    # w~ ~ 2.94e-6, where a 1e-12 absolute bisection tolerance was 8.6e-8 relative
    cases.append(
        ModelParams(w=0.0, V=26.789727851703216, sigma_i=9.462624337026526, sigma_v=0.16799079993032656)
    )
    # the solved root's FOC residual scales with V: an absolute re-check of
    # the root inside each slope evaluation failed here
    cases.append(ModelParams(w=0.0, V=1e12))
    return cases


def test_w_tilde_is_a_slope_sign_change():
    for params in _w_tilde_cases():
        _assert_slope_changes_sign(params, w_tilde(params))


def test_w_tilde_takes_few_symmetric_roots(monkeypatch):
    # Newton on c - w (1 + V - 2 p*) from the bracket's midpoint: each step
    # solves one symmetric root, where the slope's bisection took 34-47
    calls = []
    sym_root = analysis._sym_root
    monkeypatch.setattr(analysis, "_sym_root", lambda *args: calls.append(1) or sym_root(*args))
    for params in _w_tilde_cases():
        calls.clear()
        w_tilde(params)
        assert 1 <= len(calls) <= 8, (params, len(calls))


def _w_tilde_bracket(params):
    c = params.sigma_v**2 / (4.0 * params.sigma_i**2)
    return c / (1.0 + params.V), c / params.V


def _assert_slope_changes_sign(params, wt):
    """w~ lies in its bracket, and the slope of p_L*(w) is positive at
    w~(1 - 1e-9) and negative at w~(1 + 1e-9)."""
    lo, hi = _w_tilde_bracket(params)
    assert lo <= wt <= hi, (params, wt)
    for w, expected_positive in ((wt * (1.0 - 1e-9), True), (wt * (1.0 + 1e-9), False)):
        p = symmetric_foc_root(replace(params, w=w))[0]
        slope = _dpL_dw_symmetric(p, params.V, w, params.sigma_i, params.sigma_v)
        assert (slope > 0.0) is expected_positive, (params, wt)


def test_w_tilde_far_beyond_w_one_million():
    # the closed bracket [c/(1+V), c/V] has no search cap
    params = ModelParams(w=0.0, V=0.01, sigma_i=0.01, sigma_v=10.0)
    wt = w_tilde(params)
    assert wt == pytest.approx(7.26e6, rel=1e-3)
    _assert_slope_changes_sign(params, wt)


def test_w_tilde_returns_a_bracket_within_tolerance():
    # c/(1+V) and c/V are the same double: the bracket is the answer
    params = ModelParams(w=0.0, V=1e17)
    lo, hi = _w_tilde_bracket(params)
    assert lo == hi
    assert w_tilde(params) == lo


def test_w_tilde_wide_range_fuzz():
    # log-uniform V in [1e-2, 1e17], sigma_i in [1e-3, 1e2], sigma_v in [1e-2, 1e2];
    # above V ~ 1e7 the slopes at the bracket's ends are rounding noise, and
    # they are never evaluated: every draw has a peak in its bracket
    rng = np.random.default_rng(7)
    lo_log, hi_log = np.log([1e-2, 1e-3, 1e-2]), np.log([1e17, 1e2, 1e2])
    for _ in range(400):
        v, s_i, s_v = (float(x) for x in np.exp(rng.uniform(lo_log, hi_log)))
        params = ModelParams(w=0.0, V=v, sigma_i=s_i, sigma_v=s_v)
        wt = w_tilde(params)
        lo, hi = _w_tilde_bracket(params)
        assert lo <= wt <= hi, params


@pytest.mark.parametrize(
    "params",
    [
        # 4 sigma_i^2 overflows, so c = 0 and the bracket collapses to [0, 0]
        ModelParams(w=0.0, sigma_i=1e154),
        # c overflows, so the bracket's ends are not valid values of w
        ModelParams(w=0.0, sigma_i=1e-150, sigma_v=1e150),
        # 4 sigma_i^2 underflows to 0, so c would divide by zero
        ModelParams(w=0.0, sigma_i=1e-170),
    ],
)
def test_w_tilde_names_a_bracket_rounding_defeats(params):
    with pytest.raises(ConvergenceError, match="closed bracket"):
        w_tilde(params)


def test_w_tilde_names_a_bracketed_w_with_no_noise_scale():
    # c ~ 2.5e299 is finite, but 4 w^2 sigma_i^2 overflows inside the bracket
    with pytest.raises(InvalidParamsError, match="noise scale"):
        w_tilde(ModelParams(w=0.0, sigma_i=1e-150))


def test_w_tilde_where_the_slope_denominator_underflows():
    # the bracket is w ~ 7.5e-314..1.5e-308: s2 = sigma_v^2 ~ 2.4e-321 is
    # subnormal and the slope's plain denominator underflows to 0, which
    # raised ZeroDivisionError; the rescaled form keeps the slope finite
    params = ModelParams(
        w=1.18e-49, V=4.89e-6, sigma_i=8.97e-5, sigma_v=4.92e-161, mu_i=0.166, mu_v=1.27
    )
    lo, hi = _w_tilde_bracket(params)
    assert lo <= w_tilde(params) <= hi
    # the slope at w = 1e-308 against the plain form in exact arithmetic
    V, w, s_i, s_v = (Fraction(x) for x in (params.V, 1e-308, params.sigma_i, params.sigma_v))
    p, phi0 = Fraction(1, 4), Fraction(_PHI0)
    s2 = s_v**2 + 4 * s_i**2 * w**2
    exact = (1 - 2 * p) * phi0 * (4 * s_i**2 * w * (2 * p - V - 1) + s_v**2) / (
        s2 * (2 * phi0 * (V + w + 2 * (1 - 2 * p)) + Fraction(math.sqrt(float(s2))))
    )
    slope = _dpL_dw_symmetric(0.25, params.V, 1e-308, params.sigma_i, params.sigma_v)
    assert slope == pytest.approx(float(exact), rel=1e-12)


def test_w_tilde_moves_with_sigma_v(baseline):
    # a noisier valence channel extends the initial moderation phase
    wt_low = w_tilde(replace(baseline, sigma_v=0.5))
    wt_high = w_tilde(replace(baseline, sigma_v=2.0))
    assert wt_low < w_tilde(baseline) < wt_high


def test_symmetry_locus_values():
    assert symmetry_locus_mu_v(2.0, 0.75) == -1.0
    assert symmetry_locus_mu_v(3.0, 0.5) == 0.0
    assert symmetry_locus_mu_v(0.0, 0.9) == 0.0


def test_w_hat_values_and_domain():
    assert w_hat(-1.0, 1.0) == 1.0
    assert w_hat(-1.0, 0.75) == 2.0
    assert w_hat(0.5, 0.25) == 1.0
    with pytest.raises(DomainError):
        w_hat(0.3, 0.5)


def test_classify_moderate_three_verdicts(baseline):
    assert classify_moderate(ModelParams(w=0.5, mu_i=1.0, mu_v=-1.0)) == "R_moderate"
    assert classify_moderate(ModelParams(w=2.0, mu_i=1.0, mu_v=-1.0)) == "L_moderate"
    assert classify_moderate(baseline) == "symmetric"


def test_classify_moderate_below_the_bound_warns_once_naming_the_caller():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        verdict = classify_moderate(ModelParams(w=1.0, sigma_v=0.08, mu_i=0.7, mu_v=-0.3))
    assert verdict == "L_moderate"
    assert [w.category for w in caught] == [SinglePeakednessWarning]
    assert caught[0].filename == __file__


def test_prop5_identity_sign_and_zero(baseline):
    p = symmetric_foc_root(baseline)[0]
    assert prop5_slope_identity(p, baseline) == 0.0  # balanced means
    tilted = replace(baseline, mu_i=0.8, mu_v=symmetry_locus_mu_v(1.0, 0.8))
    assert prop5_slope_identity(p, tilted) > 0.0
    leaning_left = replace(baseline, mu_i=0.2, mu_v=symmetry_locus_mu_v(1.0, 0.2))
    assert prop5_slope_identity(p, leaning_left) < 0.0


def test_prop5_identity_matches_finite_differences():
    # differentiate p_L + p_R along w at fixed means, starting from a
    # point on the symmetry locus
    mu_i = 0.7
    w0 = 1.2
    params = ModelParams(w=w0, mu_i=mu_i, mu_v=symmetry_locus_mu_v(w0, mu_i))
    p = solve_symmetric(params).platforms.p_L
    h = 1e-4

    def platform_sum(w: float) -> float:
        res = solve_asymmetric(replace(params, w=w))
        return res.platforms.p_L + res.platforms.p_R

    fd = (platform_sum(w0 + h) - platform_sum(w0 - h)) / (2.0 * h)
    assert prop5_slope_identity(p, params) == pytest.approx(fd, rel=1e-3)


def test_prop5_identity_rejects_nonpositive_denominator(baseline):
    with pytest.raises(DegenerateError):
        prop5_slope_identity(0.9, baseline)
