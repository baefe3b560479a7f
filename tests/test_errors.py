"""Bad arguments to public functions raise typed errors.

Each call below passes one invalid argument; the package must answer with
an :class:`InvalidParamsError`, which is both a ``PolarsolveError`` and a
``ValueError``.
"""

import collections
import contextlib
import io
import math
import random
import re
import warnings

import pytest

from polarsolve import (
    InvalidParamsError,
    ModelParams,
    PlatformPair,
    PolarsolveError,
    PreconditionError,
    SinglePeakednessWarning,
    best_response,
    classify_moderate,
    expected_utility_L,
    expected_utility_R,
    find_equilibria,
    grid_best_response,
    mc_win_probability,
    noise_scale,
    peak_scan,
    prop5_slope_identity,
    run_checks,
    shape_report,
    solve_asymmetric,
    solve_symmetric,
    sweep_w,
    symmetry_locus_mu_v,
    voter_utility,
    w_hat,
    w_tilde,
    win_margin,
    win_probability_L,
)
from polarsolve.calculus import (
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
from polarsolve.cli import main as cli_main

BASE = ModelParams(w=1.0)
PP = PlatformPair(0.3, 0.7)


def _nan_rows():
    return sweep_w([0.5, 1.0, 1.5], ModelParams(w=1.0, mu_v=0.3))


CASES = {
    "sweep-mode": lambda: sweep_w([0.0, 1.0], BASE, mode="bogus"),
    "sweep-empty-grid": lambda: sweep_w([], BASE),
    "sweep-unordered-grid": lambda: sweep_w([1.0, 0.5], BASE),
    "sweep-negative-grid": lambda: sweep_w([-1.0, 0.5], BASE),
    "shape-too-few-rows": lambda: shape_report(sweep_w([0.0, 0.5], BASE)),
    "shape-nan-rows": lambda: shape_report(_nan_rows()),
    "polar-case": lambda: dpL_dw_polar(0.25, BASE, "bogus"),
    "best-response-party": lambda: best_response(0.5, "X", BASE),
    "grid-step": lambda: grid_best_response(0.5, "L", BASE, grid_step=0.0),
    "grid-span-infinite": lambda: grid_best_response(0.5, "L", BASE, span=(-math.inf, 1.0)),
    "grid-span-empty": lambda: grid_best_response(0.5, "L", BASE, span=(1.0, 1.0)),
    # more than 10^6 grid points; neither grid is built
    "grid-step-subnormal": lambda: grid_best_response(0.75, "L", BASE, grid_step=5e-324),
    "grid-span-huge": lambda: grid_best_response(0.75, "L", BASE, span=(-1e308, 1e308)),
    "grid-party": lambda: grid_best_response(0.5, "X", BASE),
    # a grid point past 1.34e154 once squared to a bare OverflowError
    "grid-span-squares-overflow": lambda: grid_best_response(
        0.5, "L", BASE, 1e150, (-2e154, 2e154)
    ),
    "mc-samples": lambda: mc_win_probability(PlatformPair(0.3, 0.7), BASE, 10, 0),
    "peak-scan-step": lambda: peak_scan(0.5, "L", BASE, grid_step=1e-2),
    "peak-scan-step-subnormal": lambda: peak_scan(0.75, "L", BASE, grid_step=5e-324),
    "verify-check-id": lambda: run_checks(only=["bogus"]),
    "verify-no-check": lambda: run_checks(only=[]),
    # a scalar that is not finite once went through the formula: NaN, or -0.0
    "w-hat-nan": lambda: w_hat(math.nan, 0.3),
    "w-hat-inf": lambda: w_hat(1.0, math.inf),
    "locus-nan": lambda: symmetry_locus_mu_v(math.nan, 0.3),
    "voter-utility-inf": lambda: voter_utility(0.0, math.inf, 0.5, BASE),
    "foc-symmetric-nan": lambda: foc_symmetric(math.nan, BASE),
    "foc-derivative-inf": lambda: foc_symmetric_derivative(math.inf, BASE),
    "foc-valence-nan": lambda: foc_symmetric_valence_only(math.nan, BASE),
    "foc-ideology-nan": lambda: foc_symmetric_ideology_only(math.nan, BASE),
}


@pytest.mark.parametrize("call", CASES.values(), ids=CASES.keys())
def test_bad_argument_raises_a_typed_error(call):
    with pytest.raises(PolarsolveError) as info:
        call()
    assert isinstance(info.value, InvalidParamsError)
    assert isinstance(info.value, ValueError)


# an argument of the wrong type once reached an attribute or len() and
# escaped as a bare AttributeError or TypeError
WRONG_TYPES = {
    "solve-symmetric-cfg": ("cfg", lambda: solve_symmetric(BASE, 1)),
    "solve-asymmetric-cfg": ("cfg", lambda: solve_asymmetric(BASE, "x")),
    "sweep-cfg": ("cfg", lambda: sweep_w([0.5, 1.0], BASE, 1)),
    "find-equilibria-cfg": ("cfg", lambda: find_equilibria(BASE, "x")),
    "solve-asymmetric-params": ("params", lambda: solve_asymmetric(None)),
    "best-response-params": ("params", lambda: best_response(0.5, "L", None)),
    "sweep-params": ("params_base", lambda: sweep_w([0.5, 1.0], None)),
    "w-tilde-params": ("params", lambda: w_tilde(None)),
    "classify-params": ("params", lambda: classify_moderate(None)),
    "mc-pp": ("pp", lambda: mc_win_probability(None, BASE, 10_000, 0)),
    "shape-rows": ("rows", lambda: shape_report(None)),
    "noise-scale-params": ("params", lambda: noise_scale(None)),
    "win-margin-pp": ("pp", lambda: win_margin(None, BASE)),
    "win-margin-params": ("params", lambda: win_margin(PP, None)),
    "win-probability-params": ("params", lambda: win_probability_L(PP, "x")),
    "utility-L-pp": ("pp", lambda: expected_utility_L(None, BASE)),
    "utility-R-params": ("params", lambda: expected_utility_R(PP, None)),
    "voter-utility-params": ("params", lambda: voter_utility(0.0, 0.5, 0.5, None)),
    "d-euL-params": ("params", lambda: d_euL_d_pL(PP, None)),
    "d-euR-pp": ("pp", lambda: d_euR_d_pR((0.3, 0.7), BASE)),
    "d2-euL-pp": ("pp", lambda: d2_euL_d_pL2(None, BASE)),
    "d2-euR-params": ("params", lambda: d2_euR_d_pR2(PP, 1.0)),
    "foc-symmetric-params": ("params", lambda: foc_symmetric(0.25, None)),
    "foc-derivative-params": ("params", lambda: foc_symmetric_derivative(0.25, None)),
    "foc-valence-params": ("params", lambda: foc_symmetric_valence_only(0.25, None)),
    "foc-ideology-params": ("params", lambda: foc_symmetric_ideology_only(0.25, None)),
    "slope-symmetric-params": ("params", lambda: dpL_dw_symmetric(0.25, None)),
    "slope-polar-params": ("params", lambda: dpL_dw_polar(0.25, None, "valence_only")),
    "w-hat-mu-v": ("mu_v", lambda: w_hat("a", 0.3)),
    "locus-w": ("w", lambda: symmetry_locus_mu_v(None, 0.3)),
    "voter-utility-i": ("i", lambda: voter_utility("x", 0.2, 0.1, BASE)),
    "foc-symmetric-p": ("p_L", lambda: foc_symmetric("x", BASE)),
    "foc-derivative-p": ("p_L", lambda: foc_symmetric_derivative(None, BASE)),
    "foc-valence-p": ("p_L", lambda: foc_symmetric_valence_only("x", BASE)),
    "foc-ideology-p": ("p_L", lambda: foc_symmetric_ideology_only(True, BASE)),
    "slope-symmetric-p": ("p_L", lambda: dpL_dw_symmetric("x", BASE)),
    "slope-polar-p": ("p_L", lambda: dpL_dw_polar("x", BASE, "ideology_only")),
}


@pytest.mark.parametrize("name, call", WRONG_TYPES.values(), ids=WRONG_TYPES.keys())
def test_an_argument_of_the_wrong_type_is_named(name, call):
    with pytest.raises(InvalidParamsError, match=rf"^{name} must be a"):
        call()


# a NaN root made |foc| > tol and den <= 0 both false, so these returned NaN
NOT_FINITE = {
    "slope-symmetric-nan": (PreconditionError, lambda: dpL_dw_symmetric(math.nan, BASE)),
    "slope-symmetric-inf": (PreconditionError, lambda: dpL_dw_symmetric(math.inf, BASE)),
    "slope-valence-nan": (
        PreconditionError, lambda: dpL_dw_polar(math.nan, BASE, "valence_only")
    ),
    "slope-ideology-nan": (
        PreconditionError, lambda: dpL_dw_polar(math.nan, BASE, "ideology_only")
    ),
    "prop5-nan": (InvalidParamsError, lambda: prop5_slope_identity(math.nan, BASE)),
    "prop5-inf": (InvalidParamsError, lambda: prop5_slope_identity(math.inf, BASE)),
}


@pytest.mark.parametrize("error, call", NOT_FINITE.values(), ids=NOT_FINITE.keys())
def test_a_root_that_is_not_finite_raises(error, call):
    with pytest.raises(error):
        call()


def _float_limit_draws(n):
    # w, V, sigma_i and sigma_v log-uniform over 1e-300..1e300 or 1e-8..1e8
    # (w also 0, sigma_v also 1e-3..1e-1); mu_i and mu_v reach +-1e3
    rng = random.Random(20261019)

    def scale():
        e = rng.choice((300.0, 8.0))
        return 10.0 ** rng.uniform(-e, e)

    for _ in range(n):
        w = 0.0 if rng.random() < 0.1 else scale()
        v, s_i = scale(), scale()
        s_v = 10.0 ** rng.uniform(-3.0, -1.0) if rng.random() < 0.2 else scale()
        mu_i = rng.uniform(-1e3, 1e3) if rng.random() < 0.3 else rng.uniform(0.0, 1.0)
        mu_v = rng.uniform(-1e3, 1e3) if rng.random() < 0.3 else rng.uniform(-2.0, 2.0)
        yield {"w": w, "V": v, "sigma_i": s_i, "sigma_v": s_v, "mu_i": mu_i, "mu_v": mu_v}


def _flags(**values):
    return [f"--{key.replace('_', '-')}={value!r}" for key, value in values.items()]


def test_float_limit_fuzz_ends_in_a_result_or_a_typed_error():
    # every public solve, sweep and w~ returns or raises a PolarsolveError, and
    # every CLI run exits 0, 1, 2 or 3 (no convergence) with one error line
    # exactly when it exits 2 or 3; an asymmetric solve never fails to
    # converge, so neither solve_asymmetric nor `cli solve` reports it
    outcomes = collections.Counter()

    def call(name, run):
        try:
            run()
            outcomes[name, "ok"] += 1
        except PolarsolveError as exc:
            outcomes[name, type(exc).__name__] += 1

    def cli(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
        errors = [line for line in err.getvalue().splitlines() if line.startswith("error: ")]
        assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
        assert len(errors) == (code >= 2), (argv, err.getvalue())
        assert code < 2 or re.fullmatch(r"error: [a-z-]+: .*", errors[0]), errors
        outcomes["cli " + argv[0], code] += 1

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SinglePeakednessWarning)
        for draw in _float_limit_draws(12):
            w = draw["w"]
            locus = {**draw, "mu_v": symmetry_locus_mu_v(w, draw["mu_i"])}
            grid = [0.5 * w, w, 2.0 * w] if w > 0.0 else [0.0, 0.5, 1.0]
            call("solve_symmetric", lambda: solve_symmetric(ModelParams(**locus)))
            call("solve_asymmetric", lambda: solve_asymmetric(ModelParams(**draw)))
            call("w_tilde", lambda: w_tilde(ModelParams(**draw)))
            call("sweep_w", lambda: sweep_w(grid, ModelParams(**draw), mode="asymmetric"))
            cli(["solve", *_flags(**draw)])
            # the default symmetric sweep, on the locus at the middle row
            sweep_flags = _flags(**{k: v for k, v in locus.items() if k != "w"})
            cli(["sweep", *sweep_flags, *_flags(w_min=grid[0], w_max=grid[-1], w_steps=3)])
    # the draws reach results as well as errors on every entry
    entries = ("solve_symmetric", "solve_asymmetric", "w_tilde", "sweep_w")
    assert all((name, "ok") in outcomes for name in entries)
    assert ("cli solve", 0) in outcomes and ("cli sweep", 0) in outcomes
    assert ("solve_asymmetric", "ConvergenceError") not in outcomes
    assert ("cli solve", 3) not in outcomes
