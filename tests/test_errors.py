"""Bad arguments to public functions raise typed errors.

Each call below passes one invalid argument; the package must answer with
an :class:`InvalidParamsError`, which is both a ``PolarsolveError`` and a
``ValueError``.
"""

import math

import pytest

from polarsolve import (
    InvalidParamsError,
    ModelParams,
    PlatformPair,
    PolarsolveError,
    best_response,
    classify_moderate,
    find_equilibria,
    grid_best_response,
    mc_win_probability,
    peak_scan,
    run_checks,
    shape_report,
    solve_asymmetric,
    solve_symmetric,
    sweep_w,
    w_tilde,
)
from polarsolve.calculus import dpL_dw_polar

BASE = ModelParams(w=1.0)


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
    "grid-party": lambda: grid_best_response(0.5, "X", BASE),
    "mc-samples": lambda: mc_win_probability(PlatformPair(0.3, 0.7), BASE, 10, 0),
    "peak-scan-step": lambda: peak_scan(0.5, "L", BASE, grid_step=1e-2),
    "verify-check-id": lambda: run_checks(only=["bogus"]),
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
}


@pytest.mark.parametrize("name, call", WRONG_TYPES.values(), ids=WRONG_TYPES.keys())
def test_an_argument_of_the_wrong_type_is_named(name, call):
    with pytest.raises(InvalidParamsError, match=rf"^{name} must be a"):
        call()
