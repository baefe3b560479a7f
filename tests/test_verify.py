"""The named verification suite's registry and plumbing.

The checks themselves are exercised one by one in test_acceptance.py;
here we pin the registry contents and the runner's seeding semantics.
"""

import math
from dataclasses import replace

import pytest

from polarsolve import verify
from polarsolve.errors import InvalidParamsError
from polarsolve.analysis import _nan_row
from polarsolve.verify import CHECKS, CheckResult, central_first, central_second, run_checks

EXPECTED_IDS = [
    "prop3-delta0",
    "prop3-limit",
    "prop2-ushape",
    "prop1-polar",
    "prop4-locus",
    "prop5-threshold",
    "prop5-slope",
    "eq3-ift",
    "oracle-br",
    "oracle-mc",
    "singlepeak-bound",
    "deriv-fd",
    "cli-roundtrip",
]


def test_registry_ids_and_order():
    assert list(CHECKS) == EXPECTED_IDS


def test_central_first_is_exact_on_cubics():
    f = lambda x: 2.0 * x**3 - x + 4.0
    # central differences are exact for polynomials up to degree 2;
    # for a cubic the O(h^2) truncation term is f'''/6 * h^2 = 2 h^2
    got = central_first(f, 1.0, 1e-4)
    assert got == pytest.approx(5.0, abs=1e-7)


def test_central_second_is_exact_on_quartics():
    f = lambda x: x**4 + 3.0 * x**2 - 7.0
    # the 5-point stencil annihilates everything through degree 5
    got = central_second(f, 2.0, 1e-2)
    assert got == pytest.approx(54.0, abs=1e-9)


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"only": "prop3-limit"}, "only"),
        ({"only": 5}, "only"),
        ({"seed": -1}, "seed"),
        ({"seed": 1.5}, "seed"),
        ({"seed": True}, "seed"),
    ],
)
def test_run_checks_rejects_a_bad_argument_by_name(kwargs, name):
    with pytest.raises(InvalidParamsError, match=name):
        run_checks(**kwargs)


def test_run_checks_rejects_unknown_ids():
    with pytest.raises(ValueError, match="unknown check id"):
        run_checks(only=["prop3-delta0", "bogus"])


def test_single_check_result_shape():
    (res,) = run_checks(only=["prop3-delta0"])
    assert isinstance(res, CheckResult)
    assert res.check_id == "prop3-delta0"
    assert res.passed is True
    assert res.detail
    assert res.duration_s >= 0.0


def test_results_are_seed_deterministic():
    a = run_checks(only=["prop3-delta0", "prop4-locus"], seed=42)
    b = run_checks(only=["prop3-delta0", "prop4-locus"], seed=42)
    assert [(r.check_id, r.passed, r.detail) for r in a] == [
        (r.check_id, r.passed, r.detail) for r in b
    ]


def test_subset_runs_reuse_the_full_run_streams():
    # each check draws from rng([seed, registry_index]), so running a
    # subset must reproduce exactly what the full run saw for that check
    full = {r.check_id: r for r in run_checks(seed=99)}
    (solo,) = run_checks(only=["prop4-locus"], seed=99)
    assert solo.detail == full["prop4-locus"].detail
    assert solo.passed == full["prop4-locus"].passed



@pytest.mark.parametrize(
    "spoil",
    [
        lambda row: _nan_row(row.w),
        lambda row: replace(row, dpL_dw_fd=math.nan),
        lambda row: replace(row, certified=False),
    ],
    ids=["nan-row", "nan-fd-only", "uncertified-row"],
)
def test_eq3_ift_fails_on_a_bad_sweep_row(monkeypatch, spoil):
    # max(0.0, nan) is 0.0, so a NaN slope must be caught explicitly
    real_sweep_w = verify.sweep_w

    def spoiled_sweep_w(grid, params):
        rows = real_sweep_w(grid, params)
        rows[3] = spoil(rows[3])
        return rows

    monkeypatch.setattr(verify, "sweep_w", spoiled_sweep_w)
    (res,) = run_checks(only=["eq3-ift"])
    assert res.passed is False
