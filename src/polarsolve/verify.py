"""The named verification suite.

Each check certifies one falsifiable claim about the package — closed
forms against solves, analytic derivatives against finite differences,
reduced-form probabilities against Monte Carlo, solver output against
brute-force grid argmaxes — and reports a single pass/fail with a
quantitative detail line.  The registry is shared by the ``verify`` CLI
command and by tests/test_acceptance.py, so "the acceptance gate" and
"what the CLI certifies" are the same code.

Check randomness is reproducible: each check draws from
``numpy.random.default_rng([seed, check_index])`` so filtering with
``--only`` never changes another check's stream.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import tempfile
import time
from collections.abc import Iterable
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import cli
from .analysis import (
    delta_at_zero,
    delta_limit_infinity,
    prop5_slope_identity,
    shape_report,
    sweep_w,
    symmetry_locus_mu_v,
)
from .calculus import (
    d2_euL_d_pL2,
    d2_euR_d_pR2,
    d_euL_d_pL,
    d_euR_d_pR,
    dpL_dw_polar,
)
from .cli import DEFAULT_SEED
from .errors import InvalidParamsError
from .model import (
    ModelParams,
    PlatformPair,
    expected_utility_L,
    expected_utility_R,
    win_probability_L,
)
from .oracle import OracleReport, grid_best_response, mc_win_probability, peak_scan
from .solver import (
    _sym_root,
    best_response,
    solve_asymmetric,
    solve_symmetric,
    symmetric_foc_root,
)

__all__ = [
    "DEFAULT_SEED",
    "CheckResult",
    "CHECKS",
    "run_checks",
    "central_first",
    "central_second",
]


@dataclass(frozen=True, slots=True)
class CheckResult:
    check_id: str
    passed: bool
    detail: str
    duration_s: float


def central_first(f: Callable[[float], float], x: float, h: float) -> float:
    """Central first difference (f(x+h) - f(x-h)) / 2h."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


def central_second(f: Callable[[float], float], x: float, h: float) -> float:
    """Five-point central second difference, O(h^4)."""
    return (
        -f(x - 2.0 * h) + 16.0 * f(x - h) - 30.0 * f(x) + 16.0 * f(x + h) - f(x + 2.0 * h)
    ) / (12.0 * h * h)


def _strictly_decreasing(xs: Sequence[float]) -> bool:
    return all(a > b for a, b in zip(xs, xs[1:]))


# ---------------------------------------------------------------------------
# the checks (one per acceptance criterion, same ids)
# ---------------------------------------------------------------------------


def _check_prop3_delta0(rng: np.random.Generator) -> tuple[bool, str]:
    """Solved polarization at w=0 vs the closed form, 20 random (V, sigma_v)."""
    worst = 0.0
    for _ in range(20):
        params = ModelParams(
            w=0.0, V=float(rng.uniform(0.1, 5.0)), sigma_v=float(rng.uniform(0.2, 5.0))
        )
        err = abs(solve_symmetric(params).delta - delta_at_zero(params))
        worst = max(worst, err)
    return worst <= 1e-10, f"max |solve - closed form| = {worst:.3e} (tol 1e-10)"


def _check_prop3_limit(rng: np.random.Generator) -> tuple[bool, str]:
    """delta at w=1e6 vs the large-w closed form for three sigma_i."""
    worst = 0.0
    for sigma_i in (0.5, 1.0, 2.0):
        params = ModelParams(w=1e6, sigma_i=sigma_i)
        err = abs(solve_symmetric(params).delta - delta_limit_infinity(params))
        worst = max(worst, err)
    return worst < 1e-3, f"max |delta(1e6) - limit| = {worst:.3e} (tol 1e-3)"


def _check_prop2_ushape(rng: np.random.Generator) -> tuple[bool, str]:
    """Baseline sweep on [0, 3] step 0.005: delta slope flips sign exactly
    once (- to +), p_L slope exactly once (+ to -), at the w_tilde peak."""
    params = ModelParams(w=0.0)
    grid = [i * 0.005 for i in range(601)]
    rows = sweep_w(grid, params)
    rep = shape_report(rows, params)
    w_peak_grid = max(rows, key=lambda r: r.p_L).w
    peak_ok = abs(w_peak_grid - rep.w_tilde) <= 0.005 + 1e-12
    passed = rep.is_u_shaped and rep.is_single_peaked and peak_ok
    return passed, (
        f"delta slope sign changes = {rep.sign_changes} (want 1, - to +: "
        f"{rep.is_u_shaped}), p_L single-peaked: {rep.is_single_peaked}, "
        f"grid peak w={w_peak_grid:.3f} vs w_tilde={rep.w_tilde:.6f}"
    )


def _check_prop1_polar(rng: np.random.Generator) -> tuple[bool, str]:
    """Polar-case monotonicity and implicit-derivative signs."""
    # valence-dominant: sigma_i ~ 0 makes delta strictly decreasing in w
    params_a = ModelParams(w=0.0, sigma_i=1e-8)
    ws_a = [i * 0.01 for i in range(201)]
    deltas = [
        1.0 - 2.0 * symmetric_foc_root(replace(params_a, w=w))[0] for w in ws_a
    ]
    dec_valence = _strictly_decreasing(deltas)

    # ideology-only polar FOC: roots strictly decreasing on [0.1, 2]
    ws_b = [0.1 + i * 0.01 for i in range(191)]
    roots_i = []
    signs_ok = True
    for w in ws_b:
        params_i = ModelParams(w=w)
        r = _sym_root(params_i.V, w, 2.0 * params_i.sigma_i * w, 1e-13)[0]
        roots_i.append(r)
        signs_ok = signs_ok and dpL_dw_polar(r, params_i, "ideology_only") < 0.0
    dec_ideology = _strictly_decreasing(roots_i)

    # valence-only polar FOC: derivative positive at every grid root
    for w in ws_a:
        params_v = ModelParams(w=w)
        r = _sym_root(params_v.V, w, params_v.sigma_v, 1e-13)[0]
        signs_ok = signs_ok and dpL_dw_polar(r, params_v, "valence_only") > 0.0

    passed = dec_valence and dec_ideology and signs_ok
    return passed, (
        f"delta decreasing (sigma_i=1e-8): {dec_valence}; ideology-only roots "
        f"decreasing: {dec_ideology}; polar derivative signs all correct: {signs_ok}"
    )


def _check_prop4_locus(rng: np.random.Generator) -> tuple[bool, str]:
    """On mu_v = w(1-2 mu_i) the solved profile is symmetric, 50 draws."""
    worst = 0.0
    for _ in range(50):
        w = float(rng.uniform(0.0, 3.0))
        mu_i = float(rng.uniform(0.0, 1.0))
        params = ModelParams(w=w, mu_i=mu_i, mu_v=symmetry_locus_mu_v(w, mu_i))
        res = solve_asymmetric(params)
        worst = max(worst, abs(res.platforms.p_L + res.platforms.p_R - 1.0))
    return worst < 1e-6, f"max |p_L + p_R - 1| = {worst:.3e} over 50 draws (tol 1e-6)"


def _check_prop5_threshold(rng: np.random.Generator) -> tuple[bool, str]:
    """mu_i=1, mu_v=-1: symmetric at w=1, L moderate above, R moderate below."""
    base = ModelParams(w=1.0, mu_i=1.0, mu_v=-1.0)
    res = solve_asymmetric(base)
    gap = abs(res.platforms.p_L + res.platforms.p_R - 1.0)
    ok = gap < 1e-6
    verdicts = []
    for w, want in (
        (1.5, "L_moderate"),
        (2.0, "L_moderate"),
        (3.0, "L_moderate"),
        (0.25, "R_moderate"),
        (0.5, "R_moderate"),
        (0.75, "R_moderate"),
    ):
        r = solve_asymmetric(replace(base, w=w))
        s = r.platforms.p_L + r.platforms.p_R - 1.0
        got = "L_moderate" if s > 0 else "R_moderate"
        verdicts.append(got == want)
        ok = ok and got == want
    return ok, (
        f"|sum-1| at w=1: {gap:.3e} (tol 1e-6); moderation verdicts correct: "
        f"{sum(verdicts)}/6"
    )


def _check_prop5_slope(rng: np.random.Generator) -> tuple[bool, str]:
    """Closed-form sum of platform slopes vs perturb-and-resolve FD."""
    worst = 0.0
    h = 1e-4
    for _ in range(10):
        w = float(rng.uniform(0.2, 2.5))
        mu_i = 0.5 + (1.0 if rng.random() < 0.5 else -1.0) * float(rng.uniform(0.05, 0.45))
        params = ModelParams(w=w, mu_i=mu_i, mu_v=symmetry_locus_mu_v(w, mu_i))
        p_star, _ = symmetric_foc_root(params)
        ident = prop5_slope_identity(p_star, params)

        def sum_at(wp: float) -> float:
            r = solve_asymmetric(replace(params, w=wp))
            return r.platforms.p_L + r.platforms.p_R

        fd = (sum_at(w + h) - sum_at(w - h)) / (2.0 * h)
        worst = max(worst, abs(ident - fd))
    return worst <= 1e-4, f"max |identity - FD| = {worst:.3e} over 10 draws (tol 1e-4)"


def _check_eq3_ift(rng: np.random.Generator) -> tuple[bool, str]:
    """Analytic dp_L*/dw vs perturb-and-resolve FD (the two slope columns
    of a symmetric sweep), and its sign-flip boundary
    w = sigma_v^2/(4 sigma_i^2 (1 + V - 2 p_L*)).  A NaN or uncertified
    row fails the check."""
    params = ModelParams(w=0.0)
    rows = sweep_w([0.15 * j for j in range(20)], params)
    errs = [abs(r.dpL_dw_analytic - r.dpL_dw_fd) for r in rows]
    worst = math.nan if any(math.isnan(e) for e in errs) else max(errs)
    signs_ok = True
    for r in rows:
        boundary = params.sigma_v**2 / (4.0 * params.sigma_i**2 * (1.0 + params.V - 2.0 * r.p_L))
        signs_ok = signs_ok and ((r.dpL_dw_analytic > 0.0) == (r.w < boundary))
    n_certified = sum(r.certified for r in rows)
    passed = worst <= 1e-5 and signs_ok and n_certified == len(rows)
    detail = (
        f"max |analytic - FD| = {worst:.3e} (tol 1e-5); sign matches the "
        f"flip boundary at all 20 points: {signs_ok}"
    )
    if n_certified < len(rows):
        detail += f"; only {n_certified}/{len(rows)} rows certified"
    return passed, detail


def _check_oracle_br(rng: np.random.Generator) -> tuple[bool, str]:
    """Analytic best responses vs 1e-4-grid argmaxes, 50 random configs."""
    reports = []
    for k in range(50):
        params = ModelParams(
            w=float(rng.uniform(0.0, 3.0)),
            V=float(rng.uniform(0.2, 3.0)),
            sigma_i=float(rng.uniform(0.1, 3.0)),
            sigma_v=float(rng.uniform(0.15, 3.0)),
            mu_i=float(rng.uniform(0.2, 0.8)),
            mu_v=float(rng.uniform(-1.0, 1.0)),
        )
        party = "L" if k % 2 == 0 else "R"
        opponent = float(rng.uniform(0.0, 1.0))
        analytic = best_response(opponent, party, params)
        grid = grid_best_response(opponent, party, params, grid_step=1e-4)
        err = abs(analytic - grid)
        reports.append(
            OracleReport(kind="grid_br", max_discrepancy=err, passed=err <= 1e-4, grid_step=1e-4)
        )
    worst = max(r.max_discrepancy for r in reports)
    return all(r.passed for r in reports), (
        f"max |best_response - grid argmax| = {worst:.3e} over 50 configs (tol 1e-4)"
    )


def _check_oracle_mc(rng: np.random.Generator) -> tuple[bool, str]:
    """Reduced-form win probability vs Monte Carlo on the raw vote rule."""
    n = 10**6
    reports = []
    worst_z = 0.0
    for _ in range(20):
        params = ModelParams(
            w=float(rng.uniform(0.0, 3.0)),
            V=float(rng.uniform(0.2, 3.0)),
            sigma_i=float(rng.uniform(0.2, 2.0)),
            sigma_v=float(rng.uniform(0.2, 2.0)),
            mu_i=float(rng.uniform(0.0, 1.0)),
            mu_v=float(rng.uniform(-1.0, 1.0)),
        )
        pp = PlatformPair(float(rng.uniform(0.0, 0.5)), float(rng.uniform(0.5, 1.0)))
        analytic = win_probability_L(pp, params)
        seed = int(rng.integers(0, 2**32))
        mc = mc_win_probability(pp, params, n, seed)
        se = math.sqrt(max(analytic * (1.0 - analytic), 1e-300) / n)
        err = abs(mc - analytic)
        worst_z = max(worst_z, err / se)
        reports.append(
            OracleReport(
                kind="mc_winprob",
                max_discrepancy=err,
                passed=err <= 3.0 * se,
                sample_size=n,
                seed=seed,
            )
        )
    return all(r.passed for r in reports), (
        f"worst |mc - analytic| = {worst_z:.2f} binomial s.e. over 20 configs "
        f"(tol 3 s.e., N=1e6)"
    )


def _check_singlepeak_bound(rng: np.random.Generator) -> tuple[bool, str]:
    """Above the sigma_v bound every objective scans unimodal, 100 configs."""
    n_multi = 0
    for k in range(100):
        params = ModelParams(
            w=float(rng.uniform(0.0, 3.0)),
            V=float(rng.uniform(0.2, 3.0)),
            sigma_i=float(rng.uniform(0.1, 2.0)),
            sigma_v=float(rng.uniform(0.102, 2.0)),
            mu_i=float(rng.uniform(0.1, 0.9)),
            mu_v=float(rng.uniform(-1.0, 1.0)),
        )
        party = "L" if k % 2 == 0 else "R"
        verdict = peak_scan(float(rng.uniform(0.0, 1.0)), party, params, grid_step=1e-3)
        if not verdict.unimodal:
            n_multi += 1
    return n_multi == 0, f"{100 - n_multi}/100 configs unimodal (sigma_v >= 0.102)"


def _check_deriv_fd(rng: np.random.Generator) -> tuple[bool, str]:
    """All analytic own-platform derivatives vs finite differences at 200
    random interior points (first order: tol 1e-6, second: 1e-4; both
    relative to max(1, |value|))."""
    worst1 = 0.0
    worst2 = 0.0
    for _ in range(200):
        params = ModelParams(
            w=float(rng.uniform(0.0, 3.0)),
            V=float(rng.uniform(0.2, 3.0)),
            sigma_i=float(rng.uniform(0.2, 2.0)),
            sigma_v=float(rng.uniform(0.2, 2.0)),
            mu_i=float(rng.uniform(0.1, 0.9)),
            mu_v=float(rng.uniform(-1.0, 1.0)),
        )
        pp = PlatformPair(float(rng.uniform(0.05, 0.45)), float(rng.uniform(0.55, 0.95)))
        eu_l = lambda x: expected_utility_L(PlatformPair(x, pp.p_R), params)
        eu_r = lambda x: expected_utility_R(PlatformPair(pp.p_L, x), params)
        for analytic, f, x in (
            (d_euL_d_pL(pp, params), eu_l, pp.p_L),
            (d_euR_d_pR(pp, params), eu_r, pp.p_R),
        ):
            h = 1e-6 * max(1.0, abs(x))
            fd = central_first(f, x, h)
            worst1 = max(worst1, abs(analytic - fd) / max(1.0, abs(analytic)))
        for analytic, f, x in (
            (d2_euL_d_pL2(pp, params), eu_l, pp.p_L),
            (d2_euR_d_pR2(pp, params), eu_r, pp.p_R),
        ):
            fd = central_second(f, x, 1e-4)
            worst2 = max(worst2, abs(analytic - fd) / max(1.0, abs(analytic)))
    passed = worst1 <= 1e-6 and worst2 <= 1e-4
    return passed, (
        f"first-derivative worst rel err = {worst1:.3e} (tol 1e-6); "
        f"second = {worst2:.3e} (tol 1e-4); 200 points"
    )


def _check_cli_roundtrip(rng: np.random.Generator) -> tuple[bool, str]:
    """Sweep CSV parses back to the exact in-memory doubles; the empirical
    command reproduces a hand-computed fixture exactly."""
    def run_cli(argv: list[str]) -> str | None:
        """Run a CLI command with its stderr captured (the sweep's row
        tally is not this check's output); None on success, else why not."""
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return None if rc == 0 else f"{argv[0]} exited {rc}: {err.getvalue().strip()}"

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "sweep.csv"
        failure = run_cli(
            ["sweep", "--w-min", "0", "--w-max", "1", "--w-steps", "21", "--out", str(out)]
        )
        if failure:
            return False, failure
        grid = [i * (1.0 / 20.0) for i in range(21)]
        rows = sweep_w(grid, ModelParams(w=0.0))
        with out.open(newline="", encoding="utf-8") as fh:
            parsed = list(csv.DictReader(fh))
        if len(parsed) != len(rows):
            return False, f"wrote {len(rows)} rows, parsed {len(parsed)}"
        lossless = True
        for row, rec in zip(rows, parsed):
            for field in cli._SWEEP_COLUMNS[:-1]:
                mem = getattr(row, field)
                got = float(rec[field])
                same = (mem == got) or (math.isnan(mem) and math.isnan(got))
                lossless = lossless and same
            lossless = lossless and rec["certified"] == ("true" if row.certified else "false")

        fixture = Path(tmp) / "scores.csv"
        fixture.write_text(
            "year,party,score\n"
            "2000,L,-0.5\n2000,L,-0.25\n2000,R,0.25\n2000,R,0.75\n"
            "1996,L,-0.5\n1996,R,0.5\n",
            encoding="utf-8",
        )
        out2 = Path(tmp) / "polarization.csv"
        failure = run_cli(["empirical", str(fixture), "--out", str(out2)])
        if failure:
            return False, failure
        with out2.open(newline="", encoding="utf-8") as fh:
            got_rows = [(r["year"], float(r["polarization"])) for r in csv.DictReader(fh)]
        # means by hand: 1996 -> 0.5 - (-0.5) = 1.0; 2000 -> 0.5 - (-0.375) = 0.875
        exact = got_rows == [("1996", 1.0), ("2000", 0.875)]
    passed = lossless and exact
    return passed, f"sweep round-trip lossless: {lossless}; empirical fixture exact: {exact}"


CHECKS: dict[str, Callable[[np.random.Generator], tuple[bool, str]]] = {
    "prop3-delta0": _check_prop3_delta0,
    "prop3-limit": _check_prop3_limit,
    "prop2-ushape": _check_prop2_ushape,
    "prop1-polar": _check_prop1_polar,
    "prop4-locus": _check_prop4_locus,
    "prop5-threshold": _check_prop5_threshold,
    "prop5-slope": _check_prop5_slope,
    "eq3-ift": _check_eq3_ift,
    "oracle-br": _check_oracle_br,
    "oracle-mc": _check_oracle_mc,
    "singlepeak-bound": _check_singlepeak_bound,
    "deriv-fd": _check_deriv_fd,
    "cli-roundtrip": _check_cli_roundtrip,
}


def run_checks(
    only: Sequence[str] | None = None, seed: int = DEFAULT_SEED
) -> list[CheckResult]:
    """Run the named checks (all by default) and return their results.

    Unknown ids, an ``only`` that is empty, a string or no sequence, and a ``seed``
    that is not a non-negative int raise :class:`~polarsolve.errors.InvalidParamsError`.
    Reproducible for a given seed regardless of which subset runs.
    """
    if isinstance(only, str) or not (only is None or isinstance(only, Iterable)):
        raise InvalidParamsError(f"only must be a sequence of check ids, got {only!r}")
    if type(seed) is not int or seed < 0:
        raise InvalidParamsError(f"seed must be a non-negative int, got {seed!r}")
    ids = list(CHECKS) if only is None else list(only)
    if not ids:
        raise InvalidParamsError("only must name at least one check id")
    unknown = [i for i in ids if i not in CHECKS]
    if unknown:
        raise InvalidParamsError(
            f"unknown check id(s) {unknown}; known: {', '.join(CHECKS)}"
        )
    index = {check_id: i for i, check_id in enumerate(CHECKS)}
    results = []
    for check_id in ids:
        rng = np.random.default_rng([seed, index[check_id]])
        start = time.perf_counter()
        passed, detail = CHECKS[check_id](rng)
        results.append(CheckResult(check_id, passed, detail, time.perf_counter() - start))
    return results
