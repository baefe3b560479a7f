"""Comparative statics over the ideological-polarization weight w.

The headline objects:

* :func:`sweep_w` — solve the game along a w grid and tabulate
  platforms, polarization delta = |p_R* - p_L*|, win probability, the
  analytic and finite-difference slopes dp_L*/dw, and the second-order
  condition values.  Rows never abort the sweep: a failed solve yields
  a NaN row flagged uncertified.

* delta's closed forms at the endpoints: :func:`delta_at_zero` and
  :func:`delta_limit_infinity`.

* :func:`w_tilde` — the interior peak of w -> p_L*(w) (equivalently the
  trough of delta(w)).

* the asymmetric-game toolkit: the symmetry locus mu_v = w(1-2*mu_i),
  the moderation threshold w_hat = mu_v/(1-2*mu_i), the trichotomy
  classifier, and the closed-form sum of platform slopes at the locus.
"""

from __future__ import annotations

import math
import numbers
import warnings
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Literal

from .calculus import _PHI0, _dpL_dw_symmetric, _raw_pair
from .errors import (
    ConvergenceError,
    DegenerateError,
    DomainError,
    InvalidParamsError,
    PolarsolveError,
)
from .model import ModelParams, _checked_noise_scale, _finite, _instance
from .solver import (
    _START,
    SolverConfig,
    _asymmetric_point,
    _at,
    _config,
    _rtsafe,
    _solve_asymmetric_at,
    _sym_root,
    _symmetric_point,
    _warn_single_peakedness,
)

__all__ = [
    "SweepRow",
    "ShapeReport",
    "sweep_w",
    "shape_report",
    "delta_at_zero",
    "delta_limit_infinity",
    "w_tilde",
    "symmetry_locus_mu_v",
    "w_hat",
    "classify_moderate",
    "prop5_slope_identity",
]

#: Step for the finite-difference slope column of a sweep.
_FD_STEP = 1e-4

#: |p_L + p_R - 1| below this is an empirically symmetric outcome
#: (solver residuals sit around 1e-12; genuine asymmetries are >= 1e-4).
_EMPIRICAL_SYM_TOL = 1e-8

#: Knife-edge half-width for the theorem-side w = w_hat verdict.
_W_HAT_TOL = 1e-10


@dataclass(frozen=True, slots=True)
class SweepRow:
    """One record of a comparative-statics sweep (NaN-filled and
    uncertified when the solve for that w failed)."""

    w: float
    p_L: float
    p_R: float
    delta: float
    pr_L: float
    dpL_dw_analytic: float
    dpL_dw_fd: float
    soc_L: float
    soc_R: float
    certified: bool


@dataclass(frozen=True, slots=True)
class ShapeReport:
    """Discrete shape diagnosis of a sweep.

    ``is_u_shaped``: the forward-difference slope of delta changes sign
    exactly once, negative to positive.  ``is_single_peaked``: the slope
    of p_L* changes sign exactly once, positive to negative (the same
    event seen from the platform side).  ``sign_changes`` counts the
    delta-slope sign changes.  ``w_tilde`` locates the peak.
    """

    w_tilde: float
    is_single_peaked: bool
    is_u_shaped: bool
    sign_changes: int


def _fd_slope(solve_pl, w: float, p_at_w: float) -> float:
    """Finite-difference slope of w -> p_L*(w).

    Central difference away from the boundary; a second-order one-sided
    stencil at w = 0 (w may not go negative).
    """
    h = _FD_STEP
    if w >= h:
        return (solve_pl(w + h) - solve_pl(w - h)) / (2.0 * h)
    return (-3.0 * p_at_w + 4.0 * solve_pl(w + h) - solve_pl(w + 2.0 * h)) / (2.0 * h)


def _nan_row(w: float) -> SweepRow:
    nan = math.nan
    return SweepRow(w, nan, nan, nan, nan, nan, nan, nan, nan, False)


def _sweep_row(
    w: float,
    params: ModelParams,
    cfg: SolverConfig,
    mode: Literal["symmetric", "asymmetric"],
) -> SweepRow:
    try:
        at, sn = _at(params, w)
        if mode == "symmetric":
            p_l, p_r, _, certified = _symmetric_point(at, sn, cfg)
            V, sigma_i, sigma_v = params.V, params.sigma_i, params.sigma_v
            analytic = _dpL_dw_symmetric(p_l, V, w, sigma_i, sigma_v)
            # p_L*(w) lives on the symmetry locus, where the FOC depends on
            # (V, w, sigma_i, sigma_v) only: the root at the perturbed w is
            # the same curve the analytic formula differentiates.
            solve_pl = lambda wp: _sym_root(
                V, wp, _checked_noise_scale(wp, sigma_i, sigma_v), cfg.tol_root
            )[0]
        else:
            p_l, p_r, _, certified = _asymmetric_point(*_START, at, sn, cfg)
            analytic = math.nan  # defined only on the symmetric manifold
            # warm-started from the row's own solution, so each re-solve
            # stays on the row's equilibrium branch; the stencil reads only p_L
            solve_pl = lambda wp: _asymmetric_point(p_l, p_r, *_at(params, wp), cfg)[0]
        _, _, soc_l, soc_r, pr_l = _raw_pair(p_l, p_r, at, sn)
        fd = _fd_slope(solve_pl, w, p_l)
    except PolarsolveError:
        return _nan_row(w)
    return SweepRow(w, p_l, p_r, abs(p_r - p_l), pr_l, analytic, fd, soc_l, soc_r, certified)


def sweep_w(
    w_grid: Sequence[float],
    params_base: ModelParams,
    cfg: SolverConfig | None = None,
    mode: Literal["symmetric", "asymmetric"] = "symmetric",
) -> list[SweepRow]:
    """Solve along a strictly increasing grid of w values, one row per w,
    serially and in grid order.

    Each row is one flow in both modes: the point of
    :func:`~polarsolve.solver.solve_symmetric` or
    :func:`~polarsolve.solver.solve_asymmetric` at its w (platforms and
    certificate), the raw kernel once at that point, and the FD stencil,
    whose re-solves return only p_L: the symmetric root on the locus, the
    asymmetric route started at the row's point off it.  No row builds a
    result object.  The analytic slope is defined on the locus only, so
    it is NaN in asymmetric mode.  Per-row solver failures become NaN rows with
    ``certified=False`` — the sweep itself never aborts.  Below the
    single-peak bound the sweep warns once, before its first row.
    """
    _instance("params_base", params_base, ModelParams)
    cfg = _config(params_base, cfg)
    if mode not in ("symmetric", "asymmetric"):
        raise InvalidParamsError(f"mode must be 'symmetric' or 'asymmetric', got {mode!r}")
    if not isinstance(w_grid, Iterable):
        raise InvalidParamsError(f"w_grid must be a sequence of reals, got {w_grid!r}")
    grid = []
    for i, w in enumerate(w_grid):
        if isinstance(w, bool) or not isinstance(w, numbers.Real) or not 0.0 <= w < math.inf:
            raise InvalidParamsError(
                f"w_grid values must be finite and nonnegative reals, got w_grid[{i}]={w!r}"
            )
        grid.append(float(w))
    if not grid:
        raise InvalidParamsError("w_grid must be nonempty")
    for a, b in zip(grid, grid[1:]):
        if not a < b:
            raise InvalidParamsError(f"w_grid must be strictly increasing ({a} !< {b})")
    _warn_single_peakedness(params_base)
    return [_sweep_row(w, params_base, cfg, mode) for w in grid]


def _slope_sign_changes(values: Sequence[float]) -> tuple[int, int, int]:
    """(number of sign changes, first nonzero sign, last nonzero sign) of
    the forward-difference slope of ``values``; exact-zero slopes are
    treated as no information."""
    signs = []
    for a, b in zip(values, values[1:]):
        d = b - a
        if d != 0.0:
            signs.append(1 if d > 0.0 else -1)
    if not signs:
        return 0, 0, 0
    changes = sum(1 for s, t in zip(signs, signs[1:]) if s != t)
    return changes, signs[0], signs[-1]


def shape_report(
    rows: Sequence[SweepRow],
    params: ModelParams | None = None,
    cfg: SolverConfig | None = None,
) -> ShapeReport:
    """Diagnose the discrete shape of a sweep.

    With ``params`` given, ``w_tilde`` is the precise interior peak from
    :func:`w_tilde`; otherwise it is the grid location of max p_L.
    Rows must all be solved (no NaNs).
    """
    if not isinstance(rows, Sequence) or not all(isinstance(r, SweepRow) for r in rows):
        raise InvalidParamsError(f"rows must be a sequence of SweepRow, got {rows!r}")
    if len(rows) < 3:
        raise InvalidParamsError("need at least 3 rows to diagnose a shape")
    if any(not math.isfinite(r.delta) for r in rows):
        raise InvalidParamsError("shape analysis requires fully solved rows (no NaNs)")
    d_changes, d_first, d_last = _slope_sign_changes([r.delta for r in rows])
    p_changes, p_first, p_last = _slope_sign_changes([r.p_L for r in rows])
    u_shaped = d_changes == 1 and d_first < 0 and d_last > 0
    single_peaked = p_changes == 1 and p_first > 0 and p_last < 0
    if params is not None:
        wt = w_tilde(params, cfg)
    else:
        wt = max(rows, key=lambda r: r.p_L).w
    return ShapeReport(
        w_tilde=wt,
        is_single_peaked=single_peaked,
        is_u_shaped=u_shaped,
        sign_changes=d_changes,
    )


def delta_at_zero(params: ModelParams) -> float:
    """Closed-form platform polarization at w = 0:

        (sqrt(sigma_v^2 + 4 V^2 phi(0)^2 + 4 sigma_v (V+2) phi(0))
         - 2 V phi(0) - sigma_v) / (4 phi(0))

    Always in (0, 1).
    """
    _instance("params", params, ModelParams)
    s = params.sigma_v
    v = params.V
    root = math.sqrt(s * s + 4.0 * v * v * _PHI0 * _PHI0 + 4.0 * s * (v + 2.0) * _PHI0)
    return (root - 2.0 * v * _PHI0 - s) / (4.0 * _PHI0)


def delta_limit_infinity(params: ModelParams) -> float:
    """Limit of platform polarization as w grows without bound:
    sigma_i / (sigma_i + phi(0)), in (0, 1)."""
    _instance("params", params, ModelParams)
    return params.sigma_i / (params.sigma_i + _PHI0)


def w_tilde(params: ModelParams, cfg: SolverConfig | None = None) -> float:
    """The interior peak of w -> p_L*(w) (trough of delta(w)).

    The slope of p_L* has the sign of N(w) = c - w (1 + V - 2 p_L*), with
    c = sigma_v^2 / (4 sigma_i^2).  As p_L* lies in (0, 1/2), N is
    2 p_L* c / (1 + V) > 0 at w = c / (1 + V) and c (2 p_L* - 1) / V < 0
    at w = c / V.  :func:`~polarsolve.solver._rtsafe` finds the root of N
    on that bracket from its midpoint, without evaluating its ends, with
    N' = 2 w dp_L*/dw - (1 + V - 2 p_L*) from the float root and slope
    kernels; each step solves one symmetric root.  The tolerance is 1e-12
    times the lower end: 1e-12 relative however small or large the peak,
    well within the 1e-6 self-consistency contract with the sign-flip
    boundary; a bracket already that narrow (V above about 1e12) ends
    after one step.  There is no search cap.  When rounding leaves no bracket
    of positive finite w (c underflows to 0 or overflows),
    :class:`ConvergenceError` names it; a bracketed w whose noise scale
    overflows raises :class:`InvalidParamsError`.
    """
    cfg = _config(params, cfg)
    V, sigma_i, sigma_v = params.V, params.sigma_i, params.sigma_v
    four_si2 = 4.0 * sigma_i**2
    c = sigma_v**2 / four_si2 if four_si2 > 0.0 else math.inf
    w_lo, w_hi = c / (1.0 + V), c / V
    if not 0.0 < w_lo <= w_hi < math.inf:
        raise ConvergenceError(
            f"no closed bracket [{w_lo!r}, {w_hi!r}] of positive finite w "
            f"for the peak of p_L*(w); params={params}"
        )

    def gap_and_slope(w: float) -> tuple[float, float, None]:
        p = _sym_root(V, w, _checked_noise_scale(w, sigma_i, sigma_v), cfg.tol_root)[0]
        spread = 1.0 + V - 2.0 * p
        return c - w * spread, 2.0 * w * _dpL_dw_symmetric(p, V, w, sigma_i, sigma_v) - spread, None

    return _rtsafe(gap_and_slope, w_lo, w_hi, 0.5 * (w_lo + w_hi), 1e-12 * w_lo)[0]


def symmetry_locus_mu_v(w: float, mu_i: float) -> float:
    """The mean valence advantage that exactly offsets a mean ideological
    tilt mu_i at polarization w: mu_v = w(1 - 2*mu_i).  On this locus a
    symmetric equilibrium exists."""
    return _finite("w", w) * (1.0 - 2.0 * _finite("mu_i", mu_i))


def w_hat(mu_v: float, mu_i: float) -> float:
    """Moderation threshold w_hat = mu_v / (1 - 2*mu_i).

    Undefined at mu_i = 1/2: there the symmetry locus forces mu_v = 0
    and no threshold exists (raises :class:`DomainError`).
    """
    mu_v, mu_i = _finite("mu_v", mu_v), _finite("mu_i", mu_i)
    if mu_i == 0.5:
        raise DomainError(
            "w_hat is undefined at mu_i=1/2 (degenerate symmetry locus forces mu_v=0)"
        )
    return mu_v / (1.0 - 2.0 * mu_i)


def classify_moderate(
    params: ModelParams, cfg: SolverConfig | None = None
) -> Literal["L_moderate", "R_moderate", "symmetric"]:
    """Which party runs the more moderate (closer to 1/2) platform.

    The solved profile decides: p_L + p_R - 1 positive means L sits
    nearer the center.  In the theorem-backed quadrant mu_v < 0,
    mu_i > 1/2 the verdict is cross-checked against the w ><= w_hat
    rule; a disagreement (possible far from the symmetry locus, where
    only the solver is authoritative) is surfaced as a warning, and the
    empirical verdict is returned.  Below the single-peak bound it warns
    once, naming the caller's line, as
    :func:`~polarsolve.solver.solve_asymmetric` does.
    """
    cfg = _config(params, cfg)
    _warn_single_peakedness(params)
    res = _solve_asymmetric_at(params, cfg, *_START)
    s = res.platforms.p_L + res.platforms.p_R - 1.0
    if abs(s) <= _EMPIRICAL_SYM_TOL:
        empirical: Literal["L_moderate", "R_moderate", "symmetric"] = "symmetric"
    elif s > 0.0:
        empirical = "L_moderate"
    else:
        empirical = "R_moderate"

    if params.mu_v < 0.0 and params.mu_i > 0.5:
        gap = params.w - w_hat(params.mu_v, params.mu_i)
        if abs(gap) <= _W_HAT_TOL:
            theorem: Literal["L_moderate", "R_moderate", "symmetric"] = "symmetric"
        elif gap > 0.0:
            theorem = "L_moderate"
        else:
            theorem = "R_moderate"
        if theorem != empirical:
            warnings.warn(
                f"threshold rule predicts {theorem} (w={params.w:g}, "
                f"w_hat={w_hat(params.mu_v, params.mu_i):g}) but the solved "
                f"profile says {empirical} (p_L+p_R-1={s:.3e}); "
                f"trusting the solver",
                stacklevel=2,
            )
    return empirical


def prop5_slope_identity(p_L_star: float, params: ModelParams) -> float:
    """Closed-form sum of the platform slopes at a symmetric equilibrium
    on the symmetry locus:

        dp_L*/dw + dp_R*/dw
            = 4 (2 mu_i - 1) p_L^2 / (1 - 16 p_L^3 + 12 p_L^2 - 4 p_L + V + w)

    The sign equals sign(2*mu_i - 1).  The denominator is strictly
    positive for interior p_L; a nonpositive denominator contradicts the
    theory and raises :class:`DegenerateError` rather than being masked.
    """
    _instance("params", params, ModelParams)
    p = _finite("p_L_star", p_L_star)
    den = 1.0 - 16.0 * p**3 + 12.0 * p**2 - 4.0 * p + params.V + params.w
    if den <= 0.0:
        raise DegenerateError(
            f"slope-identity denominator {den:.6g} <= 0 at p_L={p!r} "
            f"(theory asserts strict positivity)"
        )
    return 4.0 * (2.0 * params.mu_i - 1.0) * p * p / den
