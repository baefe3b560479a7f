"""Equilibrium computation.

Two entry points:

* :func:`solve_symmetric` — the 1-D problem on the symmetry locus
  mu_v = w(1-2*mu_i).  The symmetric first-order condition is strictly
  decreasing on [0, 1/2] with a guaranteed sign change (positive at 0,
  exactly -1/2 at 1/2), so plain bisection cannot fail; two Newton
  polish steps push the residual to machine level.  The FOC is a
  quadratic in 1 - 2 p_L, so the bisection's halvings are replayed
  against its closed-form root with float compares and confirmed by two
  FOC signs: the same bits as bisecting the FOC, with four FOC
  evaluations instead of about forty.

* :func:`solve_asymmetric` — damped alternating best responses for
  general parameters, finished with a short 2-D Newton polish on the
  analytic first-order conditions.  Each best response bisects the
  party's FOC divided by phi(kappa) on a constant bracket whose end
  signs are proven, [0, 1/2] for L and [1/2, 1] for R, so it cannot
  fail, also where the win probability underflows.  Convergence of the
  iteration is an empirical matter and non-convergence is a first-class
  reported outcome (:class:`~polarsolve.errors.ConvergenceError` with
  the full iterate trace), never a silent truncation.

Every result carries its own certificate: FOC residuals, second-order
condition values, and — when sigma_v sits below the unimodality bound —
agreement with the brute-force grid oracle.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Literal

from .calculus import (
    _PHI0,
    _d2_euL_d_pL2,
    _d2_euR_d_pR2,
    _d_euL_d_pL,
    _d_euR_d_pR,
    _foc_symmetric,
    _foc_symmetric_derivative,
    _scaled_foc_L,
    _scaled_foc_R,
    d2_euL_d_pL2,
    d2_euR_d_pR2,
    d_euL_d_pL,
    d_euR_d_pR,
)
from .errors import (
    ConvergenceError,
    InvalidParamsError,
    SinglePeakednessWarning,
    SpanTooSmallError,
    SymmetryLocusError,
)
from .model import (
    ModelParams,
    PlatformPair,
    _finite,
    noise_scale,
    win_probability_L,
)
from .oracle import grid_best_response

__all__ = [
    "SolverConfig",
    "EquilibriumResult",
    "symmetric_foc_root",
    "solve_symmetric",
    "best_response",
    "solve_asymmetric",
    "find_equilibria",
    "LOCUS_TOL",
]

#: How exactly mu_v must equal w(1-2*mu_i) for the symmetric solver.
LOCUS_TOL = 1e-12


@dataclass(frozen=True, slots=True)
class SolverConfig:
    """Tunables for both solvers; the defaults satisfy every tolerance
    used by the verification suite."""

    tol_root: float = 1e-12       # bisection interval / FOC target
    tol_fp: float = 1e-10         # fixed-point platform-change tolerance
    max_iter: int = 500           # best-response iteration budget
    damping: float = 0.5          # step fraction toward the best response

    def __post_init__(self) -> None:
        if not (self.tol_root > 0.0 and self.tol_fp > 0.0):
            raise InvalidParamsError("solver tolerances must be positive")
        if not 0.0 < self.damping <= 1.0:
            raise InvalidParamsError(f"damping must be in (0, 1], got {self.damping}")
        if self.max_iter < 1:
            raise InvalidParamsError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True, slots=True)
class EquilibriumResult:
    """A solved profile plus its certificate."""

    platforms: PlatformPair
    pr_L: float
    foc_residual_L: float
    foc_residual_R: float
    soc_L: float
    soc_R: float
    iterations: int
    certified: bool
    kind: Literal["symmetric", "asymmetric"]

    @property
    def delta(self) -> float:
        """Platform polarization |p_R - p_L|."""
        return self.platforms.delta


def _warn_single_peakedness(params: ModelParams) -> None:
    warnings.warn(
        f"sigma_v={params.sigma_v:g} is below the unimodality bound "
        f"sqrt(32/3125)~0.10119; single-peakedness is not guaranteed, "
        f"best-response search uses a global grid pre-scan and results are "
        f"certified against the grid oracle",
        SinglePeakednessWarning,
        stacklevel=3,
    )


def _grid_certified(pp: PlatformPair, params: ModelParams) -> bool:
    """Below the unimodality bound: confirm each platform is the global
    argmax on the 1e-4 oracle grid (to one grid-cell slack each side)."""
    try:
        g_l = grid_best_response(pp.p_R, "L", params, grid_step=1e-4)
        g_r = grid_best_response(pp.p_L, "R", params, grid_step=1e-4)
    except SpanTooSmallError:
        return False
    return abs(g_l - pp.p_L) <= 1e-3 and abs(g_r - pp.p_R) <= 1e-3


def _certificate(
    pp: PlatformPair, params: ModelParams, cfg: SolverConfig, iterations: int,
    kind: Literal["symmetric", "asymmetric"],
) -> EquilibriumResult:
    f_l = d_euL_d_pL(pp, params)
    f_r = d_euR_d_pR(pp, params)
    s_l = d2_euL_d_pL2(pp, params)
    s_r = d2_euR_d_pR2(pp, params)
    certified = max(abs(f_l), abs(f_r)) < cfg.tol_fp and s_l < 0.0 and s_r < 0.0
    if certified and not params.single_peaked_guaranteed:
        certified = _grid_certified(pp, params)
    return EquilibriumResult(
        platforms=pp,
        pr_L=win_probability_L(pp, params),
        foc_residual_L=f_l,
        foc_residual_R=f_r,
        soc_L=s_l,
        soc_R=s_r,
        iterations=iterations,
        certified=certified,
        kind=kind,
    )


def _bisect_bracket(
    f: Callable[[float], float], lo: float, hi: float, tol: float
) -> tuple[float, float, int]:
    """Final bracket of :func:`_bisect` and its number of f evaluations."""
    iterations = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        iterations += 1
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo, hi, iterations


def _bisect(
    f: Callable[[float], float], lo: float, hi: float, tol: float
) -> tuple[float, int]:
    """Sign change of f on [lo, hi], with f(lo) > 0 >= f(hi): the
    midpoint of the final bracket and the number of f evaluations.

    Stops once hi - lo <= tol, or when the bracket's endpoints are
    adjacent doubles (the midpoint rounds to one of them), so a ``tol``
    below the float spacing still terminates.
    """
    lo, hi, iterations = _bisect_bracket(f, lo, hi, tol)
    return 0.5 * (lo + hi), iterations


def _symmetric_closed_form(V: float, w: float, sn: float) -> float:
    """Root of the symmetric FOC from its quadratic in x = 1 - 2 p_L,
    a x^2 + b x - 1/2 = 0 with a = phi(0)/sn and b = phi(0)(V+w)/sn + 1/2,
    in the stable form x = 1/(b + sqrt(b^2 + 2a)).  Within a few ulps of
    the bisection's answer but not always equal to it."""
    a = _PHI0 / sn
    b = _PHI0 * (V + w) / sn + 0.5
    return 0.5 * (1.0 - 1.0 / (b + math.sqrt(b * b + 2.0 * a)))


def _sym_root(V: float, w: float, sn: float, tol: float) -> tuple[float, int]:
    """:func:`symmetric_foc_root` of plain floats, given ``sn``.

    Replays the bisection of the FOC on [0, 1/2] against the closed-form
    root, then confirms the final bracket with two FOC signs.  The
    computed FOC is nonincreasing in p_L, so once f(lo) > 0 >= f(hi)
    holds at the end, every halving that moved lo agreed with the FOC's
    sign (its midpoint lies at or below lo) and so did every one that
    moved hi: the bracket, the count and the result are those of
    bisecting the FOC itself.  If a sign check fails, the FOC is
    bisected after all.
    """
    f = lambda x: _foc_symmetric(x, V, w, sn)
    r = _symmetric_closed_form(V, w, sn)
    lo, hi, iterations = _bisect_bracket(lambda x: r - x, 0.0, 0.5, tol)
    if f(lo) > 0.0 >= f(hi):
        p = 0.5 * (lo + hi)
    else:
        p, iterations = _bisect(f, 0.0, 0.5, tol)
    for _ in range(2):  # Newton polish to machine-level residual
        p -= f(p) / _foc_symmetric_derivative(p, V, w, sn)
        p = min(max(p, 0.0), 0.5)
        iterations += 1
    return p, iterations


def symmetric_foc_root(
    params: ModelParams, cfg: SolverConfig | None = None
) -> tuple[float, int]:
    """Unique root of the symmetric FOC on [0, 1/2] and the iteration count.

    The FOC is strictly decreasing with foc(0) > 0 > foc(1/2) = -1/2, so
    bisection to ``cfg.tol_root`` cannot fail; two Newton steps then push
    the residual to machine level.  The FOC is a quadratic in 1 - 2 p_L,
    so the halvings are replayed against its closed-form root with float
    compares and confirmed by two FOC signs at the end (see
    :func:`_sym_root`); the result and the count are those of bisecting
    the FOC itself.  Meaningful for any valid params (the FOC does not
    involve mu_i or mu_v); whether the profile is an equilibrium is a
    separate question answered by :func:`solve_symmetric`.
    """
    cfg = cfg or SolverConfig()
    return _sym_root(params.V, params.w, noise_scale(params), cfg.tol_root)


def solve_symmetric(params: ModelParams, cfg: SolverConfig | None = None) -> EquilibriumResult:
    """Unique symmetric equilibrium p_R* = 1 - p_L* on the symmetry locus.

    Raises :class:`SymmetryLocusError` when mu_v != w(1-2*mu_i) (within
    ``LOCUS_TOL``); off the locus no symmetric equilibrium exists and
    :func:`solve_asymmetric` is the right call.
    """
    cfg = cfg or SolverConfig()
    locus_gap = params.mu_v - params.w * (1.0 - 2.0 * params.mu_i)
    if abs(locus_gap) > LOCUS_TOL:
        raise SymmetryLocusError(
            f"mu_v={params.mu_v:g} is off the symmetry locus "
            f"w(1-2*mu_i)={params.w * (1.0 - 2.0 * params.mu_i):g} "
            f"(gap {locus_gap:.3e}); use solve_asymmetric"
        )
    if not params.single_peaked_guaranteed:
        _warn_single_peakedness(params)
    p, iterations = symmetric_foc_root(params, cfg)
    return _certificate(PlatformPair(p, 1.0 - p), params, cfg, iterations, "symmetric")


def best_response(
    opponent_policy: float,
    party: Literal["L", "R"],
    params: ModelParams,
    cfg: SolverConfig | None = None,
) -> float:
    """Maximizer of the party's expected utility against a fixed opponent.

    L's maximizer lies in [0, 1/2] for any opponent: below 0 the win
    probability and the stake A_L = p_R^2 - p_L^2 + V + w are both lower
    than at 0, and above 1/2 the mirror 1 - p_L wins as often with a
    larger stake.  L's FOC is positive at 0 and -Phi(kappa) < 0 at 1/2,
    so the search bisects it on [0, 1/2] to 1e-9, divided by phi(kappa)
    to keep its sign where phi underflows, then takes up to four Newton
    steps on the raw FOC.  R's bracket is the mirror [1/2, 1].  Below the
    single-peak bound a 1e-4-grid pre-scan first narrows the bracket to
    its argmax +- 1e-4.  ``opponent_policy`` is checked once here; the
    kernels then run on plain floats with the noise scale computed once.
    """
    cfg = cfg or SolverConfig()
    if party not in ("L", "R"):
        raise InvalidParamsError(f"party must be 'L' or 'R', got {party!r}")
    opp = _finite("p_R" if party == "L" else "p_L", opponent_policy)
    sn = noise_scale(params)
    if party == "L":
        lo, hi = 0.0, 0.5
        scaled_foc = lambda x: _scaled_foc_L(x, opp, params, sn)
        foc = lambda x: _d_euL_d_pL(x, opp, params, sn)
        soc = lambda x: _d2_euL_d_pL2(x, opp, params, sn)
    else:
        lo, hi = 0.5, 1.0
        scaled_foc = lambda x: _scaled_foc_R(opp, x, params, sn)
        foc = lambda x: _d_euR_d_pR(opp, x, params, sn)
        soc = lambda x: _d2_euR_d_pR2(opp, x, params, sn)

    if not params.single_peaked_guaranteed:
        # the default span contains the bracket, so the argmax is interior
        seed = grid_best_response(opp, party, params, grid_step=1e-4)
        lo, hi = max(lo, seed - 1e-4), min(hi, seed + 1e-4)
    x = _bisect(scaled_foc, lo, hi, 1e-9)[0]
    for _ in range(4):
        g = foc(x)
        if abs(g) <= cfg.tol_root:
            break
        h = soc(x)
        if not h < 0.0:
            break
        x = min(max(x - g / h, lo), hi)
    return x


def solve_asymmetric(
    params: ModelParams,
    cfg: SolverConfig | None = None,
    start: tuple[float, float] = (0.25, 0.75),
) -> EquilibriumResult:
    """Fixed point of damped alternating best responses, Newton-polished.

    Updates are Gauss-Seidel with step ``cfg.damping`` toward the
    current best response.  A persistent period-2 cycle raises
    :class:`ConvergenceError` suggesting a lower damping; so does an
    exhausted iteration budget.  The raised error carries the iterate
    trace.
    """
    cfg = cfg or SolverConfig()
    if not params.single_peaked_guaranteed:
        _warn_single_peakedness(params)
    with warnings.catch_warnings():
        # best_response would re-warn on every inner call
        warnings.simplefilter("ignore", SinglePeakednessWarning)
        p_l, p_r = start
        trace: list[tuple[float, float]] = [(p_l, p_r)]
        lam = cfg.damping
        converged = 0
        for iteration in range(1, cfg.max_iter + 1):
            p_l_new = (1.0 - lam) * p_l + lam * best_response(p_r, "L", params, cfg)
            p_r_new = (1.0 - lam) * p_r + lam * best_response(p_l_new, "R", params, cfg)
            change = max(abs(p_l_new - p_l), abs(p_r_new - p_r))
            p_l, p_r = p_l_new, p_r_new
            trace.append((p_l, p_r))
            if change < cfg.tol_fp:
                converged = iteration
                break
            if len(trace) >= 3 and change > 10.0 * cfg.tol_fp:
                back = trace[-3]
                if max(abs(p_l - back[0]), abs(p_r - back[1])) < cfg.tol_fp:
                    raise ConvergenceError(
                        f"period-2 oscillation after {iteration} iterations "
                        f"(amplitude {change:.3e}); lower cfg.damping",
                        trace,
                    )
        if not converged:
            raise ConvergenceError(
                f"no best-response fixed point within {cfg.max_iter} iterations "
                f"(last change {change:.3e})",
                trace,
            )
        p_l, p_r = _newton_polish(p_l, p_r, params)
    return _certificate(PlatformPair(p_l, p_r), params, cfg, converged, "asymmetric")


def _newton_polish(p_l: float, p_r: float, params: ModelParams) -> tuple[float, float]:
    """A few 2-D Newton steps on the pair of FOCs (cross-partials by
    central differences); drives residuals from ~1e-10 to machine level."""
    h = 1e-6
    sn = noise_scale(params)
    for _ in range(3):
        g_l = _d_euL_d_pL(p_l, p_r, params, sn)
        g_r = _d_euR_d_pR(p_l, p_r, params, sn)
        j_ll = _d2_euL_d_pL2(p_l, p_r, params, sn)
        j_rr = _d2_euR_d_pR2(p_l, p_r, params, sn)
        j_lr = (
            _d_euL_d_pL(p_l, p_r + h, params, sn) - _d_euL_d_pL(p_l, p_r - h, params, sn)
        ) / (2.0 * h)
        j_rl = (
            _d_euR_d_pR(p_l + h, p_r, params, sn) - _d_euR_d_pR(p_l - h, p_r, params, sn)
        ) / (2.0 * h)
        det = j_ll * j_rr - j_lr * j_rl
        if det == 0.0 or not math.isfinite(det):
            break
        step_l = (j_rr * g_l - j_lr * g_r) / det
        step_r = (j_ll * g_r - j_rl * g_l) / det
        # a step that overflows is reported as an invalid profile
        cand_l = _finite("p_L", p_l - step_l)
        cand_r = _finite("p_R", p_r - step_r)
        worse = max(
            abs(_d_euL_d_pL(cand_l, cand_r, params, sn)),
            abs(_d_euR_d_pR(cand_l, cand_r, params, sn)),
        ) > max(abs(g_l), abs(g_r))
        if worse:
            break
        p_l, p_r = cand_l, cand_r
        if max(abs(step_l), abs(step_r)) < 1e-15:
            break
    return p_l, p_r


def find_equilibria(
    params: ModelParams, cfg: SolverConfig | None = None
) -> list[EquilibriumResult]:
    """Run solve_asymmetric from a 3x3 lattice of starting profiles and
    report the distinct fixed points found (sorted by p_L).

    Uniqueness of the asymmetric equilibrium is not established theory;
    this is the empirical multiplicity probe.  Starts that fail to
    converge are skipped — the survivors are what was found, not a
    completeness claim.
    """
    results: list[EquilibriumResult] = []
    for a in (0.1, 0.25, 0.4):
        for b in (0.6, 0.75, 0.9):
            try:
                res = solve_asymmetric(params, cfg, start=(a, b))
            except ConvergenceError:
                continue
            if not any(
                max(
                    abs(res.platforms.p_L - seen.platforms.p_L),
                    abs(res.platforms.p_R - seen.platforms.p_R),
                )
                < 1e-6
                for seen in results
            ):
                results.append(res)
    return sorted(results, key=lambda r: r.platforms.p_L)
