"""Equilibrium computation.

Two entry points:

* :func:`solve_symmetric` — the 1-D problem on the symmetry locus
  mu_v = w(1-2*mu_i).  Its FOC is strictly decreasing on [0, 1/2] with a
  proven sign change, and a quadratic in 1 - 2 p_L: the search starts at
  the closed-form root, and one Newton step from there, which
  :func:`_sym_root` takes itself, usually ends it; otherwise
  :func:`_rtsafe` runs from the same start.

* :func:`solve_asymmetric` — general parameters.  One kernel pair serves
  every step: each party's FOC divided by its own win probability (G_L,
  G_R in :mod:`polarsolve.calculus`), finite where that probability
  underflows, with closed-form partials.  The solve runs 2-D Newton steps
  on (G_L, G_R) from a cold start, clamped to the proven brackets [0, 1/2]
  for L and [1/2, 1] for R, and keeps the point if its certificate
  passes: no other test accepts it.  If Newton declines, it solves the
  reduced FOC (:func:`_reduced_foc`): L's G along R's best responses,
  whose root :func:`_rtsafe` brackets in [0, 1/2], each best response
  the root of G_R by the same search, starting at R's previous response,
  or below the single-peak bound at the argmax of a grid pre-scan.  That
  search always ends, so every solve returns a result whose certificate
  says whether it is an equilibrium.  Both routes end with the same
  finish, which steps with one 2x2 Newton solve (:func:`_pair_step`)
  and returns the Newton distance it computed at its point.  Both routes
  return the point, their iteration count and the certificate.

Each mode has one point function, :func:`_symmetric_point` (the locus
test, the root and the certificate) or :func:`_asymmetric_point` (either
route), which returns (p_L, p_R, iterations, certified); the public solve
evaluates the raw kernel once at that point for its one
``EquilibriumResult``.  A sweep row of either mode calls the point
function and the raw kernel itself and builds no result object; its FD
re-solves take only p_L, from :func:`_sym_root` on the locus and from
:func:`_asymmetric_point` off it.

Every result carries its own certificate (:func:`_certify`): each party's
Newton distance |G/G'| to its root below ``tol_fp`` with G' < 0, and — when
sigma_v sits below the unimodality bound — agreement with the brute-force
grid oracle.  The asymmetric routes pass the distance their finish
returned, so the certificate evaluates no kernel of its own; the
symmetric ones evaluate the pair once at their root.  The raw FOC
residuals and second derivatives are reported beside it.

Each solve is set up once by :func:`_at`: the instance at weight w, whose
``single_peaked_guaranteed`` the certificate and the fallback read.
Below the bound each public entry, :func:`polarsolve.analysis.sweep_w`
included, warns once; the point functions, :func:`_solve_asymmetric_at`
and the sweep rows never warn.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Literal

from .calculus import (
    _PHI0,
    _foc_symmetric,
    _foc_symmetric_derivative,
    _raw_pair,
    _scaled_foc_L,
    _scaled_foc_R,
)
from .errors import (
    InvalidParamsError,
    SinglePeakednessWarning,
    SpanTooSmallError,
    SymmetryLocusError,
)
from .model import ModelParams, PlatformPair, _checked_noise_scale, _finite, _instance, noise_scale

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

#: :func:`solve_asymmetric`'s default start, (p_L, p_R).
_START = (0.25, 0.75)


@dataclass(frozen=True, slots=True)
class SolverConfig:
    """Tunables for both solvers; the defaults satisfy every tolerance
    used by the verification suite."""

    tol_root: float = 1e-12       # _rtsafe's stop: a step shorter than this
    tol_fp: float = 1e-10         # platform change to stop; certificate's |G/G'| bound
    max_iter: int = 500           # budget of the pair Newton steps

    def __post_init__(self) -> None:
        for name in ("tol_root", "tol_fp"):
            _finite(name, getattr(self, name))
        if not (self.tol_root > 0.0 and self.tol_fp > 0.0):
            raise InvalidParamsError("solver tolerances must be positive")
        if type(self.max_iter) is not int or self.max_iter < 1:
            raise InvalidParamsError(f"max_iter must be an int >= 1, got {self.max_iter!r}")


@dataclass(frozen=True, slots=True)
class EquilibriumResult:
    """A solved profile plus its certificate.  ``iterations`` counts the
    symmetric root's FOC evaluations, the pair Newton's steps, or the
    reduced FOC's evaluations on the fallback."""

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


def _config(params: ModelParams, cfg: SolverConfig | None) -> SolverConfig:
    """Check ``params`` at a public entry and return ``cfg``, or the defaults
    for ``None``; an argument of the wrong type is an :class:`InvalidParamsError`."""
    _instance("params", params, ModelParams)
    return SolverConfig() if cfg is None else _instance("cfg", cfg, SolverConfig)


def _warn_single_peakedness(params: ModelParams) -> None:
    """Warn below the unimodality bound, naming the line that called the
    public entry: each public solve and sweep calls this once, itself."""
    if params.single_peaked_guaranteed:
        return
    warnings.warn(
        f"sigma_v={params.sigma_v:g} is below the unimodality bound "
        f"sqrt(32/3125)~0.10119; single-peakedness is not guaranteed, so "
        f"results are certified against the grid oracle, and an asymmetric "
        f"solve whose pair Newton declines runs a global grid pre-scan in "
        f"every best response",
        SinglePeakednessWarning,
        stacklevel=3,
    )


def _grid_certified(pp: PlatformPair, params: ModelParams) -> bool:
    """Below the unimodality bound: confirm each platform is the global
    argmax on the 1e-4 oracle grid (to one grid-cell slack each side)."""
    from .oracle import grid_best_response  # numpy loads only below the bound

    try:
        g_l = grid_best_response(pp.p_R, "L", params, grid_step=1e-4)
        g_r = grid_best_response(pp.p_L, "R", params, grid_step=1e-4)
    except SpanTooSmallError:
        return False
    return abs(g_l - pp.p_L) <= 1e-3 and abs(g_r - pp.p_R) <= 1e-3


def _scaled_pair(p_l: float, p_r: float, params: ModelParams, sn: float) -> tuple:
    """The larger Newton distance |G/G'| of the scaled FOCs to their roots
    (``inf`` unless both own slopes G' are negative) and both kernels' values."""
    g_l, g_r = _scaled_foc_L(p_l, p_r, params, sn), _scaled_foc_R(p_l, p_r, params, sn)
    if not (g_l[1] < 0.0 and g_r[1] < 0.0):
        return math.inf, g_l, g_r
    return max(abs(g_l[0] / g_l[1]), abs(g_r[0] / g_r[1])), g_l, g_r


@dataclass(slots=True)
class _AtW:
    """The fields the kernels read: an unchecked stand-in for
    ``replace(params, w=w)`` above the single-peak bound, which it
    reports as ``ModelParams`` does.  A slots class, not a named tuple:
    the kernels' attribute reads take the interpreter's fast slot path."""

    V: float
    w: float
    mu_i: float
    mu_v: float
    single_peaked_guaranteed = True


def _at(params: ModelParams, w: float) -> tuple[ModelParams | _AtW, float]:
    """The instance at weight ``w`` and its noise scale, checked once for
    a whole solve.  Above the single-peak bound it is an :class:`_AtW`;
    below it a ``ModelParams``, which the grid oracle reads."""
    sn = _checked_noise_scale(w, params.sigma_i, params.sigma_v)
    if params.single_peaked_guaranteed:
        return _AtW(params.V, w, params.mu_i, params.mu_v), sn
    return (params if w == params.w else replace(params, w=w)), sn


def _certify(
    p_l: float, p_r: float, dist: float, at: ModelParams | _AtW, cfg: SolverConfig
) -> bool:
    """The certificate's decision on the profile (p_l, p_r) for the
    instance ``at``, given ``dist``, the larger Newton distance |G/G'|
    there (:func:`_scaled_pair`'s first value, which the Newton finish has
    already computed): whether it is below ``cfg.tol_fp`` and, below the
    single-peak bound, the grid oracle agrees.  Every point function's
    certificate, and so every solve's and every sweep row's, is decided
    here."""
    return dist < cfg.tol_fp and (
        at.single_peaked_guaranteed or _grid_certified(PlatformPair(p_l, p_r), at)
    )


def _result(
    at: ModelParams | _AtW, sn: float, p_l: float, p_r: float, iterations: int,
    certified: bool, kind: Literal["symmetric", "asymmetric"],
) -> EquilibriumResult:
    """The :class:`EquilibriumResult` of a solve that ended at (p_l, p_r)
    with the certificate ``certified``: :func:`_raw_pair`'s residuals,
    second derivatives and win probability beside it."""
    f_l, f_r, s_l, s_r, pr_l = _raw_pair(p_l, p_r, at, sn)
    return EquilibriumResult(
        platforms=PlatformPair(p_l, p_r),
        pr_L=pr_l,
        foc_residual_L=f_l,
        foc_residual_R=f_r,
        soc_L=s_l,
        soc_R=s_r,
        iterations=iterations,
        certified=certified,
        kind=kind,
    )


def _symmetric_closed_form(V: float, w: float, sn: float) -> float:
    """Root of the symmetric FOC from its quadratic in x = 1 - 2 p_L,
    a x^2 + b x - 1/2 = 0 with a = phi(0)/sn and b = phi(0)(V+w)/sn + 1/2,
    in the stable form x = 1/(b + sqrt(b^2 + 2a)): the start of
    :func:`_sym_root`'s search, a few ulps from the computed FOC's sign
    change, so one Newton step from it usually ends the search."""
    a = _PHI0 / sn
    b = _PHI0 * (V + w) / sn + 0.5
    return 0.5 * (1.0 - 1.0 / (b + math.sqrt(b * b + 2.0 * a)))


def _sym_root(V: float, w: float, sn: float, tol: float) -> tuple[float, int]:
    """:func:`symmetric_foc_root` of plain floats, given ``sn``.

    The Newton step from the closed form is taken here, without
    :func:`_rtsafe`'s frame, exactly where the search's first iteration
    would return it: f and f' finite, f' != 0, the step shorter than
    ``tol`` and landing inside [0, 1/2] once f has moved the bracket's end
    of its sign to the start.  Any other start goes to :func:`_rtsafe`
    from the same point, so the root and the evaluation count are the
    search's either way."""
    x = _symmetric_closed_form(V, w, sn)
    f, df = _foc_symmetric(x, V, w, sn), _foc_symmetric_derivative(x, V, w, sn)
    if math.isfinite(f) and math.isfinite(df) and df != 0.0:
        dx = f / df
        x_new = x - dx
        if abs(dx) < tol and (x if f > 0.0 else 0.0) <= x_new <= (x if f < 0.0 else 0.5):
            return x_new, 1
    fdf = lambda p: (_foc_symmetric(p, V, w, sn), _foc_symmetric_derivative(p, V, w, sn), None)
    return _rtsafe(fdf, 0.0, 0.5, x, tol)


def symmetric_foc_root(
    params: ModelParams, cfg: SolverConfig | None = None
) -> tuple[float, int]:
    """Unique root of the symmetric FOC on [0, 1/2] and the number of FOC
    evaluations it took.

    The FOC is strictly decreasing with foc(0) > 0 > foc(1/2) = -1/2, so
    :func:`_rtsafe` on that bracket cannot fail; started at the FOC's
    closed-form root, it usually ends after one Newton step shorter than
    ``cfg.tol_root``, at the correctly rounded root or a few ulps from it.
    Meaningful for any valid params (the FOC does not involve mu_i or mu_v);
    whether the profile is an equilibrium is answered by :func:`solve_symmetric`.
    """
    cfg = _config(params, cfg)
    return _sym_root(params.V, params.w, noise_scale(params), cfg.tol_root)


def solve_symmetric(params: ModelParams, cfg: SolverConfig | None = None) -> EquilibriumResult:
    """Unique symmetric equilibrium p_R* = 1 - p_L* on the symmetry locus.

    The root is :func:`symmetric_foc_root`'s, and ``iterations`` counts its
    FOC evaluations.  Raises :class:`SymmetryLocusError` when
    mu_v != w(1-2*mu_i) (within ``LOCUS_TOL``); off the locus no symmetric
    equilibrium exists and :func:`solve_asymmetric` is the right call.
    """
    cfg = _config(params, cfg)
    _warn_single_peakedness(params)
    at, sn = _at(params, params.w)
    return _result(at, sn, *_symmetric_point(at, sn, cfg), "symmetric")


def _symmetric_point(
    at: ModelParams | _AtW, sn: float, cfg: SolverConfig
) -> tuple[float, float, int, bool]:
    """The point of :func:`solve_symmetric` on the instance ``at``: the
    platforms, the root's FOC evaluations and the certificate, with no
    result object and no :func:`_raw_pair`.  :class:`SymmetryLocusError`
    unless ``at`` lies on the symmetry locus mu_v = w(1-2*mu_i), within
    ``LOCUS_TOL``.  A symmetric sweep row calls this directly."""
    w = at.w
    locus_gap = at.mu_v - w * (1.0 - 2.0 * at.mu_i)
    if abs(locus_gap) > LOCUS_TOL:
        raise SymmetryLocusError(
            f"mu_v={at.mu_v:g} is off the symmetry locus "
            f"w(1-2*mu_i)={w * (1.0 - 2.0 * at.mu_i):g} "
            f"(gap {locus_gap:.3e}); use solve_asymmetric"
        )
    p, iterations = _sym_root(at.V, w, sn, cfg.tol_root)
    q = 1.0 - p
    return p, q, iterations, _certify(p, q, _scaled_pair(p, q, at, sn)[0], at, cfg)


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
    larger stake.  L's FOC divided by its win probability, G_L, is
    positive at 0 and -1 at 1/2; the search runs safeguarded Newton steps
    on it from the bracket's midpoint to ``cfg.tol_root``.  R's bracket is
    the mirror [1/2, 1].  Below the single-peak bound a 1e-4-grid pre-scan
    first narrows the bracket to its argmax +- 1e-4 and starts there.
    The arguments are checked once here; the search (:func:`_best_response`),
    which reads the bound from ``params``, runs on plain floats with the
    noise scale computed once.
    """
    cfg = _config(params, cfg)
    if party not in ("L", "R"):
        raise InvalidParamsError(f"party must be 'L' or 'R', got {party!r}")
    opp = _finite("p_R" if party == "L" else "p_L", opponent_policy)
    return _best_response(opp, party, params, noise_scale(params), cfg)


def _rtsafe(
    fdf: Callable[[float], tuple[float, ...]], lo: float, hi: float, x: float, tol: float
) -> tuple[float, int]:
    """Sign change of f on [lo, hi], with f(lo) > 0 > f(hi), by Newton from
    ``x`` in [lo, hi] safeguarded by bisection ("rtsafe", Press et al.,
    *Numerical Recipes*, 9.4): the root and the number of ``fdf`` calls.
    ``fdf(x)`` returns f(x), f'(x) and a third value that is ignored (the
    scaled FOCs' cross partial): unpacking a triple costs less than a slice.

    Each value moves the bracket's end of its sign.  A Newton step is taken
    when it lands in [lo, hi], ends included, and is shorter than ``tol`` or
    at most half the step before; otherwise, as where f or f' is not finite,
    the bracket is halved.  Returns after a step shorter than ``tol`` or once
    the iterate stops moving, so any ``tol > 0`` terminates.
    """
    step = hi - lo
    evaluations = 0
    while True:
        f, df, _ = fdf(x)
        evaluations += 1
        if f > 0.0:
            lo = x
        elif f < 0.0:
            hi = x
        finite = math.isfinite(f) and math.isfinite(df) and df != 0.0
        dx = f / df if finite else math.inf
        x_new = x - dx
        if not (lo <= x_new <= hi and (abs(dx) < tol or 2.0 * abs(dx) <= step)):
            x_new = 0.5 * (lo + hi)
            dx = hi - x_new
            if x_new == lo or x_new == hi:
                return x_new, evaluations
        if abs(dx) < tol or x_new == x:
            return x_new, evaluations
        step, x = abs(dx), x_new


def _best_response(
    opp: float, party: Literal["L", "R"], params: ModelParams, sn: float, cfg: SolverConfig,
    guess: float | None = None,
) -> float:
    """:func:`best_response` of a checked opponent, given ``sn``: the root
    of the party's scaled FOC by :func:`_rtsafe` to ``cfg.tol_root``.

    Below the single-peak bound of ``params`` the search starts at the
    1e-4 grid argmax inside its +- 1e-4 bracket and ``guess`` is ignored.
    Above it the search starts at ``guess`` (R's previous response, inside
    :func:`_reduced_foc`) when that lies in the party's bracket, else at
    the bracket's midpoint.
    """
    if party == "L":
        lo, hi = 0.0, 0.5
        fdf = lambda x: _scaled_foc_L(x, opp, params, sn)
    else:
        lo, hi = 0.5, 1.0
        fdf = lambda x: _scaled_foc_R(opp, x, params, sn)
    if not params.single_peaked_guaranteed:
        from .oracle import grid_best_response  # numpy loads only below the bound

        # the default span contains the bracket, so the argmax is interior
        guess = grid_best_response(opp, party, params, grid_step=1e-4)
        lo, hi = max(lo, guess - 1e-4), min(hi, guess + 1e-4)
    elif guess is None or not lo <= guess <= hi:
        guess = 0.5 * (lo + hi)
    return _rtsafe(fdf, lo, hi, guess, cfg.tol_root)[0]


def solve_asymmetric(
    params: ModelParams,
    cfg: SolverConfig | None = None,
    start: tuple[float, float] = _START,
) -> EquilibriumResult:
    """Equilibrium by 2-D Newton on the scaled FOC pair, with the
    best-response-reduced FOC as the fallback.

    The solve first runs Newton steps on (G_L, G_R) from ``start``
    (:func:`_pair_newton`), each iterate clamped to the proven brackets
    [0, 1/2] x [1/2, 1], and after the Newton finish accepts the point
    only if it passes the certificate, which below the single-peak bound
    includes the grid oracle; ``iterations`` then counts Newton steps.
    Otherwise the solve runs :func:`_reduced_foc` from ``start``: the root of
    H(p_L) = G_L(p_L, BR_R(p_L)) by safeguarded Newton steps on [0, 1/2],
    where H changes sign for any R, then the Newton finish; ``iterations``
    counts evaluations of H.  The search starts at ``start``'s p_L and,
    above the bound, each of R's best responses at the previous one
    (``start``'s p_R first); an entry outside its party's bracket is
    replaced by the bracket's midpoint.  Below the bound a warm search may
    stop on a local maximum, so each of R's best responses starts at the
    argmax of a grid pre-scan.  Either route ends in a result, certified
    or not.
    ``start`` must be a pair of finite reals; it is checked once here.
    """
    cfg = _config(params, cfg)
    try:
        p_l, p_r = start
    except (TypeError, ValueError):
        raise InvalidParamsError(f"start must be a pair (p_L, p_R), got {start!r}") from None
    p_l, p_r = _finite("p_L", p_l), _finite("p_R", p_r)
    _warn_single_peakedness(params)
    return _solve_asymmetric_at(params, cfg, p_l, p_r)


def _solve_asymmetric_at(
    params: ModelParams, cfg: SolverConfig, p_l: float, p_r: float
) -> EquilibriumResult:
    """:func:`solve_asymmetric` from a checked start, without the warning,
    on the instance :func:`_at` sets up.  :func:`find_equilibria`'s starts
    and :func:`~polarsolve.analysis.classify_moderate` call this directly."""
    at, sn = _at(params, params.w)
    return _result(at, sn, *_asymmetric_point(p_l, p_r, at, sn, cfg), "asymmetric")


def _asymmetric_point(
    p_l: float, p_r: float, at: ModelParams | _AtW, sn: float, cfg: SolverConfig
) -> tuple[float, float, int, bool]:
    """The point of :func:`_solve_asymmetric_at` on the instance ``at``:
    the platforms, the iteration count and the certificate, with no result
    object and no :func:`_raw_pair`.  An asymmetric sweep row and its FD
    re-solves call this directly."""
    return _pair_newton(p_l, p_r, at, sn, cfg) or _reduced_foc(p_l, p_r, at, sn, cfg)


def _pair_newton(
    p_l: float, p_r: float, at: ModelParams | _AtW, sn: float, cfg: SolverConfig
) -> tuple[float, float, int, bool] | None:
    """Cold 2-D Newton on (G_L, G_R) from (p_l, p_r): the point, the number
    of Newton steps and its certificate (``True``), or ``None`` to decline.

    Every iterate is clamped to [0, 1/2] x [1/2, 1]; the loop stops after a
    step shorter than ``cfg.tol_fp``, within ``cfg.max_iter`` steps.  The
    point is kept only if, after the Newton finish, the certificate
    passes on the distance the finish returns, which requires both own
    slopes G' < 0: a root of the pair where a payoff has a minimum is
    declined."""
    p_l, p_r = min(max(p_l, 0.0), 0.5), min(max(p_r, 0.5), 1.0)
    for steps in range(1, cfg.max_iter + 1):
        step = _pair_step(_scaled_foc_L(p_l, p_r, at, sn), _scaled_foc_R(p_l, p_r, at, sn))
        if step is None or not (math.isfinite(step[0]) and math.isfinite(step[1])):
            return None
        new_l, new_r = min(max(p_l - step[0], 0.0), 0.5), min(max(p_r - step[1], 0.5), 1.0)
        moved = max(abs(new_l - p_l), abs(new_r - p_r))
        p_l, p_r = new_l, new_r
        if moved < cfg.tol_fp:
            break
    else:
        return None
    p_l, p_r, dist = _newton_polish(p_l, p_r, at, sn)
    return (p_l, p_r, steps, True) if _certify(p_l, p_r, dist, at, cfg) else None


def _reduced_foc(
    p_l: float, p_r: float, at: ModelParams | _AtW, sn: float, cfg: SolverConfig
) -> tuple[float, float, int, bool]:
    """:func:`solve_asymmetric`'s fallback from (p_l, p_r) on the instance
    ``at``: the root of L's scaled FOC along R's best responses,
    H(p_L) = G_L(p_L, BR_R(p_L)), by :func:`_rtsafe` on [0, 1/2] to
    ``cfg.tol_root``, then the Newton finish; returns the point, the
    number of evaluations of H and the certificate on the finish's distance.

    H(0) > 0 and H(1/2) = -1 whatever R plays, so the search ends for any
    tolerance.  H' comes from the implicit function theorem on G_R = 0:
    dG_L/dp_L - dG_L/dp_R (dG_R/dp_L) / (dG_R/dp_R), from the kernels'
    closed-form partials.  Each BR_R is :func:`_best_response`'s: above the
    single-peak bound it starts at the previous evaluation's response
    (``p_r`` first), below it at the argmax of a grid pre-scan.  The
    finish starts from the search's root and the last best response it
    evaluated.  ``iterations`` counts evaluations of H."""
    br_r = p_r

    def h(x: float) -> tuple[float, float, None]:
        nonlocal br_r
        br_r = _best_response(x, "R", at, sn, cfg, br_r)
        g_l, j_ll, j_lr = _scaled_foc_L(x, br_r, at, sn)
        _, j_rr, j_rl = _scaled_foc_R(x, br_r, at, sn)
        return g_l, j_ll - j_lr * j_rl / j_rr if j_rr else math.nan, None  # nan: bisect

    p_l, evaluations = _rtsafe(h, 0.0, 0.5, p_l if 0.0 <= p_l <= 0.5 else 0.25, cfg.tol_root)
    p_l, p_r, dist = _newton_polish(p_l, br_r, at, sn)
    return p_l, p_r, evaluations, _certify(p_l, p_r, dist, at, cfg)


def _pair_step(scaled_l: tuple, scaled_r: tuple) -> tuple[float, float] | None:
    """The 2-D Newton step on (G_L, G_R) from both kernels' values and its
    closed-form Jacobian, or ``None`` where the Jacobian is singular or
    not finite."""
    (g_l, j_ll, j_lr), (g_r, j_rr, j_rl) = scaled_l, scaled_r
    det = j_ll * j_rr - j_lr * j_rl
    if det == 0.0 or not math.isfinite(det):
        return None
    return (j_rr * g_l - j_lr * g_r) / det, (j_ll * g_r - j_rl * g_l) / det


def _newton_polish(
    p_l: float, p_r: float, params: ModelParams, sn: float
) -> tuple[float, float, float]:
    """The finish: at most three :func:`_pair_step` steps, one kernel pair
    per iterate; a step is kept only if the larger distance to the roots,
    |G/G'|, does not grow.  Returns the point and that distance there,
    which the certificate reads instead of evaluating the pair again."""
    dist, scaled_l, scaled_r = _scaled_pair(p_l, p_r, params, sn)
    for _ in range(3):
        step = _pair_step(scaled_l, scaled_r)
        if step is None:
            break
        step_l, step_r = step
        # a step that overflows is reported as an invalid profile
        cand_l, cand_r = _finite("p_L", p_l - step_l), _finite("p_R", p_r - step_r)
        cand, scaled_l, scaled_r = _scaled_pair(cand_l, cand_r, params, sn)
        if not cand <= dist:  # farther from the roots: keep the iterate
            break
        p_l, p_r, dist = cand_l, cand_r, cand
        if max(abs(step_l), abs(step_r)) < 1e-15:
            break
    return p_l, p_r, dist


def find_equilibria(
    params: ModelParams, cfg: SolverConfig | None = None
) -> list[EquilibriumResult]:
    """Run solve_asymmetric from a 3x3 lattice of starting profiles and
    report the distinct fixed points found (sorted by p_L).

    Uniqueness of the asymmetric equilibrium is not established theory;
    this is the empirical multiplicity probe.  Every start ends in a
    result, certified or not; the distinct ones are what was found, not a
    completeness claim.
    """
    cfg = _config(params, cfg)
    _warn_single_peakedness(params)
    results: list[EquilibriumResult] = []
    for a in (0.1, 0.25, 0.4):
        for b in (0.6, 0.75, 0.9):
            res = _solve_asymmetric_at(params, cfg, a, b)
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
