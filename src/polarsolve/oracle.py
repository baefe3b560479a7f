"""Brute-force ground truth.

Nothing in this module knows any analytic shortcut: best responses are
grid argmaxes of the expected utilities, win probabilities are
Monte Carlo frequencies of the voter's literal decision rule, and
peak counting is a direct scan.  The rest of the package is certified
against these routines, never the other way around.

The grid scans compute the payoff's terms over the whole grid in one numpy
pass, in place in the calling thread's work arrays.  The peak scan's raw
payoff repeats the formulas of :func:`expected_utility_L` and
:func:`expected_utility_R` operation for operation, and takes the normal
CDF by the scalar ``math.erfc`` per element with the scalar clamp
(:func:`_std_normal_cdf_array`), so every grid value has the same bits as
the scalar call at that point.  The grid best response
ranks the same payoff less the party's sure-loss payoff, and takes the CDF
exactly only in the blocks of the grid whose upper bound can reach the
maximum.

The Monte Carlo oracle makes one pass over each batch's draws: it draws the
batch's ideal points into one buffer, then runs the valence draws and the
vote rule over cache-sized chunks, in buffers reused for the whole call, so
no batch-sized temporary is made.  Each element goes through the IEEE
operations of the whole-batch expressions in the same order, so the counts
are theirs.  With :mod:`polarsolve.verify`, this is the only module that
imports numpy.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import DomainError, InvalidParamsError, SpanTooSmallError
from .gaussmath import _CDF_CLAMP, _INV_SQRT_2, _require_finite
from .model import ModelParams, PlatformPair, _finite, _instance, noise_scale

__all__ = [
    "OracleReport",
    "ShapeVerdict",
    "DEFAULT_SPAN",
    "grid_best_response",
    "mc_win_probability",
    "peak_scan",
]

#: Default search span for grid scans; generous relative to the interior
#: (0, 1) band where equilibria live.
DEFAULT_SPAN: tuple[float, float] = (-0.5, 1.5)

#: Monte Carlo draws are generated in batches of this size, each batch
#: seeded independently from (seed, batch index), so the reduction is a
#: plain order-independent integer sum.
_MC_BATCH = 250_000

#: The vote rule runs over a batch in chunks of this many draws, in buffers
#: small enough to stay in cache from one operation to the next.
_MC_CHUNK = 16_384

#: The grid best response bounds its gaps over blocks of this many points.
_BLOCK = 128

#: Per-thread work arrays of the grid scans (:func:`_work_arrays`), kept for
#: grids of at most this many points (the default grid has 20,001).
_work = threading.local()
_WORK_MAX = 1 << 16


@dataclass(frozen=True, slots=True)
class OracleReport:
    """Outcome of one brute-force cross-check."""

    kind: Literal["grid_br", "mc_winprob", "peak_scan"]
    max_discrepancy: float
    passed: bool
    sample_size: int | None = None
    grid_step: float | None = None
    seed: int | None = None


@dataclass(frozen=True, slots=True)
class ShapeVerdict:
    """Result of a single-peakedness scan."""

    unimodal: bool
    n_local_maxima: int


@functools.lru_cache(maxsize=8)
def _grid_columns(lo: float, hi: float, grid_step: float) -> tuple[np.ndarray, ...]:
    """The grid and its columns ``x**2`` and ``(1-x)**2``, read-only.

    The squares come from Python's ``**`` (libm ``pow``), as in the scalar
    payoffs; numpy's ``x**2`` is ``x*x``, which differs from ``pow`` in
    the last bit on some inputs.  A square past the float range (|x| above
    about 1.34e154) is an :class:`InvalidParamsError` naming the span."""
    n = int(round((hi - lo) / grid_step))
    xs = [lo + k * grid_step for k in range(n + 1)]
    try:
        columns = (xs, [x**2 for x in xs], [(1.0 - x) ** 2 for x in xs])
    except OverflowError:
        raise InvalidParamsError(
            f"span={(lo, hi)} holds grid points whose squares overflow"
        ) from None
    arrays = tuple(np.array(c, dtype=np.float64) for c in columns)
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _work_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Two float64 arrays of n elements owned by the calling thread: the
    first n elements of the two largest it has asked for so far.

    A grid scan builds its terms in these rather than in new arrays: whether
    a new grid-sized array comes from the heap or from a fresh mapping
    depends on the allocator's state, and in the second case every scan
    pays the page faults of zeroing its pages again.  A grid of over
    :data:`_WORK_MAX` points gets new arrays, so that no thread holds on
    to one of its size."""
    if n > _WORK_MAX:
        return np.empty(n), np.empty(n)
    arrays = getattr(_work, "arrays", None)
    if arrays is None or arrays[0].size < n:
        arrays = _work.arrays = (np.empty(n), np.empty(n))
    return arrays[0][:n], arrays[1][:n]


def _erfc(x: np.ndarray) -> np.ndarray:
    """``math.erfc`` of every element of a float64 array, as a new float64
    array; numpy has no erfc of its own."""
    return np.fromiter(map(math.erfc, x.tolist()), np.float64, x.size)


def _require_all_finite(x: np.ndarray) -> None:
    """Raise the scalar call's :class:`DomainError` for the first
    non-finite element."""
    finite = np.isfinite(x)
    if not finite.all():
        _require_finite(float(x[~finite][0]))


def _std_normal_cdf_array(x: np.ndarray) -> np.ndarray:
    """:func:`~polarsolve.gaussmath.std_normal_cdf` of every element of a
    float64 array, bit for bit: the same clamp to exact 0/1 past +-38, and
    the same ``math.erfc`` call per element inside it (only there)."""
    _require_all_finite(x)
    cdf = (x > _CDF_CLAMP).astype(np.float64)
    inside = np.abs(x) <= _CDF_CLAMP
    cdf[inside] = 0.5 * _erfc(-x[inside] * _INV_SQRT_2)
    return cdf


def _grid_terms(
    opponent_policy: float, party: Literal["L", "R"], params: ModelParams,
    span: tuple[float, float], grid_step: float,
) -> tuple[np.ndarray, ...]:
    """The grid, L's margin kappa at every grid point, and there the party's
    payoff if it wins and its cost if it loses (the sure-loss payoff is minus
    that), each computed as :func:`win_margin` and the payoffs compute it.

    kappa and the win payoff are built in place, one operation at a time in
    the scalar call's order, in the calling thread's :func:`_work_arrays`:
    the caller is done with them before that thread's next grid scan."""
    try:
        lo, hi = span
    except (TypeError, ValueError):
        raise InvalidParamsError(f"span must be a pair (lo, hi), got {span!r}") from None
    lo, hi = _finite("span lo", lo), _finite("span hi", hi)
    grid_step = _finite("grid_step", grid_step)
    if not grid_step > 0.0:
        raise InvalidParamsError(f"grid_step must be positive and finite, got {grid_step}")
    if not lo < hi:
        raise InvalidParamsError(f"span must be a nonempty interval, got {span}")
    # round((hi - lo) / grid_step) + 1 points, at most 10^6; an inf or NaN ratio fails
    if not (hi - lo) / grid_step < 1e6 - 0.5:
        raise InvalidParamsError(f"span={span} at grid_step={grid_step} has over 10^6 grid points")
    xs, xs_sq, one_minus_xs_sq = _grid_columns(lo, hi, grid_step)
    if party not in ("L", "R"):
        raise InvalidParamsError(f"party must be 'L' or 'R', got {party!r}")
    opp = _finite("p_R" if party == "L" else "p_L", opponent_policy)
    _instance("params", params, ModelParams)
    k, win = _work_arrays(xs.size)
    np.multiply(xs, np.subtract(1.0, xs, out=k), out=k)  # the own term x (1 - x)
    opp_term = opp * (1.0 - opp)
    if party == "L":
        np.subtract(k, opp_term, out=k)  # the lead
        np.subtract(params.V, xs_sq, out=win)
        lose = params.w + opp**2
    else:
        np.subtract(opp_term, k, out=k)
        np.subtract(params.V, one_minus_xs_sq, out=win)
        lose = params.w + (1.0 - opp) ** 2
    np.add(k, params.w * (1.0 - 2.0 * params.mu_i), out=k)
    np.subtract(k, params.mu_v, out=k)
    return xs, np.divide(k, noise_scale(params), out=k), win, lose


def _grid_payoffs(
    opponent_policy: float, party: Literal["L", "R"], params: ModelParams,
    span: tuple[float, float], grid_step: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The grid and the party's raw expected utility at every grid point,
    with the scalar call's bits."""
    xs, k, win, lose = _grid_terms(opponent_policy, party, params, span, grid_step)
    pr = _std_normal_cdf_array(k)
    return xs, pr * win - (1.0 - pr) * lose if party == "L" else (1.0 - pr) * win - pr * lose


def grid_best_response(
    opponent_policy: float,
    party: Literal["L", "R"],
    params: ModelParams,
    grid_step: float = 1e-4,
    span: tuple[float, float] = DEFAULT_SPAN,
) -> float:
    """Argmax of the party's expected utility on a uniform grid.

    It maximizes the payoff less the sure-loss payoff, a constant: the
    party's own win probability Phi(y), with y = kappa for L and -kappa for
    R, taken by ``math.erfc`` (never as 1 - Phi), times its stake, the
    payoff of winning less that of losing.  Where the party surely loses,
    the raw payoff is flat to its last bit; the gap ranks the points down
    to Phi(-38).  Exact value ties break toward the point nearest 1/2
    (then the smaller point).  A NaN gap, an infinite stake times Phi = 0,
    leaves no argmax and raises :class:`DomainError`.  An argmax on the
    edge of ``span`` means the span was too small to contain the response
    and raises :class:`SpanTooSmallError` rather than returning a clipped
    answer.

    The scan takes Phi exactly only where the maximum can lie.  Phi is
    increasing, so no gap in a block of the grid exceeds Phi at the
    block's largest y times its largest stake (the smallest y if every
    stake is negative).  Phi is taken at each block's bound point, then
    over the block of highest bound, whose largest gap is a floor; only
    the blocks whose bound reaches the floor are scanned exactly.  Every
    point of the maximum gap lies in those, so the answer is the full
    scan's.
    """
    xs, k, win, lose = _grid_terms(opponent_policy, party, params, span, grid_step)
    y = k if party == "L" else np.negative(k, out=k)
    stake = np.add(win, lose, out=win)
    _require_all_finite(y)
    starts = np.arange(0, y.size, _BLOCK)
    stake_hi = np.maximum.reduceat(stake, starts)
    y_bound = np.maximum.reduceat(y, starts)
    negative = stake_hi < 0.0
    if negative.any():
        y_bound[negative] = np.minimum.reduceat(y, starts)[negative]
    phi = _std_normal_cdf_array(y_bound)
    # erfc is not monotone to its last ulp (glibc's steps back by one near
    # 1.25): pad Phi by 1e-12 of itself, and by 1e-320 where that rounds
    # away among the subnormals
    pad = phi * 1e-12 + 1e-320
    bound = np.where(negative, np.maximum(phi - pad, 0.0), phi + pad) * stake_hi
    first = starts[np.argmax(bound)]
    top = slice(first, first + _BLOCK)
    floor = (_std_normal_cdf_array(y[top]) * stake[top]).max()
    # not "bound >= floor": a NaN floor (an inf stake times Phi = 0) prunes nothing
    keep = ~(bound < floor)
    scan_xs = xs
    if not keep.all():
        at = (starts[keep, None] + np.arange(_BLOCK)).ravel()
        at = at[at < y.size]
        scan_xs, y, stake = xs[at], y[at], stake[at]
    gaps = np.multiply(_std_normal_cdf_array(y), stake, out=stake)
    best = gaps.max()
    if math.isnan(best):
        raise DomainError(
            f"grid gaps for party {party} are NaN (an infinite stake where its "
            f"win probability is 0), so no grid point is the argmax"
        )
    candidates = scan_xs[gaps == best]
    # the first, so the smaller, of the points nearest 1/2
    response = float(candidates[np.argmin(np.abs(candidates - 0.5))])
    if response == xs[0] or response == xs[-1]:
        raise SpanTooSmallError(
            f"grid argmax for party {party} sits on the span edge at {response}; "
            f"widen span={span}"
        )
    return response


def mc_win_probability(
    pp: PlatformPair, params: ModelParams, n_samples: int, seed: int
) -> float:
    """Monte Carlo estimate of Pr(L wins) from the voter's raw decision rule.

    Draws (i_hat, v), computes both offered utilities and counts the
    elections where u(i_L, p_L) > u(i_R, p_R) + v — the literal vote
    rule, not the reduced normal form, so agreement with
    ``win_probability_L`` is a genuine cross-check.  The strict
    inequality decides measure-zero ties for R; no draw ever lands there
    in practice.  Bit-reproducible for a given seed.

    Each batch of :data:`_MC_BATCH` draws has its own generator,
    ``default_rng([seed, batch index])``, and draws all its i_hat before
    its v.  The i_hat go into one buffer as standard normals; the v are
    drawn, and the vote rule run, :data:`_MC_CHUNK` elements at a time in
    buffers allocated once per call.  ``normal(loc, scale)`` is a standard
    normal times scale plus loc, and standard normals drawn chunk by chunk
    are the stream of one call, so scaling in place keeps every draw's bits.
    u_L is ``(-w * (i_hat - i_L)**2) - (p_hat_V - p_L)**2`` and the right
    side ``((-w * (i_hat - i_R)**2) - (p_hat_V - p_R)**2) + v``, the policy
    costs squared once by Python's ``**`` and each ideology square the
    product ``x * x``, as numpy's ``**2`` takes it: the operations of the
    whole-batch expressions in their order, so their count.
    """
    _instance("pp", pp, PlatformPair)
    _instance("params", params, ModelParams)
    if type(n_samples) is not int or n_samples < 10_000:
        raise InvalidParamsError(f"n_samples must be an int >= 10000, got {n_samples!r}")
    if type(seed) is not int or seed < 0:
        raise InvalidParamsError(f"seed must be a non-negative int, got {seed!r}")
    neg_w = -params.w
    cost_l = (params.p_hat_V - pp.p_L) ** 2
    cost_r = (params.p_hat_V - pp.p_R) ** 2
    i_batch = np.empty(min(_MC_BATCH, n_samples))
    v_buf, u_l_buf, u_r_buf = np.empty(_MC_CHUNK), np.empty(_MC_CHUNK), np.empty(_MC_CHUNK)
    vote_buf = np.empty(_MC_CHUNK, dtype=bool)
    wins = 0
    for batch_index, start in enumerate(range(0, n_samples, _MC_BATCH)):
        m = min(_MC_BATCH, n_samples - start)
        rng = np.random.default_rng([seed, batch_index])
        rng.standard_normal(out=i_batch[:m])  # every i_hat of the batch before any v
        for lo in range(0, m, _MC_CHUNK):
            n = min(_MC_CHUNK, m - lo)
            i_hat = i_batch[lo:lo + n]
            i_hat *= params.sigma_i
            i_hat += params.mu_i
            v = rng.standard_normal(out=v_buf[:n])
            v *= params.sigma_v
            v += params.mu_v
            u_l = np.subtract(i_hat, params.i_L, out=u_l_buf[:n])
            u_l *= u_l
            u_l *= neg_w
            u_l -= cost_l
            u_r_v = np.subtract(i_hat, params.i_R, out=u_r_buf[:n])
            u_r_v *= u_r_v
            u_r_v *= neg_w
            u_r_v -= cost_r
            u_r_v += v
            wins += int(np.count_nonzero(np.greater(u_l, u_r_v, out=vote_buf[:n])))
    return wins / n_samples


def peak_scan(
    opponent_policy: float,
    party: Literal["L", "R"],
    params: ModelParams,
    grid_step: float = 1e-3,
) -> ShapeVerdict:
    """Count strict interior local maxima of the party's expected
    utility on the default span.

    Only points strictly above both neighbours count.  Span-edge points
    are deliberately excluded: each payoff has a horizontal asymptote in
    the far tails (the sure-loss payoff), and where the tail climbs back
    toward it the cut at the window boundary would register a "peak"
    that is no maximum of the actual function — it climbs forever
    without attaining one.  Real peaks live well inside (0, 1), far from
    the span edges, and an argmax escaping the span is the
    :func:`grid_best_response` oracle's job to flag, not this one's."""
    if _finite("grid_step", grid_step) > 1e-3:
        raise InvalidParamsError(f"grid_step must be <= 1e-3 for a peak scan, got {grid_step}")
    _, vals = _grid_payoffs(opponent_policy, party, params, DEFAULT_SPAN, grid_step)
    inner = vals[1:-1]
    n_max = int(np.count_nonzero((inner > vals[:-2]) & (inner > vals[2:])))
    return ShapeVerdict(unimodal=(n_max == 1), n_local_maxima=n_max)
