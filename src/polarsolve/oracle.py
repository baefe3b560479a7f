"""Brute-force ground truth.

Nothing in this module knows any analytic shortcut: best responses are
grid argmaxes of the raw expected utilities, win probabilities are
Monte Carlo frequencies of the voter's literal decision rule, and
peak counting is a direct scan.  The rest of the package is certified
against these routines, never the other way around.

The grid scans evaluate the raw payoff over the whole grid in one numpy
pass.  That pass repeats the formulas of :func:`expected_utility_L` and
:func:`expected_utility_R` operation for operation, so every grid value
has the same bits as the scalar call at that point; the scalar payoffs
in :mod:`polarsolve.model` remain the reference it is tested against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import SpanTooSmallError
from .gaussmath import _std_normal_cdf_array
from .model import ModelParams, PlatformPair, _finite, noise_scale

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
    the last bit on some inputs."""
    n = int(round((hi - lo) / grid_step))
    xs = [lo + k * grid_step for k in range(n + 1)]
    columns = (xs, [x**2 for x in xs], [(1.0 - x) ** 2 for x in xs])
    arrays = tuple(np.array(c, dtype=np.float64) for c in columns)
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _grid(span: tuple[float, float], grid_step: float) -> tuple[np.ndarray, ...]:
    lo, hi = span
    if not grid_step > 0.0:
        raise ValueError(f"grid_step must be positive, got {grid_step}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"span ends must be finite, got {span}")
    if not lo < hi:
        raise ValueError(f"span must be a nonempty interval, got {span}")
    return _grid_columns(float(lo), float(hi), float(grid_step))


def _grid_payoffs(
    opponent_policy: float,
    party: Literal["L", "R"],
    params: ModelParams,
    span: tuple[float, float],
    grid_step: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The grid and the party's raw expected utility at every grid point,
    computed as :func:`win_margin` and the payoff functions compute it,
    in the same order, so each value has the scalar call's bits."""
    xs, xs_sq, one_minus_xs_sq = _grid(span, grid_step)
    if party not in ("L", "R"):
        raise ValueError(f"party must be 'L' or 'R', got {party!r}")
    opp = _finite("p_R" if party == "L" else "p_L", opponent_policy)
    own_term = xs * (1.0 - xs)
    opp_term = opp * (1.0 - opp)
    lead = own_term - opp_term if party == "L" else opp_term - own_term
    num = (lead + params.w * (1.0 - 2.0 * params.mu_i)) - params.mu_v
    pr = _std_normal_cdf_array(num / noise_scale(params))
    if party == "L":
        vals = pr * (params.V - xs_sq) - (1.0 - pr) * (params.w + opp**2)
    else:
        vals = (1.0 - pr) * (params.V - one_minus_xs_sq) - pr * (
            params.w + (1.0 - opp) ** 2
        )
    return xs, vals


def grid_best_response(
    opponent_policy: float,
    party: Literal["L", "R"],
    params: ModelParams,
    grid_step: float = 1e-4,
    span: tuple[float, float] = DEFAULT_SPAN,
) -> float:
    """Argmax of the party's expected utility on a uniform grid.

    The raw payoff is evaluated over the whole grid at once, bit-identical
    to :func:`expected_utility_L` / :func:`expected_utility_R` at every
    grid point; those scalar payoffs remain the reference.

    Exact value ties break toward the point nearest 1/2 (then the
    smaller point).  An argmax on the edge of ``span`` means the span
    was too small to contain the response and raises
    :class:`SpanTooSmallError` rather than returning a clipped answer.
    """
    xs, vals = _grid_payoffs(opponent_policy, party, params, span, grid_step)
    candidates = xs[vals == vals.max()].tolist()
    response = min(candidates, key=lambda x: (abs(x - 0.5), x))
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
    """
    if n_samples < 10_000:
        raise ValueError(f"n_samples must be at least 10000, got {n_samples}")
    wins = 0
    remaining = n_samples
    batch_index = 0
    while remaining > 0:
        m = min(_MC_BATCH, remaining)
        rng = np.random.default_rng([seed, batch_index])
        i_hat = rng.normal(params.mu_i, params.sigma_i, m)
        v = rng.normal(params.mu_v, params.sigma_v, m)
        u_l = -params.w * (i_hat - params.i_L) ** 2 - (params.p_hat_V - pp.p_L) ** 2
        u_r = -params.w * (i_hat - params.i_R) ** 2 - (params.p_hat_V - pp.p_R) ** 2
        wins += int(np.count_nonzero(u_l > u_r + v))
        remaining -= m
        batch_index += 1
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
    if grid_step > 1e-3:
        raise ValueError(f"grid_step must be <= 1e-3 for a peak scan, got {grid_step}")
    _, vals = _grid_payoffs(opponent_policy, party, params, DEFAULT_SPAN, grid_step)
    inner = vals[1:-1]
    n_max = int(np.count_nonzero((inner > vals[:-2]) & (inner > vals[2:])))
    return ShapeVerdict(unimodal=(n_max == 1), n_local_maxima=n_max)
