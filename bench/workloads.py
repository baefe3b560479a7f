"""The four benchmark workloads.

Each workload turns a seed into a fixed batch of inputs (``inputs``), runs
the batch through the package's public API with default arguments only
(``run``, the timed part), and checks the outputs afterwards (``check``,
untimed).  ``run`` returns one :class:`Op` per op; ``check`` returns one
:class:`Verdict` per op.

Inputs are drawn as a randomly shifted low-discrepancy set (the R_d
sequence of M. Roberts, "The unreasonable effectiveness of quasirandom
sequences", 2018, shifted modulo 1 by a seeded uniform vector).  Each
draw is uniform (log-uniform on log-scaled ranges), but a batch covers
the parameter box evenly, so its cost and failure rate vary less from
seed to seed than with independent draws: on offlocus-sweep the spread
of best-response calls and of the certified fraction across seeds was
about half that of a Latin hypercube.

The package is reached through ``api`` (the imported ``polarsolve``) at
call time, never bound at import, so that the tracer's wrappers are the
functions called.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class Op:
    cpu_s: float          # CPU time of the whole process (all threads) during the op
    wall_s: float
    result: object        # whatever the op returned (or the exception it raised)
    single_peak_warnings: int = 0


@dataclass(frozen=True)
class Verdict:
    passed: bool          # the op completed, certified and passed its output check
    wrong: bool = False   # a certified output contradicted an independent check
    reason: str = ""


def _draws(rng: np.random.Generator, n: int, bounds: list[tuple[float, float, bool]]) -> list[tuple]:
    """n shifted R_d points scaled to the bounds; each bound is (lo, hi, log_scale)."""
    d = len(bounds)
    phi = 2.0
    for _ in range(64):  # the root of x**(d+1) = x + 1
        phi = (1.0 + phi) ** (1.0 / (d + 1))
    alpha = phi ** -np.arange(1.0, d + 1)
    u = (rng.random(d) + np.outer(np.arange(1, n + 1), alpha)) % 1.0
    cols = []
    for j, (lo, hi, log_scale) in enumerate(bounds):
        if log_scale:
            cols.append(np.exp(math.log(lo) + (math.log(hi) - math.log(lo)) * u[:, j]))
        else:
            cols.append(lo + (hi - lo) * u[:, j])
    return [tuple(float(c[i]) for c in cols) for i in range(n)]


def _call(api, mark, fn, *args, **kwargs) -> Op:
    """Time one API call, counting SinglePeakednessWarnings instead of
    printing them.  An exception becomes the op's result.  ``mark`` is
    called first, untimed: the tracer uses it to start a new op id."""
    mark()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failed op, reported by class; the run goes on
            result = exc
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    n_single = sum(1 for w in caught if issubclass(w.category, api.SinglePeakednessWarning))
    return Op(cpu, wall, result, n_single)


class LocusStatics:
    """Symmetric w-sweeps from w=0 out to the large-w limit, then shape_report."""

    name = "locus-statics"
    draws = 200
    # linear on [0, 3], then log-spaced out to the large-w limit w = 1e6
    grid = [i * 0.05 for i in range(61)] + [float(w) for w in np.geomspace(3.0, 1e6, 31)[1:-1]] + [1e6]

    def inputs(self, api, seed: int) -> list:
        rng = np.random.default_rng([seed, 1])
        draws = _draws(rng, self.draws, [(1e-2, 1e2, True), (1e-2, 10.0, True), (0.102, 10.0, True)])
        return [api.ModelParams(w=0.0, V=v, sigma_i=si, sigma_v=sv, mu_i=0.5, mu_v=0.0)
                for v, si, sv in draws]

    def run(self, api, inputs: list, mark) -> list[Op]:
        def op(params):
            rows = api.sweep_w(self.grid, params)
            return rows, api.shape_report(rows, params)
        return [_call(api, mark, op, p) for p in inputs]

    def fingerprint(self, op: Op) -> tuple:
        if isinstance(op.result, Exception):
            return (type(op.result).__name__,)
        rows, rep = op.result
        return tuple(x for r in rows for x in (r.p_L, r.p_R)) + (rep.w_tilde,)

    def check(self, api, inputs: list, ops: list[Op], seed: int) -> list[Verdict]:
        out = []
        for params, op in zip(inputs, ops):
            if isinstance(op.result, Exception):
                out.append(Verdict(False, reason=type(op.result).__name__))
                continue
            rows, _ = op.result
            if not all(r.certified for r in rows):
                out.append(Verdict(False, reason="uncertified row"))
                continue
            err0 = abs(rows[0].delta - api.delta_at_zero(params))
            err_inf = abs(rows[-1].delta - api.delta_limit_infinity(params))
            if err0 > 1e-10 or err_inf > 1e-3:
                out.append(Verdict(False, True, f"delta(0) off by {err0:.2e}, delta(1e6) by {err_inf:.2e}"))
                continue
            out.append(Verdict(True))
        return out


class OfflocusSweep:
    """Asymmetric w-sweeps of off-locus bases over a log grid; one op per row."""

    name = "offlocus-sweep"
    bases = 24
    grid = [float(w) for w in np.geomspace(1e-3, 1e3, 13)]
    # the solver's maximal best-response bracket, for the rare platform off the default span
    wide_span = (-8.0, 9.0)

    def inputs(self, api, seed: int) -> list:
        rng = np.random.default_rng([seed, 2])
        draws = _draws(rng, self.bases, [
            (1e-2, 1e2, True), (1e-2, 10.0, True), (0.102, 10.0, True),
            (-1.0, 2.0, False), (-3.0, 3.0, False),
        ])
        return [api.ModelParams(w=1.0, V=v, sigma_i=si, sigma_v=sv, mu_i=mi, mu_v=mv)
                for v, si, sv, mi, mv in draws]

    def run(self, api, inputs: list, mark) -> list[Op]:
        ops = []
        for base in inputs:
            sweep = _call(api, mark, api.sweep_w, self.grid, base, mode="asymmetric")
            # a row's latency is its sweep's time shared over the rows, and
            # the sweep's warnings are booked on its first row; a sweep that
            # raises (sweep_w itself turns row failures into NaN rows) books
            # the exception on every one of its rows
            n = len(self.grid)
            rows = sweep.result if isinstance(sweep.result, list) else [sweep.result] * n
            ops.extend(Op(sweep.cpu_s / n, sweep.wall_s / n, row,
                          sweep.single_peak_warnings if k == 0 else 0)
                       for k, row in enumerate(rows))
        return ops

    @staticmethod
    def _certified(op: Op) -> bool:
        return not isinstance(op.result, Exception) and op.result.certified

    def fingerprint(self, op: Op) -> tuple:
        if isinstance(op.result, Exception):
            return (type(op.result).__name__,)
        return (op.result.p_L, op.result.p_R, op.result.certified)

    @staticmethod
    def _row_verdict(op: Op) -> Verdict:
        if isinstance(op.result, Exception):
            return Verdict(False, reason=f"sweep raised {type(op.result).__name__}")
        if math.isnan(op.result.p_L):
            return Verdict(False, reason="row solve raised (NaN row)")
        return Verdict(op.result.certified, reason="" if op.result.certified else "row uncertified")

    def _grid_br(self, api, opponent: float, party: str, params) -> float:
        try:
            return api.grid_best_response(opponent, party, params)
        except api.SpanTooSmallError:
            return api.grid_best_response(opponent, party, params, span=self.wide_span)

    def check(self, api, inputs: list, ops: list[Op], seed: int) -> list[Verdict]:
        rng = np.random.default_rng([seed, 2, 1])
        n = len(self.grid)
        out = [self._row_verdict(op) for op in ops]
        for b, base in enumerate(inputs):
            certified = [i for i in range(b * n, (b + 1) * n) if self._certified(ops[i])]
            if not certified:
                continue
            i = certified[int(rng.integers(len(certified)))]
            row = ops[i].result
            params = replace(base, w=row.w)
            try:
                res = api.solve_asymmetric(params)
                pp = res.platforms
                g_l = self._grid_br(api, pp.p_R, "L", params)
                g_r = self._grid_br(api, pp.p_L, "R", params)
            except api.PolarsolveError as exc:
                out[i] = Verdict(False, True, f"row w={row.w:g}: check raised {type(exc).__name__}")
                continue
            gap = max(abs(pp.p_L - row.p_L), abs(pp.p_R - row.p_R))
            if not res.certified or gap > 1e-8:
                out[i] = Verdict(False, True, f"row w={row.w:g}: re-solve gap {gap:.2e}")
                continue
            off = [self._grid_disagreement(api, params, pp, party, grid_best)
                   for party, mine, grid_best in (("L", pp.p_L, g_l), ("R", pp.p_R, g_r))
                   if abs(grid_best - mine) > 1e-3]
            if off:
                out[i] = max(off, key=lambda v: v.wrong)
        return out

    @staticmethod
    def _grid_disagreement(api, params, pp, party: str, grid_best: float) -> Verdict:
        """A platform off its grid argmax by more than 1e-3 fails the op.  It
        is a wrong answer only if the raw payoff at the grid argmax beats
        the payoff at the platform by more than rounding (64 ulps); in a
        lopsided race the payoff is flat to an ulp and the grid argmax is
        rounding noise."""
        if party == "L":
            f_mine = api.expected_utility_L(pp, params)
            f_grid = api.expected_utility_L(api.PlatformPair(grid_best, pp.p_R), params)
        else:
            f_mine = api.expected_utility_R(pp, params)
            f_grid = api.expected_utility_R(api.PlatformPair(pp.p_L, grid_best), params)
        wrong = f_grid - f_mine > 64 * math.ulp(abs(f_mine))
        kind = "payoff lower than at the grid argmax" if wrong else "payoff flat to rounding"
        return Verdict(False, wrong, f"grid argmax of {party} off by >1e-3 ({kind})")


class Certify:
    """The full verify battery at the workload seed; one op per check, each
    run as ``run_checks(only=[check_id], seed=seed)`` so that it can be
    timed from outside (a check's random stream does not depend on which
    subset runs)."""

    name = "certify"
    checks = (
        "prop3-delta0", "prop3-limit", "prop2-ushape", "prop1-polar", "prop4-locus",
        "prop5-threshold", "prop5-slope", "eq3-ift", "oracle-br", "oracle-mc",
        "singlepeak-bound", "deriv-fd", "cli-roundtrip",
    )

    def inputs(self, api, seed: int) -> list:
        return [seed]

    def run(self, api, inputs: list, mark) -> list[Op]:
        return [_call(api, mark, api.run_checks, only=[check_id], seed=inputs[0])
                for check_id in self.checks]

    @staticmethod
    def _result(op: Op):
        return op.result if isinstance(op.result, Exception) else op.result[0]

    def fingerprint(self, op: Op) -> tuple:
        r = self._result(op)
        return (type(r).__name__,) if isinstance(r, Exception) else (r.check_id, r.passed)

    def check(self, api, inputs: list, ops: list[Op], seed: int) -> list[Verdict]:
        out = []
        for op in ops:
            r = self._result(op)
            if isinstance(r, Exception):
                out.append(Verdict(False, reason=type(r).__name__))
            else:
                out.append(Verdict(r.passed, reason="" if r.passed else f"{r.check_id}: {r.detail}"))
        return out


class Rugged:
    """Off-locus solves with sigma_v below the single-peakedness bound."""

    name = "rugged"
    solves = 4

    def inputs(self, api, seed: int) -> list:
        rng = np.random.default_rng([seed, 4])
        draws = _draws(rng, self.solves, [
            (0.0, 3.0, False), (0.2, 3.0, False), (0.1, 3.0, False), (0.06, 0.1, False),
            (0.2, 0.8, False), (-1.0, 1.0, False),
        ])
        return [api.ModelParams(w=w, V=v, sigma_i=si, sigma_v=sv, mu_i=mi, mu_v=mv)
                for w, v, si, sv, mi, mv in draws]

    def run(self, api, inputs: list, mark) -> list[Op]:
        return [_call(api, mark, api.solve_asymmetric, p) for p in inputs]

    def fingerprint(self, op: Op) -> tuple:
        if isinstance(op.result, Exception):
            return (type(op.result).__name__,)
        return (op.result.platforms.p_L, op.result.platforms.p_R, op.result.certified)

    def check(self, api, inputs: list, ops: list[Op], seed: int) -> list[Verdict]:
        out = []
        for op in ops:
            if isinstance(op.result, Exception):
                out.append(Verdict(False, reason=type(op.result).__name__))
            else:
                out.append(Verdict(op.result.certified, reason="" if op.result.certified else "uncertified"))
        return out


WORKLOADS = {w.name: w for w in (LocusStatics(), OfflocusSweep(), Certify(), Rugged())}
