"""Equilibrium platforms for two-party spatial electoral competition.

Two office- and policy-motivated parties at fixed ideological anchors
commit to policy platforms; a representative voter with Gaussian
ideological and valence uncertainty picks a winner.  The package solves
the resulting Bayesian game (a safeguarded Newton root on the symmetry
locus; off it, 2-D Newton on the pair of first-order conditions, with a
bracketed root of L's condition along R's best responses as the
fallback), certifies every solution against its own first/second-order
conditions and brute-force oracles, and exposes the comparative statics
of platform polarization in the ideological weight w.

The usual entry points are :func:`solve_symmetric`,
:func:`solve_asymmetric`, :func:`sweep_w` and the ``polarsolve`` CLI.

The oracle and verify names load :mod:`polarsolve.oracle` and
:mod:`polarsolve.verify`, and with them numpy, on first use (PEP 562).
"""

from __future__ import annotations

import importlib

from .analysis import (
    ShapeReport,
    SweepRow,
    classify_moderate,
    delta_at_zero,
    delta_limit_infinity,
    prop5_slope_identity,
    shape_report,
    sweep_w,
    symmetry_locus_mu_v,
    w_hat,
    w_tilde,
)
from .errors import (
    ConvergenceError,
    DegenerateError,
    DomainError,
    InvalidParamsError,
    PolarsolveError,
    PreconditionError,
    SinglePeakednessWarning,
    SolverError,
    SpanTooSmallError,
    SymmetryLocusError,
)
from .model import (
    SIGMA_V_TILDE,
    ModelParams,
    PlatformPair,
    expected_utility_L,
    expected_utility_R,
    noise_scale,
    voter_utility,
    win_margin,
    win_probability_L,
)
from .solver import (
    LOCUS_TOL,
    EquilibriumResult,
    SolverConfig,
    best_response,
    find_equilibria,
    solve_asymmetric,
    solve_symmetric,
    symmetric_foc_root,
)

__version__ = "0.1.0"

#: The names whose modules import numpy, by module; see :func:`__getattr__`.
_LAZY = {
    "OracleReport": "oracle",
    "ShapeVerdict": "oracle",
    "grid_best_response": "oracle",
    "mc_win_probability": "oracle",
    "peak_scan": "oracle",
    "CheckResult": "verify",
    "run_checks": "verify",
}

__all__ = [
    "__version__",
    # model
    "ModelParams",
    "PlatformPair",
    "SIGMA_V_TILDE",
    "voter_utility",
    "noise_scale",
    "win_margin",
    "win_probability_L",
    "expected_utility_L",
    "expected_utility_R",
    # solving
    "SolverConfig",
    "EquilibriumResult",
    "LOCUS_TOL",
    "symmetric_foc_root",
    "solve_symmetric",
    "solve_asymmetric",
    "best_response",
    "find_equilibria",
    # comparative statics
    "SweepRow",
    "ShapeReport",
    "sweep_w",
    "shape_report",
    "delta_at_zero",
    "delta_limit_infinity",
    "w_tilde",
    "w_hat",
    "symmetry_locus_mu_v",
    "classify_moderate",
    "prop5_slope_identity",
    # oracles and verification
    "OracleReport",
    "ShapeVerdict",
    "grid_best_response",
    "mc_win_probability",
    "peak_scan",
    "CheckResult",
    "run_checks",
    # errors
    "PolarsolveError",
    "InvalidParamsError",
    "DomainError",
    "PreconditionError",
    "SymmetryLocusError",
    "SolverError",
    "ConvergenceError",
    "SpanTooSmallError",
    "DegenerateError",
    "SinglePeakednessWarning",
]


def __getattr__(name: str) -> object:
    """Resolve a name of ``_LAZY`` from its module on every access, without
    binding it here, so that it is always the module's current attribute."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
