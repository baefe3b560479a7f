"""Exception hierarchy for polarsolve.

Every exception raised deliberately by this package derives from
:class:`PolarsolveError`, so callers can catch the whole family with one
clause.  Mixing in the matching builtin (``ValueError``, ``RuntimeError``)
keeps duck-typed callers working.
"""

from __future__ import annotations


class PolarsolveError(Exception):
    """Base class for all polarsolve errors."""


class InvalidParamsError(PolarsolveError, ValueError):
    """A parameter object or CLI/config input violates its invariants."""


class DomainError(PolarsolveError, ValueError):
    """An argument is outside the mathematical domain of the operation.

    Raised for non-finite inputs to the normal primitives, the
    ideology-only first-order condition at w = 0, and the moderation
    threshold at mu_i = 1/2 (degenerate symmetry locus).
    """


class PreconditionError(PolarsolveError, ValueError):
    """A documented precondition that *is* runtime-checked was violated
    (e.g. an implicit-derivative formula evaluated off the solution
    manifold)."""


class SymmetryLocusError(PreconditionError):
    """solve_symmetric was called off the symmetry locus mu_v = w(1-2*mu_i);
    use solve_asymmetric instead."""


class SolverError(PolarsolveError, RuntimeError):
    """Base class for solver failures."""


class ConvergenceError(SolverError):
    """Iteration budget exhausted or a persistent oscillation was detected.

    Carries the iterate trace so the failure can be diagnosed.
    """

    def __init__(self, message: str, trace: list[tuple[float, float]] | None = None):
        super().__init__(message)
        self.trace: list[tuple[float, float]] = trace or []


class UnboundedResponseError(SolverError):
    """No longer raised: every best response lies in a constant bracket,
    [0, 1/2] for L and [1/2, 1] for R.  Kept exported so that code
    catching it keeps working."""


class SpanTooSmallError(PolarsolveError, ValueError):
    """A grid argmax landed on the edge of the searched span."""


class DegenerateError(PolarsolveError, ArithmeticError):
    """An expression the theory asserts to be sign-definite was not
    (reported, never masked)."""


class SinglePeakednessWarning(UserWarning):
    """sigma_v is below sqrt(32/3125): party objectives are not guaranteed
    unimodal, so solvers fall back to global grid pre-scans and certify
    against the grid oracle."""
