"""Analytic derivatives of the parties' expected utilities.

First and second own-platform derivatives of the payoffs in
:mod:`polarsolve.model`, the symmetric-profile first-order condition
(general plus its two polar limits), and the implicit-function-theorem
comparative statics dp_L*/dw on the symmetric manifold.

All formulas were derived by hand from the payoffs and are certified
against central finite differences by the verification suite (check
``deriv-fd``) — if a transcription question ever arises, the finite
difference is the arbiter.

The four own-platform derivatives are thin wrappers around private
kernels (``_d_euL_d_pL`` and friends) that take checked plain floats
``(p_L, p_R, params, sn)`` with ``sn = noise_scale(params)``, as the
margin kernel in :mod:`polarsolve.model` does.  Validation happens where
inputs enter the package (:class:`~polarsolve.model.ModelParams`,
:class:`~polarsolve.model.PlatformPair` and the entry of
:func:`polarsolve.solver.best_response`), not inside these kernels.
Two more kernels, ``_scaled_foc_L`` and ``_scaled_foc_R``, are the
own-platform FOCs divided by phi(kappa), for the best-response
bisection.  The symmetric FOC (``sn = sigma_v`` or ``2 sigma_i w``
gives the polar ones) and its IFT slope ``_dpL_dw_symmetric`` have
float kernels too; the sweeps and ``w_tilde`` call the slope kernel on
the solver's own root, while :func:`dpL_dw_symmetric` first checks the
caller's root.

Derivative notation used below, with kappa the standardized win margin,
sigma_n the combined noise scale and phi/Phi the standard-normal
density/CDF:

    dE[pi_L]/dp_L = (1-2 p_L) phi(kappa) A_L / sigma_n - 2 p_L Phi(kappa)
        with A_L = p_R^2 - p_L^2 + V + w,
    dE[pi_R]/dp_R = -(2 p_R - 1) phi(kappa) A_R / sigma_n
                    + 2 (1-p_R) (1 - Phi(kappa))
        with A_R = (p_L-2) p_L - (p_R-2) p_R + V + w.
"""

from __future__ import annotations

import math
from typing import Literal

from .errors import DomainError, InvalidParamsError, PreconditionError
from .gaussmath import _mills, std_normal_cdf, std_normal_pdf
from .model import ModelParams, PlatformPair, _margin, noise_scale

__all__ = [
    "d_euL_d_pL",
    "d_euR_d_pR",
    "d2_euL_d_pL2",
    "d2_euR_d_pR2",
    "foc_symmetric",
    "foc_symmetric_derivative",
    "foc_symmetric_valence_only",
    "foc_symmetric_ideology_only",
    "dpL_dw_symmetric",
    "dpL_dw_polar",
]

#: How far off the solution manifold the implicit-derivative formulas
#: may be evaluated before they stop being meaningful.
_ON_MANIFOLD_TOL = 1e-8

_PHI0 = std_normal_pdf(0.0)


def _dphi(x: float) -> float:
    """phi'(x) = -x * phi(x)."""
    return -x * std_normal_pdf(x)


def _d_euL_d_pL(p_L: float, p_R: float, params: ModelParams, sn: float) -> float:
    k = _margin(p_L, p_R, params, sn)
    a_l = p_R**2 - p_L**2 + params.V + params.w
    return (1.0 - 2.0 * p_L) * std_normal_pdf(k) * a_l / sn - 2.0 * p_L * std_normal_cdf(k)


def _d_euR_d_pR(p_L: float, p_R: float, params: ModelParams, sn: float) -> float:
    k = _margin(p_L, p_R, params, sn)
    a_r = (p_L - 2.0) * p_L - (p_R - 2.0) * p_R + params.V + params.w
    return -(2.0 * p_R - 1.0) * std_normal_pdf(k) * a_r / sn + 2.0 * (1.0 - p_R) * (
        1.0 - std_normal_cdf(k)
    )


def _scaled_foc_L(p_L: float, p_R: float, params: ModelParams, sn: float) -> float:
    """:func:`_d_euL_d_pL` divided by phi(kappa),
    (1-2 p_L) A_L / sigma_n - 2 p_L M(kappa) with M = Phi/phi: the same
    sign, which survives where phi(kappa) underflows.  The margin comes
    first, so a huge p_R raises :class:`DomainError` before it is squared."""
    m = _mills(_margin(p_L, p_R, params, sn))
    a_l = p_R**2 - p_L**2 + params.V + params.w
    return (1.0 - 2.0 * p_L) * a_l / sn - 2.0 * p_L * m


def _scaled_foc_R(p_L: float, p_R: float, params: ModelParams, sn: float) -> float:
    """:func:`_d_euR_d_pR` divided by phi(kappa),
    -(2 p_R-1) A_R / sigma_n + 2 (1-p_R) M(-kappa)."""
    m = _mills(-_margin(p_L, p_R, params, sn))
    a_r = (p_L - 2.0) * p_L - (p_R - 2.0) * p_R + params.V + params.w
    return -(2.0 * p_R - 1.0) * a_r / sn + 2.0 * (1.0 - p_R) * m


def _d2_euL_d_pL2(p_L: float, p_R: float, params: ModelParams, sn: float) -> float:
    k = _margin(p_L, p_R, params, sn)
    a_l = p_R**2 - p_L**2 + params.V + params.w
    b_l = (2.0 - 5.0 * p_L) * p_L + p_R**2 + params.V + params.w
    return (
        (1.0 - 2.0 * p_L) ** 2 * _dphi(k) * a_l / sn**2
        - 2.0 * std_normal_pdf(k) * b_l / sn
        - 2.0 * std_normal_cdf(k)
    )


def _d2_euR_d_pR2(p_L: float, p_R: float, params: ModelParams, sn: float) -> float:
    k = _margin(p_L, p_R, params, sn)
    a_r = (p_L - 2.0) * p_L - (p_R - 2.0) * p_R + params.V + params.w
    b_r = (p_L - 2.0) * p_L + (8.0 - 5.0 * p_R) * p_R + params.V + params.w - 2.0
    return (
        -((2.0 * p_R - 1.0) ** 2) * _dphi(k) * a_r / sn**2
        - 2.0 * std_normal_pdf(k) * b_r / sn
        - 2.0 * (1.0 - std_normal_cdf(k))
    )


def d_euL_d_pL(pp: PlatformPair, params: ModelParams) -> float:
    """dE[pi_L]/dp_L at an arbitrary profile."""
    return _d_euL_d_pL(pp.p_L, pp.p_R, params, noise_scale(params))


def d_euR_d_pR(pp: PlatformPair, params: ModelParams) -> float:
    """dE[pi_R]/dp_R at an arbitrary profile."""
    return _d_euR_d_pR(pp.p_L, pp.p_R, params, noise_scale(params))


def d2_euL_d_pL2(pp: PlatformPair, params: ModelParams) -> float:
    """d^2 E[pi_L]/dp_L^2; negative at any certified equilibrium."""
    return _d2_euL_d_pL2(pp.p_L, pp.p_R, params, noise_scale(params))


def d2_euR_d_pR2(pp: PlatformPair, params: ModelParams) -> float:
    """d^2 E[pi_R]/dp_R^2; negative at any certified equilibrium."""
    return _d2_euR_d_pR2(pp.p_L, pp.p_R, params, noise_scale(params))


def foc_symmetric(p_L: float, params: ModelParams) -> float:
    """L's first-order condition along the symmetric profile p_R = 1 - p_L:

        (1 - 2 p_L) phi(0) (V + w + 1 - 2 p_L) / sigma_n - p_L.

    Callers keep p_L in [0, 1/2]; there the function is strictly
    decreasing from a positive value at 0 to exactly -1/2 at 1/2, which
    guarantees a unique bracketed root.  Independent of mu_i/mu_v: on
    the symmetry locus the win margin is identically zero.
    """
    return _foc_symmetric(p_L, params.V, params.w, noise_scale(params))


def foc_symmetric_derivative(p_L: float, params: ModelParams) -> float:
    """d/dp_L of :func:`foc_symmetric`; strictly negative on [0, 1/2]."""
    return _foc_symmetric_derivative(p_L, params.V, params.w, noise_scale(params))


def _foc_symmetric(p_L: float, V: float, w: float, sn: float) -> float:
    """:func:`foc_symmetric` of plain floats, given ``sn``.

    Every rounded operation here is monotone in ``p_L``, so the computed
    value is nonincreasing on [0, 1/2], not only the exact one."""
    return (1.0 - 2.0 * p_L) * _PHI0 * (V + w + 1.0 - 2.0 * p_L) / sn - p_L


def _foc_symmetric_derivative(p_L: float, V: float, w: float, sn: float) -> float:
    """:func:`foc_symmetric_derivative` of plain floats, given ``sn``."""
    return -2.0 * _PHI0 * (V + w + 2.0 * (1.0 - 2.0 * p_L)) / sn - 1.0


def foc_symmetric_valence_only(p_L: float, params: ModelParams) -> float:
    """Symmetric FOC in the valence-uncertainty-only limit sigma_i -> 0
    (the noise scale collapses to sigma_v)."""
    return _foc_symmetric(p_L, params.V, params.w, params.sigma_v)


def foc_symmetric_ideology_only(p_L: float, params: ModelParams) -> float:
    """Symmetric FOC in the ideology-uncertainty-only limit sigma_v -> 0
    (noise scale 2*sigma_i*w).

    Singular at w = 0: with neither noise source the parties simply
    match the voter's policy bliss 1/2, so there is no FOC to evaluate —
    callers special-case w = 0.
    """
    if params.w == 0.0:
        raise DomainError(
            "ideology-only FOC is singular at w=0 (limit policy is 1/2); "
            "w must be positive"
        )
    return _foc_symmetric(p_L, params.V, params.w, 2.0 * params.sigma_i * params.w)


def _require_root(foc: float, label: str) -> None:
    if abs(foc) > _ON_MANIFOLD_TOL:
        raise PreconditionError(
            f"implicit derivative evaluated off the solution manifold: "
            f"|{label}| = {abs(foc):.3e} > {_ON_MANIFOLD_TOL:.0e}"
        )


def dpL_dw_symmetric(p_L: float, params: ModelParams) -> float:
    """Slope of the symmetric-equilibrium platform p_L* in w, by the
    implicit function theorem on :func:`foc_symmetric`:

        (1-2p) phi(0) (4 sigma_i^2 w (2p - V - 1) + sigma_v^2)
        -----------------------------------------------------------------
        (sigma_v^2 + 4 sigma_i^2 w^2) (2 phi(0)(V + w + 2(1-2p)) + sigma_n)

    Positive exactly while w < sigma_v^2 / (4 sigma_i^2 (1 + V - 2p)).
    ``p_L`` must be a root of the symmetric FOC for these params.
    """
    _require_root(foc_symmetric(p_L, params), "foc_symmetric")
    return _dpL_dw_symmetric(p_L, params.V, params.w, params.sigma_i, params.sigma_v)


def _dpL_dw_symmetric(p_L: float, V: float, w: float, sigma_i: float, sigma_v: float) -> float:
    """:func:`dpL_dw_symmetric` of plain floats, without the root check:
    for a ``p_L`` that the symmetric root solver just returned."""
    s2 = sigma_v**2 + 4.0 * sigma_i**2 * w**2
    num = (1.0 - 2.0 * p_L) * _PHI0 * (4.0 * sigma_i**2 * w * (2.0 * p_L - V - 1.0) + sigma_v**2)
    den = s2 * (2.0 * _PHI0 * (V + w + 2.0 * (1.0 - 2.0 * p_L)) + math.sqrt(s2))
    return num / den


def dpL_dw_polar(
    p_L: float,
    params: ModelParams,
    which: Literal["valence_only", "ideology_only"],
) -> float:
    """Slope of the polar-case symmetric platform in w.

    ``valence_only`` (strictly positive for interior roots):

        (1-2p) phi(0) / (2 phi(0)(V + w + 2(1-2p)) + sigma_v)

    ``ideology_only`` (strictly negative for interior roots):

        -(1-2p)(V + 1 - 2p) phi(0)
        ------------------------------------------------
        2 w (phi(0)(V + w + 2(1-2p)) + sigma_i w)

    ``p_L`` must solve the corresponding polar FOC.
    """
    if which == "valence_only":
        _require_root(foc_symmetric_valence_only(p_L, params), "foc_symmetric_valence_only")
        return (1.0 - 2.0 * p_L) * _PHI0 / (
            2.0 * _PHI0 * (params.V + params.w + 2.0 * (1.0 - 2.0 * p_L)) + params.sigma_v
        )
    if which == "ideology_only":
        _require_root(foc_symmetric_ideology_only(p_L, params), "foc_symmetric_ideology_only")
        return -(1.0 - 2.0 * p_L) * (params.V + 1.0 - 2.0 * p_L) * _PHI0 / (
            2.0
            * params.w
            * (
                _PHI0 * (params.V + params.w + 2.0 * (1.0 - 2.0 * p_L))
                + params.sigma_i * params.w
            )
        )
    raise InvalidParamsError(f"which must be 'valence_only' or 'ideology_only', got {which!r}")
