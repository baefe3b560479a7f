"""Analytic derivatives of the parties' expected utilities.

First and second own-platform derivatives of the payoffs in
:mod:`polarsolve.model`, the symmetric-profile first-order condition
(general plus its two polar limits), and the implicit-function-theorem
comparative statics dp_L*/dw on the symmetric manifold.

All formulas were derived by hand from the payoffs and are certified
against central finite differences by the verification suite (check
``deriv-fd``) — if a transcription question ever arises, the finite
difference is the arbiter.

The four own-platform derivatives index into one private kernel,
``_raw_pair`` (both FOCs, both second derivatives and Phi(kappa)), that
takes checked plain floats ``(p_L, p_R, params, sn)`` with
``sn = noise_scale(params)``, as the margin kernel in
:mod:`polarsolve.model` does.  Validation happens where inputs enter the
package; inside, a kernel checks only its margin, once and before any
square (so a huge platform raises :class:`DomainError`), then calls the
unchecked ``_pdf``/``_cdf`` once.  ``_scaled_foc_L`` and ``_scaled_foc_R``
return each party's FOC divided by its own win probability, G_L and G_R
below, and both its partials: the one kernel of the best response, the
pair's Newton finish and the certificate.  The symmetric FOC
(``sn = sigma_v`` or ``2 sigma_i w`` gives the polar ones) and its IFT
slope ``_dpL_dw_symmetric`` have float kernels too; the sweeps and
``w_tilde`` call the slope kernel on the solver's own root, while
:func:`dpL_dw_symmetric` first checks the caller's root.

Derivative notation used below, with kappa the standardized win margin,
sigma_n the combined noise scale and phi/Phi the standard-normal
density/CDF:

    dE[pi_L]/dp_L = (1-2 p_L) phi(kappa) A_L / sigma_n - 2 p_L Phi(kappa)
        with A_L = p_R^2 - p_L^2 + V + w,
    dE[pi_R]/dp_R = -(2 p_R - 1) phi(kappa) A_R / sigma_n
                    + 2 (1-p_R) (1 - Phi(kappa))
        with A_R = (p_L-2) p_L - (p_R-2) p_R + V + w,
    G_L = (1-2 p_L) A_L lambda(kappa) / sigma_n - 2 p_L,
    G_R = 2 (1-p_R) - (2 p_R - 1) A_R lambda(-kappa) / sigma_n,

where lambda = phi/Phi = 1/M (``gaussmath._mills``) is finite for every
finite kappa, so G keeps the FOC's sign where Phi and phi underflow, and
lambda' = -lambda (kappa + lambda), dkappa/dp_L = (1-2 p_L)/sigma_n and
dkappa/dp_R = (2 p_R-1)/sigma_n give the partials.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Literal

from .errors import DomainError, InvalidParamsError, PreconditionError
from .gaussmath import _cdf, _mills, _pdf, _require_finite
from .model import ModelParams, PlatformPair, _finite, _instance, _margin, _platforms, noise_scale

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

_PHI0 = _pdf(0.0)


def _raw_pair(p_L: float, p_R: float, params: ModelParams, sn: float) -> tuple[float, ...]:
    """Both parties' own-platform FOCs, both second derivatives and
    Phi(kappa), L's win probability; :class:`DomainError` also where a square
    overflows (a platform near 1e154, finite margin)."""
    k = _require_finite(_margin(p_L, p_R, params, sn))
    try:
        sq_l, sq_r = (1.0 - 2.0 * p_L) ** 2, (2.0 * p_R - 1.0) ** 2
    except OverflowError:
        raise DomainError(f"derivatives overflow at p_L={p_L!r}, p_R={p_R!r}") from None
    pdf, cdf = _pdf(k), _cdf(k)
    a_l = p_R**2 - p_L**2 + params.V + params.w
    b_l = (2.0 - 5.0 * p_L) * p_L + p_R**2 + params.V + params.w
    a_r = (p_L - 2.0) * p_L - (p_R - 2.0) * p_R + params.V + params.w
    b_r = (p_L - 2.0) * p_L + (8.0 - 5.0 * p_R) * p_R + params.V + params.w - 2.0
    # (-k * pdf) is phi'(k), parenthesised to keep the product's order
    return (
        (1.0 - 2.0 * p_L) * pdf * a_l / sn - 2.0 * p_L * cdf,
        -(2.0 * p_R - 1.0) * pdf * a_r / sn + 2.0 * (1.0 - p_R) * (1.0 - cdf),
        sq_l * (-k * pdf) * a_l / sn**2 - 2.0 * pdf * b_l / sn - 2.0 * cdf,
        -sq_r * (-k * pdf) * a_r / sn**2 - 2.0 * pdf * b_r / sn - 2.0 * (1.0 - cdf),
        cdf,
    )


def _scaled_foc_L(p_L: float, p_R: float, params: ModelParams, sn: float) -> tuple[float, ...]:
    """(G_L, dG_L/dp_L, dG_L/dp_R).  With t the first term of G_L and
    c = t (kappa + lambda) / sigma_n, the partials are
    -2 lambda (A_L + p_L (1-2 p_L)) / sigma_n - (1-2 p_L) c - 2 and
    2 p_R (1-2 p_L) lambda / sigma_n - (2 p_R-1) c.  The margin comes first,
    so a huge p_R raises :class:`DomainError` before it is squared."""
    k = _margin(p_L, p_R, params, sn)
    lam = 1.0 / _mills(k)
    a_l = p_R**2 - p_L**2 + params.V + params.w
    d = 1.0 - 2.0 * p_L
    t = d * a_l * lam / sn
    c = t * (k + lam) / sn
    return (
        t - 2.0 * p_L,
        -2.0 * lam * (a_l + p_L * d) / sn - d * c - 2.0,
        2.0 * p_R * d * lam / sn - (2.0 * p_R - 1.0) * c,
    )


def _scaled_foc_R(p_L: float, p_R: float, params: ModelParams, sn: float) -> tuple[float, ...]:
    """(G_R, dG_R/dp_R, dG_R/dp_L).  With x = -kappa, u the second term of
    G_R and c = u (x + lambda) / sigma_n, the partials are
    -2 lambda (A_R + (2 p_R-1)(1-p_R)) / sigma_n - (2 p_R-1) c - 2 and
    2 (1-p_L)(2 p_R-1) lambda / sigma_n - (1-2 p_L) c."""
    x = -_margin(p_L, p_R, params, sn)
    lam = 1.0 / _mills(x)
    a_r = (p_L - 2.0) * p_L - (p_R - 2.0) * p_R + params.V + params.w
    e = 2.0 * p_R - 1.0
    u = e * a_r * lam / sn
    c = u * (x + lam) / sn
    return (
        2.0 * (1.0 - p_R) - u,
        -2.0 * lam * (a_r + e * (1.0 - p_R)) / sn - e * c - 2.0,
        2.0 * (1.0 - p_L) * e * lam / sn - (1.0 - 2.0 * p_L) * c,
    )


def d_euL_d_pL(pp: PlatformPair, params: ModelParams) -> float:
    """dE[pi_L]/dp_L at an arbitrary profile."""
    return _raw_pair(*_platforms(pp), params, noise_scale(params))[0]


def d_euR_d_pR(pp: PlatformPair, params: ModelParams) -> float:
    """dE[pi_R]/dp_R at an arbitrary profile."""
    return _raw_pair(*_platforms(pp), params, noise_scale(params))[1]


def d2_euL_d_pL2(pp: PlatformPair, params: ModelParams) -> float:
    """d^2 E[pi_L]/dp_L^2; negative at any certified equilibrium."""
    return _raw_pair(*_platforms(pp), params, noise_scale(params))[2]


def d2_euR_d_pR2(pp: PlatformPair, params: ModelParams) -> float:
    """d^2 E[pi_R]/dp_R^2; negative at any certified equilibrium."""
    return _raw_pair(*_platforms(pp), params, noise_scale(params))[3]


def foc_symmetric(p_L: float, params: ModelParams) -> float:
    """L's first-order condition along the symmetric profile p_R = 1 - p_L:

        (1 - 2 p_L) phi(0) (V + w + 1 - 2 p_L) / sigma_n - p_L.

    Callers keep p_L in [0, 1/2]; there the function is strictly
    decreasing from a positive value at 0 to exactly -1/2 at 1/2, which
    guarantees a unique bracketed root.  Independent of mu_i/mu_v: on
    the symmetry locus the win margin is identically zero.
    """
    sn = noise_scale(params)  # checks params before its fields are read
    return _foc_symmetric(_finite("p_L", p_L), params.V, params.w, sn)


def foc_symmetric_derivative(p_L: float, params: ModelParams) -> float:
    """d/dp_L of :func:`foc_symmetric`; strictly negative on [0, 1/2]."""
    sn = noise_scale(params)  # checks params before its fields are read
    return _foc_symmetric_derivative(_finite("p_L", p_L), params.V, params.w, sn)


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
    _instance("params", params, ModelParams)
    return _foc_symmetric(_finite("p_L", p_L), params.V, params.w, params.sigma_v)


def foc_symmetric_ideology_only(p_L: float, params: ModelParams) -> float:
    """Symmetric FOC in the ideology-uncertainty-only limit sigma_v -> 0
    (noise scale 2*sigma_i*w).

    Singular at w = 0: with neither noise source the parties simply
    match the voter's policy bliss 1/2, so there is no FOC to evaluate —
    callers special-case w = 0.
    """
    if _instance("params", params, ModelParams).w == 0.0:
        raise DomainError(
            "ideology-only FOC is singular at w=0 (limit policy is 1/2); "
            "w must be positive"
        )
    return _foc_symmetric(_finite("p_L", p_L), params.V, params.w, 2.0 * params.sigma_i * params.w)


def _require_root(p_L: float, params: ModelParams, foc: Callable, label: str) -> float:
    """``p_L`` as a float once it is a root of ``foc`` for ``params``,
    else :class:`PreconditionError`.  ``foc`` checks that ``p_L`` is a real
    number; a NaN or infinite one, which it would reject, is no root."""
    _instance("params", params, ModelParams)
    value = p_L if isinstance(p_L, float) and not math.isfinite(p_L) else foc(p_L, params)
    if not abs(value) <= _ON_MANIFOLD_TOL:  # NaN too
        raise PreconditionError(
            f"implicit derivative evaluated off the solution manifold: "
            f"|{label}| = {abs(value):.3e} > {_ON_MANIFOLD_TOL:.0e}"
        )
    return float(p_L)


def dpL_dw_symmetric(p_L: float, params: ModelParams) -> float:
    """Slope of the symmetric-equilibrium platform p_L* in w, by the
    implicit function theorem on :func:`foc_symmetric`:

        (1-2p) phi(0) (4 sigma_i^2 w (2p - V - 1) + sigma_v^2)
        -----------------------------------------------------------------
        (sigma_v^2 + 4 sigma_i^2 w^2) (2 phi(0)(V + w + 2(1-2p)) + sigma_n)

    Positive exactly while w < sigma_v^2 / (4 sigma_i^2 (1 + V - 2p)).
    ``p_L`` must be a root of the symmetric FOC for these params.
    """
    p_L = _require_root(p_L, params, foc_symmetric, "foc_symmetric")
    return _dpL_dw_symmetric(p_L, params.V, params.w, params.sigma_i, params.sigma_v)


def _dpL_dw_symmetric(p_L: float, V: float, w: float, sigma_i: float, sigma_v: float) -> float:
    """:func:`dpL_dw_symmetric` of plain floats, without the root check:
    for a ``p_L`` that the symmetric root solver just returned."""
    s2 = sigma_v**2 + 4.0 * sigma_i**2 * w**2
    num = (1.0 - 2.0 * p_L) * _PHI0 * (4.0 * sigma_i**2 * w * (2.0 * p_L - V - 1.0) + sigma_v**2)
    den = s2 * (2.0 * _PHI0 * (V + w + 2.0 * (1.0 - 2.0 * p_L)) + math.sqrt(s2))
    if den < sys.float_info.min:
        # den underflows (s2 is subnormal, so its few bits are all den has):
        # divide both by s2 = sn^2, taking each part as a ratio to sn
        sn = math.hypot(sigma_v, 2.0 * sigma_i * w)
        k = 2.0 * sigma_i / sn
        num = (1.0 - 2.0 * p_L) * _PHI0 * (
            k * w * k * (2.0 * p_L - V - 1.0) + (sigma_v / sn) ** 2
        )
        den = 2.0 * _PHI0 * (V + w + 2.0 * (1.0 - 2.0 * p_L)) + sn
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
        p_L = _require_root(p_L, params, foc_symmetric_valence_only, "foc_symmetric_valence_only")
        return (1.0 - 2.0 * p_L) * _PHI0 / (
            2.0 * _PHI0 * (params.V + params.w + 2.0 * (1.0 - 2.0 * p_L)) + params.sigma_v
        )
    if which == "ideology_only":
        p_L = _require_root(
            p_L, params, foc_symmetric_ideology_only, "foc_symmetric_ideology_only"
        )
        return -(1.0 - 2.0 * p_L) * (params.V + 1.0 - 2.0 * p_L) * _PHI0 / (
            2.0
            * params.w
            * (
                _PHI0 * (params.V + params.w + 2.0 * (1.0 - 2.0 * p_L))
                + params.sigma_i * params.w
            )
        )
    raise InvalidParamsError(f"which must be 'valence_only' or 'ideology_only', got {which!r}")
