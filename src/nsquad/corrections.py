"""Euler-Maclaurin error corrections for the punctured trapezoidal rule.

The corrected rule is T_h + E where E estimates I - T_h.  E splits into a
"singular" series that extends the finite-part corrections continuously in
the near-singularity strength, and a "jump" term proportional to pi/(c d).
Closed forms are available when the smooth numerator g extends analytically
to a complex neighborhood of the near-singular point; otherwise a truncated
series driven by stencil derivatives of g is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import _interp
from .emcoeff import CoeffParams, pks_quotients, pks_seeds, pks_table
from .specfun import digamma, trigamma

FD_STENCIL = 9          # nodes used for stencil derivatives of g
FD_DERIV_MAX = 6        # highest derivative the truncated series consumes

# Below this, the removable first term of the off-mesh hypersingular formula
# is evaluated by series.
SMALL_S = 0.05

# The closed form's cancelling term Q carries a rounding error of about
# eps * lam/(s^2 + lam^2) relative to the correction.  Above this ratio Q is
# summed from its Taylor series through order Q_SERIES_ORDER instead; the
# ratio then forces s^2 + lam^2 < 1/100, so the omitted terms are negligible.
Q_SERIES_RATIO = 10.0
Q_SERIES_ORDER = 8


@dataclass
class GEval:
    """The smooth numerator g.

    real_eval samples g on the real line; complex_eval, when present, must
    agree with real_eval there and be analytic within `radius` of the points
    where it is used.
    """

    real_eval: Callable[[float], float]
    complex_eval: Optional[Callable[[complex], complex]] = None
    radius: float = 0.5

    @classmethod
    def analytic(cls, f: Callable, radius: float = 0.5) -> "GEval":
        """Wrap a function that accepts both real and complex arguments."""
        return cls(real_eval=lambda x: float(f(x)), complex_eval=f, radius=radius)

    def consistency_gap(self, x: float) -> float:
        """|complex_eval(x) - real_eval(x)| relative to scale, for diagnostics."""
        if self.complex_eval is None:
            return 0.0
        cv = complex(self.complex_eval(complex(x, 0.0)))
        rv = self.real_eval(x)
        return abs(cv - rv) / max(abs(rv), 1e-300)


@dataclass(frozen=True)
class CorrectionBreakdown:
    """Correction E = singular_part + jump_part with bookkeeping."""

    singular_part: float
    jump_part: float
    total: float
    terms_used: int
    method: str


def _breakdown(singular: float, jump: float, terms: int, method: str) -> CorrectionBreakdown:
    singular = float(singular)
    jump = float(jump)
    return CorrectionBreakdown(singular, jump, singular + jump, terms, method)


def taylor_coeffs(complex_eval: Callable, center: float, count: int,
                  radius: float) -> np.ndarray:
    """Taylor coefficients a_k = g^(k)(center)/k!, k < count, by contour sampling."""
    m = 128
    theta = 2.0 * np.pi * np.arange(m) / m
    pts = center + radius * np.exp(1j * theta)
    vals = np.array([complex(complex_eval(p)) for p in pts])
    coeffs = np.fft.fft(vals) / m
    k = np.arange(count)
    return (coeffs[:count] / radius ** k).real


def fd_derivatives(samples: Sequence[float], h: float, x_s: float) -> np.ndarray:
    """Derivatives g^(0..6)(x_s) from the 9 mesh samples nearest the puncture.

    `samples` holds g at the uniform nodes centered on the puncture node
    (which may be sampled: only the kernel is singular there, not g) and
    `x_s` is the near-singular point relative to the stencil center,
    |x_s| <= h/2.  The derivatives are those of the degree-8 interpolant.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (FD_STENCIL,):
        raise ValueError(f"expected {FD_STENCIL} stencil samples")
    if abs(x_s) > 0.5 * h + 1e-12 * h:
        raise ValueError("x_s must lie within half a mesh step of the stencil center")
    t = np.arange(FD_STENCIL, dtype=float) - (FD_STENCIL // 2)
    d = _interp.stencil_derivatives(t, samples, x_s / h, FD_DERIV_MAX)
    k = np.arange(FD_DERIV_MAX + 1)
    return d / h ** k.astype(float)


def g_taylor(g: GEval, x_s: float, kmax: int) -> np.ndarray:
    """Taylor coefficients a_k = g^(k)(x_s)/k!, k = 0..kmax, from g's contour."""
    if g.complex_eval is None:
        raise ValueError("no derivative source for g: supply complex_eval, "
                         "or pass stencil derivatives of the mesh samples")
    r = min(0.4, 0.8 * g.radius)
    return taylor_coeffs(g.complex_eval, x_s, kmax + 1, r)


def correction_offmesh_closed(g: GEval, c: float, d: float, h: float,
                              s: float, x_s: float) -> CorrectionBreakdown:
    """Closed-form correction for a near singularity at x_s = node + s h.

    With lam = d/(c h), G = g(x_s + i lam h) and g_node = g(x_s - s h):

    E = -(1/(c^2 h)) [p_{0,s} Re G + p_{1,s} Im G/lam + Q] + (pi/(c d)) Re G,
    Q = (Re G - g_node - (s/lam) Im G)/(s^2 + lam^2).

    This holds for every s in [-1/2, 1/2]; a target on a node is s = 0.  Q
    is the only term that cancels.  When lam/(s^2 + lam^2) > Q_SERIES_RATIO
    it is summed from its Taylor series sum_{k=2..8} q_k a_k h^k instead,
    with the q_k of `pks_quotients` and contour coefficients a_k of g at
    x_s; `terms_used` then reports the series order (0 otherwise).
    """
    if d <= 0.0:
        raise ValueError("correction_offmesh_closed requires d > 0 "
                         "(d = 0 takes the finite-part path)")
    if not -0.5 <= s <= 0.5:
        raise ValueError("s must lie in [-1/2, 1/2]")
    if g.complex_eval is None:
        raise ValueError("closed-form correction needs a complex evaluator for g")
    lam = d / (c * h)
    lamh = lam * h
    p0, p1 = pks_seeds(lam, s)
    gval = complex(g.complex_eval(complex(x_s, lamh)))
    denom = s * s + lam * lam
    if lam > Q_SERIES_RATIO * denom:
        q = pks_quotients(lam, s, Q_SERIES_ORDER)
        a = g_taylor(g, x_s, Q_SERIES_ORDER)
        quotient = 0.0
        for k in range(Q_SERIES_ORDER, 1, -1):
            quotient += q[k] * a[k] * h ** k
        terms = Q_SERIES_ORDER
    else:
        g_node = g.real_eval(x_s - s * h)
        quotient = (gval.real - g_node - s / lam * gval.imag) / denom
        terms = 0
    bracket = p0 * gval.real + p1 * gval.imag / lam + quotient
    singular = -bracket / (c * c * h)
    jump = math.pi / (c * d) * gval.real
    return _breakdown(singular, jump, terms, "closed-form")


def correction_series_truncated(g: GEval, c: float, d: float, h: float,
                                s: float, x_s: float, K: int = FD_DERIV_MAX,
                                derivs: Sequence[float] | None = None
                                ) -> CorrectionBreakdown:
    """Truncated-series correction through derivative order K.

    Singular terms carry the coefficients p_{k,s} for every s (at s = 0
    these are 2 z_k on even k and 0 on odd k).  The jump series is
    truncated at the same K.  Derivatives of g at x_s come from `derivs`,
    or else by contour sampling of g.complex_eval.
    """
    if d <= 0.0:
        raise ValueError("series correction requires d > 0")
    lam = d / (c * h)
    p = pks_table(CoeffParams(lam=lam, s=s, h=h, k_max=K))
    if derivs is not None:
        fact = np.array([math.factorial(k) for k in range(K + 1)], dtype=float)
        a = np.asarray(derivs[:K + 1], dtype=float) / fact
    else:
        a = g_taylor(g, x_s, K)
    singular = 0.0
    for k in range(K + 1):
        singular -= p[k] * a[k] * h ** (k - 1) / (c * c)
    jump_sum = 0.0
    ratio = -(d * d) / (c * c)
    for k2 in range(0, K + 1, 2):
        jump_sum += a[k2] * ratio ** (k2 // 2)
    jump = math.pi / (c * d) * jump_sum
    return _breakdown(singular, jump, K, "truncated-series")


def hypersingular_offmesh(g: GEval, h: float, s: float, x_s: float | None = None,
                          derivs: Sequence[float] | None = None) -> float:
    """Finite-part correction for the kernel 1/(x - x_s)^2, x_s = node + s h.

    E = (g(node) - g(x_s) + s h g'(x_s)) h / (s h)^2
        - (zeta(2,1-s) + zeta(2,1+s)) g(x_s) / h
        - (psi(1+s) - psi(1-s)) g'(x_s)

    By default the puncture node is the origin (x_s = s h).  For |s| below
    SMALL_S the removable first term is evaluated by its Taylor series
    (leading term g''(x_s) h / 2), which is exact at s = 0 and avoids
    catastrophic cancellation for small offsets.  Derivatives of g at x_s
    come from `derivs`, or else by contour sampling of g.complex_eval.
    """
    if not -0.5 <= s <= 0.5:
        raise ValueError("s must lie in [-1/2, 1/2]")
    if x_s is None:
        x_s = s * h
    node = x_s - s * h
    kmax = FD_DERIV_MAX if abs(s) <= SMALL_S else 1
    if derivs is not None:
        fact = np.array([math.factorial(k) for k in range(len(derivs))], dtype=float)
        a = np.asarray(derivs, dtype=float) / fact[:len(derivs)]
        if len(a) < kmax + 1:
            raise ValueError(f"need derivatives through order {kmax}")
    else:
        a = g_taylor(g, x_s, max(kmax, 2))
    g_s = g.real_eval(x_s)
    gp = a[1]
    if abs(s) <= SMALL_S:
        sh = s * h
        first = 0.0
        for k in range(len(a) - 1, 1, -1):
            first = first * (-sh) + a[k]
        first *= h
    else:
        g_node = g.real_eval(node)
        first = (g_node - g_s + s * h * gp) / (s * s * h)
    return float(first
                 - (trigamma(1.0 - s) + trigamma(1.0 + s)) / h * g_s
                 - (digamma(1.0 + s) - digamma(1.0 - s)) * gp)
