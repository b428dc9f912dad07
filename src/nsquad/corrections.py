"""Euler-Maclaurin error corrections for the punctured trapezoidal rule.

The corrected rule is T_h + E where E estimates I - T_h.  E splits into a
"singular" series that extends the finite-part corrections continuously in
the near-singularity strength, and a "jump" term proportional to pi/(c d).
Both are one closed form in G = g(x_s + i d/c).  G is exact when the smooth
numerator g extends analytically to a complex neighborhood of x_s
(`correction_offmesh_closed`); otherwise it is G of g's Taylor polynomial at
x_s (`correction_taylor`), which at d = 0 is the finite-part correction.
Every Taylor coefficient of g comes from one source, the degree-8
interpolant on the 9 mesh samples around the puncture (`stencil_taylor`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .emcoeff import pks_quotients, pks_seeds

FD_STENCIL = 9          # nodes used for stencil derivatives of g
FD_DERIV_MAX = 6        # highest derivative taken from the stencil
_FACTORIALS = np.array([math.factorial(k) for k in range(FD_DERIV_MAX + 1)], dtype=float)
_DERIV_ORDERS = np.arange(FD_DERIV_MAX + 1, dtype=float)

# The closed form's cancelling term Q carries a rounding error of about
# eps * lam/(s^2 + lam^2) relative to the correction.  Above this ratio Q is
# summed from its Taylor series through the stencil's order FD_DERIV_MAX
# instead; the ratio then forces s^2 + lam^2 < lam/10 < 1/100, where the
# omitted quotients q_7 and q_8 are below 2e-6.
Q_SERIES_RATIO = 10.0


@dataclass
class GEval:
    """The smooth numerator g.

    real_eval samples g on the real line; complex_eval, when present, must
    agree with real_eval there and be analytic between x_s and x_s + i d/c.
    Both take and return scalars: real_eval a real number, complex_eval a
    complex one.  `sample` evaluates g on arrays, in one call when g was
    built by `analytic`.  `radius`, a distance within which g is analytic
    around the real points of interest, is read by no integration path; it
    sizes the contour of `oracle.finite_part_reference`.
    """

    real_eval: Callable[[float], float]
    complex_eval: Optional[Callable[[complex], complex]] = None
    radius: float = 0.5
    # f of `analytic`, while it still accepts arrays
    _array_f: Optional[Callable] = field(default=None, init=False, repr=False,
                                         compare=False)

    def __post_init__(self):
        if not 0.0 < self.radius < math.inf:
            raise ValueError(f"radius must be finite and positive, got {self.radius!r}")

    @classmethod
    def analytic(cls, f: Callable, radius: float = 0.5) -> "GEval":
        """Wrap a function that accepts real and complex arguments, scalars or arrays.

        f is called once per array of points; if it rejects arrays (raises
        TypeError or ValueError, or returns the wrong shape, or a complex
        dtype on the real line), g falls back to one call per point for good.
        """
        g = cls(real_eval=lambda x: float(f(x)), complex_eval=f, radius=radius)
        g._array_f = f
        return g

    def sample(self, points: np.ndarray) -> np.ndarray:
        """g at every point of a 1-D real or complex array.

        Without an array-capable f, the scalar evaluator is called once per
        point, in order, with Python floats or complexes.  A value numpy cannot
        store as a real (real_eval) or complex (complex_eval) number raises
        ValueError: a Python complex from real_eval is rejected, not truncated
        to its real part.
        """
        is_complex = points.dtype.kind == "c"
        if self._array_f is not None:
            values = self._sample_array(points, is_complex)
            if values is not None:
                return values
        if is_complex:
            if self.complex_eval is None:
                raise ValueError("complex points need a complex evaluator for g")
            ev, name, dtype = self.complex_eval, "complex_eval", complex
        else:
            ev, name, dtype = self.real_eval, "real_eval", float
        try:
            return np.fromiter(map(ev, points.tolist()), dtype, count=len(points))
        except TypeError as exc:
            if exc.__traceback__.tb_next is not None:
                raise  # raised inside the evaluator, not by the conversion
            kind = "complex" if is_complex else "real"
            raise ValueError(f"{name} must return a {kind} number ({exc})") from exc

    def _sample_array(self, points: np.ndarray, is_complex: bool) -> Optional[np.ndarray]:
        """f(points) as float or complex values; None, and no further tries, if f
        rejects arrays."""
        try:
            values = np.asarray(self._array_f(points))
            if values.shape == points.shape and (is_complex or values.dtype.kind != "c"):
                return values.astype(complex if is_complex else float, copy=False)
        except (TypeError, ValueError):
            pass
        self._array_f = None
        return None

    def consistency_gap(self, x: float, real_value: float) -> float:
        """|complex_eval(x) - real_value|, for diagnostics; `real_value` is g(x)
        as already sampled on the real axis.  The caller picks the scale."""
        if self.complex_eval is None:
            return 0.0
        return abs(complex(self.complex_eval(complex(x, 0.0))) - real_value)


@dataclass(frozen=True)
class CorrectionBreakdown:
    """Correction E = singular_part + jump_part with bookkeeping."""

    singular_part: float
    jump_part: float
    total: float
    terms_used: int


@lru_cache(maxsize=1)
def _stencil_operator() -> np.ndarray:
    """The 9x9 map from samples at t = -4..4 to the coefficients of t^0..t^8 of
    their interpolant (the inverse Vandermonde matrix).  Column i is the
    Lagrange polynomial of node i, prod_{j != i} (t - t_j)/(t_i - t_j): its
    integer numerator coefficients and denominator are exact in floats, so
    each entry is the exact rational rounded once."""
    t = np.arange(FD_STENCIL) - FD_STENCIL // 2
    cols = []
    for i in range(FD_STENCIL):
        others = np.delete(t, i)
        cols.append(np.poly(others)[::-1] / np.prod(t[i] - others))
    op = np.array(cols).T
    op.flags.writeable = False
    return op


def fd_derivatives(samples: Sequence[float], h: float, x_s: float) -> np.ndarray:
    """Derivatives g^(0..6)(x_s) from the 9 mesh samples nearest the puncture.

    `samples` holds g at the uniform nodes centered on the puncture node
    (which may be sampled: only the kernel is singular there, not g) and
    `x_s` is the near-singular point relative to the stencil center,
    |x_s| <= h/2.  The derivatives are those of the degree-8 interpolant:
    its coefficients about the center, a fixed linear map of the samples,
    Taylor-shifted to u = x_s/h.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (FD_STENCIL,):
        raise ValueError(f"expected {FD_STENCIL} stencil samples")
    if abs(x_s) > 0.5 * h + 1e-12 * h:
        raise ValueError("x_s must lie within half a mesh step of the stencil center")
    # the map reproduces constants: apply it to the differences from the
    # center sample, which are small and for nearby values exact
    center = float(samples[FD_STENCIL // 2])
    a = (_stencil_operator() @ (samples - center)).tolist()
    a[0] += center
    u = x_s / h
    # synthetic division by (t - u), once per order: a[k] becomes the
    # coefficient of (t - u)^k, final after pass k
    for k in range(FD_DERIV_MAX + 1):
        for j in range(FD_STENCIL - 2, k - 1, -1):
            a[j] += u * a[j + 1]
    return np.array(a[:FD_DERIV_MAX + 1]) * _FACTORIALS / h ** _DERIV_ORDERS


def _checked_window(window: Sequence[float]) -> np.ndarray:
    """`window` as floats; ValueError unless it holds 9 finite values."""
    window = np.asarray(window, dtype=float)
    values = window.tolist()  # a finite sum means all are finite; else huge ones may overflow
    if window.shape != (FD_STENCIL,) or not (math.isfinite(sum(values))
                                             or all(map(math.isfinite, values))):
        raise ValueError(f"window must hold g at the {FD_STENCIL} nodes around "
                         "the puncture, all finite")
    return window


def stencil_taylor(window: Sequence[float], h: float, offset: float) -> np.ndarray:
    """Taylor coefficients a_k = g^(k)(x_s)/k!, k = 0..6, from the 9 mesh samples
    around the puncture: g at the nodes x_s - offset + k h, k = -4..4, all finite."""
    return fd_derivatives(_checked_window(window), h, offset) / _FACTORIALS


def _quotient_series(lam: float, s: float, a: Sequence[float], h: float) -> float:
    """Q = sum_{k=2..K} q_k a_k h^k, K = len(a) - 1, summed from the top order down."""
    q = pks_quotients(lam, s, len(a) - 1).tolist()
    quotient = 0.0
    for k in range(len(a) - 1, 1, -1):
        quotient += q[k] * a[k] * h ** k
    return quotient


def _assemble(bracket: float, re_g: float, c: float, d: float, h: float,
              terms: int) -> CorrectionBreakdown:
    """E = -bracket/(c^2 h) + (pi/(c d)) Re G; the jump is omitted at d = 0."""
    singular = float(-bracket / (c * c * h))
    jump = float(math.pi / (c * d) * re_g) if d > 0.0 else 0.0
    return CorrectionBreakdown(singular, jump, singular + jump, terms)


def _check_scales(c: float, d: float, h: float) -> None:
    """c and h finite and positive, d finite (its sign is each caller's rule)."""
    if not (0.0 < c < math.inf and 0.0 < h < math.inf):  # NaN fails both
        raise ValueError(f"c and h must be finite and positive, got c = {c!r}, h = {h!r}")
    if not math.isfinite(d):
        raise ValueError(f"d must be finite, got {d!r}")


def correction_offmesh_closed(g: GEval, c: float, d: float, h: float, s: float,
                              x_s: float, window: Sequence[float]) -> CorrectionBreakdown:
    """Closed-form correction for a near singularity at x_s = node + s h.

    `window` holds g at the 9 nodes x_s - s h + k h, k = -4..4, as the mesh
    sampled them, all finite.  With lam = d/(c h), G = g(x_s + i lam h) and g_node =
    window[4] = g(x_s - s h):

    E = -(1/(c^2 h)) [p_{0,s} Re G + p_{1,s} Im G/lam + Q] + (pi/(c d)) Re G,
    Q = (Re G - g_node - (s/lam) Im G)/(s^2 + lam^2).

    This holds for every s in [-1/2, 1/2]; a target on a node is s = 0.  Q
    is the only term that cancels.  When lam/(s^2 + lam^2) > Q_SERIES_RATIO
    it is summed from its Taylor series sum_{k=2..6} q_k a_k h^k instead,
    with the q_k of `pks_quotients` and the a_k of `stencil_taylor` on
    `window`; `terms_used` then reports the series order (0 otherwise).
    """
    _check_scales(c, d, h)
    if not math.isfinite(x_s):
        raise ValueError(f"x_s must be finite, got {x_s!r}")
    if d <= 0.0:
        raise ValueError("correction_offmesh_closed requires d > 0 "
                         "(d = 0 takes the finite-part path)")
    if g.complex_eval is None:
        raise ValueError("closed-form correction needs a complex evaluator for g")
    lam = d / (c * h)
    p0, p1 = pks_seeds(lam, s)
    gval = complex(g.complex_eval(complex(x_s, lam * h)))
    denom = s * s + lam * lam
    if lam > Q_SERIES_RATIO * denom:
        a = stencil_taylor(window, h, s * h).tolist()   # checks the window
        quotient = _quotient_series(lam, s, a, h)
        terms = FD_DERIV_MAX
    else:
        g_node = float(_checked_window(window)[FD_STENCIL // 2])
        quotient = (gval.real - g_node - s / lam * gval.imag) / denom
        terms = 0
    bracket = p0 * gval.real + p1 * gval.imag / lam + quotient
    return _assemble(bracket, gval.real, c, d, h, terms)


def correction_taylor(a: Sequence[float], c: float, d: float, h: float,
                      s: float) -> CorrectionBreakdown:
    """The closed form on g's Taylor polynomial a_k = g^(k)(x_s)/k!, k = 0..K, any d >= 0.

    With lam = d/(c h): Re G = sum_m a_{2m} (-(lam h)^2)^m, Im G/lam =
    h sum_m a_{2m+1} (-(lam h)^2)^m (finite at lam = 0) and Q = sum_{k>=2}
    q_k a_k h^k, i.e. the singular series -sum_k p_{k,s} a_k h^(k-1)/c^2
    regrouped by p_{k,s} = q_k + (-lam^2)^m p_{k mod 2,s}.  At d = 0 the jump
    is omitted: the finite-part correction for 1/(c^2 (x - x_s)^2).
    """
    _check_scales(c, d, h)
    if d < 0.0:
        raise ValueError("correction_taylor requires d >= 0")
    lam = d / (c * h)
    p0, p1 = pks_seeds(lam, s)
    a = np.asarray(a, dtype=float).tolist()
    mu = -(d / c) ** 2
    even = sum(ak * mu ** m for m, ak in enumerate(a[0::2]))
    odd = sum(ak * mu ** m for m, ak in enumerate(a[1::2]))
    bracket = p0 * even + p1 * (h * odd) + _quotient_series(lam, s, a, h)
    return _assemble(bracket, even, c, d, h, len(a) - 1)
