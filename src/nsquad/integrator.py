"""High-level API: corrected near-singular and finite-part integration.

Given the smooth numerator g, the kernel parameters (a, c, d, x_s) and a
mesh half-count n, these routines build the punctured trapezoidal sum,
add the correction (the closed form in g itself, or in g's Taylor
polynomial) and return the corrected value with a breakdown.  The
coefficient cross-checks (`self_check`) live in `verify`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corrections import (
    FD_STENCIL,
    Q_SERIES_ORDER,
    CorrectionBreakdown,
    GEval,
    _FACTORIALS,
    correction_offmesh_closed,
    correction_taylor,
    fd_derivatives,
    g_taylor,
)
from .meshrule import (DEFAULT_SCHEME, EdgeScheme, Mesh, end_error_estimate,
                       punctured_trapezoid)

METHODS = ("auto", "closed-form", "fd-series")

_EPS = np.finfo(float).eps
# End-correction estimate, relative to max(|value|, 1), above which a result warns
_EDGE_WARN_RATIO = 3e-11


@dataclass(frozen=True)
class KernelParams:
    """Kernel 1/(d^2 + c^2 (x - x_s)^2) on [-a, a]."""

    a: float
    c: float = 1.0
    d: float = 0.0
    x_s: float = 0.0

    def __post_init__(self):
        for name in ("a", "c", "d", "x_s"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.a <= 0.0 or self.c <= 0.0:
            raise ValueError("a and c must be positive")
        if self.d < 0.0:
            raise ValueError("d must be nonnegative (the kernel depends on d^2; "
                             "negate the jump part for the d < 0 operator limit)")
        if not abs(self.x_s) < self.a:
            raise ValueError("x_s must lie strictly inside (-a, a)")
        cd = self.c * self.d
        if self.d > 0.0 and (cd == 0.0 or math.isinf(math.pi / cd)):
            raise ValueError(f"d = {self.d!r} is too small for c = {self.c!r}: "
                             f"the jump pi/(c d) overflows")


@dataclass(frozen=True)
class MeshSummary:
    a: float
    n: int
    h: float
    puncture: int
    s: float


@dataclass
class QuadResult:
    """Corrected integral value with its uncorrected base and correction breakdown."""

    value: float
    uncorrected: float
    breakdown: CorrectionBreakdown
    mesh: MeshSummary
    method: str
    warnings: list[str] = field(default_factory=list)


def puncture_split(x_s: float, h: float) -> tuple[int, float]:
    """Nearest-node index j and off-mesh fraction s = x_s/h - j in (-1/2, 1/2].

    An exact tie (x_s halfway between nodes) resolves to the left node,
    i.e. s = +1/2, so results are reproducible bit-for-bit.
    """
    t = x_s / h
    j = math.ceil(t - 0.5)
    return j, t - j


def _kernel_samples(g: GEval, params: KernelParams, mesh: Mesh,
                    puncture: int) -> tuple[np.ndarray, np.ndarray, float | None]:
    """g at the mesh nodes, the kernel samples f with the puncture left out, and
    g(x_s) for the consistency check (taken in the same pass; None if unused)."""
    nodes = mesh.nodes()
    g_xs = None
    if g.complex_eval is None:
        gvals = g.sample(nodes)
    else:
        gvals = g.sample(np.append(nodes, params.x_s))
        gvals, g_xs = gvals[:-1], gvals[-1]
    denom = params.d ** 2 + params.c ** 2 * (nodes - params.x_s) ** 2
    denom[mesh.n + puncture] = 1.0  # punctured entry is never summed
    f = gvals / denom
    f[mesh.n + puncture] = np.nan
    return gvals, f, g_xs


def _validate(params: KernelParams, n: int, mesh: Mesh) -> None:
    if n < 16:
        raise ValueError("n must be at least 16")
    h = mesh.h
    if not abs(params.x_s) < params.a - 10.0 * h:
        raise ValueError("x_s too close to an endpoint for the correction "
                         "stencils (need |x_s| < a - 10h)")


def _stencil_taylor(gvals: np.ndarray, mesh: Mesh, puncture: int,
                    x_s: float) -> np.ndarray:
    """Taylor coefficients a_k = g^(k)(x_s)/k! from the 9 samples around the puncture."""
    i0 = mesh.n + puncture - FD_STENCIL // 2
    window = gvals[i0:i0 + FD_STENCIL]
    return fd_derivatives(window, mesh.h, x_s - mesh.node(puncture)) / _FACTORIALS


def integrate_near_singular(g: GEval, params: KernelParams, n: int,
                            method: str = "auto",
                            scheme: EdgeScheme = DEFAULT_SCHEME) -> QuadResult:
    """Corrected punctured-trapezoidal value of the near-singular integral.

    The puncture is the mesh node nearest x_s, at offset s in [-1/2, 1/2]
    (s = 0 on a node).  `method` selects the closed form in g.complex_eval
    ("closed-form"), the same form on g's Taylor polynomial through order 6
    from the 9 mesh samples nearest the puncture ("fd-series"), or `auto`
    (closed-form when a complex evaluator is available).  d = 0 takes the
    Taylor form without the jump (the finite part), its coefficients from
    g's contour unless g is real-only or method is "fd-series".  A warning
    reports an estimated end-correction error above 3e-11 max(|value|, 1).
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    mesh = Mesh(params.a, n)
    _validate(params, n, mesh)
    h = mesh.h
    j, s = puncture_split(params.x_s, h)
    warnings: list[str] = []
    gvals, f, g_xs = _kernel_samples(g, params, mesh, j)
    if g_xs is not None:
        gap = g.consistency_gap(params.x_s, g_xs)
        if gap > 4.0 * _EPS:
            warnings.append(f"complex_eval disagrees with real_eval at x_s "
                            f"(relative gap {gap:.2e})")
    uncorrected = punctured_trapezoid(mesh, f, puncture=j, scheme=scheme)

    c, d = params.c, params.d
    if d > 0.0 and method != "fd-series" and (g.complex_eval is not None
                                              or method == "closed-form"):
        # raises for a real-only g, which has no closed form
        breakdown = correction_offmesh_closed(g, c, d, h, s, params.x_s)
        used = "closed-form"
    else:
        # one Taylor source: the samples already taken, or g's contour at d = 0
        if g.complex_eval is None or method == "fd-series":
            a = _stencil_taylor(gvals, mesh, j, params.x_s)
        else:
            a = g_taylor(g, params.x_s, Q_SERIES_ORDER)
        breakdown = correction_taylor(a, c, d, h, s)
        used = "finite-part" if d == 0.0 else "fd-series"

    value = uncorrected + breakdown.total
    edge_err = end_error_estimate(mesh, f, puncture=j, scheme=scheme)
    if edge_err > _EDGE_WARN_RATIO * max(abs(value), 1.0):
        warnings.append(f"end corrections may be off by {edge_err:.1e}; increase n")
    summary = MeshSummary(params.a, n, h, j, s)
    return QuadResult(value, uncorrected, breakdown, summary, used, warnings)


def integrate_finite_part(g: GEval, a: float, x_s: float, n: int,
                          scheme: EdgeScheme = DEFAULT_SCHEME) -> QuadResult:
    """Hadamard finite part of the integral of g(x)/(x - x_s)^2 over [-a, a]."""
    params = KernelParams(a=a, c=1.0, d=0.0, x_s=x_s)
    return integrate_near_singular(g, params, n, method="auto", scheme=scheme)
