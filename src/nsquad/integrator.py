"""High-level API: corrected near-singular and finite-part integration.

Given the smooth numerator g, the kernel parameters (a, c, d, x_s) and a
mesh half-count n, these routines sample g once on the mesh and build the
punctured trapezoidal sum (`_mesh_pass`), add the correction (the closed
form in g itself, or in g's Taylor polynomial from the 9 samples around the
puncture; `_correct`) and return the corrected value with a breakdown.  The
convergence study of `cli` reads every method from one pass.  The
coefficient cross-checks (`self_check`) live in `verify`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corrections import (
    FD_STENCIL,
    CorrectionBreakdown,
    GEval,
    correction_offmesh_closed,
    correction_taylor,
    stencil_taylor,
)
from .meshrule import Mesh, end_error_estimate, punctured_trapezoid

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
    """g and the kernel samples f at the mesh nodes (f at the puncture is NaN where
    the kernel's denominator is 0), and g(x_s) for the consistency check or None."""
    nodes = mesh.nodes()
    if g.complex_eval is None:
        gvals, g_xs = g.sample(nodes), None
    else:
        points = np.empty(len(nodes) + 1)
        points[:-1] = nodes
        points[-1] = params.x_s
        gvals = g.sample(points)
        gvals, g_xs = gvals[:-1], gvals[-1]
    f = nodes - params.x_s   # the denominators in place, then f
    f *= f
    f *= params.c ** 2
    f += params.d ** 2
    i = mesh.n + puncture
    denom_i, f[i] = float(f[i]), 1.0
    np.divide(gvals, f, out=f)
    # a Python division: a zero or subnormal denominator there raises no numpy warning
    f[i] = float(gvals[i]) / denom_i if denom_i else math.nan
    return gvals, f, g_xs


def _mesh_pass(g: GEval, params: KernelParams, n: int) -> tuple:
    """Everything a target needs from g before its correction, in one sampling.

    Returns (mesh, j, s, gvals, f, uncorrected, edge_err, warnings): the
    puncture j and offset s, g and the kernel samples f at the mesh nodes,
    the punctured sum of f, its estimated end-correction error and the
    consistency warning, if any, as a tuple.  Every method reads the same
    pass through `_correct`.
    """
    mesh = Mesh(params.a, n)
    if n < 16:
        raise ValueError("n must be at least 16")
    if not abs(params.x_s) < params.a - 10.0 * mesh.h:
        raise ValueError("x_s too close to an endpoint for the correction "
                         "stencils (need |x_s| < a - 10h)")
    j, s = puncture_split(params.x_s, mesh.h)
    gvals, f, g_xs = _kernel_samples(g, params, mesh, j)
    warnings = ()
    if g_xs is not None:
        gap = g.consistency_gap(params.x_s, g_xs)
        if gap > 4.0 * _EPS * abs(g_xs):
            # near a root of g, |g(x_s)| is no scale, and nor is |g| on the
            # window when h is small: take g's size on the whole mesh
            gap /= max(abs(g_xs), float(np.abs(gvals).max()), 1e-300)
            if gap > 4.0 * _EPS:
                warnings = (f"complex_eval disagrees with real_eval at x_s "
                            f"(relative gap {gap:.2e})",)
    uncorrected = punctured_trapezoid(mesh, f, puncture=j)
    edge_err = end_error_estimate(mesh, f, puncture=j)
    return mesh, j, s, gvals, f, uncorrected, edge_err, warnings


def _correct(g: GEval, params: KernelParams, sampled: tuple,
             method: str) -> QuadResult:
    """The result of `method` on the pass `sampled` of `_mesh_pass`; only the
    closed form's G calls g again."""
    mesh, j, s, gvals, _, uncorrected, edge_err, warnings = sampled
    h = mesh.h
    c, d = params.c, params.d
    i0 = mesh.n + j - FD_STENCIL // 2
    window = gvals[i0:i0 + FD_STENCIL]   # the one Taylor source, also g_node
    if d > 0.0 and method != "fd-series" and (g.complex_eval is not None
                                              or method == "closed-form"):
        # raises for a real-only g, which has no closed form
        breakdown = correction_offmesh_closed(g, c, d, h, s, params.x_s, window)
        used = "closed-form"
    else:
        a = stencil_taylor(window, h, params.x_s - mesh.node(j))
        breakdown = correction_taylor(a, c, d, h, s)
        used = "finite-part" if d == 0.0 else "fd-series"

    value = uncorrected + breakdown.total
    warnings = list(warnings)
    if edge_err > _EDGE_WARN_RATIO * max(abs(value), 1.0):
        warnings.append(f"end corrections may be off by {edge_err:.1e}; increase n")
    summary = MeshSummary(params.a, mesh.n, h, j, s)
    return QuadResult(value, uncorrected, breakdown, summary, used, warnings)


def integrate_near_singular(g: GEval, params: KernelParams, n: int,
                            method: str = "auto") -> QuadResult:
    """Corrected punctured-trapezoidal value of the near-singular integral.

    The puncture is the mesh node nearest x_s, at offset s in [-1/2, 1/2]
    (s = 0 on a node).  `method` selects the closed form in g.complex_eval
    ("closed-form"), the same form on g's Taylor polynomial through order 6
    from the 9 mesh samples nearest the puncture ("fd-series"), or `auto`
    (closed-form when a complex evaluator is available).  d = 0 takes the
    Taylor form without the jump (the finite part), on the same 9 samples.
    g is sampled once on the mesh; beyond that only the closed form's G and
    the check that complex_eval matches real_eval at x_s call g.  A warning
    reports an estimated end-correction error above 3e-11 max(|value|, 1).
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    return _correct(g, params, _mesh_pass(g, params, n), method)


def integrate_finite_part(g: GEval, a: float, x_s: float, n: int) -> QuadResult:
    """Hadamard finite part of the integral of g(x)/(x - x_s)^2 over [-a, a]."""
    params = KernelParams(a=a, c=1.0, d=0.0, x_s=x_s)
    return integrate_near_singular(g, params, n, method="auto")
