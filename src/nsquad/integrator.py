"""High-level API: corrected near-singular and finite-part integration.

Given the smooth numerator g, the kernel parameters (a, c, d, x_s) and a
mesh half-count n, these routines place the target on the mesh once (the
puncture j and offset s of `puncture_split`, and lam = d/(c h)), read g's
samples on the 2n+1 nodes and build the punctured trapezoidal sum on that
lattice (`_mesh_pass`), add the correction (the closed form in g or in
g's Taylor polynomial from the 9 samples around the puncture: the pole form
for lam >= 1, the seeds' form below; `_corrected`, where only the closed
form calls g again, for G, and not where lam >= 5.97) and return the
corrected value with a breakdown (`_correct`, which adds what only a result
reports: the check of complex_eval at the puncture node and the
end-correction warning).  The convergence study of `cli` reads every method
from one pass and takes the corrected values from `_corrected` alone.  The
coefficient cross-checks (`self_check`) live in `verify`.

Each input is checked once, at the entry: the kernel by `_check_kernel`
(which `KernelParams` runs when it is built and `integrate_finite_part`
runs on its a and x_s), n and the mesh scale in `_mesh_pass`, and the 9
samples around the puncture once, as one list of floats that every
correction reads.  From there `_mesh_pass` and `_corrected` run on Python
floats and call the unchecked core of `corrections`, with lam passed in.

A GEval stands for one fixed function: it samples g once per node (the 4
most recent meshes, up to 1 MB per GEval at n = 16384) and reuses those
samples for every target (`GEval.mesh_samples`).  Meshes of the same a
nested by a power of 2 share the samples of their common nodes, so a mesh
of twice the n calls g at its new nodes only; a `*3` range shares nothing.
To integrate a changed g, build a new GEval.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .corrections import (
    FD_STENCIL,
    CorrectionBreakdown,
    GEval,
    _check_kernel_scales,
    _check_mesh_scale,
    _check_window,
    _closed_correction,
    _stencil_poly,
    _taylor_correction,
)
from .meshrule import Mesh, _node_array, _rule_sums

METHODS = ("auto", "closed-form", "fd-series")

_EPS = sys.float_info.epsilon
# End-correction estimate, relative to max(|value|, 1), above which a result warns
_EDGE_WARN_RATIO = 3e-11
# one immutable Mesh per (a, n) recently integrated on; typed, so that
# n = 64.0 is validated (and rejected) apart from n = 64
_mesh = lru_cache(maxsize=32, typed=True)(Mesh)


def _check_kernel(a: float, c: float, d: float, x_s: float) -> None:
    """ValueError unless a, c, d and x_s are finite, a and c positive, d
    nonnegative, |x_s| < a, and c and d within `_check_kernel_scales` with a
    d^2 that does not overflow: the one check of a kernel's parameters."""
    if not (math.isfinite(a) and math.isfinite(c) and math.isfinite(d)
            and math.isfinite(x_s)):
        name, value = next((name, value) for name, value in
                           (("a", a), ("c", c), ("d", d), ("x_s", x_s))
                           if not math.isfinite(value))
        raise ValueError(f"{name} must be finite, got {value!r}")
    if a <= 0.0 or c <= 0.0:
        raise ValueError("a and c must be positive")
    if d < 0.0:
        raise ValueError("d must be nonnegative (the kernel depends on d^2; "
                         "negate the jump part for the d < 0 operator limit)")
    if not abs(x_s) < a:
        raise ValueError("x_s must lie strictly inside (-a, a)")
    _check_kernel_scales(c, d)
    if math.isinf(d * d):
        raise ValueError(f"d = {d!r} is out of range: d^2 overflows")


@dataclass(frozen=True)
class KernelParams:
    """Kernel 1/(d^2 + c^2 (x - x_s)^2) on [-a, a]."""

    a: float
    c: float = 1.0
    d: float = 0.0
    x_s: float = 0.0

    def __post_init__(self):
        _check_kernel(self.a, self.c, self.d, self.x_s)


@dataclass
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


def _mesh_pass(g: GEval, a: float, c: float, d: float, x_s: float, n: int) -> tuple:
    """Everything a target needs from g before its correction, from the
    GEval's samples on the mesh, for a kernel that `_check_kernel` passed.

    Returns (mesh, j, s, lam, gvals, window, samples, f, uncorrected,
    edge_err): the puncture j and offset s of `puncture_split`,
    lam = d/(c h), g at the mesh nodes (`GEval.mesh_samples`), the 9 of them
    around the puncture as floats, checked once (`_check_window`), and the
    same 9 as the read-only view of gvals that the stencil fit subtracts
    on, c^2 h^2 times the kernel samples, f = g/((m - s)^2 + lam^2) in mesh
    units (m = k - j exact: the lattice the correction assumes), its
    punctured entry 0, and the punctured sum of the kernel samples and its
    estimated end-correction error, as a tuple.  The sum and the estimate
    are taken on a unit step, then divided by c^2 and by h (never by
    (c h)^2, which may underflow).  Every method reads the same pass
    through `_corrected`.
    """
    mesh = _mesh(a, n)
    h = mesh.h
    if n < 16:
        raise ValueError("n must be at least 16")
    if not abs(x_s) < a - 10.0 * h:
        raise ValueError("x_s too close to an endpoint for the correction "
                         "stencils (need |x_s| < a - 10h)")
    _check_mesh_scale(c, h)
    j, s = puncture_split(x_s, h)
    lam, gvals, i = d / (c * h), g.mesh_samples(mesh), n + j
    # m - s = k - (j + s), k the cached nodes of the unit-step mesh and
    # j + s = x_s/h exactly: the denominators in place, then f
    f = _node_array(float(n), n) - (j + s)
    f *= f
    if lam > 0.0:   # at lam = 0 it would add +0.0 to squares
        f += lam * lam
    f[i] = 1.0
    np.divide(gvals, f, out=f)
    f[i] = 0.0
    total, edge_err = _rule_sums(1.0, f)
    i0 = i - FD_STENCIL // 2
    samples = gvals[i0:i0 + FD_STENCIL]
    window = _check_window(samples.tolist())
    c2 = c ** 2
    return mesh, j, s, lam, gvals, window, samples, f, total / c2 / h, edge_err / c2 / h


def _corrected(g: GEval, c: float, d: float, x_s: float, sampled: tuple,
               method: str) -> tuple[float, CorrectionBreakdown, str]:
    """(value, breakdown, method used) of `method`, "closed-form" or
    "fd-series", on the pass `sampled` of `_mesh_pass` (d = 0 takes the
    finite part for either): the correction and nothing a result reports
    beside it.  Only the closed form calls g again, for G where lam < 5.97
    (`_closed_correction`).  ValueError where the value is not finite."""
    mesh, _, s, lam, _, window, samples, _, uncorrected, _ = sampled
    if d > 0.0 and method == "closed-form":
        breakdown = _closed_correction(g, c, d, mesh.h, s, x_s, window, samples, lam)
        used = "closed-form"
    else:
        breakdown = _taylor_correction(_stencil_poly(window, samples, s), c, d, mesh.h, s, lam)
        used = "finite-part" if d == 0.0 else "fd-series"
    value = uncorrected + breakdown.total
    if not math.isfinite(value):
        raise ValueError(f"the result is not finite: the sum {uncorrected!r} plus the "
                         f"correction {breakdown.total!r} leaves the float range at "
                         f"a = {mesh.a!r}, c = {c!r}, d = {d!r}, n = {mesh.n}")
    return value, breakdown, used


def _correct(g: GEval, c: float, d: float, x_s: float, sampled: tuple,
             method: str) -> QuadResult:
    """The result of `method` on the pass `sampled`: `_corrected`, then what
    only a result reports, the check of complex_eval at the puncture node
    against that node's sample (closed form only) and the end-correction
    warning."""
    value, breakdown, used = _corrected(g, c, d, x_s, sampled, method)
    # `_corrected` unpacked the pass: take by index only what a result reports
    mesh, j, window = sampled[0], sampled[1], sampled[5]
    h = mesh.h
    warnings = []
    if used == "closed-form":
        g_node = window[FD_STENCIL // 2]
        gap = g.consistency_gap(j * h, g_node)
        if gap > 4.0 * _EPS * abs(g_node):
            # near a root of g, |g| at the node is no scale, and nor is |g| on
            # the window when h is small: take g's size on the whole mesh
            gap /= max(abs(g_node), float(np.abs(sampled[4]).max()), 1e-300)
            if gap > 4.0 * _EPS:
                warnings.append(f"complex_eval disagrees with real_eval at the puncture "
                                f"node (relative gap {gap:.2e})")
    edge_err = sampled[9]
    if edge_err > _EDGE_WARN_RATIO * max(abs(value), 1.0):
        warnings.append(f"end corrections may be off by {edge_err:.1e}; increase n")
    summary = MeshSummary(mesh.a, mesh.n, h, j, sampled[2])
    return QuadResult(value, sampled[8], breakdown, summary, used, warnings)


def integrate_near_singular(g: GEval, params: KernelParams, n: int,
                            method: str = "auto") -> QuadResult:
    """Corrected punctured-trapezoidal value of the near-singular integral.

    The puncture is the mesh node nearest x_s, at offset s in [-1/2, 1/2]
    (s = 0 on a node).  `method` selects the closed form in g.complex_eval
    ("closed-form"), the same form on g's Taylor polynomial through order 6
    from the 9 mesh samples nearest the puncture ("fd-series"), or `auto`
    (closed-form when a complex evaluator is available).  d = 0 takes the
    Taylor form without the jump (the finite part), on the same 9 samples.
    g is sampled once per mesh node and GEval (`GEval.mesh_samples`: a
    mesh nested by a power of 2 in a kept mesh of the same a, or around
    one, reuses its samples); beyond that only the closed form calls g, to
    check complex_eval at the puncture node and, where lam = d/(c h) < 5.97,
    for G.
    "closed-form" with a d > 0 and no complex_eval raises before g is
    sampled.  A warning reports an estimated end-correction error above
    3e-11 max(|value|, 1).
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    c, d, x_s = params.c, params.d, params.x_s
    if method == "auto":
        method = "fd-series" if g.complex_eval is None else "closed-form"
    elif method == "closed-form" and d > 0.0 and g.complex_eval is None:
        raise ValueError("closed-form correction needs a complex evaluator for g")
    return _correct(g, c, d, x_s, _mesh_pass(g, params.a, c, d, x_s, n), method)


def integrate_finite_part(g: GEval, a: float, x_s: float, n: int) -> QuadResult:
    """Hadamard finite part of the integral of g(x)/(x - x_s)^2 over [-a, a]."""
    _check_kernel(a, 1.0, 0.0, x_s)
    # at d = 0 every method takes the finite part
    return _correct(g, 1.0, 0.0, x_s, _mesh_pass(g, a, 1.0, 0.0, x_s, n), "fd-series")
