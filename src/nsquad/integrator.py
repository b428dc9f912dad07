"""High-level API: corrected near-singular and finite-part integration.

Given the smooth numerator g, the kernel parameters (a, c, d, x_s) and a
mesh half-count n, these routines take the method's source of G from
`corrections._g_source`, the one statement of which G a method takes at
d, before g is sampled.  They place the target on the mesh once (the
puncture j and offset s of `puncture_split`, and lam = d/(c h)), read g's
samples on the 2n+1 nodes and build the punctured trapezoidal sum on that
lattice (`_mesh_pass`, one `_MeshPass` record whose fields every reader
takes by name), add the correction (`_corrected`, one call of
`corrections._correction` with that source, where only g's complex_eval
calls g again, for G) and return the corrected value with a breakdown
(`_correct`, which adds what only a result reports: the method, derived
from the source and d, the check of complex_eval at the puncture node
where the source is g's, and the end-correction warning).  A convergence
study, whose rows `cli` prints, takes its values here (`_study_values`):
every row at one (d, n) reads one pass (`_STUDY_ROWS`), the corrected ones
through `_corrected` alone, each with its method's source of G.  No other
module reads the kernel samples.  The coefficient cross-checks
(`self_check`) live in `verify`.

Each input is checked once, at the entry: the kernel by `_check_kernel`
(which `KernelParams` runs when it is built and `integrate_finite_part`
runs on its a and x_s, and which returns the parameters as Python floats),
n in `_mesh_pass` and lam = d/(c h) with its range in `corrections._lam`,
which the pass calls, and every sample of g once, where the GEval takes
it (`GEval.mesh_samples`, which names the first node where g is not
finite): the pass reads finite samples only, and
`meshrule._rule_sums` raises only where a kernel sample overflows.  The
pass hands on a read-only view of the 9 samples around the puncture and
that node's sample.  From there `_mesh_pass` and `_corrected` run on
Python floats and call the unchecked core of `corrections`, with lam
passed in.

What depends on the mesh alone is paid once per mesh: the `Mesh` forms
its h and its nesting family once, when it is built, and one record per
(a, n) holds the `Mesh` and the unit-step nodes (`_mesh`); every reader
takes h from the pass's mesh.  A GEval stands for one fixed function: it
samples g once per node and reuses those samples for every target
(`GEval.mesh_samples`), the mesh it returned last for one identity test.
The meshes of one nesting family (`Mesh._family`, the one statement of
which meshes nest) share the samples of their common nodes,
so a mesh of twice the n calls g at its new nodes only; a `*3` range
shares nothing.  The meshes of the 4 most recent families are kept, up to
2 MB per GEval at n = 16384.  To integrate a changed g, build a new GEval.

One target's kernel is paid once per family: given the pass of a finer
mesh of the family for the same target (`finer`), `_mesh_pass` reads its
samples and kernel at stride r, with no g call and no kernel arithmetic,
since there h, x_s/h and lam all scale by r exactly and the kernel
samples by r^2 (`_MeshPass.stride_to`, which also finds the samples below
the normal range, where they would not).  A study walks its meshes finest
first and hands each family's finest pass to its coarser meshes
(`_study_values`).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .corrections import (
    CorrectionBreakdown,
    GEval,
    _check_kernel_scales,
    _correction,
    _g_source,
    _lam,
)
from .meshrule import _MIN_NORMAL, Mesh, _node_array, _rule_sums

METHODS = ("auto", "closed-form", "fd-series")

_EPS = sys.float_info.epsilon
# End-correction estimate, relative to max(|value|, 1), above which a result warns
_EDGE_WARN_RATIO = 3e-11


@lru_cache(maxsize=32, typed=True)
def _mesh(a: float, n: int) -> tuple[Mesh, np.ndarray]:
    """The record of the mesh (a, n), one per (a, n) recently integrated
    on: the immutable `Mesh`, with its h and nesting family, and the
    read-only nodes -n..n of the unit-step mesh, from which the pass forms
    the kernel's distances.  A target on a known mesh pays one cache
    lookup for both, and its `GEval.mesh_samples` call one identity test.
    Typed, so that n = 64.0 is validated (and rejected) apart from
    n = 64."""
    mesh = Mesh(a, n)
    return mesh, _node_array(float(n), n)


def _check_kernel(a: float, c: float, d: float, x_s: float) -> tuple[float, float, float, float]:
    """(a, c, d, x_s) as Python floats; ValueError unless they are finite, a
    and c positive, d nonnegative, |x_s| < a, and c and d within
    `_check_kernel_scales` with a d^2 that does not overflow: the one check
    of a kernel's parameters.  They are converted once known to be finite,
    so the range checks and the core run on floats whatever the caller
    passed: a float32 would pull float32 arithmetic into the core, and a
    numpy scalar costs more per operation than a float."""
    if not (math.isfinite(a) and math.isfinite(c) and math.isfinite(d)
            and math.isfinite(x_s)):
        name, value = next((name, value) for name, value in
                           (("a", a), ("c", c), ("d", d), ("x_s", x_s))
                           if not math.isfinite(value))
        raise ValueError(f"{name} must be finite, got {value!r}")
    a, c, d, x_s = float(a), float(c), float(d), float(x_s)
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
    return a, c, d, x_s


@dataclass(frozen=True)
class KernelParams:
    """Kernel 1/(d^2 + c^2 (x - x_s)^2) on [-a, a].  Each field is stored as
    the Python float `_check_kernel` returns for it."""

    a: float
    c: float = 1.0
    d: float = 0.0
    x_s: float = 0.0

    def __post_init__(self):
        for name, value in zip(("a", "c", "d", "x_s"),
                               _check_kernel(self.a, self.c, self.d, self.x_s)):
            object.__setattr__(self, name, value)


@dataclass(slots=True)
class MeshSummary:
    a: float
    n: int
    h: float
    puncture: int
    s: float


@dataclass(slots=True)
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


class _MeshPass:
    """What `_mesh_pass` reads of g and the mesh for one target, each once;
    h is the mesh's own (`mesh.h`)."""

    __slots__ = ("mesh", "j", "s", "lam", "gvals", "g_node", "samples", "plain",
                 "uncorrected", "edge_err", "kernel", "_scalable")

    def __init__(self, mesh, j, s, lam, gvals, g_node, samples, plain, uncorrected,
                 edge_err, kernel):
        self.mesh, self.j, self.s, self.lam = mesh, j, s, lam
        self.gvals, self.g_node, self.samples, self.plain = gvals, g_node, samples, plain
        self.uncorrected, self.edge_err, self.kernel = uncorrected, edge_err, kernel
        self._scalable = None   # found by `stride_to`

    def stride_to(self, coarser: Mesh, t: float, lam: float) -> int:
        """r where this pass's kernel at every r-th node, times r^2, is bit for
        bit the kernel of the same target on the mesh `coarser`, whose x_s/h
        is t and whose lam is `lam`; else 0.  That holds where this mesh is
        (a, r n) for `coarser` = (a, n), r >= 2, of the same nesting family
        (`Mesh._family`), whose nodes are r times those of `coarser`, and
        its x_s/h and lam are exactly r times t and `lam`, unless a kernel
        sample of a nonzero g lies below the normal range, where scaling by
        r^2 does not commute with rounding.  The kernel is scanned for that
        once per pass."""
        mesh = self.mesh
        r = mesh.n // coarser.n
        if not (r > 1 and mesh._family == coarser._family
                and self.j + self.s == r * t and self.lam == r * lam):
            return 0
        if self._scalable is None:
            mag = np.abs(self.kernel)
            # the puncture's entry, 0, is a coarser mesh's puncture or at no node of it
            mag[self.mesh.n + self.j] = 1.0
            self._scalable = bool(mag.min() >= _MIN_NORMAL
                                  or not np.any((mag < _MIN_NORMAL) & (self.gvals != 0.0)))
        return r if self._scalable else 0


def _mesh_pass(g: GEval, a: float, c: float, d: float, x_s: float, n: int,
               finer: _MeshPass | None = None) -> _MeshPass:
    """Everything a target needs from g before its correction, from the
    GEval's samples on the mesh, for a kernel that `_check_kernel` passed.

    The record holds the mesh (with its h), the puncture j and offset s of
    `puncture_split`, lam = d/(c h), g at the mesh nodes (gvals, all
    finite: `GEval.mesh_samples` checks them), the 9 of them around the
    puncture as a read-only view of gvals (samples), the puncture node's
    own sample as a float (g_node), the punctured sum of the kernel
    samples (uncorrected), its estimated end-correction error (edge_err),
    the plain trapezoidal sum of c^2 h^2 times the kernel samples on a
    unit step (plain, which a study's `uncorrected-plain` row scales) and
    those samples themselves (kernel).  What depends on the mesh alone, the
    `Mesh` and the unit-step nodes, comes from one record per (a, n)
    (`_mesh`), and the samples of a mesh the GEval returned last cost one
    identity test.
    `_rule_sums` takes the three sums in one pass over f = g/((m - s)^2 +
    lam^2), c^2 h^2 times the kernel samples in mesh units (m = k - j
    exact: the lattice the correction assumes), its punctured entry 0; the
    punctured sum and the estimate are then divided by c^2 and by h (never
    by (c h)^2, which may underflow); their ValueError means that a kernel
    sample of the finite g overflowed.  lam and its range come from
    `corrections._lam`, before g is read.  Every method reads the same pass
    through `_corrected`.

    `finer`, if given, is a pass of the same g and kernel on another mesh.
    Where it refines this one by r within its nesting family and r^2 times
    its f at every r-th node is this mesh's f bit for bit (`_MeshPass.stride_to`),
    the pass takes f so, and gvals as a view of `finer.gvals`, with no g
    call and no kernel arithmetic, after this mesh's own entry checks;
    otherwise it ignores `finer`.
    """
    mesh, unit = _mesh(a, n)
    h = mesh.h
    if n < 16:
        raise ValueError("n must be at least 16")
    if not abs(x_s) < a - 10.0 * h:
        raise ValueError("x_s too close to an endpoint for the correction "
                         "stencils (need |x_s| < a - 10h)")
    lam = _lam(c, d, h)
    j, s = puncture_split(x_s, h)
    i = n + j
    if finer is not None and (r := finer.stride_to(mesh, j + s, lam)):
        gvals = finer.gvals[::r]
        f = np.multiply(finer.kernel[::r], float(r * r))
    else:
        gvals = g.mesh_samples(mesh)
        # m - s = k - (j + s), k the unit-step nodes and j + s = x_s/h exactly:
        # the denominators in place, then f (the ufuncs called directly, without
        # the array operators' dispatch)
        f = np.subtract(unit, j + s)
        np.multiply(f, f, out=f)
        if lam > 0.0:   # at lam = 0 it would add +0.0 to squares
            np.add(f, lam * lam, out=f)
        f[i] = 1.0
        np.divide(gvals, f, out=f)
    f[i] = 0.0
    total, edge_err, plain = _rule_sums(1.0, f)
    # the 9 stencil nodes (`corrections.FD_STENCIL`) centered on the puncture
    return _MeshPass(mesh, j, s, lam, gvals, gvals.item(i), gvals[i - 4:i + 5], plain,
                     total / c ** 2 / h, edge_err / c ** 2 / h, f)


def _corrected(g_at, c: float, d: float, x_s: float,
               sampled: _MeshPass) -> tuple[float, CorrectionBreakdown]:
    """(value, breakdown) on the pass `sampled` of `_mesh_pass`, with G from
    g_at, the source of G that `corrections._g_source` gave (None: the
    Taylor polynomial on the pass's 9 samples): the correction of
    `corrections._correction` and nothing a result reports beside it.
    ValueError where the value is not finite."""
    breakdown = _correction(g_at, c, d, sampled.mesh.h, sampled.s, x_s, sampled.samples,
                            sampled.g_node, sampled.lam)
    value = sampled.uncorrected + breakdown.total
    if not math.isfinite(value):
        raise ValueError(f"the result is not finite: the sum {sampled.uncorrected!r} plus "
                         f"the correction {breakdown.total!r} leaves the float range at "
                         f"a = {sampled.mesh.a!r}, c = {c!r}, d = {d!r}, n = {sampled.mesh.n}")
    return value, breakdown


# a convergence study's rows, by the name `cli` prints, and what each reads
# of the target's mesh pass: its punctured sum, its classical trapezoid, or
# the value of `_corrected` with the source of G of a method, with no check at
# the puncture node and no warnings, which a row does not print
_STUDY_ROWS = {"uncorrected-punctured": "punctured", "uncorrected-plain": "plain",
               "corrected-closed": "closed-form", "corrected-fd6": "fd-series"}


def _study_values(g: GEval, a: float, c: float, d: float, x_s: float, ns: list[int],
                  methods: list[str]) -> dict[int, list[float]]:
    """{n: the value of each of `methods` (`_STUDY_ROWS`)} of a convergence
    study at one kernel, finest mesh first, for a kernel that
    `_check_kernel` passed.  The study pays one kernel pass per nesting
    family (`Mesh._family`): each family's finest mesh takes the direct
    pass, and each coarser mesh reads that pass at stride r (`_mesh_pass`'s
    `finer`).  Every row at one n reads that mesh's pass.  Each corrected
    row's source of G is resolved once, before g is sampled
    (`corrections._g_source`)."""
    reads = [_STUDY_ROWS[method] for method in methods]
    g_ats = [_g_source(g, read, d) if read in METHODS else None for read in reads]
    values, finest = {}, {}   # n: the methods' values; family: its finest pass
    for n in sorted(ns, reverse=True):
        # the record raises for an n that is not a positive int, as the pass would
        family = _mesh(a, n)[0]._family
        sampled = _mesh_pass(g, a, c, d, x_s, n, finest.get(family))
        finest.setdefault(family, sampled)
        row = []
        for read, g_at in zip(reads, g_ats):
            if read == "punctured":
                value = sampled.uncorrected
            elif read == "plain":
                # the rule on step h, as `verify.plain_trapezoid` forms it, over
                # c^2 h^2, then the puncture's own kernel value h g_node/r^2,
                # r = hypot(c s h, d): its mesh-unit denominator s^2 + lam^2
                # may underflow where r^2 does not
                h = sampled.mesh.h
                r = math.hypot(c * sampled.s * h, d)
                value = h * sampled.plain / c ** 2 / h / h + h * sampled.g_node / r / r
            else:
                value = _corrected(g_at, c, d, x_s, sampled)[0]
            row.append(value)
        values[n] = row
    return values


def _correct(g: GEval, c: float, d: float, x_s: float, sampled: _MeshPass, g_at) -> QuadResult:
    """The result on the pass `sampled` with G from g_at, the source of G
    that `corrections._g_source` gave: `_corrected`, then what only a
    result reports, the check of g's complex_eval at the puncture node
    against that node's sample (where g_at is one), the end-correction
    warning and the method, "closed-form" where g_at is one, else
    "fd-series", or "finite-part" at d = 0."""
    value, breakdown = _corrected(g_at, c, d, x_s, sampled)
    mesh, j, g_node = sampled.mesh, sampled.j, sampled.g_node
    h = mesh.h
    warnings = []
    if g_at is not None:
        gap = g.consistency_gap(j * h, g_node)
        if gap > 4.0 * _EPS * abs(g_node):
            # near a root of g, |g| at the node is no scale, and nor is |g| on
            # the window when h is small: take g's size on the whole mesh
            gap /= max(abs(g_node), float(np.abs(sampled.gvals).max()), 1e-300)
            if gap > 4.0 * _EPS:
                warnings.append(f"complex_eval disagrees with real_eval at the puncture "
                                f"node (relative gap {gap:.2e})")
    edge_err = sampled.edge_err
    if edge_err > _EDGE_WARN_RATIO * max(abs(value), 1.0):
        warnings.append(f"end corrections may be off by {edge_err:.1e}; increase n")
    summary = MeshSummary(mesh.a, mesh.n, h, j, sampled.s)
    method = "closed-form" if g_at is not None else "fd-series" if d > 0.0 else "finite-part"
    return QuadResult(value, sampled.uncorrected, breakdown, summary, method, warnings)


def integrate_near_singular(g: GEval, params: KernelParams, n: int,
                            method: str = "auto") -> QuadResult:
    """Corrected punctured-trapezoidal value of the near-singular integral.

    The puncture is the mesh node nearest x_s, at offset s in [-1/2, 1/2]
    (s = 0 on a node).  `method` selects the closed form in g.complex_eval
    ("closed-form"), the same form on g's Taylor polynomial through order 6
    from the 9 mesh samples nearest the puncture ("fd-series"), or `auto`
    (closed-form when a complex evaluator is available), as
    `corrections._g_source` states.  d = 0 takes the Taylor form without
    the jump (the finite part), on the same 9 samples.
    g is sampled once per mesh node and GEval (`GEval.mesh_samples`: a
    new mesh takes what it can from the finest kept mesh of its family,
    the meshes of the same a nested by powers of 2); beyond that only the
    closed form calls g, to check complex_eval at the puncture node and,
    where lam = d/(c h) < 5.97, for G.
    "closed-form" with a d > 0 and no complex_eval raises before g is
    sampled.  A warning reports an estimated end-correction error above
    3e-11 max(|value|, 1).
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    c, d, x_s = params.c, params.d, params.x_s
    g_at = _g_source(g, method, d)
    return _correct(g, c, d, x_s, _mesh_pass(g, params.a, c, d, x_s, n), g_at)


def integrate_finite_part(g: GEval, a: float, x_s: float, n: int) -> QuadResult:
    """Hadamard finite part of the integral of g(x)/(x - x_s)^2 over [-a, a]."""
    a, _, _, x_s = _check_kernel(a, 1.0, 0.0, x_s)
    # at d = 0 every method takes the finite part, on the Taylor G (`_g_source`)
    return _correct(g, 1.0, 0.0, x_s, _mesh_pass(g, a, 1.0, 0.0, x_s, n), None)
