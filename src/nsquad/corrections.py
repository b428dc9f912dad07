"""Euler-Maclaurin error corrections for the punctured trapezoidal rule.

The corrected rule is T_h + E where E estimates I - T_h.  E splits into a
"singular" series that extends the finite-part corrections continuously in
the near-singularity strength, and a "jump" term proportional to pi/(c d).
Both are one closed form in G = g(x_s + i d/c).  G is exact when the smooth
numerator g extends analytically to a complex neighborhood of x_s
(`_closed_correction`); otherwise it is G of g's Taylor polynomial at x_s
(`_taylor_correction`), which at d = 0 is the finite-part correction.
Every Taylor coefficient of g comes from one source, the degree-8
interpolant on the 9 mesh samples around the puncture, in the mesh units
b_k = g^(k)(x_s) h^k/k! that the singular series needs (`_stencil_poly`,
which reads the samples' differences from the mesh pass's array view of
them); one straight-line pass over b_0..b_6 gives G, g_node and Q
(`_taylor_parts`).  The same pass for any number of coefficients, the
reference it is tested against, serves `verify.correction_taylor`.

These routines are the per-target core: they take Python floats that the
entry already checked (the kernel by `integrator._check_kernel`, the mesh
scale by `_check_mesh_scale`, the window of 9 samples once by
`_check_window`), with lam = d/(c h) passed in, and check only what only
they can see: lam = 0 in the closed form, the stencil's spread, lam^2 and
c^2 h.  The checked public views, `correction_offmesh_closed`,
`correction_taylor` and `fd_derivatives`, live in `verify`.

With w = s + i lam, the closed form is elementary (see `emcoeff`) and takes
one of two forms, chosen by lam alone.  For lam >= 1 it is the trapezoidal
rule's correction for the kernel's poles (Trefethen & Weideman, "The
exponentially convergent trapezoidal rule", SIAM Rev. 56, 2014): the
punctured node put back, minus (2 pi/(c d)) Re[G q/(1 - q)],
q = exp(2 pi i w).  There the jump and the singular part cancel, and
|q| = exp(-2 pi lam) damps an error in G.  For lam < 1, d = 0 included, it
is the punctured form in the seeds p_{0,s}, p_{1,s}, whose only cancelling
term is Q.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .emcoeff import pks_seeds, pole_factor
from .meshrule import Mesh, _lagrange_basis

FD_STENCIL = 9          # nodes used for stencil derivatives of g
FD_DERIV_MAX = 6        # highest derivative taken from the stencil
# The stencil map's rows sum to at most 3.25 in absolute value, and the shift
# to x_s grows a coefficient by at most 1.5^8 < 26: below this spread of the
# samples neither overflows
_MAX_SPREAD = sys.float_info.max / 128.0
_WINDOW_ERROR = (f"window must hold g at the {FD_STENCIL} nodes around the puncture: "
                 "stencil samples must be finite (and, for a Taylor fit, differ by less "
                 f"than {_MAX_SPREAD:.1e})")

# The closed form's cancelling term Q carries a rounding error of about
# eps * lam/(s^2 + lam^2) relative to the correction.  Above this ratio Q is
# summed from its Taylor series through the stencil's order FD_DERIV_MAX
# instead; the ratio then forces s^2 + lam^2 < lam/10 < 1/100, where the
# omitted quotients q_7 and q_8 are below 2e-6.
Q_SERIES_RATIO = 10.0
# |q| = exp(-2 pi lam) < 5e-17 from here on: the pole form drops its pole
# term and reads no G, so a G that overflows there (a Taylor polynomial's,
# for d/c >~ 1e50) never meets q = 0 in a product, and the closed form does
# not call g for it
_Q_NEGLIGIBLE_LAM = math.log(2e16) / (2.0 * math.pi)
# meshes whose samples one GEval keeps (`GEval.mesh_samples`)
_MESHES_KEPT = 4
# the smallest normal float: a finer mesh's h below it shares no samples
_MIN_NORMAL = sys.float_info.min
# what real_eval may not return: numpy would cast a complex value to its real
# part with only a warning, None to NaN and a string to the number it spells
_NOT_REAL_TYPES = (complex, np.complexfloating, type(None), str, bytes)


def _check_real(values: list) -> None:
    """ValueError for the first of g's `values` that is complex, None or a
    string, judged by its type (`_NOT_REAL_TYPES`)."""
    if any(issubclass(t, _NOT_REAL_TYPES) for t in set(map(type, values))):
        bad = next(v for v in values if isinstance(v, _NOT_REAL_TYPES))
        raise ValueError(f"real_eval must return a real number, got {bad!r}")


@dataclass(frozen=True)
class GEval:
    """The smooth numerator g.

    real_eval samples g on the real line; complex_eval, when present, must
    agree with real_eval there and be analytic between x_s and x_s + i d/c.
    Both take and return scalars: real_eval a real number, complex_eval a
    complex one.  `sample` evaluates g at real points only, in one call per
    array when g was built by `analytic`; complex_eval is called by the
    closed form alone, for G where lam = d/(c h) < 5.97 (beyond, the pole
    form does not read G) and, in `integrate_near_singular`'s result, for
    its check at the puncture node (`consistency_gap`).  `radius`, a
    distance within which g is analytic around the real points of interest,
    is read by no integration path; it sizes the contour of
    `oracle.finite_part_reference`.

    A GEval stands for one fixed function: it samples g once per node and
    reuses those samples for every later target on that mesh
    (`mesh_samples`; the 4 most recent meshes, up to 1 MB at n = 16384).
    Meshes of the same a whose n differ by a power of 2 share the samples
    of their common nodes, so a doubling convergence study calls g on the
    nodes of its finest mesh only; a `*3` range shares nothing.  To
    integrate a changed g, build a new GEval.  In `integrate_near_singular`
    the closed form's fresh complex_eval call at the puncture node warns if
    g changed under its samples.
    """

    real_eval: Callable[[float], float]
    complex_eval: Optional[Callable[[complex], complex]] = None
    radius: float = 0.5
    # f of `analytic`, while it still accepts arrays
    _array_f: Optional[Callable] = field(default=None, init=False, repr=False,
                                         compare=False)
    # read-only samples per mesh (a, n), least recently used first
    _meshes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.radius < math.inf:
            raise ValueError(f"radius must be finite and positive, got {self.radius!r}")

    @classmethod
    def analytic(cls, f: Callable, radius: float = 0.5) -> "GEval":
        """Wrap a function that accepts real and complex arguments, scalars or arrays.

        f is called once per array of points; if it rejects arrays (raises
        TypeError or ValueError, or returns the wrong shape), g falls back to
        one call per point for good.  Complex values at real points raise
        ValueError unless every imaginary part is 0, as do None and strings.
        """
        g = cls(real_eval=f, complex_eval=f, radius=radius)
        object.__setattr__(g, "_array_f", f)
        return g

    def sample(self, points: np.ndarray) -> np.ndarray:
        """g at every point of a 1-D real array, sampled afresh.

        An f of `analytic` that accepts arrays is called once on `points`;
        otherwise real_eval is called once per point, in order, with Python
        floats (`points.tolist()`).  Complex points, or a value of real_eval
        that is complex, None or a string, raise ValueError.
        """
        if points.dtype.kind == "c":
            raise ValueError("g is sampled at real points only; "
                             "complex_eval is called by the closed form alone")
        if self._array_f is not None:
            values = self._sample_array(points)
            if values is not None:
                return values
        values = list(map(self.real_eval, points.tolist()))
        _check_real(values)
        try:
            return np.fromiter(values, float, count=len(points))
        except TypeError as exc:
            raise ValueError(f"real_eval must return a real number ({exc})") from exc

    def mesh_samples(self, mesh: Mesh) -> np.ndarray:
        """g at `mesh.nodes()`, read-only, g sampled once per node.

        A mesh that is not kept takes what it can from a kept mesh of the same
        a whose n differs from mesh.n by a power of 2 (`_nested_samples`): a
        finer one gives every sample and a coarser one every r-th, so g is
        called only at the nodes no kept mesh has.  Other ratios, such as the
        meshes of a `*3` range, share nothing.  Every node sampled is sampled
        by `sample`.  The samples of the 4 most recently used meshes are kept,
        a finer mesh read as a source counting as used; nothing is kept when
        sampling raises.  Two threads may both sample a mesh that neither
        finds, but never fail for sharing the GEval.
        """
        meshes, key = self._meshes, (mesh.a, mesh.n)
        values = meshes.pop(key, None)
        if values is None:
            values = self._nested_samples(mesh)
            if values is None:
                values = self.sample(mesh.nodes())
            values.flags.writeable = False
        meshes[key] = values
        if len(meshes) > _MESHES_KEPT:
            # list() and pop with a default: no error when another thread evicts too
            for stale in list(meshes)[:-_MESHES_KEPT]:
                meshes.pop(stale, None)
        return values

    def _nested_samples(self, mesh: Mesh) -> Optional[np.ndarray]:
        """g at `mesh.nodes()` from a kept mesh nested in it or around it, else None.

        A kept mesh of the same a whose n is mesh.n times or over a power of 2
        r has every r-th node of the finer of the two, bit for bit: node r k
        of the finer mesh is (r k) fl(a/(r n)), which rounds the same real
        number as k fl(a/n), since fl(a/(r n)) r = fl(a/n) for a power of 2 r
        wherever fl(a/(r n)) is a normal float.  A subnormal h, whose
        rounding is coarser, and any other ratio (a `*3` range) share
        nothing.  The finest finer kept mesh gives every r-th sample with no
        g call, and is moved to the most recent place so that a walk down
        from it keeps it; else the finest coarser one gives every r-th sample
        and g is sampled at the other nodes in one pass, in node order.
        """
        n, a = mesh.n, mesh.a
        # (r, key, samples) of the finest finer kept mesh, (r, samples) of the
        # finest coarser one
        finer = coarser = None
        for key, samples in list(self._meshes.items()):   # one atomic copy
            a_kept, m = key
            if a_kept != a or m == n:
                continue
            fine, coarse = (m, n) if m > n else (n, m)
            r, rem = divmod(fine, coarse)
            if rem or r & (r - 1) or a / fine < _MIN_NORMAL:
                continue
            if m > n:
                if finer is None or r > finer[0]:
                    finer = (r, key, samples)
            elif coarser is None or r < coarser[0]:
                coarser = (r, samples)
        if finer is not None:
            r, key, samples = finer
            self._meshes[key] = self._meshes.pop(key, samples)
            return samples[::r].copy()
        if coarser is None:
            return None
        r, coarse = coarser
        nodes = mesh.nodes()
        new = np.ones(len(nodes), dtype=bool)
        new[::r] = False
        values = np.empty_like(nodes)
        values[::r] = coarse
        values[new] = self.sample(nodes[new])
        return values

    def _sample_array(self, points: np.ndarray) -> Optional[np.ndarray]:
        """f(points) as floats; None, and no further tries, if f rejects arrays."""
        try:
            values = np.asarray(self._array_f(points))
            takes_arrays = values.shape == points.shape
        except (TypeError, ValueError):
            takes_arrays = False
        if not takes_arrays:
            object.__setattr__(self, "_array_f", None)
            return None
        if values.dtype.kind == "c":
            if values.imag.any():
                raise ValueError("f returned complex values at real points")
            values = values.real
        elif values.dtype.kind in "OSU":   # objects or strings
            _check_real(values.ravel().tolist())
        return np.ascontiguousarray(values, dtype=float)

    def consistency_gap(self, x: float, real_value: float) -> float:
        """|complex_eval(x) - real_value|, for diagnostics; `real_value` is g(x)
        as already sampled on the real axis.  The caller picks the scale."""
        if self.complex_eval is None:
            return 0.0
        return abs(complex(self.complex_eval(complex(x, 0.0))) - real_value)


@dataclass
class CorrectionBreakdown:
    """Correction E = singular_part + jump_part with bookkeeping.

    total is E itself.  It is singular_part + jump_part as computed, except
    where the pole form takes lam >= 1: there total comes first and
    singular_part = total - jump_part, so the sum may differ from total in
    the last place of the jump.
    """

    singular_part: float
    jump_part: float
    total: float
    terms_used: int


@lru_cache(maxsize=1)
def _stencil_operator() -> np.ndarray:
    """The 9x9 map from samples at t = -4..4 to the coefficients of t^0..t^8 of
    their interpolant (the inverse Vandermonde matrix).  Column i is the
    Lagrange polynomial of node i, prod_{j != i} (t - t_j)/(t_i - t_j): its
    integer numerator coefficients over its integer denominator, each entry
    the exact rational rounded once."""
    half = FD_STENCIL // 2
    op = np.array([np.divide(num, den) for num, den in _lagrange_basis(range(-half, half + 1))]).T
    op.flags.writeable = False
    return op


def _check_window(window: list[float]) -> list[float]:
    """`window`, g at the 9 nodes around the puncture as floats; ValueError
    unless all are finite."""
    # a finite sum means all are finite (else huge ones may overflow it)
    if not (math.isfinite(sum(window)) or all(map(math.isfinite, window))):
        raise ValueError(_WINDOW_ERROR)
    return window


def _stencil_poly(window: list[float], samples: np.ndarray, s: float) -> list[float]:
    """b_k = g^(k)(x_s) h^k/k!, k = 0..6: the coefficients in t = (x - x_s)/h of the
    degree-8 interpolant on `window`, the 9 finite floats of `_check_window` at
    the nodes x_s - s h + k h, k = -4..4, and `samples`, the same 9 values as a
    float array; ValueError unless they differ by at most
    sys.float_info.max/128."""
    ordered = sorted(window)
    if not ordered[-1] - ordered[0] <= _MAX_SPREAD:
        raise ValueError(_WINDOW_ERROR)
    # the map reproduces constants: apply it to the differences from the
    # center sample, which are small and for nearby values exact; they are
    # taken on the array, which a list would first be converted to (`dot`
    # gives the bits of `@` without the matmul ufunc's dispatch)
    center = window[FD_STENCIL // 2]
    c0, c1, c2, c3, c4, c5, c6, c7, c8 = _stencil_operator().dot(
        np.subtract(samples, center)).tolist()
    c0 += center
    # synthetic division by (t - s), once per order k = 0..6, one line each:
    # c_k becomes the coefficient of (t - s)^k, final after pass k
    c7 += s*c8; c6 += s*c7; c5 += s*c6; c4 += s*c5; c3 += s*c4; c2 += s*c3; c1 += s*c2; c0 += s*c1
    c7 += s*c8; c6 += s*c7; c5 += s*c6; c4 += s*c5; c3 += s*c4; c2 += s*c3; c1 += s*c2
    c7 += s*c8; c6 += s*c7; c5 += s*c6; c4 += s*c5; c3 += s*c4; c2 += s*c3
    c7 += s*c8; c6 += s*c7; c5 += s*c6; c4 += s*c5; c3 += s*c4
    c7 += s*c8; c6 += s*c7; c5 += s*c6; c4 += s*c5
    c7 += s*c8; c6 += s*c7; c5 += s*c6
    c7 += s*c8; c6 += s*c7
    return [c0, c1, c2, c3, c4, c5, c6]


def _taylor_parts(b: Sequence[float], s: float,
                  lam: float) -> tuple[float, float, float, float]:
    """(Re G, Im G/lam, g_node, Q) of P(t) = sum_k b[k] t^k, k = 0..6:
    G = P(i lam), g_node = P(-s).

    With mu = -lam^2, Re G = sum_m b_{2m} mu^m and Im G/lam = sum_m b_{2m+1} mu^m.
    The synthetic division P(t) = (t + s) S(t) + g_node gives G - g_node =
    w S(i lam), w = s + i lam, so the closed form's Q = -Im[(G - g_node)/w]/lam
    is -sum_m S_{2m+1} mu^m: finite at lam = 0, and sum_k q_k b_k term by term.
    One line per k, from k = 6 down: the operations of `verify.taylor_parts`,
    the same pass for any number of coefficients, in its order, its first
    steps on 0.0 included (they fix the sign of a zero result).
    """
    b0, b1, b2, b3, b4, b5, b6 = b
    mu, t = -lam * lam, -s
    re_g = 0.0 * mu + b6; node = 0.0 * t + b6
    im_g = 0.0 * mu + b5; quotient = 0.0 * mu + node; node = node * t + b5
    re_g = re_g * mu + b4; node = node * t + b4
    im_g = im_g * mu + b3; quotient = quotient * mu + node; node = node * t + b3
    re_g = re_g * mu + b2; node = node * t + b2
    im_g = im_g * mu + b1; quotient = quotient * mu + node; node = node * t + b1
    re_g = re_g * mu + b0; node = node * t + b0
    return re_g, im_g, node, -quotient


def _assemble(re_g: float, im_g_lam: float, g_node: float, quotient: float, c: float,
              d: float, h: float, s: float, lam: float, terms: int) -> CorrectionBreakdown:
    """E from Re G, Im G/lam, g_node and Q at lam = d/(c h): the pole form for
    lam >= 1, else -(1/(c^2 h)) [p_{0,s} Re G + p_{1,s} Im G/lam + Q] +
    (pi/(c d)) Re G, the jump omitted at d = 0.  ValueError where lam^2
    overflows and d^2 does not, and where the seeds' form's c^2 h underflows
    to 0."""
    if math.isinf(lam * lam) and not math.isinf(d * d):
        raise ValueError(f"lam = d/(c h) = {lam:.3e} is out of range: lam^2 overflows "
                         f"(d = {d!r}, c = {c!r}, h = {h!r})")
    if lam >= 1.0:
        return _pole_form(re_g, im_g_lam, g_node, c, d, s, lam, terms)
    if c * c * h == 0.0:
        raise ValueError(f"c^2 h underflows to 0 (c = {c!r}, h = {h!r})")
    p0, p1 = pks_seeds(lam, s)
    singular = float(-(p0 * re_g + p1 * im_g_lam + quotient) / (c * c * h))
    jump = float(math.pi / (c * d) * re_g) if d > 0.0 else 0.0
    return CorrectionBreakdown(singular, jump, singular + jump, terms)


def _pole_form(re_g: float, im_g_lam: float, g_node: float, c: float, d: float,
               s: float, lam: float, terms: int) -> CorrectionBreakdown:
    """E = g_node/(c^2 h |w|^2) - (2 pi/(c d)) Re[G q/(1 - q)] for lam >= 1.

    im_g_lam is Im G/lam.  The total comes first; the jump part is
    (pi/(c d)) Re G and the singular part is total - jump.  Once |q| < 5e-17
    (lam >= 5.97) the pole term is dropped and G is not read: the whole
    correction, the put-back alone, is reported as singular, for either
    source of G (a Taylor polynomial's G overflows for d/c >~ 1e50, and the
    closed form does not evaluate it there).  The put-back, as
    (g_node/(lam + s^2/lam))/(c d), forms no lam^2 to overflow.
    """
    total = g_node / (lam + s * s / lam) / (c * d)
    if lam >= _Q_NEGLIGIBLE_LAM:
        return CorrectionBreakdown(total, 0.0, total, terms)
    t = pole_factor(lam, s)
    total -= 2.0 * math.pi / (c * d) * (re_g * t.real - lam * im_g_lam * t.imag)
    jump = math.pi / (c * d) * re_g
    return CorrectionBreakdown(total - jump, jump, total, terms)


def _check_kernel_scales(c: float, d: float) -> None:
    """For c finite and positive: ValueError unless a positive d is large enough
    that pi/(c d) is finite, and c^2 and 1/c^2 are finite and nonzero."""
    cd = c * d
    if d > 0.0 and (cd == 0.0 or math.isinf(math.pi / cd)):
        raise ValueError(f"d = {d!r} is too small for c = {c!r}: the jump pi/(c d) overflows")
    c2 = c * c
    if not (0.0 < c2 < math.inf and 1.0 / c2 < math.inf):
        raise ValueError(f"c = {c!r} is out of range: c^2 or 1/c^2 overflows")


def _check_mesh_scale(c: float, h: float) -> None:
    if c * h == 0.0:   # the denominator of lam = d/(c h)
        raise ValueError(f"c h underflows to 0 (c = {c!r}, h = {h!r}): lam is out of range")


def _check_lam(c: float, d: float, h: float, lam: float) -> None:
    """ValueError where a positive d gives lam = d/(c h) = 0: the closed form
    divides by lam."""
    if lam == 0.0 and d > 0.0:
        raise ValueError(f"d = {d!r} is too small for c = {c!r}, h = {h!r}: "
                         f"lam = d/(c h) underflows to 0")


def _closed_correction(g: GEval, c: float, d: float, h: float, s: float, x_s: float,
                       window: list[float], samples: np.ndarray,
                       lam: float) -> CorrectionBreakdown:
    """The closed form in G = g(x_s + i lam h), unchecked but for lam = 0; the
    checked view, `verify.correction_offmesh_closed`, states it.  d > 0,
    lam = d/(c h), and `window` is the 9 floats of `_check_window`, g_node its
    center, `samples` the same as an array.  Q = (Re G - g_node - (s/lam)
    Im G)/(s^2 + lam^2), or, where lam/(s^2 + lam^2) > Q_SERIES_RATIO or s/lam
    overflows, the Q of g's Taylor polynomial through order 6 on the window
    (`_taylor_parts`), with `terms_used` the series order (0 otherwise).  For
    lam >= 5.97 the pole form reads g_node alone (`_pole_form`), so g is not
    called there."""
    _check_lam(c, d, h, lam)
    g_node = window[FD_STENCIL // 2]
    if lam >= _Q_NEGLIGIBLE_LAM:
        # G, Im G/lam and Q are not read: zeros stand for them
        return _assemble(0.0, 0.0, g_node, 0.0, c, d, h, s, lam, 0)
    gval = complex(g.complex_eval(complex(x_s, lam * h)))
    denom = s * s + lam * lam
    # only for lam < 0.1; s/lam overflows only for a subnormal lam
    if lam > Q_SERIES_RATIO * denom or math.isinf(s / lam):
        b = _stencil_poly(window, samples, s)
        quotient, terms = _taylor_parts(b, s, lam)[3], FD_DERIV_MAX
    else:
        quotient, terms = (gval.real - g_node - s / lam * gval.imag) / denom, 0
    return _assemble(gval.real, gval.imag / lam, g_node, quotient, c, d, h, s, lam, terms)


def _taylor_correction(b: Sequence[float], c: float, d: float, h: float, s: float,
                       lam: float) -> CorrectionBreakdown:
    """The closed form on G of P(t) = sum_k b[k] t^k, k = 0..6, t = (x - x_s)/h,
    at lam = d/(c h), unchecked."""
    return _assemble(*_taylor_parts(b, s, lam), c, d, h, s, lam, FD_DERIV_MAX)
