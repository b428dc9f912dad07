"""Independent ground truth for the corrected rules.

Nothing here shares a code path with the trapezoidal machinery: reference
values come from an adaptive Gauss-Kronrod integrator, from the complex
exponential integral, or from analytic singularity subtraction.  Agreement
between the two sides is therefore evidence, not tautology.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from heapq import heappush, heappop

import numpy as np

from .corrections import GEval
from .integrator import KernelParams

EULER_GAMMA = 0.5772156649015328606065121

# 7-15 Gauss-Kronrod pair on [-1, 1] (QUADPACK dqk15 constants).
_XGK = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
])
_WGK = np.array([
    0.0229353220105292, 0.0630920926299785, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
])
_WG = np.array([
    0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
    0.4179591836734694,
])

_MAX_PANELS = 4000
# Above this ratio of a contour's negative orders to its Taylor terms, a
# singularity of g lies inside the contour, or too near it for its Taylor
# terms: for 1/(z^2 + b^2) on r = 0.4 at x_s = 0 the ratio is 7e15 for
# b <= 0.3, 24 at b = 0.39, 7e-6 at 0.42 and 3.3e-13 at 0.45 (where the
# finite part is 2.3e-12 off), and 8e-17 at 0.5; for entire g it is
# rounding, 2e-17 for exp and up to 4e-15 for exp(300 z)
_LAURENT_RATIO = 1e-13


@dataclass(frozen=True)
class ReferenceResult:
    value: float
    est_error: float
    evaluations: int


def _gk15(f, lo: float, hi: float) -> tuple[float, float, float]:
    """15-point Kronrod value, |K15 - G7| error proxy, and L1 proxy on [lo, hi]."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    xs = mid + half * np.concatenate((-_XGK[:-1], _XGK[::-1]))
    vals = np.array([f(x) for x in xs])
    # xs order: -x0..-x6, 0, x6..x0 ; Kronrod weights mirror around the center
    wk = np.concatenate((_WGK[:-1], _WGK[::-1]))
    k15 = half * float(np.dot(wk, vals))
    gauss_vals = vals[1:-1:2]  # the 7 Gauss nodes
    wg = np.concatenate((_WG[:-1], _WG[::-1]))
    g7 = half * float(np.dot(wg, gauss_vals))
    l1 = half * float(np.dot(wk, np.abs(vals)))
    return k15, abs(k15 - g7), l1


# an integrand that overflows gives an inf or NaN sum, which the check at the
# end reports as an error: numpy need not warn on the way
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _adaptive(f, breakpoints: list[float], tol: float,
              floor_relief: bool = False) -> ReferenceResult:
    """Bisection-adaptive Gauss-Kronrod over the given initial panels.

    `floor_relief` widens the success criterion to the roundoff floor
    10 eps * integral of |f|, for callers that want "as good as doubles
    allow" rather than a strict absolute tolerance.  RuntimeError unless the
    estimated error is within the tolerance and the value is finite (a NaN
    estimate is not).
    """
    eps = float(np.finfo(float).eps)
    panels = []
    evals = 0
    err_sum = 0.0
    l1_sum = 0.0
    for lo, hi in zip(breakpoints[:-1], breakpoints[1:]):
        if hi <= lo:
            continue
        val, err, l1 = _gk15(f, lo, hi)
        evals += 15
        err_sum += err
        l1_sum += l1
        heappush(panels, (-err, lo, hi, val, l1))
    while (err_sum > 0.25 * tol
           and err_sum > 10.0 * eps * l1_sum  # below this, splitting is noise
           and len(panels) < _MAX_PANELS):
        neg_err, lo, hi, _, l1_old = heappop(panels)
        err_sum += neg_err
        l1_sum -= l1_old
        mid = 0.5 * (lo + hi)
        for b0, b1 in ((lo, mid), (mid, hi)):
            val, err, l1 = _gk15(f, b0, b1)
            evals += 15
            err_sum += err
            l1_sum += l1
            heappush(panels, (-err, b0, b1, val, l1))
    value = math.fsum(p[3] for p in panels)
    floor = 10.0 * eps * l1_sum
    est = err_sum + floor
    limit = max(tol, 3.0 * floor) if floor_relief else tol
    if not (est <= limit and math.isfinite(value)):
        raise RuntimeError(f"adaptive integrator: tolerance {tol:g} unreachable "
                           f"(estimated error {est:g} after {evals} evaluations)")
    return ReferenceResult(value, est, evals)


def reference_integral(g, params: KernelParams, tol: float | None = None) -> ReferenceResult:
    """Adaptive Gauss-Kronrod value of the near-singular integral.

    Panels are pre-split at x_s and at geometrically growing multiples of
    the peak width d/c around it, so the sharp Lorentzian peak is resolved
    before adaptivity takes over.  Requires d > 0 (bounded integrand).
    `tol` is an absolute tolerance.  Without one it is 1e-13 max(1, |I|):
    the integral is O(pi/(c d)) g(x_s), beyond any absolute tolerance once d
    is small, so a coarse pass to 1e-6 max(1, pi |g(x_s)|/(c d)) fixes |I|
    first; `evaluations` then counts both passes.
    """
    if params.d <= 0.0:
        raise ValueError("reference_integral requires d > 0")
    if tol is not None and tol < 1e-14:
        raise ValueError("tol below the attainable floor (1e-14)")
    g_eval = g.real_eval if isinstance(g, GEval) else g
    a, c, d, x_s = params.a, params.c, params.d, params.x_s

    def f(x: float) -> float:
        dx = x - x_s
        return g_eval(x) / (d * d + c * c * dx * dx)

    width = d / c
    points = {-a, a, x_s}
    w = width
    while w < 2.0 * a:
        for p in (x_s - w, x_s + w):
            if -a < p < a:
                points.add(p)
        w *= 4.0
    points = sorted(points)
    if tol is not None:
        return _adaptive(f, points, tol)
    scale = math.pi / (c * d) * abs(g_eval(x_s))
    coarse = _adaptive(f, points, 1e-6 * max(1.0, scale))
    fine = _adaptive(f, points, 1e-13 * max(1.0, abs(coarse.value)))
    return ReferenceResult(fine.value, fine.est_error, coarse.evaluations + fine.evaluations)


def _ei_power_series(z: complex) -> complex:
    # gamma + log z + sum z^k/(k k!), principal log; PV (real log) on the cut
    if z.imag == 0.0 and z.real < 0.0:
        logz = complex(math.log(-z.real), 0.0)
    else:
        logz = cmath.log(z)
    term = 1.0 + 0.0j
    acc = 0.0 + 0.0j
    for k in range(1, 300):
        term *= z / k
        delta = term / k
        acc += delta
        if abs(delta) < 1e-18 * max(1.0, abs(acc)):
            break
    return EULER_GAMMA + logz + acc


def _e1_continued_fraction(w: complex) -> complex:
    # modified Lentz on E1(w) = e^-w / (w + 1 - 1/(w + 3 - 4/(w + 5 - ...)))
    tiny = 1e-300
    b = w + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    f = d
    for n in range(1, 400):
        a = -float(n * n)
        b = b + 2.0
        d = b + a * d
        if d == 0:
            d = tiny
        c = b + a / c
        if c == 0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return cmath.exp(-w) * f


def _takes_continued_fraction(z: complex) -> bool:
    """Whether `complex_ei` takes Ei(z), z off the positive reals, as
    -E1(-z) +/- i pi, E1 from the continued fraction, rather than from the
    power series."""
    # the continued fraction for E1(-z) stalls near its cut (z near the
    # positive reals); the series still has full relative accuracy there
    return abs(z) > 4.0 and not (z.real > abs(z.imag) and abs(z) <= 40.0)


def complex_ei(z: complex) -> complex:
    """Exponential integral Ei(z) on the principal branch.

    Power series for |z| <= 4, continued fraction otherwise; on the cut
    (negative real axis) the real principal value is returned.  Validated
    empirically against the adaptive reference on the near-real strip the
    exact-value formulas use.
    """
    z = complex(z)
    if z == 0:
        raise ValueError("Ei is singular at z = 0")
    if z.imag == 0.0 and z.real > 0.0:
        return complex(_ei_power_series(z).real, 0.0)
    if not _takes_continued_fraction(z):
        return _ei_power_series(z)
    e1 = _e1_continued_fraction(-z)
    if z.imag > 0.0:
        return -e1 + 1j * math.pi
    if z.imag < 0.0:
        return -e1 - 1j * math.pi
    return complex((-e1).real, 0.0)


def _ei_difference(z1: complex, z2: complex) -> complex:
    """Ei(z1) - Ei(z2).  Where both take the continued fraction on the same
    side of the cut, their +/- i pi cancel exactly, so the difference is
    E1(-z2) - E1(-z1) itself: |E1(-z)| is about |e^z/z|, far below pi once
    |Im z| is large, and each rounding against pi would cost the digits
    between."""
    if (z1.imag != 0.0 and z2.imag != 0.0 and (z1.imag > 0.0) == (z2.imag > 0.0)
            and _takes_continued_fraction(z1) and _takes_continued_fraction(z2)):
        return _e1_continued_fraction(-z2) - _e1_continued_fraction(-z1)
    return complex_ei(z1) - complex_ei(z2)


def exact_test1(d: float) -> float:
    """Exact value of the integral of d e^x/(d^2 + x^2) over [-1, 1].

    Im{ e^(i d) [Ei(1 - i d) - Ei(-1 - i d)] }: `exact_test2` at c = 1,
    x_s = 0.  The limits are +/- pi as d -> 0 +/-; d = 0 itself is rejected.
    """
    if d == 0.0:
        raise ValueError("d = 0 is the jump point; the one-sided limits are +/- pi")
    return exact_test2(d, 1.0, 0.0)


def exact_test2(d: float, c: float, x_s: float) -> float:
    """Exact value of the integral of d e^x/(d^2 + c^2 (x - x_s)^2) over [-1, 1].

    Im{ e^(x_s + i d/c) [Ei(1 - x_s - i d/c) - Ei(-1 - x_s - i d/c)] } / c.
    (The 1/c factor follows from d/(d^2 + c^2 u^2) = Im[1/(c u - i d)] and is
    confirmed against the adaptive reference; it is invisible at c = 1.)
    """
    if d == 0.0:
        raise ValueError("d = 0 is the jump point of the integral")
    if c <= 0.0:
        raise ValueError("c must be positive")
    w = x_s + 1j * d / c
    val = (cmath.exp(w) * _ei_difference(1.0 - w, -1.0 - w)).imag
    return val / c


def _contour_fft(complex_eval, center: float, radius: float) -> np.ndarray:
    """c_j, j = 0..255: the discrete Fourier coefficients of g on the circle
    of `radius` around `center`, at 256 points.  Where g is analytic in the
    disk, c_j is about a_j radius^j for small j >= 0, and c_{-j} = c_{256-j}
    is g's term of order 256 - j, at rounding level beside them; where a
    singularity lies inside, the c_{-j} are of the size of g on the circle.
    """
    # Contour-sampled Taylor coefficients: the corrections take theirs from the
    # mesh stencil, so the oracle shares no code with what it checks.
    m = 256
    theta = 2.0 * np.pi * np.arange(m) / m
    vals = np.array([complex(complex_eval(center + radius * np.exp(1j * t)))
                     for t in theta])
    return np.fft.fft(vals) / m


def _taylor_coeffs_ref(fft: np.ndarray, count: int, radius: float) -> np.ndarray:
    """a_k = g^(k)(center)/k!, k < count, from `_contour_fft` on a circle of `radius`."""
    return (fft[:count] / radius ** np.arange(count)).real


def _polyfit_coeffs(real_eval, center: float, count: int, half_width: float) -> np.ndarray:
    pts = center + half_width * np.cos(np.pi * np.arange(17) / 16.0)
    vals = [real_eval(p) for p in pts]
    series = np.polynomial.polynomial.Polynomial.fit(pts, vals, deg=min(10, count + 1))
    shifted = series.convert()
    out = np.zeros(count)
    for k in range(count):
        out[k] = shifted.deriv(k)(center) / math.factorial(k)
    return out


def finite_part_reference(g, a: float, x_s: float, tol: float = 1e-12) -> float:
    """Hadamard finite part of the integral of g(x)/(x - x_s)^2 over [-a, a].

    Decomposition: outside a pilot interval of half-width delta around x_s
    the integrand is regular and handled adaptively; inside, the finite
    part is integrated termwise from the Taylor expansion of g at x_s:

        f.p. central = -2 g(x_s)/delta + sum_{k>=2 even} a_k 2 delta^(k-1)/(k-1)

    with a_k = g^(k)(x_s)/k!.  No subtracted difference is ever formed, so
    there is no cancellation amplification near x_s.  An analytic g's a_k
    come from a contour of radius r, sized by `GEval.radius`.  A singularity
    of g inside the contour raises ValueError: the central term is computed
    at r and at r/2, and a gap above 1e-12 max(|central|, 1) shows one
    inside r alone; one inside both shows in the contour's negative orders,
    c_{-j}, j = 1..13, above `_LAURENT_RATIO` times the largest c_j, j >= 0
    (`_contour_fft`).
    """
    if not abs(x_s) < a:
        raise ValueError("x_s must lie inside (-a, a)")
    g_obj = g if isinstance(g, GEval) else GEval(real_eval=g)
    delta = min(1e-2 * max(1.0, a), 0.125 * (a - abs(x_s)))
    kmax = 12

    def central_term(coeffs: np.ndarray) -> float:
        term = -2.0 * coeffs[0] / delta
        for k in range(2, kmax + 1, 2):
            term += coeffs[k] * 2.0 * delta ** (k - 1) / (k - 1)
        return term

    if g_obj.complex_eval is not None:
        r = min(0.4 * max(1.0, a), 0.8 * g_obj.radius)
        r = max(r, 4.0 * delta)
        fft = _contour_fft(g_obj.complex_eval, x_s, r)
        central = central_term(_taylor_coeffs_ref(fft, kmax + 1, r))
        half = central_term(_taylor_coeffs_ref(_contour_fft(g_obj.complex_eval, x_s, 0.5 * r),
                                               kmax + 1, 0.5 * r))
        if abs(central - half) > 1e-12 * max(abs(central), 1.0):
            raise ValueError(f"contours of radius {r:g} and {0.5 * r:g} around x_s = {x_s!r} "
                             f"disagree ({central:.17g} against {half:.17g}): g is not analytic "
                             "within them; give the GEval a smaller radius")
        size = np.abs(fft)
        negative, taylor = size[-kmax - 1:].max(), size[:len(size) // 2 + 1].max()
        if negative > _LAURENT_RATIO * taylor:
            raise ValueError(f"on the contour of radius {r:g} around x_s = {x_s!r}, g's terms "
                             f"of negative order reach {negative / taylor:.1e} of its Taylor "
                             "terms: g has a singularity within or near it; give the GEval a "
                             "smaller radius")
    else:
        central = central_term(_polyfit_coeffs(g_obj.real_eval, x_s, kmax + 1,
                                               min(0.1 * max(1.0, a), 0.5 * (a - abs(x_s)))))

    def f(x: float) -> float:
        dx = x - x_s
        return g_obj.real_eval(x) / (dx * dx)

    parts = [central]   # then the left side's integral and the right side's
    for side in (-1.0, 1.0):
        points, w = {side * a}, delta
        while side * x_s + w < a:
            points.add(x_s + side * w)
            w *= 4.0
        parts.append(_adaptive(f, sorted(points), 0.5 * tol, floor_relief=True).value)
    return sum(parts)
