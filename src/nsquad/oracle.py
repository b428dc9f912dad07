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
# Above this gap between the central terms at w and w/2, relative to the
# largest of |central|, 1 and their rounding scale (`finite_part_reference`),
# g is not analytic enough within w.  Fits on 1/(x^2 + b^2) at x_s in
# {0, 0.1, -0.37} read 1.2e-14 at b = 0.8, where the reference is 5.6e-13
# off, and 3.8e-14 or more at b <= 0.6, where it is 3.1e-12 to 0.1 off.
# Contours read 1.4e-16 or less on exp, cos, exp(3 z), z^2 and that g at
# b >= 0.5, and 1.7e-14 at b = 0.45, x_s = 0, r = 0.4, where the negative
# orders raise
_TAYLOR_GAP = 2.5e-14


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


def _finite_g(g_eval, x: float) -> float:
    """g(x); ValueError naming x where it is not finite."""
    value = g_eval(x)
    if not math.isfinite(value):
        raise ValueError(f"g is not finite at x = {float(x)!r}: g(x) = {float(value)!r}")
    return value


def reference_integral(g, params: KernelParams, tol: float | None = None) -> ReferenceResult:
    """Adaptive Gauss-Kronrod value of the near-singular integral.

    Panels are pre-split at x_s and at geometrically growing multiples of
    the peak width d/c around it, so the sharp Lorentzian peak is resolved
    before adaptivity takes over.  Requires d > 0 (bounded integrand).
    `tol` is an absolute tolerance.  Without one it is 1e-13 max(1, |I|):
    the integral is O(pi/(c d)) g(x_s), beyond any absolute tolerance once d
    is small, so a coarse pass to 1e-6 max(1, pi |g(x_s)|/(c d)) fixes |I|
    first; `evaluations` then counts both passes.  A g that is not finite at
    a point either pass reads, or at x_s for that scale, raises ValueError
    naming the point; an integrand that overflows where g is finite leaves
    the tolerance unreachable (RuntimeError).
    """
    if params.d <= 0.0:
        raise ValueError("reference_integral requires d > 0")
    if tol is not None and tol < 1e-14:
        raise ValueError("tol below the attainable floor (1e-14)")
    g_eval = g.real_eval if isinstance(g, GEval) else g
    a, c, d, x_s = params.a, params.c, params.d, params.x_s

    def f(x: float) -> float:
        dx = x - x_s
        return _finite_g(g_eval, x) / (d * d + c * c * dx * dx)

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
    scale = math.pi / (c * d) * abs(_finite_g(g_eval, x_s))
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
        # stop once |delta| < 1e-18 max(1, |acc|); the first test's bound is
        # never below that one and needs no hypot, so most terms stop there
        size = abs(delta)
        if (size < 1e-18 * (abs(acc.real) + abs(acc.imag) + 1.0)
                and size < 1e-18 * max(1.0, abs(acc))):
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


def _taylor_coeffs_ref(c: np.ndarray, count: int, radius: float) -> np.ndarray:
    """a_k = g^(k)(center)/k!, k < count, from the c_k, about a_k radius^k,
    of `_contour_fft` on a circle of `radius` or of `_polyfit_coeffs` on an
    interval of that half-width."""
    return (c[:count] / radius ** np.arange(count)).real


def _polyfit_coeffs(real_eval, center: float, half_width: float) -> np.ndarray:
    """c_k, k = 0..12 (zero from k = 11): a degree-10 least-squares fit to g
    at 17 Chebyshev points of center +/- half_width, in units of half_width,
    so c_k is about a_k half_width^k."""
    t = np.cos(np.pi * np.arange(17) / 16.0)
    fit = np.polynomial.polynomial.polyfit(
        t, [_finite_g(real_eval, center + half_width * p) for p in t], 10)
    return np.append(fit, [0.0, 0.0])


def finite_part_reference(g, a: float, x_s: float, tol: float = 1e-12) -> float:
    """Hadamard finite part of the integral of g(x)/(x - x_s)^2 over [-a, a].

    Decomposition: outside a pilot interval of half-width delta around x_s
    the integrand is regular and handled adaptively; inside, the finite
    part is integrated termwise from the Taylor expansion of g at x_s:

        f.p. central = -2 g(x_s)/delta + sum_{k>=2 even} a_k 2 delta^(k-1)/(k-1)

    with a_k = g^(k)(x_s)/k!.  No subtracted difference is ever formed, so
    there is no cancellation amplification near x_s.  The a_k come from g at
    a scale w around x_s: for an analytic g from a contour of radius w,
    sized by `GEval.radius`; for a real-only g from a degree-10 fit at 17
    Chebyshev points of x_s +/- w, w = min(0.1 max(1, a), (a - |x_s|)/2).
    Either way c_k, about a_k w^k, gives a_k.  The central term is computed
    at w and at w/2, and a gap above `_TAYLOR_GAP` times the largest of
    |central|, 1 and 2 sum_j |c_j|/delta (sum_j |c_j| at w bounds |g| where
    it was sampled, so this is the scale of the central term's rounding),
    or above 1e-12 max(|central|, 1), or a NaN, raises ValueError: g is not
    analytic within w, or too large on the contour for its rounding.  For an
    analytic g, a singularity inside both contours then shows in the w
    contour's negative orders, c_{-j}, j = 1..13, above `_LAURENT_RATIO`
    times the largest c_j, j >= 0 (`_contour_fft`), which raises ValueError
    too.  So does a g that is not finite where the fits or the side
    integrals read it, naming the point.
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

    analytic = g_obj.complex_eval is not None
    if analytic:
        w = max(min(0.4 * max(1.0, a), 0.8 * g_obj.radius), 4.0 * delta)
        terms = [_contour_fft(g_obj.complex_eval, x_s, r) for r in (w, 0.5 * w)]
    else:
        w = min(0.1 * max(1.0, a), 0.5 * (a - abs(x_s)))
        terms = [_polyfit_coeffs(g_obj.real_eval, x_s, r) for r in (w, 0.5 * w)]
    central, half = (central_term(_taylor_coeffs_ref(c, kmax + 1, r))
                     for c, r in zip(terms, (w, 0.5 * w)))
    # sum |c_j| bounds |g| where it was sampled at w: the scale of a_0's rounding;
    # the gap allowed for it never exceeds the accuracy the reference claims
    size, scale = np.abs(terms[0]), max(abs(central), 1.0)
    if not abs(central - half) <= min(_TAYLOR_GAP * max(scale, 2.0 * size.sum() / delta),
                                      1e-12 * scale):
        what, advice = (("contours of radius", "give the GEval a smaller radius") if analytic
                        else ("fits of half-width", "pass g as a GEval with a complex_eval"))
        raise ValueError(f"{what} {w:g} and {0.5 * w:g} around x_s = {x_s!r} disagree "
                         f"({central:.17g} against {half:.17g}): g is not analytic within "
                         f"them; {advice}")
    if analytic:
        negative, taylor = size[-kmax - 1:].max(), size[:len(size) // 2 + 1].max()
        if negative > _LAURENT_RATIO * taylor:
            raise ValueError(f"on the contour of radius {w:g} around x_s = {x_s!r}, g's terms "
                             f"of negative order reach {negative / taylor:.1e} of its Taylor "
                             "terms: g has a singularity within or near it; give the GEval a "
                             "smaller radius")

    def f(x: float) -> float:
        dx = x - x_s
        return _finite_g(g_obj.real_eval, x) / (dx * dx)

    parts = [central]   # then the left side's integral and the right side's
    for side in (-1.0, 1.0):
        points, step = {side * a}, delta
        while side * x_s + step < a:
            points.add(x_s + side * step)
            step *= 4.0
        parts.append(_adaptive(f, sorted(points), 0.5 * tol, floor_relief=True).value)
    return sum(parts)
