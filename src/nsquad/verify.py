"""Independent cross-checks of the correction coefficients, and the public
reference rules and views that integration never calls.

Integration needs only the elementary seeds of `emcoeff`; the rational
quotients q_k of p_{k,s} = q_k + (-lam^2)^m p_{k mod 2,s} reach it only
summed against g's mesh-unit Taylor coefficients, as one synthetic division
in `corrections`.  For `self_check`, `nsquad coeffs` and the tests, this
module derives p_{k,s} a second way, from digamma: from the shifted
Hurwitz-zeta coefficients z_{k,s} (digamma seeds at 1 + s - i*lambda, a
two-term recurrence) through the symmetry p_{k,s} = z_{k,-s} + (-1)^k z_{k,s},
by the p_{k,s} recurrence on the digamma seeds (`digamma_seeds`), and from
an mpmath series oracle.  `pks_closed`, the seeds plus the quotients of
`pks_quotients`, is the runtime form it checks.  `taylor_parts`, the one
pass over g's Taylor coefficients for any number of them, is the loop that
the core's straight-line pass over b_0..b_6 unrolls.  The special functions
these routes read (digamma, trigamma, the Bernoulli polynomials and the
Hurwitz zeta values at nonpositive orders) live here too, on the exact
Bernoulli table of `specfun`, as do the Bernoulli numbers as floats.  So do `punctured_trapezoid`,
`plain_trapezoid`, `fd_derivatives`, `correction_taylor` and
`correction_offmesh_closed`, each a checked view over the core routine that
integration calls on inputs its entry already checked
(`meshrule._rule_sums`, `corrections._stencil_poly`,
`corrections._assemble`, `corrections._closed_correction`), with the same
messages; `correction_taylor` takes any number of coefficients, through
`taylor_parts`.  No module of the integration path imports this one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .corrections import (
    _WINDOW_ERROR,
    FD_STENCIL,
    CorrectionBreakdown,
    GEval,
    _assemble,
    _check_kernel_scales,
    _check_lam,
    _check_mesh_scale,
    _check_window,
    _closed_correction,
    _stencil_poly,
)
from .emcoeff import pks_seeds
from .integrator import KernelParams, puncture_split
from .meshrule import EDGE_ORDER, Mesh, _checked, _rule_sums
from .specfun import _bernoulli_fractions, bernoulli_fraction

K_MAX_DEFAULT = 12
K_MAX_LIMIT = 32

_EPS = np.finfo(float).eps
# Conditioning: each recurrence step multiplies prior rounding by lambda^2.
_LOSS_WARN_THRESHOLD = 1e-10

BERNOULLI_POLY_MAX = 32
# Shift |z| to at least this radius before applying the asymptotic series.
_ASYMP_RADIUS = 12.0
_TRIGAMMA_SHIFT = 10.0


def bernoulli_number(n: int) -> float:
    """Bernoulli number B_n, exact to double precision; B_n = 0 for odd n >= 3."""
    return float(bernoulli_fraction(n))


def bernoulli_poly(n: int, x: float) -> float:
    """Bernoulli polynomial B_n(x) via the binomial sum, descending order.

    The sum is carried out over the rationals (a float argument is an exact
    rational) and rounded once, so cancellation between the O(1) binomial
    terms cannot contaminate small values like B_8(5/4).
    """
    if not 0 <= n <= BERNOULLI_POLY_MAX:
        raise ValueError(f"Bernoulli polynomial degree {n} outside supported "
                         f"range [0, {BERNOULLI_POLY_MAX}]")
    bern = _bernoulli_fractions()
    x = Fraction(x)
    # Horner in x over the exact coefficients C(n,k) B_{n-k}, descending powers.
    acc = Fraction(0)
    for k in range(n, -1, -1):
        acc = acc * x + math.comb(n, k) * bern[n - k]
    return float(acc)


@lru_cache(maxsize=1)
def _digamma_asymp_coeffs() -> tuple[float, ...]:
    # B_{2k}/(2k) for k = 1..8; the asymptotic tail of psi uses B_2..B_16.
    bern = _bernoulli_fractions()
    return tuple(float(bern[2 * k] / (2 * k)) for k in range(1, 9))


@lru_cache(maxsize=1)
def _trigamma_asymp_coeffs() -> tuple[float, ...]:
    bern = _bernoulli_fractions()
    return tuple(float(bern[2 * k]) for k in range(1, 9))


def digamma_complex(z: complex) -> complex:
    """Digamma function psi(z) for complex z.

    Upward recurrence psi(z+1) = psi(z) + 1/z shifts the argument to
    |z| >= 12, then the asymptotic series with Bernoulli coefficients
    through B_16 is applied.  The recurrence terms, the log, 1/(2w) and the
    series are summed by `math.fsum`, one rounding for the real part and one
    for the imaginary part: within 4 eps of max(1, |part|) in each part on
    the strip Re z in [0.5, 1.5].

    Raises ValueError at the poles (nonpositive integers).
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real):
        raise ValueError(f"digamma pole at z = {z.real}")
    terms = []
    w = z
    while abs(w) < _ASYMP_RADIUS:
        terms.append(-1.0 / w)
        w += 1.0
    winv2 = 1.0 / (w * w)
    tail = 0.0 + 0.0j
    for c in reversed(_digamma_asymp_coeffs()):
        tail = (tail + c) * winv2
    terms += (cmath.log(w), -0.5 / w, -tail)
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


def digamma(x: float) -> float:
    """Digamma for real x (poles at nonpositive integers raise)."""
    return digamma_complex(complex(x, 0.0)).real


def trigamma(x: float) -> float:
    """Trigamma psi'(x) = sum_{n>=0} (x+n)^-2 for x > 0."""
    if x <= 0.0:
        raise ValueError(f"trigamma requires x > 0, got {x}")
    acc = 0.0
    while x < _TRIGAMMA_SHIFT:
        acc += 1.0 / (x * x)
        x += 1.0
    xinv2 = 1.0 / (x * x)
    tail = 0.0
    for c in reversed(_trigamma_asymp_coeffs()):
        tail = (tail + c) * xinv2
    return acc + (1.0 + 0.5 / x + tail) / x


def hurwitz_zeta_nonpos(n: int, a: float) -> float:
    """Hurwitz zeta at nonpositive integer order: zeta(-n, a) = -B_{n+1}(a)/(n+1)."""
    if not 0 <= n <= BERNOULLI_POLY_MAX - 1:
        raise ValueError(f"zeta(-n, a) supported for 0 <= n <= "
                         f"{BERNOULLI_POLY_MAX - 1}, got n = {n}")
    return -bernoulli_poly(n + 1, a) / (n + 1)


@dataclass(frozen=True)
class CoeffParams:
    """Parameters of a coefficient table: lam = d/(c h), off-mesh fraction s."""

    lam: float
    s: float = 0.0
    h: float = 1.0
    k_max: int = K_MAX_DEFAULT

    def __post_init__(self):
        if not 0.0 <= self.lam < math.inf:
            raise ValueError(f"lam must be finite and nonnegative, got {self.lam!r}")
        if not -0.5 <= self.s <= 0.5:
            raise ValueError(f"s must lie in [-1/2, 1/2], got {self.s!r}")
        if not 0.0 < self.h < math.inf:
            raise ValueError(f"h must be finite and positive, got {self.h!r}")
        if not 0 <= self.k_max <= K_MAX_LIMIT:
            raise ValueError(f"k_max must lie in [0, {K_MAX_LIMIT}]")


@dataclass(frozen=True)
class CoeffTable:
    """z_k = z_{k,0}, z_{k,+s}, z_{k,-s} and p_{k,s} for k = 0..k_max at fixed (lam, s, h).

    sym_resid = |p_{k,s} - (z_{k,-s} + (-1)^k z_{k,s})| and closedform_resid =
    |p_{k,s} - pks_closed| are the absolute identity residuals.
    """

    params: CoeffParams
    zk: np.ndarray
    zks: np.ndarray
    zk_minus_s: np.ndarray
    pks: np.ndarray
    sym_resid: np.ndarray
    closedform_resid: np.ndarray
    warnings: tuple[str, ...] = ()


def loss_estimate(lam: float, k: int) -> float:
    """Documented loss-of-significance bound ~ lam^(2 floor(k/2)) ulp for the recurrences."""
    return max(1.0, lam) ** (2 * (k // 2)) * _EPS


def conditioning_warnings(params: CoeffParams) -> tuple[str, ...]:
    bad = [k for k in range(params.k_max + 1)
           if loss_estimate(params.lam, k) > _LOSS_WARN_THRESHOLD]
    return (f"recurrence loss of significance may exceed {_LOSS_WARN_THRESHOLD:g} "
            f"for k >= {bad[0]} at lam = {params.lam:g}",) if bad else ()


def zks_table(params: CoeffParams) -> np.ndarray:
    """Shifted coefficients z_{0,s}..z_{k_max,s} (Hurwitz offset 1 + s).

    Seeds from psi(1 + s - i lam); recurrence
    z_{k,s} = zeta(2-k, 1+s) - lam^2 z_{k-2,s}.
    """
    lam, s, h, kmax = params.lam, params.s, params.h, params.k_max
    offset = 1.0 + s
    z = np.empty(kmax + 1)
    if lam == 0.0:
        z[:2] = (trigamma(offset), -digamma(offset) - math.log(h))[:kmax + 1]
        for k in range(2, kmax + 1):
            z[k] = hurwitz_zeta_nonpos(k - 2, offset)
        return z
    psi = digamma_complex(complex(offset, -lam))
    z[:2] = (-psi.imag / lam, -psi.real - math.log(h))[:kmax + 1]
    lam2 = lam * lam
    for k in range(2, kmax + 1):
        z[k] = hurwitz_zeta_nonpos(k - 2, offset) - lam2 * z[k - 2]
    return z


def digamma_seeds(lam: float, s: float) -> tuple[float, float]:
    """p_{0,s} and p_{1,s} from digamma at 1 +/- s - i lam, as the z-route has them.

    p_{0,s} = -Im[psi(1 - s - i lam) + psi(1 + s - i lam)]/lam and
    p_{1,s} = -Re[psi(1 - s - i lam) - psi(1 + s - i lam)], with the
    trigamma/digamma limits at lam = 0: the independent check of
    `emcoeff.pks_seeds`.
    """
    if lam == 0.0:
        return trigamma(1.0 - s) + trigamma(1.0 + s), digamma(1.0 + s) - digamma(1.0 - s)
    psi_m = digamma_complex(complex(1.0 - s, -lam))
    psi_p = digamma_complex(complex(1.0 + s, -lam))
    return -(psi_m.imag + psi_p.imag) / lam, -(psi_m.real - psi_p.real)


def pks_table(params: CoeffParams) -> np.ndarray:
    """Coefficients p_{0,s}..p_{k_max,s} for the off-mesh correction.

    Recurrence p_{k,s} = -(-s)^(k-2) - lam^2 p_{k-2,s} on top of the digamma
    seeds; note p_{1,s} carries no log h term (the logs of z_{1,+/-s} cancel).
    """
    lam, s, kmax = params.lam, params.s, params.k_max
    p = np.empty(kmax + 1)
    p[:2] = digamma_seeds(lam, s)[:kmax + 1]
    lam2 = lam * lam
    for k in range(2, kmax + 1):
        p[k] = -((-s) ** (k - 2)) - lam2 * p[k - 2]
    return p


def pks_quotients(lam: float, s: float, k_max: int) -> np.ndarray:
    """Rational parts q_0..q_k_max of p_{k,s} = q_k + (-lam^2)^m p_{k mod 2,s}, m = floor(k/2).

    q_{2m}   = -(s^2m - (-lam^2)^m)/(s^2 + lam^2)
    q_{2m+1} =  s (s^2m - (-lam^2)^m)/(s^2 + lam^2)

    Each is evaluated through the exact polynomial quotient, which keeps it
    finite and stable as (s, lam) -> (0, 0); q_0 = q_1 = 0.  The same q_k
    are the Taylor coefficients of the closed form's cancelling term: the
    reference for the synthetic division of `taylor_parts`.
    """
    mlam2 = -lam * lam
    s2 = s * s
    q = np.zeros(k_max + 1)
    for k in range(2, k_max + 1):
        m, odd = divmod(k, 2)
        quotient = 0.0
        for i in range(m):
            quotient += s2 ** i * mlam2 ** (m - 1 - i)
        q[k] = s * quotient if odd else -quotient
    return q


def pks_closed(params: CoeffParams) -> np.ndarray:
    """Closed-form p_{k,s} from the runtime seeds, p_{k,s} = q_k + (-lam^2)^m p_{k mod 2,s}."""
    lam, s, kmax = params.lam, params.s, params.k_max
    seeds = pks_seeds(lam, s)
    p = pks_quotients(lam, s, kmax)
    mlam2 = -lam * lam
    for k in range(kmax + 1):
        m, odd = divmod(k, 2)
        p[k] += mlam2 ** m * seeds[odd]
    return p


def coeff_table(params: CoeffParams) -> CoeffTable:
    """All coefficient families at (lam, s, h), with identity residuals and
    conditioning diagnostics."""
    zks = zks_table(params)
    zk_minus = zks_table(replace(params, s=-params.s))
    pks = pks_table(params)
    signs = (-1.0) ** np.arange(params.k_max + 1)
    return CoeffTable(
        params=params,
        zk=zks_table(replace(params, s=0.0)),
        zks=zks,
        zk_minus_s=zk_minus,
        pks=pks,
        sym_resid=np.abs(pks - (zk_minus + signs * zks)),
        closedform_resid=np.abs(pks - pks_closed(params)),
        warnings=conditioning_warnings(params),
    )


@lru_cache(maxsize=4096)
def _zeta_h_general(order: int, offset: float, h: float, dps: int):
    """Modified (Hurwitz) zeta at arbitrary integer order, via mpmath.

    Test-oracle helper: deliberately routed through an independent library
    rather than the package's own zeta values.  `dps` must be the current
    mpmath working precision; it keys the cache, which serves the series
    oracle's repeated orders across k.
    """
    import mpmath as mp

    if order == 1:
        return -mp.digamma(offset) - mp.log(h)
    return mp.zeta(order, offset)


def fk_series_oracle(k: int, z: complex, h: float, m_max: int | None = None,
                     s: float = 0.0) -> complex:
    """Truncated rational zeta series sum_m z^(2m) zeta_h(2m + 2 - k, 1 + s).

    Test-only oracle for the z_k / z_{k,s} recurrences (s = 0 gives the
    Riemann-case series).  Converges for |z| < 1 + s; raises outside.
    Summation runs in extended precision so the truncation, not rounding,
    sets the error.
    """
    import mpmath as mp

    if k < 0:
        raise ValueError("k must be nonnegative")
    radius = 1.0 + s
    az = abs(z)
    if az >= radius:
        raise ValueError(f"series diverges for |z| >= {radius} (got |z| = {az:g})")
    if m_max is None:
        m_max = 1 if az == 0.0 else min(
            200000, max(10, int(40.0 / -math.log(az / radius)) + 10))
    offset = 1.0 + s
    with mp.workdps(30):
        zz = mp.mpc(z) ** 2
        acc = mp.mpc(0)
        zpow = mp.mpc(1)
        for m in range(m_max + 1):
            term = zpow * _zeta_h_general(2 * m + 2 - k, offset, h, mp.mp.dps)
            acc += term
            if m > k and abs(term) < 1e-22 * max(1.0, abs(acc)):
                break
            zpow *= zz
        return complex(acc)


@dataclass
class SelfCheckReport:
    """Identity residuals of the coefficient machinery at one (lam, s)."""

    lam: float
    s: float
    reflection_max: float
    symmetry_max: float
    closedform_max: float
    p1_h_invariance: float
    p0: float
    p1: float
    warnings: list[str]

    @property
    def max_deviation(self) -> float:
        return max(self.reflection_max, self.symmetry_max, self.closedform_max,
                   self.p1_h_invariance)


def self_check(params: KernelParams, n: int, k_max: int = K_MAX_DEFAULT) -> SelfCheckReport:
    """Run the coefficient identity suite at the (lam, s) implied by params.

    Checks the nonpositive-order zeta reflection identity, the symmetry
    p_{k,s} = z_{k,-s} + (-1)^k z_{k,s}, closed form vs recurrence for
    p_{k,s} (both relative to max(1, |p_{k,s}|)), and h-independence of
    p_{1,s}, which needs k_max >= 1; reports max deviations plus any
    conditioning warnings for lam > 1.
    """
    if k_max < 1:
        raise ValueError("self_check needs k_max >= 1 for the p_1 h-invariance check")
    h = Mesh(params.a, n).h
    _, s = puncture_split(params.x_s, h)
    lam = params.d / (params.c * h)
    cp = CoeffParams(lam=lam, s=s, h=h, k_max=k_max)
    table = coeff_table(cp)

    reflection = max(abs(hurwitz_zeta_nonpos(k, 1.0 + s)
                         + (-1) ** k * hurwitz_zeta_nonpos(k, 1.0 - s) + s ** k)
                     for k in range(11))

    scale = np.maximum(1.0, np.abs(table.pks))
    at_2h = coeff_table(replace(cp, h=2.0 * h, k_max=1))
    p1_h = table.zk_minus_s[1] - table.zks[1]
    p1_2h = at_2h.zk_minus_s[1] - at_2h.zks[1]

    return SelfCheckReport(
        lam=lam, s=s,
        reflection_max=reflection,
        symmetry_max=float(np.max(table.sym_resid / scale)),
        closedform_max=float(np.max(table.closedform_resid / scale)),
        p1_h_invariance=float(abs(p1_h - p1_2h)),
        p0=float(table.pks[0]), p1=float(table.pks[1]),
        warnings=list(table.warnings),
    )


def punctured_trapezoid(mesh: Mesh, samples: Sequence[float],
                        puncture: int | None = None) -> float:
    """Trapezoidal rule with Gregory-8 edge corrections on f at the 2n+1 nodes,
    skipping node `puncture` (never read) or, for None, none: the checked view
    of the one sum, `meshrule._rule_sums`, on a copy with that entry zeroed.
    ValueError for n < 9, a puncture outside (-n, n) or on the 9 weighted
    nodes at an end, a wrong sample count and a non-finite summed sample."""
    n = mesh.n
    if n < EDGE_ORDER + 1:
        raise ValueError(f"mesh too small for gregory order {EDGE_ORDER} "
                         f"(need n >= {EDGE_ORDER + 1})")
    if puncture is not None:
        if abs(puncture) >= n:
            raise ValueError("puncture must be an interior node")
        if abs(puncture) > n - (EDGE_ORDER + 1):
            raise ValueError("puncture overlaps the edge-correction stencil")
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (2 * n + 1,):
        raise ValueError("sample count does not match the mesh")
    v = samples.copy()
    v[n + (puncture or 0)] = 0.0
    with np.errstate(invalid="ignore"):
        total = _rule_sums(mesh.h, v)[0]
    if puncture is None:
        total = _checked(total + mesh.h * float(samples[n]), samples)
    return total


def plain_trapezoid(mesh: Mesh, samples: Sequence[float]) -> float:
    """Classical trapezoidal rule: all nodes, half end weights, no corrections."""
    samples = np.asarray(samples, dtype=float)
    if len(samples) != 2 * mesh.n + 1:
        raise ValueError("sample count does not match the mesh")
    ends = 0.5 * float(samples[0]) + 0.5 * float(samples[-1])
    return _checked(mesh.h * (float(np.sum(samples)) - ends), samples)


def _checked_window(window: Sequence[float]) -> list[float]:
    """`window` as the list of 9 finite floats that the core reads
    (`corrections._check_window`); ValueError for any other shape."""
    values = np.asarray(window, dtype=float)
    if values.shape != (FD_STENCIL,):
        raise ValueError(_WINDOW_ERROR)
    return _check_window(values.tolist())


def _check_scales(c: float, d: float, h: float) -> None:
    """c and h finite and positive, c h nonzero, d finite (its sign is each
    caller's rule), for d > 0 a nonzero lam = d/(c h), and
    `corrections._check_kernel_scales`.  A d whose square overflows passes:
    no correction forms d^2."""
    if not (0.0 < c < math.inf and 0.0 < h < math.inf):  # NaN fails both
        raise ValueError(f"c and h must be finite and positive, got c = {c!r}, h = {h!r}")
    _check_mesh_scale(c, h)
    if not math.isfinite(d):
        raise ValueError(f"d must be finite, got {d!r}")
    _check_lam(c, d, h, d / (c * h))
    _check_kernel_scales(c, d)


def _check_offset(s: float) -> None:
    if not -0.5 <= s <= 0.5:
        raise ValueError("s must lie in [-1/2, 1/2]")


def taylor_parts(b: Sequence[float], s: float,
                 lam: float) -> tuple[float, float, float, float]:
    """(Re G, Im G/lam, g_node, Q) of P(t) = sum_k b[k] t^k for any number of
    coefficients: G = P(i lam), g_node = P(-s), Q = -Im[(G - g_node)/w]/lam,
    w = s + i lam, in one Horner pass from the top coefficient down
    (`corrections._taylor_parts` states the sums).  The core's pass over
    b_0..b_6 is this loop unrolled, operation for operation."""
    mu = -lam * lam
    re_g = im_g = quotient = node = 0.0
    for k in range(len(b) - 1, -1, -1):
        if k % 2:
            im_g = im_g * mu + b[k]
            quotient = quotient * mu + node   # node is S_k here
        else:
            re_g = re_g * mu + b[k]
        node = node * -s + b[k]
    return re_g, im_g, node, -quotient


def fd_derivatives(samples: Sequence[float], h: float, x_s: float) -> np.ndarray:
    """g^(0..6)(x_s) from g at the 9 nodes centered on the puncture node, x_s
    relative to the center, |x_s| <= h/2: b_k k!/h^k on the coefficients of
    `corrections._stencil_poly`, integration's Taylor source.  ValueError
    for a non-finite x_s, an h not finite and positive, samples that are not
    9 finite values differing by at most sys.float_info.max/128, and a
    derivative that overflows (one that underflows is 0)."""
    if not (0.0 < h < math.inf and math.isfinite(x_s)):  # NaN fails both
        raise ValueError(f"h must be finite and positive and x_s finite, "
                         f"got h = {h!r}, x_s = {x_s!r}")
    if abs(x_s) > 0.5 * h + 1e-12 * h:
        raise ValueError("x_s must lie within half a mesh step of the stencil center")
    window = _checked_window(samples)
    derivs = [b * math.factorial(k)
              for k, b in enumerate(_stencil_poly(window, np.asarray(window), x_s / h))]
    # 1/h^k by repeated division: an overflow is inf and an underflow 0,
    # where h ** k warns
    for k in range(1, len(derivs)):
        for j in range(k, len(derivs)):
            derivs[j] /= h
    if not all(map(math.isfinite, derivs)):
        raise ValueError(f"a derivative overflows at h = {h!r}")
    return np.array(derivs)


def correction_taylor(a: Sequence[float], c: float, d: float, h: float,
                      s: float) -> CorrectionBreakdown:
    """The closed form on g's Taylor polynomial a_k = g^(k)(x_s)/k!, k = 0..K, any d >= 0.

    The form integration takes on the stencil's b_k = a_k h^k, k = 0..6
    (`corrections._taylor_correction`), checked and for any K: the pole form
    (lam >= 1) or the seeds' form (lam < 1) of `corrections._assemble` on G,
    g_node and Q of P(t) = sum_k b_k t^k, t = (x - x_s)/h, from
    `taylor_parts`; at d = 0, with no jump, the finite-part correction for
    1/(c^2 (x - x_s)^2).  ValueError for the scales `_check_scales` rejects,
    an s outside [-1/2, 1/2], and unless `a` is a non-empty 1-D sequence of
    finite values with finite a_k h^k.
    """
    _check_scales(c, d, h)
    if d < 0.0:
        raise ValueError("correction_taylor requires d >= 0")
    _check_offset(s)
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise ValueError("a must be a non-empty 1-D sequence of Taylor coefficients")
    b = a.tolist()
    # b_k = a_k h^k by repeated multiplication: an overflow is inf, where
    # h ** k raises, and a zero a_k stays 0 where h^k alone overflows
    for k in range(1, len(b)):
        for j in range(k, len(b)):
            b[j] *= h
    if not all(map(math.isfinite, b)):
        raise ValueError("the Taylor coefficients a_k and a_k h^k must be finite")
    lam = d / (c * h)
    return _assemble(*taylor_parts(b, s, lam), c, d, h, s, lam, len(b) - 1)


def correction_offmesh_closed(g: GEval, c: float, d: float, h: float, s: float,
                              x_s: float, window: Sequence[float]) -> CorrectionBreakdown:
    """Closed-form correction for a near singularity at x_s = node + s h.

    `window` holds g at the 9 nodes x_s - s h + k h, k = -4..4, as the mesh
    sampled them, all finite.  With lam = d/(c h), w = s + i lam,
    G = g(x_s + i lam h) and g_node = window[4] = g(x_s - s h):

    E = -(1/(c^2 h)) [p_{0,s} Re G + p_{1,s} Im G/lam + Q] + (pi/(c d)) Re G,
    Q = (Re G - g_node - (s/lam) Im G)/(s^2 + lam^2),

    for every s in [-1/2, 1/2] (a target on a node is s = 0), and so E is
    computed for lam < 1.  With the elementary seeds of `emcoeff` it is

    E = g_node/(c^2 h |w|^2) - (2 pi/(c d)) Re[G q/(1 - q)],  q = exp(2 pi i w),

    the punctured node put back plus the trapezoidal rule's correction for
    the kernel's poles (Trefethen & Weideman, SIAM Rev. 56, 2014), and so E
    is computed for lam >= 1.  The breakdown keeps the jump (pi/(c d)) Re G,
    but for lam >= 5.97, where |q| < 5e-17 and E is the put-back alone: there
    g is not called and the whole of E is reported as singular.
    When lam/(s^2 + lam^2) > Q_SERIES_RATIO, or where s/lam overflows, Q is
    that of g's Taylor polynomial through order 6 on `window` instead
    (`corrections._taylor_parts`), the series sum_k q_k a_k h^k; `terms_used`
    then reports the series order (0 otherwise).

    The checked view of `corrections._closed_correction`, which integration
    calls on the window its mesh pass checked: ValueError for the scales
    `_check_scales` rejects, a non-finite x_s, d <= 0, a g without
    complex_eval, an s outside [-1/2, 1/2] and a window that is not 9
    finite values.
    """
    _check_scales(c, d, h)
    if not math.isfinite(x_s):
        raise ValueError(f"x_s must be finite, got {x_s!r}")
    if d <= 0.0:
        raise ValueError("correction_offmesh_closed requires d > 0 "
                         "(d = 0 takes the finite-part path)")
    if g.complex_eval is None:
        raise ValueError("closed-form correction needs a complex evaluator for g")
    _check_offset(s)
    window = _checked_window(window)
    return _closed_correction(g, c, d, h, s, x_s, window, np.asarray(window), d / (c * h))
