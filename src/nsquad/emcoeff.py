"""Correction coefficients on the integration path.

The corrections need p_{k,s} = z_{k,-s} + (-1)^k z_{k,s} only through
p_{k,s} = q_k + (-lam^2)^m p_{k mod 2,s}, m = floor(k/2): two seeds
(`pks_seeds`) and rational quotients q_k, which enter only as sum_k q_k b_k
on g's mesh-unit Taylor coefficients: one synthetic division in
`corrections`.  By the reflection formula of digamma, the seeds are
elementary in w = s + i lam:

    p_{0,s} = -Im R(w)/lam,  p_{1,s} = -Re R(w),  R(w) = pi cot(pi w) - 1/w.

For |w| >= W_STAR (0.3), R comes from pi cot(pi w) (`pi_cot`) and 1/w;
below, the two cancel and R is the series -2 sum_k zeta(2k) w^(2k-1), with
zeta(2k) from the exact Bernoulli numbers: the only choice made by |w|.
pi cot(pi w) and the pole form's q/(1 - q) (`pole_factor`) are rational in
q = exp(2 pi i w), each one quotient by |1 - q|^2 = (1 - r)^2 +
4 r sin^2(pi s), r = |q|: sums of non-negative terms, which neither cancel
nor overflow for any lam >= 0.  Put into the corrections, the seeds turn
the whole correction into the punctured node put back plus the
trapezoidal rule's pole correction -(2 pi/(c d)) Re[G q/(1 - q)]
(Trefethen & Weideman, "The exponentially convergent trapezoidal rule",
SIAM Rev. 56, 2014), the form `corrections` takes for lam >= 1.  The
z_{k,s} and p_{k,s} tables, the quotients q_k (`pks_quotients`) and the
series oracle that derive and cross-check these numbers from digamma live
in `verify`.
"""

from __future__ import annotations

import bisect
import math
from functools import lru_cache

from .specfun import bernoulli_fraction

# Below |w| = W_STAR, R(w) comes from its Taylor series.  Above it the
# difference pi cot(pi w) - 1/w cancels by a factor of about 3/(pi |w|)^2:
# against 40-digit values its seeds are off by up to 7e-14 at |w| = 0.05,
# 3.3e-15 at 0.3 and 1.4e-15 at 0.5, the series' by 4e-16 throughout, but
# the series takes 18 terms and 3.3 us at 0.3, pi_cot 1.1 us (medians of
# 30 timings, CPython on a shared 2-core x86-64 host).
W_STAR = 0.3
_SERIES_TERMS = 32    # zeta(2k) for k <= 32: the Bernoulli table stops at B_64
# The relative truncation error of the seeds' series after K terms is
# below (2K + 1) |w|^(2K) (p_0 ~ 2 zeta(2), p_1/s ~ 2 zeta(2)); this is
# the largest |w|^2 at which K terms leave it under 2^-56.
_SERIES_LIMITS = tuple((2.0 ** -56 / (2 * k + 1)) ** (1.0 / k)
                       for k in range(1, _SERIES_TERMS + 1))


@lru_cache(maxsize=1)
def _horner_table() -> tuple[float, ...]:
    """2 zeta(2k) = |B_2k| (2 pi)^(2k)/(2k)! for k = _SERIES_TERMS..1, highest
    first: K terms of the series are its last K entries."""
    return tuple(float(abs(bernoulli_fraction(2 * k)) / math.factorial(2 * k))
                 * (2.0 * math.pi) ** (2 * k) for k in range(_SERIES_TERMS, 0, -1))


def _series_seeds(lam: float, s: float) -> tuple[float, float]:
    """p_{0,s}, p_{1,s} from -R(w) = w sum_k 2 zeta(2k) (w^2)^(k-1), |w| < W_STAR.

    One real Horner pass for every lam >= 0: with w^2 = x + i y, x = s^2 -
    lam^2, y = 2 s lam, the partial sums are a + i y b, so
    p_{0,s} = Im(w (a + i y b))/lam = a + 2 s^2 b and p_{1,s} = s (a - 2 lam^2 b),
    with no division by lam.  At lam = 0, or where lam^2 underflows, a and b
    are the series and its derivative in w^2 at s^2, the lam -> 0 limit.
    """
    s2, lam2 = s * s, lam * lam
    x, y2 = s2 - lam2, 4.0 * s2 * lam2
    terms = bisect.bisect_left(_SERIES_LIMITS, s2 + lam2) + 1
    a = b = 0.0
    for coeff in _horner_table()[-terms:]:
        a, b = a * x - b * y2 + coeff, a + b * x
    return a + 2.0 * s2 * b, s * (a - 2.0 * lam2 * b)


def _pole_terms(lam: float, s: float) -> tuple[float, float, float]:
    """r = |q|, (1 - r)/(2 pi lam) and |1 - q|^2 = (1 - r)^2 + 4 r sin^2(pi s) for
    q = exp(2 pi i (s + i lam)), lam >= 0; the ratio is taken on the rounded
    2 pi lam, so a tiny lam loses nothing, and is 1 at lam = 0."""
    u = 2.0 * math.pi * lam
    r, one_minus_r = math.exp(-u), -math.expm1(-u)
    sin_s = math.sin(math.pi * s)
    return (r, one_minus_r / u if u else 1.0,
            one_minus_r * one_minus_r + 4.0 * r * sin_s * sin_s)


def pole_factor(lam: float, s: float) -> complex:
    """q/(1 - q) = (r (cos 2 pi s - r) + i r sin 2 pi s)/|1 - q|^2 with
    q = exp(2 pi i (s + i lam)), r = |q|, lam > 0; 0 where r underflows."""
    r, _, den = _pole_terms(lam, s)
    x = 2.0 * math.pi * s
    return complex(r * (math.cos(x) - r) / den, r * math.sin(x) / den)


def pi_cot(lam: float, s: float) -> tuple[float, float]:
    """Re pi cot(pi w) and Im pi cot(pi w)/lam, w = s + i lam, finite at lam = 0:
    pi cot(pi w) = -i pi (1 + q)/(1 - q) = (2 pi r sin 2 pi s - i pi (1 - r^2))/|1 - q|^2."""
    r, ratio, den = _pole_terms(lam, s)
    return (2.0 * math.pi * r * math.sin(2.0 * math.pi * s) / den,
            -2.0 * math.pi * math.pi * (1.0 + r) * ratio / den)


def pks_seeds(lam: float, s: float) -> tuple[float, float]:
    """p_{0,s} and p_{1,s}, with the lam -> 0 limits at lam = 0.

    At lam = 0 these are pi^2/sin^2(pi s) - 1/s^2 and -pi cot(pi s) + 1/s.
    """
    if not -0.5 <= s <= 0.5:
        raise ValueError("s must lie in [-1/2, 1/2]")
    w2 = s * s + lam * lam
    if w2 < W_STAR * W_STAR:
        return _series_seeds(lam, s)
    re_cot, im_cot = pi_cot(lam, s)
    return -im_cot - 1.0 / w2, s / w2 - re_cot
