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
`pole_factor` gives q/(1 - q), q = exp(2 pi i w): at lam >= 1,
pi cot(pi w) = -i pi (1 + 2 q/(1 - q)).  Put into the corrections, the
seeds turn the whole correction into the punctured node put back plus the
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
# the series takes 18 terms and 2.6 us at 0.3, the cot form 0.6 us.
W_STAR = 0.3
_SERIES_TERMS = 32    # zeta(2k) for k <= 32: the Bernoulli table stops at B_64
# The relative truncation error of the seeds' series after K terms is
# below (2K + 1) |w|^(2K) (p_0 ~ 2 zeta(2), p_1/s ~ 2 zeta(2)); this is
# the largest |w|^2 at which K terms leave it under 2^-56.
_SERIES_LIMITS = tuple((2.0 ** -56 / (2 * k + 1)) ** (1.0 / k)
                       for k in range(1, _SERIES_TERMS + 1))


@lru_cache(maxsize=1)
def _horner_tables() -> tuple[tuple[float, ...], ...]:
    """For K = 1.._SERIES_TERMS, 2 zeta(2k) = |B_2k| (2 pi)^(2k)/(2k)! for
    k = K..1, highest first."""
    coeffs = [float(abs(bernoulli_fraction(2 * k)) / math.factorial(2 * k))
              * (2.0 * math.pi) ** (2 * k) for k in range(1, _SERIES_TERMS + 1)]
    return tuple(tuple(reversed(coeffs[:k])) for k in range(1, _SERIES_TERMS + 1))


def _series_seeds(lam: float, s: float) -> tuple[float, float]:
    """p_{0,s}, p_{1,s} from -R(w) = w sum_k 2 zeta(2k) (w^2)^(k-1), |w| < W_STAR."""
    coeffs = _horner_tables()[bisect.bisect_left(_SERIES_LIMITS, s * s + lam * lam)]
    if lam * lam == 0.0:
        # the lam -> 0 limit, exact in floats once lam^2 underflows; there
        # Im/lam is the s-derivative
        u = s * s
        acc = dacc = 0.0
        for coeff in coeffs:
            dacc = dacc * u + acc
            acc = acc * u + coeff
        return acc + 2.0 * u * dacc, s * acc
    w = complex(s, lam)
    u = w * w
    acc = 0j
    for coeff in coeffs:
        acc = acc * u + coeff
    r = w * acc
    return r.imag / lam, r.real


def pole_factor(lam: float, s: float) -> complex:
    """q/(1 - q) with q = exp(2 pi i (s + i lam)), lam > 0; 0 where |q| underflows."""
    r = math.exp(-2.0 * math.pi * lam)
    q = complex(r * math.cos(2.0 * math.pi * s), r * math.sin(2.0 * math.pi * s))
    return q / (1.0 - q)


def pi_cot(lam: float, s: float) -> tuple[float, float]:
    """Re pi cot(pi w) and Im pi cot(pi w)/lam, w = s + i lam, finite at lam = 0.

    For lam < 1, cot(x + i y) = (sin 2x - i sinh 2y)/(2 (sin^2 x + sinh^2 y))
    keeps both parts to full relative accuracy as lam -> 0; from lam = 1 on,
    pi cot(pi w) = -i pi (1 + 2 `pole_factor`), where sinh would overflow.
    """
    if lam >= 1.0:
        t = pole_factor(lam, s)
        return 2.0 * math.pi * t.imag, -math.pi * (1.0 + 2.0 * t.real) / lam
    x, y = math.pi * s, math.pi * lam
    sin_x, sinh_y = math.sin(x), math.sinh(y)
    den = sin_x * sin_x + sinh_y * sinh_y
    sinhc = math.sinh(2.0 * y) / (2.0 * y) if y else 1.0
    return math.pi * sin_x * math.cos(x) / den, -math.pi * math.pi * sinhc / den


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
