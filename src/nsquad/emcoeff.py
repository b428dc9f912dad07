"""Correction-coefficient engines.

One family of numbers drives the trapezoidal corrections: the shifted
z_{k,s} (an on-mesh near singularity is the point s = 0) and their
symmetric combination p_{k,s} = z_{k,-s} + (-1)^k z_{k,s}.  Each is seeded
by digamma values at 1 +/- s - i*lambda and extended downward by a
two-term recurrence; closed forms and truncated-series oracles are kept
alongside for cross-checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .specfun import digamma, digamma_complex, hurwitz_zeta_nonpos, trigamma

K_MAX_DEFAULT = 12
K_MAX_LIMIT = 32

_EPS = np.finfo(float).eps
# Conditioning: each recurrence step multiplies prior rounding by lambda^2.
_LOSS_WARN_THRESHOLD = 1e-10


@dataclass(frozen=True)
class CoeffParams:
    """Parameters of a coefficient table: lam = d/(c h), off-mesh fraction s."""

    lam: float
    s: float = 0.0
    h: float = 1.0
    k_max: int = K_MAX_DEFAULT

    def __post_init__(self):
        if self.lam < 0.0:
            raise ValueError("lam must be nonnegative")
        if not -0.5 <= self.s <= 0.5:
            raise ValueError("s must lie in [-1/2, 1/2]")
        if self.h <= 0.0:
            raise ValueError("h must be positive")
        if not 0 <= self.k_max <= K_MAX_LIMIT:
            raise ValueError(f"k_max must lie in [0, {K_MAX_LIMIT}]")


@dataclass(frozen=True)
class CoeffTable:
    """z_k = z_{k,0}, z_{k,+s}, z_{k,-s} and p_{k,s} for k = 0..k_max at fixed (lam, s, h)."""

    params: CoeffParams
    zk: np.ndarray
    zks: np.ndarray
    zk_minus_s: np.ndarray
    pks: np.ndarray
    warnings: tuple[str, ...] = ()


def loss_estimate(lam: float, k: int) -> float:
    """Documented loss-of-significance bound ~ lam^(2 floor(k/2)) ulp for the recurrences."""
    growth = max(1.0, lam) ** (2 * (k // 2))
    return growth * _EPS


def conditioning_warnings(params: CoeffParams) -> tuple[str, ...]:
    if params.lam <= 1.0:
        return ()
    bad = [k for k in range(params.k_max + 1)
           if loss_estimate(params.lam, k) > _LOSS_WARN_THRESHOLD]
    if not bad:
        return ()
    return (f"recurrence loss of significance may exceed {_LOSS_WARN_THRESHOLD:g} "
            f"for k >= {bad[0]} at lam = {params.lam:g}",)


def zks_table(params: CoeffParams) -> np.ndarray:
    """Shifted coefficients z_{0,s}..z_{k_max,s} (Hurwitz offset 1 + s).

    Seeds from psi(1 + s - i lam); recurrence
    z_{k,s} = zeta(2-k, 1+s) - lam^2 z_{k-2,s}.
    """
    lam, s, h, kmax = params.lam, params.s, params.h, params.k_max
    offset = 1.0 + s
    z = np.empty(kmax + 1)
    if lam == 0.0:
        z[0] = trigamma(offset)
        if kmax >= 1:
            z[1] = -digamma(offset) - math.log(h)
        for k in range(2, kmax + 1):
            z[k] = hurwitz_zeta_nonpos(k - 2, offset)
        return z
    psi = digamma_complex(complex(offset, -lam))
    z[0] = -psi.imag / lam
    if kmax >= 1:
        z[1] = -psi.real - math.log(h)
    lam2 = lam * lam
    for k in range(2, kmax + 1):
        z[k] = hurwitz_zeta_nonpos(k - 2, offset) - lam2 * z[k - 2]
    return z


def pks_seeds(lam: float, s: float) -> tuple[float, float]:
    """p_{0,s} and p_{1,s}, with the lam -> 0 limits on the lam = 0 path."""
    if not -0.5 <= s <= 0.5:
        raise ValueError("s must lie in [-1/2, 1/2]")
    if lam == 0.0:
        p0 = trigamma(1.0 - s) + trigamma(1.0 + s)
        p1 = -digamma(1.0 - s) + digamma(1.0 + s)
        return p0, p1
    psi_m = digamma_complex(complex(1.0 - s, -lam))
    psi_p = digamma_complex(complex(1.0 + s, -lam))
    p0 = -(psi_m.imag + psi_p.imag) / lam
    p1 = -(psi_m.real - psi_p.real)
    return p0, p1


def pks_table(params: CoeffParams) -> np.ndarray:
    """Coefficients p_{0,s}..p_{k_max,s} for the off-mesh correction.

    Recurrence p_{k,s} = -(-s)^(k-2) - lam^2 p_{k-2,s} on top of the digamma
    seeds; note p_{1,s} carries no log h term (the logs of z_{1,+/-s} cancel).
    """
    lam, s, kmax = params.lam, params.s, params.k_max
    p = np.empty(kmax + 1)
    p0, p1 = pks_seeds(lam, s)
    p[0] = p0
    if kmax >= 1:
        p[1] = p1
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
    are the Taylor coefficients of the closed form's cancelling term.
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
    """Closed-form p_{k,s} from the seeds alone, p_{k,s} = q_k + (-lam^2)^m p_{k mod 2,s}."""
    lam, s, kmax = params.lam, params.s, params.k_max
    seeds = pks_seeds(lam, s)
    p = pks_quotients(lam, s, kmax)
    mlam2 = -lam * lam
    for k in range(kmax + 1):
        m, odd = divmod(k, 2)
        p[k] += mlam2 ** m * seeds[odd]
    return p


def coeff_table(params: CoeffParams) -> CoeffTable:
    """All coefficient families at (lam, s, h), with conditioning diagnostics."""
    zks = zks_table(params)
    zk_minus = zks_table(replace(params, s=-params.s))
    return CoeffTable(
        params=params,
        zk=zks_table(replace(params, s=0.0)),
        zks=zks,
        zk_minus_s=zk_minus,
        pks=pks_table(params),
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
        if az == 0.0:
            m_max = 1
        else:
            m_max = min(200000, max(10, int(40.0 / -math.log(az / radius)) + 10))
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
