"""Independent cross-checks of the correction coefficients.

Integration needs only the seeds and quotients of `emcoeff`.  For
`self_check`, `nsquad coeffs` and the tests, this module derives p_{k,s}
a second way: from the shifted Hurwitz-zeta coefficients z_{k,s} (digamma
seeds at 1 + s - i*lambda, a two-term recurrence) through the symmetry
p_{k,s} = z_{k,-s} + (-1)^k z_{k,s}, by the p_{k,s} recurrence, and from
an mpmath series oracle.  No module of the integration path imports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .emcoeff import pks_quotients, pks_seeds
from .integrator import KernelParams, puncture_split
from .meshrule import Mesh
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


def pks_table(params: CoeffParams) -> np.ndarray:
    """Coefficients p_{0,s}..p_{k_max,s} for the off-mesh correction.

    Recurrence p_{k,s} = -(-s)^(k-2) - lam^2 p_{k-2,s} on top of the digamma
    seeds; note p_{1,s} carries no log h term (the logs of z_{1,+/-s} cancel).
    """
    lam, s, kmax = params.lam, params.s, params.k_max
    p = np.empty(kmax + 1)
    p[:2] = pks_seeds(lam, s)[:kmax + 1]
    lam2 = lam * lam
    for k in range(2, kmax + 1):
        p[k] = -((-s) ** (k - 2)) - lam2 * p[k - 2]
    return p


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
