"""Correction coefficients on the integration path.

The corrections need p_{k,s} = z_{k,-s} + (-1)^k z_{k,s} only through
p_{k,s} = q_k + (-lam^2)^m p_{k mod 2,s}, m = floor(k/2): two digamma seeds
at 1 +/- s - i*lambda (`pks_seeds`) and rational quotients (`pks_quotients`).
The z_{k,s} and p_{k,s} tables and the series oracle that derive and
cross-check these numbers live in `verify`.
"""

from __future__ import annotations

import numpy as np

from .specfun import digamma, digamma_complex, trigamma


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
