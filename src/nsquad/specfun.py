"""The exact Bernoulli numbers B_0..B_64, the one table integration reads.

`meshrule` takes the Gregory weights' moments from them and `emcoeff`
takes zeta(2k) = |B_2k| (2 pi)^(2k)/(2 (2k)!) for its seeds' series.  The
table comes from the integer tangent numbers, one Fraction per entry, and
is immutable, so concurrent use is safe.  Digamma, trigamma, the Bernoulli
polynomials and the Hurwitz zeta values at nonpositive orders, which only
the cross-checks use, live in `verify`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

BERNOULLI_NUMBER_MAX = 64


@lru_cache(maxsize=1)
def _bernoulli_fractions() -> tuple[Fraction, ...]:
    """Exact B_0..B_64, first-kind convention (B_1 = -1/2): B_2k = (-1)^(k-1) 2k
    T_k/(4^k (4^k - 1)) from the tangent numbers T_k, built in place by the
    integer recurrence of Brent & Harvey ("Fast computation of Bernoulli,
    tangent and secant numbers", 2011), starting from T_k = (k - 1)!."""
    kmax = BERNOULLI_NUMBER_MAX // 2
    tangent = [0] + [math.factorial(k) for k in range(kmax)]
    for k in range(2, kmax + 1):
        for j in range(k, kmax + 1):
            tangent[j] = (j - k) * tangent[j - 1] + (j - k + 2) * tangent[j]
    table = [Fraction(1), Fraction(-1, 2)] + [Fraction(0)] * (BERNOULLI_NUMBER_MAX - 1)
    for k in range(1, kmax + 1):
        table[2 * k] = Fraction((-1) ** (k - 1) * 2 * k * tangent[k], 4 ** k * (4 ** k - 1))
    return tuple(table)


def bernoulli_fraction(n: int) -> Fraction:
    """Exact Bernoulli number B_n as a Fraction, n <= 64."""
    if not 0 <= n <= BERNOULLI_NUMBER_MAX:
        raise ValueError(f"Bernoulli number order {n} outside supported range "
                         f"[0, {BERNOULLI_NUMBER_MAX}]")
    return _bernoulli_fractions()[n]


def bernoulli_number(n: int) -> float:
    """Bernoulli number B_n, exact to double precision; B_n = 0 for odd n >= 3."""
    return float(bernoulli_fraction(n))
