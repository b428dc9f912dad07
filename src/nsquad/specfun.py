"""The exact Bernoulli numbers B_0..B_64, the one table integration reads.

`meshrule` solves the Gregory weights' moment systems from them and
`emcoeff` takes zeta(2k) = |B_2k| (2 pi)^(2k)/(2 (2k)!) for its seeds'
series.  The table is built once over the rationals and is immutable, so
concurrent use is safe.  Digamma, trigamma, the Bernoulli polynomials and
the Hurwitz zeta values at nonpositive orders, which only the cross-checks
use, live in `verify`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

BERNOULLI_NUMBER_MAX = 64


@lru_cache(maxsize=1)
def _bernoulli_fractions() -> tuple[Fraction, ...]:
    """Exact B_0..B_64, first-kind convention (B_1 = -1/2)."""
    table = [Fraction(1)]
    for m in range(1, BERNOULLI_NUMBER_MAX + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * table[j]
        table.append(-acc / (m + 1))
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
