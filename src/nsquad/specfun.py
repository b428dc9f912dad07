"""Special-function kernel: Bernoulli numbers/polynomials, digamma, trigamma,
and the restricted zeta values the correction recurrences consume.

Everything here is table-backed or shift-plus-asymptotic-series; no general
zeta machinery is provided (or needed).  All functions are pure and the
tables are immutable after first use, so concurrent use is safe.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

EULER_GAMMA = 0.5772156649015328606065121

BERNOULLI_NUMBER_MAX = 64
BERNOULLI_POLY_MAX = 32

# Shift |z| to at least this radius before applying the asymptotic series.
_ASYMP_RADIUS = 12.0
_TRIGAMMA_SHIFT = 10.0


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


def bernoulli_poly_fraction(n: int, x: Fraction) -> Fraction:
    """Exact B_n(x) for rational x (used for the edge-weight moment systems)."""
    if not 0 <= n <= BERNOULLI_POLY_MAX:
        raise ValueError(f"Bernoulli polynomial degree {n} outside supported "
                         f"range [0, {BERNOULLI_POLY_MAX}]")
    bern = _bernoulli_fractions()
    # Horner in x over the exact coefficients C(n,k) B_{n-k}, descending powers.
    acc = Fraction(0)
    for k in range(n, -1, -1):
        acc = acc * x + math.comb(n, k) * bern[n - k]
    return acc


def bernoulli_poly(n: int, x: float) -> float:
    """Bernoulli polynomial B_n(x) via the binomial sum, descending order.

    The sum is carried out over the rationals (a float argument is an exact
    rational) and rounded once, so cancellation between the O(1) binomial
    terms cannot contaminate small values like B_8(5/4).
    """
    return float(bernoulli_poly_fraction(n, Fraction(x)))


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
    through B_16 is applied.  Accurate to a few ulp over the strip
    Re z in [0.25, 2.25] for any imaginary part.

    Raises ValueError at the poles (nonpositive integers).
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real):
        raise ValueError(f"digamma pole at z = {z.real}")
    acc = 0.0 + 0.0j
    w = z
    while abs(w) < _ASYMP_RADIUS:
        acc -= 1.0 / w
        w += 1.0
    winv2 = 1.0 / (w * w)
    tail = 0.0 + 0.0j
    for c in reversed(_digamma_asymp_coeffs()):
        tail = (tail + c) * winv2
    return acc + cmath.log(w) - 0.5 / w - tail


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
