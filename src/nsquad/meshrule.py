"""Uniform meshes on [-a, a] and the punctured trapezoidal rule.

The rule carries only *endpoint* corrections, Gregory weights of order
EDGE_ORDER = 8 at both ends, and is one cached weight row per n
(`gregory_row`): a punctured sum is h times that row dotted with the samples,
the punctured entry zeroed.  `end_error_estimate` dots the order-10 minus
order-8 weights with the 11 samples at each end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .specfun import bernoulli_fraction

GREGORY_ORDERS = (2, 4, 6, 8, 10)
EDGE_ORDER = 8        # the Gregory order of punctured_trapezoid
_ESTIMATE_ORDER = 10  # the order end_error_estimate compares it with


@dataclass(frozen=True)
class Mesh:
    """Uniform grid of 2n+1 nodes k*h, k = -n..n, with h = a/n."""

    a: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a > 0.0):
            raise ValueError(f"half-width a must be finite and positive, got {self.a!r}")
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise ValueError(f"n must be a positive integer, got {self.n!r}")

    @property
    def h(self) -> float:
        return self.a / self.n

    def nodes(self) -> np.ndarray:
        """The 2n+1 nodes, one cached read-only array per (a, n)."""
        return _node_array(self.a, self.n)

    def node(self, k: int) -> float:
        if not -self.n <= k <= self.n:
            raise ValueError(f"node index {k} outside [-{self.n}, {self.n}]")
        return k * self.h


@lru_cache(maxsize=32)
def _node_array(a: float, n: int) -> np.ndarray:
    x = np.arange(-n, n + 1) * (a / n)
    x.flags.writeable = False
    return x


def _solve_moments(nodes: list[Fraction], rho: list[Fraction]) -> list[Fraction]:
    """Solve sum_j w_j nodes[j]^m = rho[m] exactly over the rationals."""
    m = len(nodes)
    aug = [[nodes[j] ** i for j in range(m)] + [rho[i]] for i in range(m)]
    for col in range(m):
        piv = next(r for r in range(col, m) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        # columns left of col are already zero in every row but their pivot's
        inv = 1 / aug[col][col]
        aug[col][col:] = [x * inv for x in aug[col][col:]]
        for r in range(m):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r][col:] = [x - factor * y for x, y in zip(aug[r][col:], aug[col][col:])]
    return [aug[r][m] for r in range(m)]


@lru_cache(maxsize=None)
def gregory_weights(order: int) -> np.ndarray:
    """Boundary weight adjustments for the Gregory-corrected trapezoid.

    Returns ``order + 1`` adjustments applied at the nodes nearest each
    endpoint (on top of the half-weighted trapezoidal sum).  The moment
    system is solved exactly over the rationals, so the corrected rule
    integrates polynomials of degree <= order exactly on a uniform grid;
    the symmetric pairing of the two ends makes degree order + 1 exact as
    well.  The array is cached and read-only.
    """
    if order not in GREGORY_ORDERS:
        raise ValueError(f"gregory order must be one of {GREGORY_ORDERS}")
    q = order + 1
    rho = [bernoulli_fraction(m + 1) / (m + 1) if m % 2 else Fraction(0) for m in range(q)]
    w = np.array([float(x) for x in _solve_moments([Fraction(j) for j in range(q)], rho)])
    w.flags.writeable = False
    return w


def _checked(total: float, summed: np.ndarray) -> float:
    """`total`; ValueError if it is not finite because a summed sample is not."""
    if not math.isfinite(total) and not np.all(np.isfinite(summed)):
        raise ValueError("non-finite sample at a summed node")
    return total


@lru_cache(maxsize=32)
def gregory_row(n: int) -> np.ndarray:
    """The weights of the Gregory-8 rule on the 2n+1 nodes, h factored out."""
    row = np.ones(2 * n + 1)
    row[[0, -1]] = 0.5
    row[:EDGE_ORDER + 1] += gregory_weights(EDGE_ORDER)
    row[-EDGE_ORDER - 1:] += gregory_weights(EDGE_ORDER)[::-1]
    row.flags.writeable = False
    return row


def end_error_estimate(mesh: Mesh, samples: np.ndarray, puncture: int | None = None) -> float:
    """Estimated error of the end corrections of `punctured_trapezoid`.

    Over both ends, h |sum_j (w_10 - w_8)_j f_j| from the endpoint inward:
    how far the rule moves on the same samples with Gregory weights of
    order 10 in place of order 8.  The punctured entry counts as 0.
    """
    gap = _weight_gap()
    m = len(gap)
    left, right = samples[:m], samples[-m:]   # right is dotted with gap reversed
    if puncture is not None:
        i = mesh.n + puncture
        if i < m:
            left = left.copy()
            left[i] = 0.0
        if i >= len(samples) - m:
            right = right.copy()
            right[i - len(samples)] = 0.0
    return mesh.h * (abs(float(gap @ left)) + abs(float(gap[::-1] @ right)))


@lru_cache(maxsize=1)
def _weight_gap() -> np.ndarray:
    """w_10 - w_8, with w_8 zero-padded to the length of w_10."""
    gap = gregory_weights(_ESTIMATE_ORDER).copy()
    gap[:EDGE_ORDER + 1] -= gregory_weights(EDGE_ORDER)
    gap.flags.writeable = False
    return gap


def punctured_trapezoid(mesh: Mesh, samples: np.ndarray, puncture: int | None = None) -> float:
    """Trapezoidal rule with Gregory-8 edge corrections, skipping one interior node.

    Parameters
    ----------
    samples : array of f at all 2n+1 mesh nodes (the punctured entry may be
        non-finite; it is never read).
    puncture : mesh index k in (-n, n) to omit, or None for the ordinary rule.

    The sum is h `gregory_row(n)` . f with the punctured entry of f zeroed;
    the ordinary rule is the rule punctured at 0 plus h f_0, identically.
    """
    samples = np.asarray(samples, dtype=float)
    n = mesh.n
    if len(samples) != 2 * n + 1:
        raise ValueError("sample count does not match the mesh")
    if puncture is not None:
        if abs(puncture) >= n:
            raise ValueError("puncture must be an interior node")
        if abs(puncture) > n - (EDGE_ORDER + 1):
            raise ValueError("puncture overlaps the edge-correction stencil")
    if n < EDGE_ORDER + 1:
        raise ValueError(f"mesh too small for gregory order {EDGE_ORDER} "
                         f"(need n >= {EDGE_ORDER + 1})")
    vals = samples.copy()
    vals[n if puncture is None else n + puncture] = 0.0
    total = mesh.h * float(gregory_row(n) @ vals)
    if puncture is None:
        total += mesh.h * float(samples[n])
    return _checked(total, samples if puncture is None else vals)


def plain_trapezoid(mesh: Mesh, samples: np.ndarray) -> float:
    """Classical trapezoidal rule: all nodes, half end weights, no corrections."""
    samples = np.asarray(samples, dtype=float)
    if len(samples) != 2 * mesh.n + 1:
        raise ValueError("sample count does not match the mesh")
    ends = 0.5 * float(samples[0]) + 0.5 * float(samples[-1])
    return _checked(mesh.h * (float(np.sum(samples)) - ends), samples)
