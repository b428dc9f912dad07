"""Uniform meshes on [-a, a] and the punctured trapezoidal rule.

The rule carries only *endpoint* corrections: Gregory weights of order
EDGE_ORDER = 8 at both ends.  Interior singular corrections are assembled
elsewhere; the rule treats its samples as those of a smooth function except
possibly at one punctured node.  `end_error_estimate` measures how far the
sum moves when order-10 weights replace the order-8 ones.
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


def _check_finite(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite sample at a summed node")


def _edge_sum(part: np.ndarray, edge: np.ndarray, w: np.ndarray, h: float) -> float:
    """h sum(part) plus the endpoint correction; `edge` is `part` from the endpoint inward."""
    corr = -0.5 * h * edge[0]
    corr += h * np.dot(w, edge[:len(w)])
    return float(h * float(np.sum(part)) + corr)


def end_error_estimate(mesh: Mesh, samples: np.ndarray, puncture: int | None = None) -> float:
    """Estimated error of the end corrections of `punctured_trapezoid`.

    Over both ends, h |sum_j (w_10 - w_8)_j f_j| from the endpoint inward:
    how far the rule moves on the same samples with Gregory weights of
    order 10 in place of order 8.  The punctured entry counts as 0.
    """
    gap = _weight_gap()
    m = len(gap)
    ends = np.array([samples[:m], samples[:-m - 1:-1]], dtype=float)
    if puncture is not None:
        for row, i in enumerate((mesh.n + puncture, mesh.n - puncture)):
            if i < m:
                ends[row, i] = 0.0
    left, right = (ends @ gap).tolist()
    return mesh.h * (abs(left) + abs(right))


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
        non-finite; it is never touched).
    puncture : mesh index k in (-n, n) to omit, or None for the ordinary rule.

    The rule is assembled as the corrected sums over k < 0 and k > 0 plus
    the center node, so the ordinary rule equals the rule punctured at 0
    plus h f_0 identically.
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
    w = gregory_weights(EDGE_ORDER)
    h = mesh.h
    vals = samples
    if puncture is not None and puncture != 0:
        vals = samples.copy()
        vals[n + puncture] = 0.0  # excluded node; value never consumed
    left, right = vals[:n], vals[n + 1:]
    total = _edge_sum(left, left, w, h) + _edge_sum(right, right[::-1], w, h)
    if puncture != 0:
        total = float(total + h * vals[n])
    # a non-finite summed sample makes the total non-finite: only then look
    if not math.isfinite(total):
        _check_finite(np.delete(vals, n) if puncture == 0 else vals)
    return total


def plain_trapezoid(mesh: Mesh, samples: np.ndarray) -> float:
    """Classical trapezoidal rule: all nodes, half end weights, no corrections."""
    samples = np.asarray(samples, dtype=float)
    if len(samples) != 2 * mesh.n + 1:
        raise ValueError("sample count does not match the mesh")
    _check_finite(samples)
    return float(mesh.h * (float(np.sum(samples)) - 0.5 * (samples[0] + samples[-1])))
