"""Uniform meshes on [-a, a] and the punctured trapezoidal rule.

The rule carries only *endpoint* corrections, Gregory weights of order
EDGE_ORDER = 8 at both ends.  Its weights and the order-10 minus order-8
weights at each end form one cached read-only (3, 2n+1) block per n
(`rule_block`): a single product of that block with the samples, the
punctured entry zeroed, gives the punctured sum and both halves of its
end-error estimate (`punctured_sums`).  `punctured_trapezoid` reads that
product.

The nodes are one cached read-only array per mesh (`Mesh.nodes`); a
`GEval` samples g there once and keeps the samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .specfun import bernoulli_fraction

EDGE_ORDER = 8        # the Gregory order of punctured_trapezoid
_ESTIMATE_ORDER = 10  # the order the end-error estimate compares it with
GREGORY_ORDERS = (EDGE_ORDER, _ESTIMATE_ORDER)   # the orders of `gregory_weights`


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
        if self.h == 0.0:
            raise ValueError(f"h = a/n underflows to 0 for a = {self.a!r}, n = {self.n!r}")

    @property
    def h(self) -> float:
        return self.a / self.n

    def nodes(self) -> np.ndarray:
        """The 2n+1 nodes, one cached read-only array per (a, n)."""
        return _node_array(self.a, self.n)


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
def rule_block(n: int) -> np.ndarray:
    """The weights of one pass over the 2n+1 nodes, h factored out, read-only.

    Row 0 is the Gregory-8 rule: 1 at every node, 1/2 at the two ends, plus
    `gregory_weights(8)` at the left end and mirrored at the right.  Rows 1
    and 2 are w_10 - w_8 (w_8 zero-padded) from the left end and from the
    right end inward, zero elsewhere.
    """
    block = np.zeros((3, 2 * n + 1))
    block[0] = 1.0
    block[0, [0, -1]] = 0.5
    block[0, :EDGE_ORDER + 1] += gregory_weights(EDGE_ORDER)
    block[0, -EDGE_ORDER - 1:] += gregory_weights(EDGE_ORDER)[::-1]
    gap = gregory_weights(_ESTIMATE_ORDER).copy()
    gap[:EDGE_ORDER + 1] -= gregory_weights(EDGE_ORDER)
    block[1, :len(gap)] = gap
    block[2, -len(gap):] = gap[::-1]
    block.flags.writeable = False
    return block


def punctured_sums(mesh: Mesh, samples: np.ndarray, puncture: int | None) -> tuple[float, float]:
    """The punctured Gregory-8 sum of `samples` and its end-error estimate, in one product.

    v is a copy of the samples with the punctured entry (if any) set to 0;
    the sum is h `rule_block(n)[0]` . v, checked once, and the estimate
    h (|gap . v_left| + |gap . v_right|), gap = w_10 - w_8: how far the rule
    moves on the same samples with Gregory weights of order 10 at the ends.
    The puncture is not validated here.  A non-finite sample at a summed
    node raises ValueError; an infinite one meets a zero weight of rows 1
    and 2 first, so numpy warns of an invalid value before that, unless the
    caller silences it as `punctured_trapezoid` does.
    """
    v = np.array(samples, dtype=float)
    if v.shape != (2 * mesh.n + 1,):
        raise ValueError("sample count does not match the mesh")
    if puncture is not None:
        v[mesh.n + puncture] = 0.0
    return _rule_sums(mesh, v)


def _rule_sums(mesh: Mesh, v: np.ndarray) -> tuple[float, float]:
    """`punctured_sums` of the 2n+1 floats `v`, the punctured entry already 0,
    read in place."""
    total, left, right = (rule_block(mesh.n) @ v).tolist()
    return _checked(mesh.h * total, v), mesh.h * (abs(left) + abs(right))


def punctured_trapezoid(mesh: Mesh, samples: np.ndarray, puncture: int | None = None) -> float:
    """Trapezoidal rule with Gregory-8 edge corrections, skipping one interior node.

    Parameters
    ----------
    samples : array of f at all 2n+1 mesh nodes (the punctured entry may be
        non-finite; it is never read).
    puncture : mesh index k in (-n, n) to omit, or None for the ordinary rule.

    The sum is h `rule_block(n)[0]` . f with the punctured entry of f zeroed
    (`punctured_sums`); the ordinary rule is the rule punctured at 0 plus
    h f_0, identically.
    """
    n = mesh.n
    if puncture is not None:
        if abs(puncture) >= n:
            raise ValueError("puncture must be an interior node")
        if abs(puncture) > n - (EDGE_ORDER + 1):
            raise ValueError("puncture overlaps the edge-correction stencil")
    if n < EDGE_ORDER + 1:
        raise ValueError(f"mesh too small for gregory order {EDGE_ORDER} "
                         f"(need n >= {EDGE_ORDER + 1})")
    with np.errstate(invalid="ignore"):
        total = punctured_sums(mesh, samples, 0 if puncture is None else puncture)[0]
    if puncture is None:
        samples = np.asarray(samples, dtype=float)
        total = _checked(total + mesh.h * float(samples[n]), samples)
    return total


def plain_trapezoid(mesh: Mesh, samples: np.ndarray) -> float:
    """Classical trapezoidal rule: all nodes, half end weights, no corrections."""
    samples = np.asarray(samples, dtype=float)
    if len(samples) != 2 * mesh.n + 1:
        raise ValueError("sample count does not match the mesh")
    ends = 0.5 * float(samples[0]) + 0.5 * float(samples[-1])
    return _checked(mesh.h * (float(np.sum(samples)) - ends), samples)
