"""Uniform meshes on [-a, a] and the punctured trapezoidal rule.

The rule carries only *endpoint* corrections, Gregory weights of order
EDGE_ORDER = 8 at both ends; every other node has weight 1.  So the
punctured sum is the plain sum of the samples, the punctured entry zeroed,
plus the product of a constant (3, 22) block with the 11 samples at each
end (`_rule_sums`, the one sum): row 0 adds the Gregory-8 adjustments (the
trapezoid's -1/2 at the end nodes included), rows 1 and 2 the order-10
minus order-8 weights at each end, whose results are the end-error
estimate.  The same plain sum, less half of each end sample, is the plain
trapezoidal rule, which `_rule_sums` returns too.  The weights are exact
rationals rounded once, from the integer Lagrange polynomials of
`_lagrange_basis`, as is the stencil operator of `corrections`.  The
checked public views live in `verify`.

The nodes are one cached read-only array per mesh (`Mesh.nodes`); a
`GEval` samples g there once and keeps the samples.  A `Mesh` forms its
step h and its nesting family (`Mesh._family`) once, when it is built;
the family is the one statement of which meshes nest: within a family a
`GEval` shares the samples of common nodes and the mesh pass of
`integrator` a target's kernel.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .specfun import bernoulli_fraction

EDGE_ORDER = 8        # the Gregory order of the punctured sum
_ESTIMATE_ORDER = 10  # the order the end-error estimate compares it with
GREGORY_ORDERS = (EDGE_ORDER, _ESTIMATE_ORDER)   # the orders of `gregory_weights`
_END_NODES = _ESTIMATE_ORDER + 1   # the nodes at each end that carry end weights
_END_INDEX = np.r_[:_END_NODES, -_END_NODES:0]   # their indices, for every n
_MIN_NORMAL = sys.float_info.min


@dataclass(frozen=True)
class Mesh:
    """Uniform grid of 2n+1 nodes k*h, k = -n..n, with h = a/n.

    h and `_family` are formed once, when the mesh is built, and stored
    beside the fields a and n (they are no fields: equality, hashing and
    the repr read a and n alone).

    `_family` is the mesh's nesting family: (a, the odd part of n), or
    (a, n) where h = a/n is subnormal.  The meshes of one family are nested
    by powers of 2: node r k of the mesh of r n is (r k) fl(a/(r n)), which
    rounds the same real number as k fl(a/n), since fl(a/(r n)) r = fl(a/n)
    for a power of 2 r wherever h = fl(a/(r n)) is a normal float.  A
    subnormal h rounds more coarsely, so its mesh is a family of its own,
    as is each mesh of a `*3` range.
    """

    a: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a > 0.0):
            raise ValueError(f"half-width a must be finite and positive, got {self.a!r}")
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        # a Python float and int, so that h and the nodes are floats whatever
        # the caller passed (a / np.int64(n) would be a numpy scalar)
        a, n = float(self.a), int(self.n)
        h = a / n
        if h == 0.0:
            raise ValueError(f"h = a/n underflows to 0 for a = {a!r}, n = {n!r}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "_family", (a, n if h < _MIN_NORMAL else n // (n & -n)))

    def nodes(self) -> np.ndarray:
        """The 2n+1 nodes, one cached read-only array per (a, n)."""
        return _node_array(self.a, self.n)


@lru_cache(maxsize=32)
def _node_array(a: float, n: int) -> np.ndarray:
    x = np.arange(-n, n + 1) * (a / n)
    x.flags.writeable = False
    return x


def _lagrange_basis(nodes: range) -> list[tuple[list[int], int]]:
    """(num_i, den_i) for each integer node t_i: the integer coefficients of
    t^0, t^1, ... of prod_{j != i} (t - t_j), and prod_{j != i} (t_i - t_j)."""
    basis = []
    for ti in nodes:
        num = [1]
        for tj in nodes:
            if tj != ti:   # num times (t - t_j)
                num = [lo - tj * hi for lo, hi in zip([0] + num, num + [0])]
        basis.append((num, math.prod(ti - tj for tj in nodes if tj != ti)))
    return basis


@lru_cache(maxsize=None)
def gregory_weights(order: int) -> np.ndarray:
    """Boundary weight adjustments for the Gregory-corrected trapezoid.

    Returns ``order + 1`` adjustments applied at the nodes nearest each
    endpoint (on top of the half-weighted trapezoidal sum).  They solve the
    moments sum_j w_j j^m = rho_m exactly: w_j = sum_m num_{j,m} rho_m/den_j
    on node j's Lagrange polynomial, rounded once.  So the corrected rule
    integrates polynomials of degree <= order exactly on a uniform grid;
    the symmetric pairing of the two ends makes degree order + 1 exact as
    well.  The array is cached and read-only.
    """
    if order not in GREGORY_ORDERS:
        raise ValueError(f"gregory order must be one of {GREGORY_ORDERS}")
    q = order + 1
    rho = [bernoulli_fraction(m + 1) / (m + 1) if m % 2 else 0 for m in range(q)]
    w = np.array([float(sum(a * r for a, r in zip(num, rho)) / den)
                  for num, den in _lagrange_basis(range(q))])
    w.flags.writeable = False
    return w


def _checked(total: float, summed: np.ndarray) -> float:
    """`total`; ValueError if it is not finite because a summed sample is not."""
    if not math.isfinite(total) and not np.all(np.isfinite(summed)):
        raise ValueError("non-finite sample at a summed node")
    return total


@lru_cache(maxsize=1)
def _end_block() -> np.ndarray:
    """The rule's end weights, h factored out, read-only: a (3, 22) block on
    the 11 samples at the left end and the 11 at the right.

    Row 0 is `gregory_weights(8)` at the left end and mirrored at the right,
    less the trapezoid's 1/2 at the end nodes: it adjusts the plain sum to
    the Gregory-8 rule.  Rows 1 and 2 are w_10 - w_8 (w_8 zero-padded) from
    the left end and from the right end inward.
    """
    w8 = np.append(gregory_weights(EDGE_ORDER), [0.0, 0.0])
    rule, gap = w8.copy(), gregory_weights(_ESTIMATE_ORDER) - w8
    rule[0] -= 0.5
    zeros = np.zeros(_END_NODES)
    block = np.array([np.r_[rule, rule[::-1]], np.r_[gap, zeros], np.r_[zeros, gap[::-1]]])
    block.flags.writeable = False
    return block


def _rule_sums(h: float, v: np.ndarray) -> tuple[float, float, float]:
    """The punctured Gregory-8 sum on step h of the 2n+1 >= 11 floats `v` (the
    punctured entry 0, read in place), h (sum(v) + `_end_block`'s end
    adjustments), its end-error estimate h (|gap . v_left| + |gap .
    v_right|), gap = w_10 - w_8 on the 11 nodes at each end, and the plain
    trapezoidal sum h (sum(v) - (v_0 + v_2n)/2), on the same pairwise sum(v).
    A non-finite summed value raises ValueError (after numpy's invalid-value
    warning, unless silenced, for an infinite one within 11 nodes of an
    end), so every value the sums read is finite once they return."""
    ends, block = v[_END_INDEX], _end_block()
    adjust, left, right = block.dot(ends).tolist()
    # np.add.reduce is v.sum()'s pairwise sum, without the method's dispatch
    plain = float(np.add.reduce(v))
    total = h * (plain + adjust)
    if not math.isfinite(total):   # as any non-finite summed value leaves it: check then
        _checked(total, v)
        if math.isnan(total):
            # the samples are finite, but end weights above 1 times samples near
            # the float maximum overflowed to inf - inf: none does on samples/16
            total = h * (plain + 16.0 * float(block[0].dot(ends / 16.0)))
    plain -= 0.5 * v.item(0) + 0.5 * v.item(-1)
    return total, h * (abs(left) + abs(right)), h * plain
