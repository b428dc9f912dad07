"""Uniform meshes on [-a, a] and the punctured / shifted trapezoidal rules.

The rules here carry only *endpoint* corrections (Gregory weights).  Interior
singular corrections are assembled elsewhere; a rule in this module treats
its samples as those of a smooth function except possibly at one punctured
node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .specfun import bernoulli_fraction, bernoulli_poly_fraction

GREGORY_ORDERS = (2, 4, 6, 8, 10)


@dataclass(frozen=True)
class Mesh:
    """Uniform grid of 2n+1 nodes k*h, k = -n..n, with h = a/n."""

    a: float
    n: int

    def __post_init__(self):
        if self.a <= 0.0:
            raise ValueError("half-width a must be positive")
        if self.n < 1:
            raise ValueError("n must be a positive integer")

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


@dataclass(frozen=True)
class EdgeScheme:
    """Endpoint-correction scheme: Gregory weights, the only kind.

    ``order`` is the polynomial degree the corrected rule integrates exactly.
    """

    kind: str = "gregory"
    order: int = 8

    def __post_init__(self):
        if self.kind != "gregory":
            raise ValueError(f"unknown edge scheme kind {self.kind!r}")
        if self.order not in GREGORY_ORDERS:
            raise ValueError(f"gregory order must be one of {GREGORY_ORDERS}")


DEFAULT_SCHEME = EdgeScheme("gregory", 8)


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


@lru_cache(maxsize=32)
def _gregory_weight_array(order: int) -> np.ndarray:
    q = order + 1
    rho = []
    for m in range(q):
        if m % 2 == 1:
            rho.append(bernoulli_fraction(m + 1) / (m + 1))
        else:
            rho.append(Fraction(0))
    nodes = [Fraction(j) for j in range(q)]
    w = np.array([float(w) for w in _solve_moments(nodes, rho)])
    w.flags.writeable = False
    return w


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
    return _gregory_weight_array(order)


@lru_cache(maxsize=256)
def _offset_weight_tuple(order: int, q_num: int, q_den: int) -> tuple[float, ...]:
    # Moments B_{m+1}(q)/(m+1) absorb both the half-weight adjustment and the
    # fractional offset q of the outermost node relative to the true endpoint.
    q = Fraction(q_num, q_den)
    rho = [bernoulli_poly_fraction(m + 1, q) / (m + 1) for m in range(order + 1)]
    nodes = [q + j for j in range(order + 1)]
    return tuple(float(w) for w in _solve_moments(nodes, rho))


def _offset_edge_weights(order: int, q: float) -> np.ndarray:
    frac = Fraction(q)  # floats are exact rationals
    return np.array(_offset_weight_tuple(order, frac.numerator, frac.denominator))


def _check_finite(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite sample at a summed node")


def _edge_weights(mesh: Mesh, scheme: EdgeScheme) -> np.ndarray:
    """The scheme's Gregory weights, checked to fit in one half of the mesh."""
    w = gregory_weights(scheme.order)
    if mesh.n < len(w):
        raise ValueError(f"mesh too small for gregory order {scheme.order} "
                         f"(need n >= {len(w)})")
    return w


def _edge_sum(part: np.ndarray, edge: np.ndarray, w: np.ndarray, h: float) -> float:
    """h sum(part) plus the endpoint correction; `edge` is `part` from the endpoint inward."""
    corr = -0.5 * h * edge[0]
    corr += h * np.dot(w, edge[:len(w)])
    return float(h * float(np.sum(part)) + corr)


def _edge_rule(mesh: Mesh, samples: np.ndarray, scheme: EdgeScheme,
               left: bool) -> float:
    """Sum over one half, k = -n..-1 or k = 1..n, plus its endpoint correction."""
    samples = np.asarray(samples, dtype=float)
    part = samples[:mesh.n] if left else samples[mesh.n + 1:]
    w = _edge_weights(mesh, scheme)
    total = _edge_sum(part, part if left else part[::-1], w, mesh.h)
    # as in punctured_trapezoid: look for a non-finite sample only if the total is
    if not math.isfinite(total):
        _check_finite(part)
    return total


def end_error_estimate(mesh: Mesh, samples: np.ndarray, puncture: int | None = None,
                       scheme: EdgeScheme = DEFAULT_SCHEME) -> float:
    """Estimated error of the end corrections of `punctured_trapezoid`.

    Over both ends, h |sum_j (w_other - w_order)_j f_j| from the endpoint
    inward: how far the rule moves on the same samples with Gregory weights
    of order + 2 (8 for order 10).  The punctured entry counts as 0.
    """
    gap = _weight_gap(scheme.order)
    m = len(gap)
    ends = np.array([samples[:m], samples[:-m - 1:-1]], dtype=float)
    if puncture is not None:
        for row, i in enumerate((mesh.n + puncture, mesh.n - puncture)):
            if i < m:
                ends[row, i] = 0.0
    left, right = (ends @ gap).tolist()
    return mesh.h * (abs(left) + abs(right))


@lru_cache(maxsize=8)
def _weight_gap(order: int) -> np.ndarray:
    """w_other - w_order, zero-padded to the longer of the two."""
    other = order + 2 if order < GREGORY_ORDERS[-1] else 8
    m = max(order, other) + 1
    gap = np.zeros(m)
    gap[:other + 1] += gregory_weights(other)
    gap[:order + 1] -= gregory_weights(order)
    gap.flags.writeable = False
    return gap


def left_rule(mesh: Mesh, samples: np.ndarray,
              scheme: EdgeScheme = DEFAULT_SCHEME) -> float:
    """L_h[f]: sum over k = -n..-1 plus the edge correction at -a."""
    return _edge_rule(mesh, samples, scheme, left=True)


def right_rule(mesh: Mesh, samples: np.ndarray,
               scheme: EdgeScheme = DEFAULT_SCHEME) -> float:
    """R_h[f]: sum over k = 1..n plus the edge correction at +a."""
    return _edge_rule(mesh, samples, scheme, left=False)


def punctured_trapezoid(mesh: Mesh, samples: np.ndarray, puncture: int | None = None,
                        scheme: EdgeScheme = DEFAULT_SCHEME) -> float:
    """Trapezoidal rule with edge corrections, skipping one interior node.

    Parameters
    ----------
    samples : array of f at all 2n+1 mesh nodes (the punctured entry may be
        non-finite; it is never touched).
    puncture : mesh index k in (-n, n) to omit, or None for the ordinary rule.
    scheme : endpoint correction scheme.

    The rule is assembled as L_h + R_h + (center and puncture adjustments),
    so ``punctured_trapezoid(..., puncture=0)`` equals
    ``left_rule(...) + right_rule(...)`` identically.
    """
    samples = np.asarray(samples, dtype=float)
    n = mesh.n
    if len(samples) != 2 * n + 1:
        raise ValueError("sample count does not match the mesh")
    if puncture is not None:
        if abs(puncture) >= n:
            raise ValueError("puncture must be an interior node")
        if abs(puncture) > n - (scheme.order + 1):
            raise ValueError("puncture overlaps the edge-correction stencil")
    w = _edge_weights(mesh, scheme)
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


def shifted_trapezoid(mesh: Mesh, f_eval, s: float,
                      scheme: EdgeScheme = DEFAULT_SCHEME,
                      include_center: bool = False) -> float:
    """Trapezoidal rule on the shifted grid (k + s)h targeting integral over [-a, a].

    The node k = 0 (at x = s h) is omitted by default, mirroring the
    punctured rule; ``include_center=True`` gives the ordinary (non-punctured)
    shifted rule.  Endpoint corrections use offset-aware Gregory weights:
    the outermost nodes sit at -a + s h and a + s h, and the moment system
    is built for the fractional offsets s and -s so that the corrected rule
    still integrates polynomials over exactly [-a, a].

    With s = 0 and the center excluded this reduces to
    ``punctured_trapezoid(..., puncture=0)``.
    """
    if not -0.5 <= s <= 0.5:
        raise ValueError("shift fraction s must lie in [-1/2, 1/2]")
    h = mesh.h
    n = mesh.n
    xs = (np.arange(-n, n + 1) + s) * h
    vals = np.array([float(f_eval(x)) for x in xs])
    idx = np.arange(2 * n + 1)
    keep = idx != n if not include_center else np.ones(2 * n + 1, dtype=bool)
    _check_finite(vals[keep])
    total = h * float(np.sum(vals[keep]))
    wl = _offset_edge_weights(scheme.order, s)
    wr = _offset_edge_weights(scheme.order, -s)
    m = len(wl)
    total += h * float(np.dot(wl, vals[:m]))
    total += h * float(np.dot(wr, vals[::-1][:m]))
    return float(total)
