"""Polynomial interpolation helpers shared by the stencil-derivative code."""

from __future__ import annotations

import numpy as np


def divided_differences(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Newton divided-difference coefficients for the data (t, y)."""
    c = np.array(y, dtype=float)
    m = len(t)
    for j in range(1, m):
        c[j:] = (c[j:] - c[j - 1:-1]) / (t[j:] - t[:-j])
    return c


def newton_taylor(coeffs: np.ndarray, t: np.ndarray, u: float) -> np.ndarray:
    """Taylor coefficients about u of the Newton-form interpolant.

    Returns a[0..m-1] with P(t) = sum_k a[k] (t - u)^k.
    """
    m = len(coeffs)
    a = np.zeros(m)
    a[0] = coeffs[m - 1]
    deg = 0
    for i in range(m - 2, -1, -1):
        # multiply by ((t - u) + (u - t_i)) and add c_i
        shift = u - t[i]
        deg += 1
        a[1:deg + 1] = a[:deg] + a[1:deg + 1] * shift
        a[0] = a[0] * shift + coeffs[i]
    return a
