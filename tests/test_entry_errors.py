"""Every input a public entry rejects raises ValueError with its own message.

The table pins each message in full, so that moving a check (into a validator
shared by `KernelParams` and `integrate_finite_part`, or out of the per-target
core into the checked views of `verify`) cannot change what a caller reads.
"""

import cmath
import math

import numpy as np
import pytest

import nsquad
from nsquad import GEval, KernelParams, Mesh, integrate_finite_part, integrate_near_singular
from nsquad.emcoeff import pks_seeds
from nsquad.oracle import exact_test2, finite_part_reference
from nsquad.verify import CoeffParams, fk_series_oracle, hurwitz_zeta_nonpos, self_check

nan, inf = math.nan, math.inf
EXP = GEval.analytic(np.exp)
REAL = GEval(real_eval=math.exp)
ONES = np.ones(9)
WINDOW = ("window must hold g at the 9 nodes around the puncture: stencil samples must "
          "be finite (and, for a Taylor fit, differ by less than 1.4e+306)")
NAN_AT_0 = "g is not finite at x = 0.0: g(x) = nan"
LAM2_OVERFLOW = ("lam = d/(c h) = 1.600e+154 is out of range: lam^2 overflows "
                 "(d = 1000.0, c = 1e-150, h = 0.0625)")


def sinc(x):
    return math.sin(x) / x if x else math.nan


def sinc_complex(z):
    return cmath.sin(z) / z if z else complex(math.nan, 0.0)


SINC_REAL = GEval(real_eval=sinc)
SINC_BOTH = GEval(real_eval=sinc, complex_eval=sinc_complex)


def forgets_to_return(x):
    math.exp(x)


def complex_returns(value):
    """A g whose complex_eval returns `value` at every point."""
    return GEval(real_eval=math.exp, complex_eval=lambda z: value)


def nan_on_the_axis():
    """A g whose complex_eval is NaN at real points only."""
    return GEval(real_eval=math.exp,
                 complex_eval=lambda z: cmath.exp(z) if z.imag else complex(nan, 0.0))


def array_of(value):
    """An `analytic` f that returns `value` at every point of an array."""
    return GEval.analytic(lambda z: np.full(np.shape(z), value))


def near(g, n, method="auto", **kernel):
    return lambda: integrate_near_singular(g, KernelParams(**{"a": 1.0, **kernel}), n, method)


def params(**kernel):
    return lambda: KernelParams(**{"a": 1.0, **kernel})


def finite_part(g, a, x_s, n):
    return lambda: integrate_finite_part(g, a, x_s, n)


def closed(*args, g=EXP, window=ONES):
    return lambda: nsquad.correction_offmesh_closed(g, *args, window)


def taylor(*args):
    return lambda: nsquad.correction_taylor(*args)


def fd(samples, h, x_s):
    return lambda: nsquad.fd_derivatives(samples, h, x_s)


CASES = {
    # integrate_near_singular, its KernelParams and the per-target core
    "near-method": (near(EXP, 64, "bogus", d=0.01),
                    "method must be one of ('auto', 'closed-form', 'fd-series')"),
    "near-no-complex-eval": (near(REAL, 64, "closed-form", d=0.01),
                             "closed-form correction needs a complex evaluator for g"),
    "near-n-below-16": (near(EXP, 8, d=0.01), "n must be at least 16"),
    "near-n-float": (near(EXP, 64.0, d=0.01), "n must be a positive integer, got 64.0"),
    "near-endpoint": (near(EXP, 64, d=0.01, x_s=1.0 - 9.5 / 64),
                      "x_s too close to an endpoint for the correction stencils "
                      "(need |x_s| < a - 10h)"),
    # the GEval checks its samples of a mesh once, on the puncture node or a summed one
    "near-nan-node-closed": (near(SINC_BOTH, 64, "closed-form", d=1e-3), NAN_AT_0),
    "near-nan-node-q-series": (near(SINC_BOTH, 64, "closed-form", d=1e-6), NAN_AT_0),
    "near-nan-node-fd": (near(SINC_REAL, 64, "fd-series", d=1e-3), NAN_AT_0),
    "near-nan-summed-node": (near(SINC_REAL, 64, "fd-series", d=1e-3, x_s=0.5), NAN_AT_0),
    # g = 1e308 is finite; its kernel sample at the node next to s = 1/2 is not
    "near-kernel-overflow-summed-node": (near(GEval(real_eval=lambda x: 1e308), 64, "fd-series",
                                              d=1e-3, x_s=0.5 / 64),
                                         "non-finite sample at a summed node"),
    # numpy would read None as NaN and a string as the number it spells: on
    # real_eval's scalar path and from an `analytic` f's array alike
    "near-g-returns-none": (near(GEval(real_eval=forgets_to_return), 64, "fd-series", d=1e-3),
                            "real_eval must return a real number, got None"),
    "near-g-returns-str": (near(GEval(real_eval=lambda x: "2.718"), 64, "fd-series", d=1e-3),
                           "real_eval must return a real number, got '2.718'"),
    "finite-part-f-array-of-none": (finite_part(array_of(None), 1.0, 0.1, 64),
                                    "real_eval must return a real number, got None"),
    "finite-part-f-array-of-str": (finite_part(array_of("2.718"), 1.0, 0.1, 64),
                                   "real_eval must return a real number, got '2.718'"),
    "near-g-returns-sequence": (near(GEval(real_eval=lambda x: [x]), 64, "fd-series", d=1e-3),
                                "real_eval must return a real number "
                                "(setting an array element with a sequence.)"),
    # complex() would raise TypeError for None and [1.0] and parse "2" as G = 2
    "near-complex-eval-none": (near(complex_returns(None), 64, "closed-form", d=1e-3),
                               "complex_eval must return a complex number, got None"),
    "near-complex-eval-list": (near(complex_returns([1.0]), 64, "closed-form", d=1e-3),
                               "complex_eval must return a complex number, got [1.0]"),
    "near-complex-eval-str": (near(complex_returns("2"), 64, "closed-form", d=1e-3),
                              "complex_eval must return a complex number, got '2'"),
    # a NaN or infinite G, or a NaN at the puncture node, which the check of
    # complex_eval there would compare as no gap at all (lam = 0.064)
    "near-complex-eval-nan": (near(complex_returns(complex(nan, 0.0)), 64, "closed-form",
                                   d=1e-3, x_s=0.1),
                              "complex_eval must return a finite value, got (nan+0j) "
                              "at z = (0.1+0.001j)"),
    "near-complex-eval-nan-on-axis": (near(nan_on_the_axis(), 64, "closed-form", d=1e-3,
                                           x_s=0.1),
                                      "complex_eval must return a finite value, got "
                                      "(nan+0j) at z = (0.09375+0j)"),
    "near-lam-underflow-closed": (near(EXP, 64, "closed-form", c=1e150, d=1e-300, x_s=0.1),
                                  "d = 1e-300 is too small for c = 1e+150, h = 0.015625: "
                                  "lam = d/(c h) underflows to 0"),
    "near-lam2-overflow-closed": (near(EXP, 64, "closed-form", c=1e-150, d=1e3, x_s=0.1),
                                  "lam = d/(c h) = 6.400e+154 is out of range: lam^2 "
                                  "overflows (d = 1000.0, c = 1e-150, h = 0.015625)"),
    "near-lam2-overflow-fd": (near(EXP, 16, "fd-series", c=1e-150, d=1e3, x_s=0.1),
                              "lam = d/(c h) = 1.600e+154 is out of range: lam^2 "
                              "overflows (d = 1000.0, c = 1e-150, h = 0.0625)"),
    "params-d-nan": (params(d=nan), "d must be finite, got nan"),
    "params-c-zero": (params(c=0.0), "a and c must be positive"),
    "params-d-negative": (params(d=-1.0),
                          "d must be nonnegative (the kernel depends on d^2; negate the "
                          "jump part for the d < 0 operator limit)"),
    "params-x_s-outside": (params(x_s=1.0), "x_s must lie strictly inside (-a, a)"),
    "params-jump-overflow": (params(d=5e-324),
                             "d = 5e-324 is too small for c = 1.0: the jump pi/(c d) overflows"),
    "params-c-range": (params(c=1e200, d=1e-200),
                       "c = 1e+200 is out of range: c^2 or 1/c^2 overflows"),
    "params-d2-overflow": (params(d=1e160), "d = 1e+160 is out of range: d^2 overflows"),
    # integrate_finite_part
    "finite-part-a-nan": (finite_part(EXP, nan, 0.0, 64), "a must be finite, got nan"),
    "finite-part-a-inf": (finite_part(EXP, inf, 0.0, 64), "a must be finite, got inf"),
    "finite-part-x_s-nan": (finite_part(EXP, 1.0, nan, 64), "x_s must be finite, got nan"),
    "finite-part-x_s-inf": (finite_part(EXP, 1.0, -inf, 64), "x_s must be finite, got -inf"),
    "finite-part-a-zero": (finite_part(EXP, 0.0, 0.0, 64), "a and c must be positive"),
    "finite-part-a-negative": (finite_part(EXP, -1.0, 0.0, 64), "a and c must be positive"),
    "finite-part-x_s-at-a": (finite_part(EXP, 1.0, 1.0, 64),
                             "x_s must lie strictly inside (-a, a)"),
    "finite-part-x_s-outside": (finite_part(EXP, 1.0, -2.0, 64),
                                "x_s must lie strictly inside (-a, a)"),
    "finite-part-n-below-16": (finite_part(EXP, 1.0, 0.0, 15), "n must be at least 16"),
    "finite-part-n-float": (finite_part(EXP, 1.0, 0.0, 64.0),
                            "n must be a positive integer, got 64.0"),
    "finite-part-endpoint": (finite_part(EXP, 1.0, 1.0 - 10.0 / 64, 64),
                             "x_s too close to an endpoint for the correction stencils "
                             "(need |x_s| < a - 10h)"),
    "finite-part-endpoint-left": (finite_part(REAL, 2.0, -2.0 + 19.0 / 128, 128),
                                  "x_s too close to an endpoint for the correction stencils "
                                  "(need |x_s| < a - 10h)"),
    "finite-part-h-underflow": (finite_part(EXP, 5e-324, 0.0, 64),
                                "h = a/n underflows to 0 for a = 5e-324, n = 64"),
    "finite-part-nan-node": (finite_part(SINC_REAL, 1.0, 0.0, 64), NAN_AT_0),
    # correction_offmesh_closed: (c, d, h, s, x_s), the window last
    "closed-c-negative": (closed(-1.0, 0.01, 0.01, 0.0, 0.0),
                          "c and h must be finite and positive, got c = -1.0, h = 0.01"),
    "closed-h-nan": (closed(1.0, 0.01, nan, 0.0, 0.0),
                     "c and h must be finite and positive, got c = 1.0, h = nan"),
    "closed-c-h-underflow": (closed(1e-154, 1.0, 1e-302, 0.1, 0.0),
                             "c h underflows to 0 (c = 1e-154, h = 1e-302): lam is out of range"),
    "closed-d-inf": (closed(1.0, inf, 0.01, 0.0, 0.0), "d must be finite, got inf"),
    "closed-lam-underflow": (closed(1e150, 1e-300, 1.0 / 64, 0.0, 0.0),
                             "d = 1e-300 is too small for c = 1e+150, h = 0.015625: "
                             "lam = d/(c h) underflows to 0"),
    "closed-lam-underflow-first": (closed(2.0, 5e-324, 1.0, 0.0, 0.0),
                                   "d = 5e-324 is too small for c = 2.0, h = 1.0: "
                                   "lam = d/(c h) underflows to 0"),
    "closed-jump-overflow": (closed(1.0, 1e-320, 1e-10, 0.0, 0.0),
                             "d = 1e-320 is too small for c = 1.0: the jump pi/(c d) overflows"),
    "closed-c-range": (closed(1e-155, 1e-100, 0.01, 0.3, 0.0),
                       "c = 1e-155 is out of range: c^2 or 1/c^2 overflows"),
    "closed-x_s-nan": (closed(1.0, 0.01, 0.01, 0.0, nan), "x_s must be finite, got nan"),
    "closed-d-zero": (closed(1.0, 0.0, 0.01, 0.0, 0.0),
                      "correction_offmesh_closed requires d > 0 "
                      "(d = 0 takes the finite-part path)"),
    "closed-d-negative": (closed(1.0, -0.01, 0.01, 0.0, 0.0),
                          "correction_offmesh_closed requires d > 0 "
                          "(d = 0 takes the finite-part path)"),
    "closed-no-complex-eval": (closed(1.0, 0.01, 0.01, 0.0, 0.0, g=REAL),
                               "closed-form correction needs a complex evaluator for g"),
    "closed-s-outside": (closed(1.0, 0.01, 0.01, 0.6, 0.0), "s must lie in [-1/2, 1/2]"),
    "closed-s-nan": (closed(1.0, 0.01, 0.01, nan, 0.0), "s must lie in [-1/2, 1/2]"),
    "closed-window-short": (closed(1.0, 0.01, 0.01, 0.0, 0.0, window=np.ones(8)), WINDOW),
    "closed-window-2d": (closed(1.0, 1e-6, 0.01, 0.0, 0.0, window=np.ones((3, 3))), WINDOW),
    "closed-window-nan": (closed(1.0, 0.01, 0.01, 0.0, 0.0,
                                 window=[1.0] * 4 + [nan] + [1.0] * 4), WINDOW),
    "closed-window-spread": (closed(1.0, 1e-6, 0.01, 0.0, 0.0,
                                    window=[1e308] * 4 + [-1e308] * 5), WINDOW),
    "closed-lam2-overflow": (closed(1e-150, 1e3, 1.0 / 16, 0.1, 0.1),
                             "lam = d/(c h) = 1.600e+154 is out of range: lam^2 overflows "
                             "(d = 1000.0, c = 1e-150, h = 0.0625)"),
    # lam = d/(c h) and its range come first (`corrections._lam`), after d's finiteness
    "closed-c-h-underflow-d-nan": (closed(1e-154, nan, 1e-302, 0.1, 0.0),
                                   "d must be finite, got nan"),
    "closed-lam2-overflow-c-range": (closed(1e-160, 1e3, 1.0 / 16, 0.1, 0.1),
                                     "lam = d/(c h) = 1.600e+164 is out of range: lam^2 "
                                     "overflows (d = 1000.0, c = 1e-160, h = 0.0625)"),
    "closed-lam2-overflow-no-complex-eval": (closed(1e-150, 1e3, 1.0 / 16, 0.1, 0.1, g=REAL),
                                             LAM2_OVERFLOW),
    "closed-lam2-overflow-s-outside": (closed(1e-150, 1e3, 1.0 / 16, 0.7, 0.1), LAM2_OVERFLOW),
    "closed-lam2-overflow-d-negative": (closed(1e-150, -1e3, 1.0 / 16, 0.1, 0.1),
                                        "lam = d/(c h) = -1.600e+154 is out of range: lam^2 "
                                        "overflows (d = -1000.0, c = 1e-150, h = 0.0625)"),
    "closed-lam2-overflow-x_s-nan": (closed(1e-150, 1e3, 1.0 / 16, 0.1, nan), LAM2_OVERFLOW),
    "closed-complex-eval-none": (closed(1.0, 0.01, 0.1, 0.2, 0.02, g=complex_returns(None)),
                                 "complex_eval must return a complex number, got None"),
    "closed-complex-eval-str": (closed(1.0, 0.01, 0.1, 0.2, 0.02, g=complex_returns("2")),
                                "complex_eval must return a complex number, got '2'"),
    "closed-complex-eval-bytes": (closed(1.0, 0.01, 0.1, 0.2, 0.02, g=complex_returns(b"2")),
                                  "complex_eval must return a complex number, got b'2'"),
    "closed-complex-eval-nan": (closed(1.0, 0.01, 0.1, 0.2, 0.02,
                                       g=complex_returns(complex(nan, 0.0))),
                                "complex_eval must return a finite value, got (nan+0j) "
                                "at z = (0.02+0.01j)"),
    "closed-complex-eval-inf": (closed(1.0, 0.01, 0.1, 0.2, 0.02,
                                       g=complex_returns(complex(0.0, -inf))),
                                "complex_eval must return a finite value, got -infj "
                                "at z = (0.02+0.01j)"),
    # correction_taylor: (a, c, d, h, s)
    "taylor-c-inf": (taylor([1.0], inf, 0.01, 0.01, 0.0),
                     "c and h must be finite and positive, got c = inf, h = 0.01"),
    "taylor-c-h-underflow": (taylor([1.0], 1e-154, 0.0, 1e-302, 0.1),
                             "c h underflows to 0 (c = 1e-154, h = 1e-302): lam is out of range"),
    "taylor-d-negative": (taylor([1.0], 1.0, -0.01, 0.01, 0.0),
                          "correction_taylor requires d >= 0"),
    "taylor-lam-underflow": (taylor([1.0, 0.5], 1e150, 1e-300, 1.0 / 64, 0.0),
                             "d = 1e-300 is too small for c = 1e+150, h = 0.015625: "
                             "lam = d/(c h) underflows to 0"),
    "taylor-jump-overflow": (taylor([1.0, 0.5], 1.0, 1e-320, 1e-10, 0.0),
                             "d = 1e-320 is too small for c = 1.0: the jump pi/(c d) overflows"),
    "taylor-c-range": (taylor([1.0], 1e-170, 0.0, 0.01, 0.0),
                       "c = 1e-170 is out of range: c^2 or 1/c^2 overflows"),
    "taylor-s-outside": (taylor([1.0], 1.0, 0.01, 0.01, -0.75), "s must lie in [-1/2, 1/2]"),
    "taylor-a-empty": (taylor([], 1.0, 0.01, 0.01, 0.0),
                       "a must be a non-empty 1-D sequence of Taylor coefficients"),
    "taylor-a-2d": (taylor([[1.0, 0.5]], 1.0, 0.01, 0.01, 0.0),
                    "a must be a non-empty 1-D sequence of Taylor coefficients"),
    "taylor-a-nan": (taylor([1.0, nan], 1.0, 0.0, 0.01, 0.0),
                     "the Taylor coefficients a_k and a_k h^k must be finite"),
    "taylor-a-h-overflow": (taylor([1.0, 0.5, 0.25], 1.0, 0.1, 1e300, 0.1),
                            "the Taylor coefficients a_k and a_k h^k must be finite"),
    "taylor-lam2-overflow": (taylor([1.0], 1e-150, 1e3, 1.0 / 16, 0.1),
                             "lam = d/(c h) = 1.600e+154 is out of range: lam^2 overflows "
                             "(d = 1000.0, c = 1e-150, h = 0.0625)"),
    "taylor-c-h-underflow-d-nan": (taylor([1.0], 1e-154, nan, 1e-302, 0.1),
                                   "d must be finite, got nan"),
    "taylor-lam2-overflow-c-range": (taylor([1.0], 1e-160, 1e3, 1.0 / 16, 0.1),
                                     "lam = d/(c h) = 1.600e+164 is out of range: lam^2 "
                                     "overflows (d = 1000.0, c = 1e-160, h = 0.0625)"),
    "taylor-lam2-overflow-s-outside": (taylor([1.0], 1e-150, 1e3, 1.0 / 16, 0.7),
                                       LAM2_OVERFLOW),
    "taylor-lam2-overflow-d-negative": (taylor([1.0], 1e-150, -1e3, 1.0 / 16, 0.1),
                                        "lam = d/(c h) = -1.600e+154 is out of range: lam^2 "
                                        "overflows (d = -1000.0, c = 1e-150, h = 0.0625)"),
    "taylor-lam2-overflow-a-empty": (taylor([], 1e-150, 1e3, 1.0 / 16, 0.1), LAM2_OVERFLOW),
    "taylor-c2-h-underflow": (taylor([1.0], 1e-100, 0.0, 1e-200, 0.1),
                              "c^2 h underflows to 0 (c = 1e-100, h = 1e-200)"),
    # CoeffParams, the one entry of every coefficient table (and of self_check)
    "coeffs-overflow-even": (lambda: CoeffParams(lam=1e30),
                             "lam = 1e+30 is too large for k_max = 12: the table's "
                             "entries grow as lam^12 and overflow (h = 1.0)"),
    "coeffs-overflow-odd": (lambda: CoeffParams(lam=3.6e25, s=0.2, k_max=13),
                            "lam = 3.6e+25 is too large for k_max = 13: the table's "
                            "entries grow as lam^12 and overflow (h = 1.0)"),
    "self-check-overflow": (lambda: self_check(KernelParams(a=1.0, d=1e100), 64),
                            "lam = 6.4e+101 is too large for k_max = 12: the table's "
                            "entries grow as lam^12 and overflow (h = 0.015625)"),
    # self_check takes lam from `corrections._lam`, as integration does
    "self-check-c-h-underflow": (lambda: self_check(KernelParams(a=1e-300, c=1e-154, d=1.0),
                                                    64),
                                 "c h underflows to 0 (c = 1e-154, h = 1.5625e-302): "
                                 "lam is out of range"),
    "self-check-lam2-overflow": (lambda: self_check(KernelParams(a=1.0, c=1e-150, d=1e3), 16),
                                 LAM2_OVERFLOW),
    # the oracle and the references of verify
    "exact-test2-c-zero": (lambda: exact_test2(0.1, 0.0, 0.1), "c must be positive"),
    "finite-part-reference-x_s-at-a": (lambda: finite_part_reference(EXP, 1.0, -1.0),
                                       "x_s must lie inside (-a, a)"),
    "hurwitz-zeta-order-32": (lambda: hurwitz_zeta_nonpos(32, 0.5),
                              "zeta(-n, a) supported for 0 <= n <= 31, got n = 32"),
    "fk-series-k-negative": (lambda: fk_series_oracle(-1, 0.1, 0.01), "k must be nonnegative"),
    "self-check-k-max-zero": (lambda: self_check(KernelParams(a=1.0, d=0.01), 64, k_max=0),
                              "self_check needs k_max >= 1 for the p_1 h-invariance check"),
    # pks_seeds
    "seeds-s-outside": (lambda: pks_seeds(0.1, 0.6), "s must lie in [-1/2, 1/2]"),
    "seeds-s-nan": (lambda: pks_seeds(0.1, nan), "s must lie in [-1/2, 1/2]"),
    # fd_derivatives
    "fd-h-zero": (fd(ONES, 0.0, 0.0),
                  "h must be finite and positive and x_s finite, got h = 0.0, x_s = 0.0"),
    "fd-x_s-inf": (fd(ONES, 0.01, inf),
                   "h must be finite and positive and x_s finite, got h = 0.01, x_s = inf"),
    "fd-x_s-far": (fd(ONES, 0.01, 0.006),
                   "x_s must lie within half a mesh step of the stencil center"),
    "fd-samples-short": (fd(np.ones(8), 0.01, 0.0), WINDOW),
    "fd-samples-nan": (fd([1.0] * 8 + [nan], 0.01, 0.0), WINDOW),
    "fd-samples-spread": (fd([1e308] * 2 + [-1e308] + [1e308] * 6, 0.01, 0.0), WINDOW),
    "fd-derivative-overflow": (fd(np.arange(9.0) ** 6, 1e-60, 0.0),
                               "a derivative overflows at h = 1e-60"),
    # plain_trapezoid and punctured_trapezoid
    "plain-samples-2d": (lambda: nsquad.plain_trapezoid(Mesh(1.0, 32), np.ones((65, 1))),
                         "sample count does not match the mesh"),
    "punctured-float-puncture": (lambda: nsquad.punctured_trapezoid(Mesh(1.0, 32),
                                                                    np.ones(65), 3.0),
                                 "puncture must be an integer node index, got 3.0"),
}

# the scales of `test_integrator.TestExtremeScales`, on both methods
for _a, _c, _d, _message in (
        (1e-300, 1e-154, 1.0, "c h underflows to 0 (c = 1e-154, h = 1.5625e-302): "
                              "lam is out of range"),
        (1e-300, 1e-154, 0.0, "c h underflows to 0 (c = 1e-154, h = 1.5625e-302): "
                              "lam is out of range"),
        (1e-300, 1e-20, 0.0, "c^2 h underflows to 0 (c = 1e-20, h = 1.5625e-302)"),
        (1e-275, 1e-20, 0.0, "the result is not finite: the sum inf plus the correction "
                             "-inf leaves the float range at a = 1e-275, c = 1e-20, "
                             "d = 0.0, n = 64")):
    for _method in ("closed-form", "fd-series"):
        CASES[f"extreme-a{_a:g}-c{_c:g}-d{_d:g}-{_method}"] = (
            near(EXP, 64, _method, a=_a, c=_c, d=_d, x_s=0.1 * _a), _message)


@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES.keys())
def test_rejected_input_raises_its_message(call, message):
    with np.errstate(all="ignore"), pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value) == message
