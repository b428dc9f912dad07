"""Property tests: g with poles at +/- i b near the real axis.

The poles lie as close to x_s as the benchmark's (b in [0.3, 1]); the
correction, closed form or finite part, must still meet the benchmark's
tolerance 1e-10 max(|ref|, 1).
"""

import math

from hypothesis import example, given, settings, strategies as st

from nsquad.corrections import GEval
from nsquad.integrator import KernelParams, integrate_finite_part, integrate_near_singular
from nsquad.oracle import finite_part_reference, reference_integral

REL_TOL = 1e-10
SETTINGS = settings(max_examples=20, deadline=None, derandomize=True)

b_st = st.floats(0.3, 1.0)
x_s_st = st.floats(-0.4, 0.4)


def pole(b: float):
    b2 = b * b
    return lambda z: 1.0 / (z * z + b2)


def assert_close(value: float, ref: float) -> None:
    assert abs(value - ref) <= REL_TOL * max(abs(ref), 1.0), (value, ref)


@SETTINGS
@given(b=b_st, n=st.sampled_from([64, 256]), c=st.sampled_from([0.5, 1.0, 2.0]),
       log_d=st.floats(-8.0, -1.0), x_s=x_s_st)
@example(b=0.375, n=256, c=1.0, log_d=-4.0, x_s=0.0)
def test_near_singular_pole(b, n, c, log_d, x_s):
    g = GEval.analytic(pole(b))
    params = KernelParams(a=1.0, c=c, d=10.0 ** log_d, x_s=x_s)
    res = integrate_near_singular(g, params, n)
    # the integral is O(pi/(c d)): a coarse pass sets the relative tolerance
    scale = math.pi / (c * params.d) * abs(g.real_eval(x_s))
    coarse = reference_integral(g, params, tol=1e-6 * max(1.0, scale)).value
    ref = reference_integral(g, params, tol=1e-12 * max(1.0, abs(coarse))).value
    assert_close(res.value, ref)


@SETTINGS
@given(b=b_st, x_s=x_s_st)
@example(b=0.375, x_s=0.0)
def test_finite_part_pole(b, x_s):
    f = pole(b)
    res = integrate_finite_part(GEval.analytic(f), 1.0, x_s, 256)
    assert_close(res.value, finite_part_reference(GEval.analytic(f, radius=0.8 * b), 1.0, x_s))

