"""Property tests: wide kernels, lam = d/(c h) from 1e-9 to 1e8.

The benchmark draws d <= 0.1; above that range the correction must stay
exact too, for an analytic g (closed form) and a real-only g (Taylor form
on the 9-point stencil), at interior targets, against `exact_test2`.
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nsquad import corrections
from nsquad.corrections import _Q_NEGLIGIBLE_LAM, GEval
from nsquad.integrator import KernelParams, integrate_near_singular, puncture_split
from nsquad.oracle import exact_test2
from nsquad.verify import correction_offmesh_closed, correction_taylor

REL_TOL = 1e-11
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def numerator(d: float, kind: str) -> GEval:
    """d e^x, the numerator of `exact_test2`: analytic, or real-only scalar."""
    if kind == "analytic":
        return GEval.analytic(lambda z: d * np.exp(z))
    return GEval(real_eval=lambda x: d * math.exp(x))


@SETTINGS
@given(log_lam=st.floats(-9.0, 8.0), log_c=st.floats(-3.0, 3.0), s=st.floats(-0.5, 0.5),
       node=st.floats(-0.5, 0.5), n=st.sampled_from([64, 256, 1024]),
       kind=st.sampled_from(["analytic", "real"]))
# silent misses before the pole form: real-only g at lam = 1.0e5, 1.0e8 and
# 1.3e5 (x_s = 0.1234 and -0.3), analytic g at lam = 1e6
@example(log_lam=math.log10(100.0 * 1024), log_c=0.0, s=0.1234 * 1024 - 126, node=126 / 1024,
         n=1024, kind="real")
@example(log_lam=math.log10(1e5 * 1024), log_c=0.0, s=0.1234 * 1024 - 126, node=126 / 1024,
         n=1024, kind="real")
@example(log_lam=math.log10(128e3), log_c=-3.0, s=-0.4, node=-0.3, n=128, kind="real")
@example(log_lam=6.0, log_c=2.0, s=0.1234 * 64 - 8, node=0.125, n=64, kind="analytic")
def test_wide_kernel_matches_exact(log_lam, log_c, s, node, n, kind):
    c, h = 10.0 ** log_c, 1.0 / n
    x_s = (round(node * n) + s) * h
    d = 10.0 ** log_lam * c * h
    res = integrate_near_singular(numerator(d, kind), KernelParams(a=1.0, c=c, d=d, x_s=x_s), n)
    ref = exact_test2(d, c, x_s)
    assert abs(res.value - ref) <= REL_TOL * max(abs(ref), 1.0), (res.value, ref)


@pytest.mark.parametrize("c", [0.01, 1.0, 100.0])
def test_closed_form_keeps_relative_digits_at_lam_1e6(c):
    # the integral is about 2 sinh(1)/d here, far below 1: the pole form adds
    # nothing of size pi/(c d) to it, so its digits survive relative to itself
    n, x_s = 64, 0.1234
    d = 1e6 * c / n
    res = integrate_near_singular(numerator(d, "analytic"),
                                  KernelParams(a=1.0, c=c, d=d, x_s=x_s), n, "closed-form")
    with mp.workdps(30):
        ref = mp.quad(lambda x: d * mp.exp(x) / (d * d + c * c * (x - x_s) ** 2),
                      [-1, x_s, 1])
    assert abs(res.value - float(ref)) <= 1e-14 * abs(float(ref))


def test_taylor_form_at_huge_d_over_c_is_finite():
    # G of the Taylor polynomial overflows for d/c >~ 1e50; the pole term is
    # dropped there, so the correction is the punctured node put back
    a = [1.0, 0.5, 0.25, 1.0 / 6, 1.0 / 24, 1.0 / 120, 1.0 / 720]
    h, s = 1.0 / 64, 0.3
    for d in (1e55, 1e200):
        br = correction_taylor(a, 1.0, d, h, s)
        g_node = sum(ak * (-s * h) ** k for k, ak in enumerate(a))
        lam = d / h
        assert br.total == pytest.approx(g_node / (h * (s * s + lam * lam)), rel=1e-15)
        assert math.isfinite(br.singular_part) and math.isfinite(br.jump_part)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_closed_form_does_not_evaluate_g_where_the_pole_term_is_dropped():
    # at lam = 1e4 the pole form reads g_node alone; sin(3z) overflows at
    # x_s + 625i, so a call of complex_eval there would warn
    g = GEval.analytic(lambda z: np.sin(3.0 * np.asarray(z)) + 0.5)
    res = integrate_near_singular(g, KernelParams(a=1.0, c=1.0, d=625.0, x_s=0.1), 16,
                                  "closed-form")
    assert res.value == 2.5599986561051713e-06
    assert res.warnings == []
    br = res.breakdown
    assert br.jump_part == 0.0 and br.singular_part == br.total
    # the checked view puts back the same sample, and does not call g either
    h = 1.0 / 16
    j, s = puncture_split(0.1, h)
    window = g.sample(h * np.arange(j - 4.0, j + 5.0))
    assert correction_offmesh_closed(g, 1.0, 625.0, h, s, 0.1, window).total == br.total


def test_lam_squared_overflow_raises():
    # lam = d/(c h) ~ 1.6e154: lam^2 overflows while d^2 does not
    with pytest.raises(ValueError, match="lam\\^2 overflows"):
        correction_taylor([1.0], 1e-150, 1e3, 1.0 / 16, 0.1)
    with pytest.raises(ValueError, match="lam\\^2 overflows"):
        correction_offmesh_closed(GEval.analytic(np.exp), 1e-150, 1e3, 1.0 / 16, 0.1,
                                  0.1, np.ones(9))
    params = KernelParams(a=1.0, c=1e-150, d=1e3, x_s=0.1)
    for n in (16, 64):
        for method in ("closed-form", "fd-series"):
            with pytest.raises(ValueError, match="lam\\^2 overflows"):
                integrate_near_singular(GEval.analytic(np.exp), params, n, method)
    # one step short of the overflow the put-back stands
    h = 1.0 / 16
    d = 1e-150 * h * 1e154
    br = correction_taylor([1.0], 1e-150, d, h, 0.1)
    assert br.total == pytest.approx(h / (d * d), rel=1e-14)


def test_c_h_underflow_raises():
    # c h = 1e-456 underflows to 0: no lam = d/(c h) is formed, at any d
    for d in (1.0, 0.0):
        with pytest.raises(ValueError, match="c h underflows to 0"):
            correction_taylor([1.0], 1e-154, d, 1e-302, 0.1)
    with pytest.raises(ValueError, match="c h underflows to 0"):
        correction_offmesh_closed(GEval.analytic(np.exp), 1e-154, 1.0, 1e-302, 0.1,
                                  0.0, np.ones(9))
    # c h is normal but the seeds' form's c^2 h underflows
    with pytest.raises(ValueError, match="c\\^2 h underflows to 0"):
        correction_taylor([1.0], 1e-100, 0.0, 1e-200, 0.1)


def test_put_back_survives_overflowing_squares():
    # d^2 and lam^2 both overflow, but the put-back g_node/(c^2 h |w|^2) is a
    # normal float: it is computed without either square
    for g_node, c, d, h, s in ((1e300, 1.0, 1e160, 0.01, 0.3),
                               (1e300, 1.0, 1e200, 1.0, -0.5),
                               (1e250, 2.0, 1e170, 1.0 / 64, 0.1)):
        lam = Fraction(d) / (Fraction(c) * Fraction(h))
        want = Fraction(g_node) / (Fraction(c) ** 2 * Fraction(h) * (Fraction(s) ** 2 + lam ** 2))
        br = correction_taylor([g_node], c, d, h, s)
        assert abs(br.total - float(want)) <= 1e-15 * float(want), (g_node, d)
    assert abs(correction_taylor([1e300], 1.0, 1e160, 0.01, 0.3).total - 1e-22) <= 1e-37


@pytest.mark.parametrize("kind", ["analytic", "real"])
@pytest.mark.parametrize("c", [0.5, 2.0])
@pytest.mark.parametrize("switch", ["lam = 1", "|w| = 0.3"])
def test_form_switches_are_seamless(switch, c, kind):
    # lam = 1 picks the pole form or the seeds' form (x_s = 0.1234, s ~ 0.36);
    # |w| = 0.3 at lam < 1 picks the seeds' series or cot (x_s = 0.1232,
    # s ~ 0.157).  Steps of delta on each side of the switch: every value is
    # exact, and the correction's total lies on one smooth curve through both
    n = 1024
    h = 1.0 / n
    x_s = 0.1234 if switch == "lam = 1" else 0.1232
    s = x_s * n - round(x_s * n)
    delta = 1e-9 if switch == "lam = 1" else 1e-12
    totals = []
    for k in (-3, -1, 1, 3):
        if switch == "lam = 1":
            lam = 1.0 + k * delta
        else:
            lam = math.sqrt((0.3 + k * delta) ** 2 - s * s)
        d = lam * c * h
        lam = d / (c * h)
        if switch == "lam = 1":
            assert (lam >= 1.0) == (k > 0)
        else:
            assert lam < 1.0 and (s * s + lam * lam >= 0.09) == (k > 0)
        res = integrate_near_singular(numerator(d, kind), KernelParams(a=1.0, c=c, d=d, x_s=x_s),
                                      n, "closed-form" if kind == "analytic" else "fd-series")
        ref = exact_test2(d, c, x_s)
        assert abs(res.value - ref) <= 1e-13 * max(abs(ref), 1.0), (k, res.value, ref)
        totals.append(res.breakdown.total)
    # each side extrapolated linearly across the switch meets the other
    e_m3, e_m1, e_p1, e_p3 = totals
    tol = 1e-13 * max(abs(e_p1), 1.0)
    assert abs(2.0 * e_m1 - e_m3 - e_p1) <= tol, totals
    assert abs(2.0 * e_p1 - e_p3 - e_m1) <= tol, totals


def test_one_put_back_for_both_sources_of_g(monkeypatch):
    # from lam = 5.97 on the pole form is the puncture node's sample put back:
    # fd-series gives the closed form's bits, with no stencil fit, for a real-
    # only g as for an analytic one, pole g included
    fits = []
    fit = corrections._stencil_poly
    monkeypatch.setattr(corrections, "_stencil_poly",
                        lambda *args: fits.append(args) or fit(*args))
    rng = np.random.default_rng(27)
    for f in (lambda x: 1.0 / (x * x + 0.01), lambda x: 1.0 / (x * x + 0.04),
              lambda x: np.sin(7.0 * x) + 0.2):
        closed, real = GEval.analytic(f), GEval(real_eval=lambda x, f=f: float(f(x)))
        for n in (64, 256, 1024):
            for c in (0.5, 1.0, 2.0):
                for _ in range(4):
                    lam = 10.0 ** rng.uniform(math.log10(_Q_NEGLIGIBLE_LAM), 4.0)
                    x_s = rng.uniform(-0.8, 0.8)
                    params = KernelParams(a=1.0, c=c, d=lam * c / n, x_s=x_s)
                    if params.d / (c / n) < _Q_NEGLIGIBLE_LAM:
                        continue
                    fd = integrate_near_singular(real, params, n, "fd-series")
                    want = integrate_near_singular(closed, params, n, "closed-form")
                    assert fd.value.hex() == want.value.hex(), (n, c, lam, x_s)
                    assert fd.breakdown.terms_used == 0
    assert fits == []
