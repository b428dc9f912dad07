import cmath
import math
import re

import mpmath
import numpy as np
import pytest

from nsquad.cli import main
from nsquad.corrections import GEval
from nsquad.integrator import KernelParams
from nsquad.oracle import (
    EULER_GAMMA,
    _ei_power_series,
    complex_ei,
    exact_test1,
    exact_test2,
    finite_part_reference,
    reference_integral,
)

EI_ONE = 1.8951178163559368  # classical value, frozen from a 40-digit series


class TestReferenceIntegral:
    def test_constant_numerator_arctangent(self):
        # tol is absolute, so it scales with the integral's magnitude here
        for c, d in ((1.0, 0.5), (2.0, 0.01), (1.0, 1e-4)):
            g = GEval.analytic(lambda z: 1.0 + 0.0 * np.asarray(z))
            want = 2.0 * math.atan(c / d) / (c * d)
            tol = 1e-13 * max(1.0, abs(want))
            res = reference_integral(g, KernelParams(a=1.0, c=c, d=d), tol=tol)
            assert abs(res.value - want) <= tol
            assert res.est_error <= tol

    def test_odd_integrand_vanishes(self):
        g = GEval.analytic(lambda z: np.asarray(z))
        res = reference_integral(g, KernelParams(a=1.0, d=0.05), tol=1e-13)
        assert abs(res.value) <= 1e-13

    def test_matches_exponential_integral_formula(self):
        d = 0.1
        g = GEval.analytic(lambda z: d * np.exp(z))
        res = reference_integral(g, KernelParams(a=1.0, d=d), tol=1e-13)
        assert abs(res.value - exact_test1(d)) <= 1e-13

    def test_plain_callable_accepted(self):
        res = reference_integral(lambda x: 0.1 * math.exp(x),
                                 KernelParams(a=1.0, d=0.1), tol=1e-13)
        assert abs(res.value - exact_test1(0.1)) <= 1e-13

    def test_rejects_d_zero_and_tiny_tol(self):
        g = GEval.analytic(np.exp)
        with pytest.raises(ValueError):
            reference_integral(g, KernelParams(a=1.0, d=0.0), tol=1e-12)
        with pytest.raises(ValueError):
            reference_integral(g, KernelParams(a=1.0, d=0.1), tol=1e-15)

    def test_unreachable_tolerance_raises(self):
        # |I| ~ 3e6 puts 1e-14 absolute below the roundoff floor
        g = GEval.analytic(lambda z: 1.0 + 0.0 * np.asarray(z))
        with pytest.raises(RuntimeError):
            reference_integral(g, KernelParams(a=1.0, d=1e-6), tol=1e-14)

    @pytest.mark.parametrize("d", [1e-154, 1e-160, 1e-300])
    def test_overflowing_integrand_raises(self, d, capsys):
        # e^x/(d^2 + (x - x_s)^2) overflows near x_s: an inf value with a NaN
        # error estimate is an unreachable tolerance, in the API and the CLI
        with pytest.raises(RuntimeError, match="tolerance .* unreachable"):
            reference_integral(GEval.analytic(np.exp), KernelParams(a=1.0, d=d, x_s=0.1))
        argv = ["converge", "--integrand", "custom", "--g-expr", "exp(x)",
                "--xs", "0.1", "--d", repr(d), "--n", "64"]
        assert main(argv) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("nsquad: error: adaptive integrator: tolerance")

    @pytest.mark.parametrize("tol", [None, 1e-10])
    def test_nan_from_g_names_the_point(self, tol):
        # log x is NaN left of 0: an error of g, at the point where it fails,
        # not an unreachable tolerance, on both passes of the default tolerance
        with np.errstate(invalid="ignore"), \
                pytest.raises(ValueError, match=r"g is not finite at x = -0\.\d+: g\(x\) = nan"):
            reference_integral(GEval.analytic(np.log), KernelParams(a=1.0, d=0.1, x_s=0.1), tol)

    def test_nan_from_g_at_x_s_names_it(self):
        # the default tolerance's scale reads g(x_s), which no Kronrod node does
        g = lambda x: math.nan if x == 0.25 else 1.0
        with pytest.raises(ValueError, match=r"g is not finite at x = 0\.25: g\(x\) = nan"):
            reference_integral(g, KernelParams(a=1.0, d=0.1, x_s=0.25))

    @pytest.mark.parametrize("x_s, d", [(0.0, 1e-6), (0.0, 1e-8), (0.1, 1e-3)])
    def test_default_tolerance_is_relative_at_a_pole_g(self, x_s, d):
        # g = 1/(x^2 + 0.09) at d = 1e-6: |I| ~ 3e7, where 1e-13 absolute is
        # out of reach; the default is 1e-13 max(1, |I|).  The 30-digit value
        # sums the partial fractions over the poles p of the rational
        # integrand, each of whose integrals over [-1, 1] is log((1 - p)/(-1 - p))
        b = 0.3
        g = GEval(real_eval=lambda x: 1.0 / (x * x + b * b))
        res = reference_integral(g, KernelParams(a=1.0, c=1.0, d=d, x_s=x_s))
        with mpmath.workdps(30):
            poles = [mpmath.mpc(0, b), mpmath.mpc(0, -b),
                     mpmath.mpc(x_s, d), mpmath.mpc(x_s, -d)]
            want = 0
            for k, p in enumerate(poles):
                residue = 1 / mpmath.fprod(p - q for i, q in enumerate(poles) if i != k)
                want += residue * (mpmath.log(1 - p) - mpmath.log(-1 - p))
            want = float(want.real)
        assert abs(res.value - want) <= 1e-13 * abs(want)
        assert res.est_error <= 1e-13 * abs(want)


class TestExactValues:
    def test_limit_is_pi(self):
        assert exact_test1(1e-8) == pytest.approx(math.pi, abs=1e-6)
        assert exact_test1(-1e-8) == pytest.approx(-math.pi, abs=1e-6)
        assert abs(exact_test1(1e-8) - math.pi) < abs(exact_test1(1e-4) - math.pi)

    def test_two_oracle_agreement(self):
        for d in (1e-1, 1e-2, 1e-4):
            g = GEval.analytic(lambda z, d=d: d * np.exp(z))
            ref = reference_integral(g, KernelParams(a=1.0, d=d), tol=1e-13)
            assert abs(exact_test1(d) - ref.value) <= 1e-12

    def test_d_zero_rejected(self):
        with pytest.raises(ValueError):
            exact_test1(0.0)
        with pytest.raises(ValueError):
            exact_test2(0.0, 1.0, 0.1)

    def test_test2_reduces_to_test1(self):
        for d in (0.1, 0.003):
            assert exact_test2(d, 1.0, 0.0) == pytest.approx(exact_test1(d), rel=1e-15)

    def test_test2_against_reference(self):
        d, c, x_s = 0.01, 1.0, 0.1
        g = GEval.analytic(lambda z: d * np.exp(z))
        ref = reference_integral(g, KernelParams(a=1.0, c=c, d=d, x_s=x_s), tol=1e-13)
        assert abs(exact_test2(d, c, x_s) - ref.value) <= 1e-13

    def test_test2_general_c_against_reference(self):
        d, c, x_s = 0.01, 2.0, 0.1
        g = GEval.analytic(lambda z: d * np.exp(z))
        ref = reference_integral(g, KernelParams(a=1.0, c=c, d=d, x_s=x_s), tol=1e-13)
        assert abs(exact_test2(d, c, x_s) - ref.value) <= 1e-13

    @pytest.mark.parametrize("ratio", [1e2, 1e3, 1e4, 1e5])
    def test_relative_accuracy_at_large_d_over_c(self, ratio):
        # both Ei arguments take the continued fraction there, each with the
        # same i pi, against a difference of about 2/|w|: within 1e-14 of the
        # value itself (not of max(|value|, 1)) from a 40-digit quadrature
        def want(d, c, x_s):
            with mpmath.workdps(40):
                d, c, x_s = mpmath.mpf(d), mpmath.mpf(c), mpmath.mpf(x_s)
                kernel = lambda x: d * mpmath.exp(x) / (d * d + (c * (x - x_s)) ** 2)
                return float(mpmath.quad(kernel, [-1, x_s, 1]))
        for c in (1.0, 2.0):
            ref = want(ratio * c, c, 0.1234)
            assert abs(exact_test2(ratio * c, c, 0.1234) - ref) <= 1e-14 * abs(ref), c
        ref = want(ratio, 1.0, 0.0)
        assert abs(exact_test1(ratio) - ref) <= 1e-14 * abs(ref)

    def test_odd_in_d(self):
        for d in (0.05, 0.2):
            assert exact_test2(-d, 1.0, 0.1) == pytest.approx(
                -exact_test2(d, 1.0, 0.1), rel=1e-14)


class TestComplexEi:
    def test_classical_value(self):
        assert complex_ei(1.0 + 0.0j).real == pytest.approx(EI_ONE, rel=1e-15)
        assert complex_ei(1.0 + 0.0j).imag == 0.0

    def test_conjugate_symmetry(self):
        for z in (0.5 - 0.2j, 1.0 - 1.0j, 3.0 + 0.7j, 6.0 - 2.0j):
            a = complex_ei(np.conjugate(z))
            b = np.conjugate(complex_ei(z))
            assert abs(a - b) <= 4 * np.finfo(float).eps * abs(b)

    def test_against_mpmath_grid(self):
        # -2 and -5 are on the cut (the real principal value), on either side
        # of |z| = 4; -4.5 - 0.5i takes the continued fraction below the cut
        pts = [1 - 0.1j, -1 - 0.01j, -1 + 0.3j, 2.2 + 1.0j, 0.05 - 0.5j,
               5.0 - 3.0j, -8.0 + 0.5j, 7.0 + 0.2j, -2.0, -5.0, -4.5 - 0.5j]
        for z in pts:
            with mpmath.workdps(40):
                ref = complex(mpmath.ei(z))
            assert abs(complex_ei(z) - ref) <= 1e-14 * max(1.0, abs(ref)), z

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            complex_ei(0.0)

    @staticmethod
    def series_max_bound(z: complex) -> complex:
        """The power series with the stop test max(1, |acc|) alone: the loop
        the screened test of `_ei_power_series` must reproduce."""
        if z.imag == 0.0 and z.real < 0.0:
            logz = complex(math.log(-z.real), 0.0)
        else:
            logz = cmath.log(z)
        term = 1.0 + 0.0j
        acc = 0.0 + 0.0j
        for k in range(1, 300):
            term *= z / k
            delta = term / k
            acc += delta
            if abs(delta) < 1e-18 * max(1.0, abs(acc)):
                break
        return EULER_GAMMA + logz + acc

    def test_power_series_stops_where_the_max_bound_does(self):
        # |delta| < 1e-18 (|Re acc| + |Im acc| + 1) screens the stop test, a
        # bound never below 1e-18 max(1, |acc|), so the loop stops where the max
        # bound alone does: every value is that loop's bit for bit, near 0 (where
        # |acc| < 1 and the screen's + 1 dominates), near |z| = 4 and on and just
        # off the negative real axis
        rng = np.random.default_rng(20)
        radius = np.r_[rng.uniform(1e-6, 0.5, 800), rng.uniform(3.5, 4.0, 800)]
        angle = rng.uniform(-math.pi, math.pi, 1600)
        points = [complex(r * math.cos(t), r * math.sin(t)) for r, t in zip(radius, angle)]
        points += [complex(-x, 0.0) for x in rng.uniform(1e-6, 4.0, 600)]
        points += [complex(x, y) for x, y in zip(rng.uniform(-4.0, -1e-3, 200),
                                                 rng.uniform(-1e-9, 1e-9, 200))]
        assert len(points) == 2400 and max(map(abs, points)) <= 4.0
        for z in points:
            got, want = _ei_power_series(z), self.series_max_bound(z)
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), z


def pole_finite_part(b: float, x_s: float) -> float:
    """The finite part of the integral of 1/((x^2 + b^2)(x - x_s)^2) over
    [-1, 1], from partial fractions at 40 digits: 1/(x^2 + b^2) is
    (1/(x - i b) - 1/(x + i b))/(2 i b), and the finite part of
    1/((x - p)(x - x_s)^2) is C^2 L(p) - C^2 log((1 - x_s)/(1 + x_s))
    - C (1/(1 - x_s) + 1/(1 + x_s)), C = 1/(x_s - p),
    L(p) = log(1 - p) - log(-1 - p)."""
    with mpmath.workdps(40):
        b, x_s = mpmath.mpf(b), mpmath.mpf(x_s)

        def part(p):
            C = 1 / (x_s - p)
            L = mpmath.log(1 - p) - mpmath.log(-1 - p)
            return (C * C * (L - mpmath.log((1 - x_s) / (1 + x_s)))
                    - C * (1 / (1 - x_s) + 1 / (1 + x_s)))

        ib = mpmath.mpc(0, b)
        return float(mpmath.re((part(ib) - part(-ib)) / (2 * ib)))


def g_pole(b: float) -> GEval:
    return GEval.analytic(lambda z: 1.0 / (z * z + b * b))


class TestFinitePartReference:
    def test_constant(self):
        g = GEval.analytic(lambda z: 1.0 + 0.0 * np.asarray(z))
        assert finite_part_reference(g, 1.0, 0.0) == pytest.approx(-2.0, abs=1e-12)

    def test_linear_shift_invariance(self):
        # p.v. of 1/x vanishes by symmetry, so g = x + 1 gives -2 as well
        g = GEval.analytic(lambda z: np.asarray(z) + 1.0)
        assert finite_part_reference(g, 1.0, 0.0) == pytest.approx(-2.0, abs=1e-12)

    def test_closed_forms_off_center(self):
        # g = 1: -1/(a-xs) - 1/(a+xs); g = x - xs kills the quadratic pole
        g = GEval.analytic(lambda z: 1.0 + 0.0 * np.asarray(z))
        for xs in (0.2, -0.35):
            want = -1.0 / (1.0 - xs) - 1.0 / (1.0 + xs)
            assert finite_part_reference(g, 1.0, xs) == pytest.approx(want, rel=1e-12)

    def test_stability_across_tolerances(self):
        g = GEval.analytic(np.exp)
        x_s = 0.3 / 64
        a = finite_part_reference(g, 1.0, x_s, tol=1e-12)
        b = finite_part_reference(g, 1.0, x_s, tol=1e-13)
        assert abs(a - b) <= 1e-12

    def test_contour_enclosing_a_pole_raises(self):
        # g = 1/(x^2 + 0.04) has poles at +/-0.2i: the default contour (r = 0.4)
        # encloses them, and its r/2 twin disagrees; a 40-digit value of the
        # finite part (Gauss-Legendre on the Taylor-subtracted integrand) is
        # met with a contour inside the poles
        f = lambda z: 1.0 / (z * z + 0.04)
        with pytest.raises(ValueError, match="contours of radius 0.4 and 0.2"):
            finite_part_reference(GEval.analytic(f), 1.0, 0.1)
        got = finite_part_reference(GEval.analytic(f, radius=0.05), 1.0, 0.1)
        assert abs(got - -189.15847680047021) <= 1e-12 * 189.16

    @pytest.mark.parametrize("b, x_s, exact", [(0.1, 0.0, -3142.26), (0.1, 0.05, -1508.63),
                                              (0.15, 0.0, -931.5), (0.05, 0.0, -25133.4),
                                              (0.45, 0.0, -35.0714)])
    def test_poles_within_both_contours_raise(self, b, x_s, exact):
        # poles at +/- i b inside r = 0.4 and r/2, which agree on a value 3 to 11
        # times off; at b = 0.45 just outside r, where aliasing leaves the value
        # 2.3e-12 off
        assert pole_finite_part(b, x_s) == pytest.approx(exact, rel=1e-5)
        with pytest.raises(ValueError, match="terms of negative order reach"):
            finite_part_reference(g_pole(b), 1.0, x_s)

    def test_nan_on_the_contour_raises(self):
        # the r = 0.4 contour meets NaN, the r/2 one does not: not a NaN reference
        g = GEval(real_eval=math.exp,
                  complex_eval=lambda z: cmath.exp(z) if abs(z.imag) < 0.39 else complex("nan"))
        with pytest.raises(ValueError, match=r"contours of radius 0.4 and 0.2 around x_s = 0.0 "
                                             r"disagree \(nan against"):
            finite_part_reference(g, 1.0, 0.0)

    def test_nan_from_g_on_a_side_names_the_point(self):
        # the fits around x_s = 0.2 see e^x; the left side's integral meets NaN
        g = lambda x: math.exp(x) if x > -0.5 else math.nan
        with pytest.raises(ValueError, match=r"g is not finite at x = -0\.\d+: g\(x\) = nan"):
            finite_part_reference(g, 1.0, 0.2)

    def test_nan_from_g_in_the_fits_names_the_point(self):
        # x_s = 0 +/- 0.1 holds Chebyshev points below -0.05, where g is NaN
        g = lambda x: math.exp(x) if x > -0.05 else math.nan
        with pytest.raises(ValueError, match=r"g is not finite at x = -0\.\d+: g\(x\) = nan"):
            finite_part_reference(g, 1.0, 0.0)

    def test_rounding_of_a_large_g_on_the_contour_raises(self):
        # |cos(100 z)| reaches cosh(40) ~ 1e17 on r = 0.4, so each contour's
        # central term rounds by ~1e3: the gap must stay within the 1e-12
        # relative accuracy the reference claims however large that rounding
        f = lambda z: np.cos(100.0 * z)
        with pytest.raises(ValueError, match="contours of radius 0.4 and 0.2 around x_s = 0.0 "
                                             "disagree"):
            finite_part_reference(GEval.analytic(f), 1.0, 0.0)
        # a smaller contour meets the 30-digit value of the integral of
        # (cos(100 x) - 1)/x^2, less 2
        got = finite_part_reference(GEval.analytic(f, radius=0.02), 1.0, 0.0)
        assert abs(got - -314.16973112238663) <= 1e-12 * 314.17

    @pytest.mark.parametrize("b", [0.1, 0.2, 0.3, 0.5, 0.6, 0.8, 1.0])
    @pytest.mark.parametrize("x_s", [0.0, 0.1, -0.37])
    def test_real_only_pole_raises_or_meets_partial_fractions(self, b, x_s):
        # the fits at half-widths 0.1 and 0.05 agree to `_TAYLOR_GAP` only where
        # g's poles are far enough for a degree-10 fit
        want = pole_finite_part(b, x_s)
        g = lambda x: 1.0 / (x * x + b * b)
        if b < 0.8:
            with pytest.raises(ValueError, match="fits of half-width 0.1 and 0.05 around "
                                                 f"x_s = {x_s!r} disagree .*: g is not "
                                                 "analytic within them; pass g as a GEval "
                                                 "with a complex_eval"):
                finite_part_reference(g, 1.0, x_s)
        else:
            got = finite_part_reference(g, 1.0, x_s)
            assert abs(got - want) <= 1e-12 * max(abs(want), 1.0), (got, want)

    @pytest.mark.parametrize("b, x_s", [(0.5, 0.0), (0.6, 0.1), (0.6, -0.37), (1.0, 0.3)])
    def test_poles_outside_the_contour_meet_partial_fractions(self, b, x_s):
        want = pole_finite_part(b, x_s)
        got = finite_part_reference(g_pole(b), 1.0, x_s)
        assert abs(got - want) <= 1e-12 * max(abs(want), 1.0), (got, want)

    def test_real_only_callable(self):
        got = finite_part_reference(lambda x: math.exp(x), 1.0, 0.0)
        ref = finite_part_reference(GEval.analytic(np.exp), 1.0, 0.0)
        assert got == pytest.approx(ref, abs=5e-10)
        # and against e^x_s [Ei(1 - x_s) - Ei(-1 - x_s)] - e/(1 - x_s) - e^-1/(1 + x_s)
        for x_s in (0.0, 0.3, -0.6, 0.85, 0.3 / 64):
            with mpmath.workdps(40):
                x = mpmath.mpf(x_s)
                want = float(mpmath.exp(x) * (mpmath.ei(1 - x) - mpmath.ei(-1 - x))
                             - mpmath.e / (1 - x) - mpmath.exp(-1) / (1 + x))
            got = finite_part_reference(lambda x: math.exp(x), 1.0, x_s)
            assert abs(got - want) <= 1e-12 * max(abs(want), 1.0), x_s


class TestNonFiniteGOnTheCli:
    """log x at x_s = 0.1: NaN left of 0, on the reference's Kronrod nodes and
    on the mesh's nodes, each named in the one error line."""

    ARGS = ["--integrand", "custom", "--g-expr", "log(x)", "--xs", "0.1", "--d", "0.1",
            "--n", "16"]

    @pytest.mark.parametrize("command, message", [
        ("converge", r"nsquad: error: g is not finite at x = -0\.\d+: g\(x\) = nan"),
        ("eval", r"nsquad: error: g is not finite at x = -1\.0: g\(x\) = nan"),
    ], ids=["converge", "eval"])
    def test_error_line_names_g_and_the_point(self, capsys, command, message):
        with np.errstate(divide="ignore", invalid="ignore"):
            assert main([command, *self.ARGS]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and re.fullmatch(message, lines[0]), lines
