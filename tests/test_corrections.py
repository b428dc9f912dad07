import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nsquad.corrections import (
    GEval,
    _stencil_operator,
    _stencil_poly,
    _taylor_parts,
)
from nsquad.integrator import KernelParams, integrate_finite_part, integrate_near_singular
from nsquad.oracle import (
    _contour_fft,
    _taylor_coeffs_ref,
    finite_part_reference,
    reference_integral,
)
from nsquad.verify import (
    CoeffParams,
    _checked_window,
    correction_offmesh_closed,
    correction_taylor,
    fd_derivatives,
    pks_quotients,
    taylor_parts,
    trigamma,
    zks_table,
)

ZETA2 = math.pi ** 2 / 6


def g_const(value: float = 1.0) -> GEval:
    return GEval.analytic(lambda z: value + 0.0 * np.asarray(z))


def g_exp(scale: float = 1.0) -> GEval:
    return GEval.analytic(lambda z: scale * np.exp(z))


def taylor_ref(g: GEval, x_s: float, K: int) -> np.ndarray:
    """a_k = g^(k)(x_s)/k!, k = 0..K, from the oracle's contour (radius 0.4)."""
    return _taylor_coeffs_ref(_contour_fft(g.complex_eval, x_s, 0.4), K + 1, 0.4)


def mesh_window(g: GEval, h: float, s: float, x_s: float) -> np.ndarray:
    """The `window` of correction_offmesh_closed: g at x_s - s h + k h, k = -4..4."""
    return g.sample(x_s - s * h + h * np.arange(-4.0, 5.0))


def closed_form(g: GEval, c: float, d: float, h: float, s: float, x_s: float):
    """correction_offmesh_closed with its window sampled from g."""
    return correction_offmesh_closed(g, c, d, h, s, x_s, mesh_window(g, h, s, x_s))


def series(g: GEval, c: float, d: float, h: float, s: float, x_s: float, K: int = 6):
    """The Taylor-form correction on g's coefficients through order K."""
    return correction_taylor(taylor_ref(g, x_s, K), c, d, h, s)


def hyper(g: GEval, h: float, s: float, x_s: float | None = None, K: int = 8) -> float:
    """Finite-part correction for 1/(x - x_s)^2, x_s = node + s h (node 0 by default)."""
    if x_s is None:
        x_s = s * h
    return correction_taylor(taylor_ref(g, x_s, K), 1.0, 0.0, h, s).total


class TestCenteredClosed:
    def test_constant_numerator_formula(self):
        c, d, h = 1.0, 0.02, 1.0 / 64
        lam = d / (c * h)
        z0 = zks_table(CoeffParams(lam=lam, h=h, k_max=0))[0]
        br = closed_form(g_const(), c, d, h, 0.0, 0.0)
        assert br.total == pytest.approx(-2 * z0 / (c * c * h) + math.pi / (c * d),
                                         rel=1e-14)
        assert br.jump_part == pytest.approx(math.pi / (c * d), rel=1e-14)

    def test_corrected_rule_matches_reference(self):
        # h = 2/128 mesh, numerator d e^x as in the convergence experiments.
        # At n = 64 the Gregory-8 endpoint error (~2e-12 at n = 32) is below
        # what this test measures: the singular correction.
        d, n = 0.01, 64
        g = g_exp(d)
        params = KernelParams(a=1.0, c=1.0, d=d, x_s=0.0)
        res = integrate_near_singular(g, params, n, method="closed-form")
        ref = reference_integral(g, params, tol=1e-13)
        assert abs(res.value - ref.value) <= 1e-12

    def test_d_to_zero_reproduces_finite_part_correction(self):
        c, h, d = 1.0, 1.0 / 64, 1e-9
        g = g_exp()
        br = closed_form(g, c, d, h, 0.0, 0.0)
        finite_part = (1.0 / c ** 2) * (0.5 * h - 2.0 * ZETA2 / h)  # g''(0)=g(0)=1
        assert br.singular_part == pytest.approx(finite_part, rel=1e-12)
        assert br.jump_part * c * d / math.pi == pytest.approx(1.0, rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            closed_form(g_exp(), 1.0, 0.0, 0.01, 0.0, 0.0)
        with pytest.raises(ValueError):
            closed_form(GEval(real_eval=math.exp), 1.0, 0.1, 0.01, 0.0, 0.0)
        nan, inf = math.nan, math.inf
        a = [1.0, 0.5, 0.25]
        window = np.ones(9)
        # c and h nonpositive or non-finite, d non-finite: both correction forms
        for c, d, h in ((-1.0, 0.01, 0.01), (0.0, 0.01, 0.01), (nan, 0.01, 0.01),
                        (inf, 0.01, 0.01), (1.0, 0.01, -0.01), (1.0, 0.01, 0.0),
                        (1.0, 0.01, nan), (1.0, 0.01, inf), (1.0, nan, 0.01),
                        (1.0, inf, 0.01)):
            with pytest.raises(ValueError, match="must be finite"):
                correction_offmesh_closed(g_exp(), c, d, h, 0.0, 0.0, window)
            with pytest.raises(ValueError, match="must be finite"):
                correction_taylor(a, c, d, h, 0.0)
        # d > 0 too small: pi/(c d) overflows and lam = d/(c h) underflows to 0,
        # then each alone
        for c, d, h in ((2.0, 5e-324, 1.0), (1.0, 1e-320, 1e-10), (1e200, 1e-200, 1e-10)):
            with pytest.raises(ValueError, match="too small"):
                correction_taylor([1.0, 0.5], c, d, h, 0.0)
            with pytest.raises(ValueError, match="too small"):
                correction_offmesh_closed(GEval.analytic(np.exp), c, d, h, 0.0, 0.0,
                                          np.ones(9))
        # c^2 or 1/c^2 overflows or underflows to 0, also at d = 0
        for c, d, h in ((1e200, 1e-200, 1e-195), (1e160, 1e-140, 0.01),
                        (1e-170, 1e-100, 0.01), (1e-170, 0.0, 0.01), (1e-155, 0.0, 0.01)):
            with pytest.raises(ValueError, match=r"^c = .* out of range"):
                correction_taylor([1.0, 0.5], c, d, h, 0.3)
            with pytest.raises(ValueError, match=r"^c = .* out of range"):
                correction_offmesh_closed(GEval.analytic(np.exp), c, d, h, 0.3, 0.0,
                                          np.ones(9))
        # no correction squares d: a d whose d^2 overflows passes
        assert math.isfinite(correction_taylor([1.0, 0.5], 1.0, 1e160, 0.01, 0.3).total)
        for x_s in (nan, inf, -inf):
            with pytest.raises(ValueError, match="x_s must be finite"):
                correction_offmesh_closed(g_exp(), 1.0, 0.01, 0.01, 0.0, x_s, window)
        # Taylor coefficients: non-finite, not a non-empty 1-D sequence, or
        # a_k h^k overflowing
        for bad_a, h in (([1.0, nan, 1.0], 0.01), ([1.0, inf], 0.01), ([[1.0, 0.5]], 0.01),
                         ([], 0.01), ([1.0, 0.5, 0.25], 1e300)):
            for d in (0.0, 0.1):
                with pytest.raises(ValueError, match="Taylor coefficients"):
                    correction_taylor(bad_a, 1.0, d, h, 0.1)
        # a zero coefficient stays zero where h^k alone would overflow
        assert correction_taylor([1.0, 0.0, 0.0], 1.0, 0.0, 1e300, 0.1).total == \
            correction_taylor([1.0], 1.0, 0.0, 1e300, 0.1).total

    def test_rejects_bad_window(self):
        # both branches: g_node = window[4] (d = 0.01), the stencil's Q series (d = 1e-6)
        h = 1.0 / 64
        good = mesh_window(g_exp(), h, 0.0, 0.0)
        for bad in (good[:8], np.append(good, 1.0), good.reshape(3, 3), [],
                    np.where(np.arange(9) == 4, math.nan, good),
                    np.where(np.arange(9) == 0, math.inf, good)):
            for d in (0.01, 1e-6):
                with pytest.raises(ValueError, match="window"):
                    correction_offmesh_closed(g_exp(), 1.0, d, h, 0.0, 0.0, bad)

    def test_window_check_passes_huge_finite_values(self):
        # their sum overflows; each value is tested
        for window in (np.full(9, 1e308), np.where(np.arange(9) == 2, -1e308, 1e308)):
            samples, g_node = _checked_window(window)
            assert samples.tolist() == window.tolist() and g_node == window[4]
        huge = np.full(9, 1e308)
        assert np.all(np.isfinite(_stencil_poly(huge, 0.0)))
        for bad in (math.nan, math.inf, -math.inf):
            window = np.full(9, 1e308)
            window[6] = bad
            with pytest.raises(ValueError, match="window must hold g at the 9 nodes"):
                _checked_window(window)

    def test_jump_factorization(self):
        c, d, h = 1.0, 0.03, 1.0 / 64
        g = g_exp()
        br = closed_form(g, c, d, h, 0.0, 0.0)
        lamh = (d / (c * h)) * h
        want = math.pi / (c * d) * complex(g.complex_eval(complex(0.0, lamh))).real
        assert br.jump_part == want


class TestOffmeshClosed:
    def test_s_continuity_at_zero(self):
        c, d, h = 1.0, 0.02, 1.0 / 64
        g = g_exp()
        centered = closed_form(g, c, d, h, 0.0, 0.0).total
        for s in (1e-9, -1e-9):
            off = closed_form(g, c, d, h, s, s * h).total
            assert off == pytest.approx(centered, rel=1e-9)

    def test_corrected_rule_matches_reference_offmesh(self):
        d, n = 0.01, 64
        g = g_exp(d)
        params = KernelParams(a=1.0, c=1.0, d=d, x_s=0.1)
        res = integrate_near_singular(g, params, n, method="closed-form")
        ref = reference_integral(g, params, tol=1e-13)
        assert abs(res.value - ref.value) <= 1e-12

    def test_lambda_to_zero_matches_hypersingular(self):
        # singular part of the near-singular correction tends to the
        # finite-part correction as d -> 0
        h = 1.0 / 64
        d = 1e-10
        for g in (g_exp(), GEval.analytic(np.cos)):
            for s in (0.1, 0.3, 0.5):
                x_s = s * h
                off = closed_form(g, 1.0, d, h, s, x_s)
                fp = hyper(g, h, s, x_s)
                # the breakdown keeps the singular part separately; total -
                # jump would reintroduce the pi/(c d) magnitude as roundoff
                assert off.singular_part == pytest.approx(fp, rel=1e-10)

    def test_subnormal_lam_takes_q_from_the_series(self):
        # lam = d/(c h) = 6.4e-319 is subnormal: s/lam overflows, so Q comes
        # from the stencil's series, and the value is fd-series' within
        # rounding, about pi/(c d) e^0.1
        g = GEval.analytic(np.exp)
        params = KernelParams(a=1.0, c=1e20, d=1e-300, x_s=0.1)
        closed = integrate_near_singular(g, params, 64, method="closed-form")
        taylor = integrate_near_singular(g, params, 64, method="fd-series")
        assert closed.breakdown.terms_used == 6
        assert closed.value == pytest.approx(taylor.value, rel=1e-15)
        assert closed.value == pytest.approx(math.pi / 1e-280 * math.exp(0.1), rel=1e-15)
        # where lam underflows to 0 the closed form still says why
        with pytest.raises(ValueError, match="lam = d/\\(c h\\) underflows to 0"):
            integrate_near_singular(g, KernelParams(a=1.0, c=1e60, d=1e-300, x_s=0.1), 64,
                                    method="closed-form")

    def test_validation(self):
        with pytest.raises(ValueError):
            closed_form(g_exp(), 1.0, 0.01, 0.01, 0.7, 0.007)
        with pytest.raises(ValueError):
            closed_form(g_exp(), 1.0, -0.1, 0.01, 0.2, 0.002)


class TestSeriesTruncated:
    def test_constant_numerator_all_orders(self):
        c, d, h = 1.0, 0.05, 1.0 / 32
        lam = d / (c * h)
        z0 = zks_table(CoeffParams(lam=lam, h=h, k_max=0))[0]
        want = -2 * z0 / (c * c * h) + math.pi / (c * d)
        for K in (0, 2, 6):
            br = series(g_const(), c, d, h, 0.0, 0.0, K=K)
            assert br.total == pytest.approx(want, rel=1e-13)

    def test_k6_matches_closed_form(self):
        d, h = 0.01, 1.0 / 64
        g = g_exp()
        closed = closed_form(g, 1.0, d, h, 0.0, 0.0).total
        taylor = series(g, 1.0, d, h, 0.0, 0.0, K=6).total
        assert abs(taylor - closed) <= 1e-10 * max(1.0, abs(closed))

    def test_progression_in_k(self):
        # each added even term buys roughly (d/c)^2 ~ h^2; check the decay
        d, h = 0.01, 1.0 / 64
        g = g_exp()
        closed = closed_form(g, 1.0, d, h, 0.0, 0.0).total
        diffs = [abs(series(g, 1.0, d, h, 0.0, 0.0, K=K).total
                     - closed) for K in (0, 2, 4)]
        assert diffs[1] <= 0.05 * diffs[0]
        assert diffs[2] <= 0.05 * diffs[1]

    def test_offmesh_series_vs_closed(self):
        d, h, s = 0.01, 1.0 / 64, 0.4
        g = g_exp()
        x_s = s * h
        closed = closed_form(g, 1.0, d, h, s, x_s).total
        taylor = series(g, 1.0, d, h, s, x_s, K=6).total
        assert abs(taylor - closed) <= 1e-9 * max(1.0, abs(closed))

    def test_exact_coefficients_match_closed_form(self):
        # on a polynomial g the Taylor form is exact, so it must equal the
        # closed form on both sides of the closed form's series guard
        a = [0.7, -1.3, 0.4, 2.1, -0.6, 0.9]
        g = GEval.analytic(lambda z: sum(ak * np.asarray(z) ** k for k, ak in enumerate(a)))
        h = 1.0 / 64
        for c in (0.5, 2.0):
            for lam in (0.05, 0.3, 1.0, 30.0):
                for s in (0.0, 0.02, 0.3, -0.5):
                    d, x_s = lam * c * h, s * h
                    # coefficients of g about x_s, by the binomial shift
                    shifted = [sum(math.comb(j, k) * a[j] * x_s ** (j - k)
                                   for j in range(k, len(a))) for k in range(len(a))]
                    closed = closed_form(g, c, d, h, s, x_s)
                    taylor = correction_taylor(shifted, c, d, h, s)
                    assert taylor.singular_part == pytest.approx(
                        closed.singular_part, rel=1e-13), (c, lam, s)
                    assert taylor.jump_part == pytest.approx(
                        closed.jump_part, rel=1e-13), (c, lam, s)

    def test_closed_vs_series_relative_invariant(self):
        # truncated series tracks the closed form across the d range
        h = 1.0 / 64
        g = g_exp()
        for d in (1e-4, 1e-3, 1e-2, 1e-1):
            closed = closed_form(g, 1.0, d, h, 0.0, 0.0).total
            taylor = series(g, 1.0, d, h, 0.0, 0.0, K=6).total
            assert abs(taylor - closed) <= 1e-9 * max(1.0, abs(closed))


class TestHypersingular:
    def test_half_shift_reduces_to_compact_rule(self):
        # at s = 1/2 the correction collapses to g(0) h/(h/2)^2 - pi^2 g(h/2)/h
        h = 1.0 / 64
        for g in (g_exp(), GEval.analytic(np.cos)):
            e47 = hyper(g, h, 0.5)
            want = (g.real_eval(0.0) * h / (0.5 * h) ** 2
                    - math.pi ** 2 / h * g.real_eval(0.5 * h))
            assert e47 == pytest.approx(want, rel=1e-13)

    def test_constant_numerator(self):
        h = 1.0 / 32
        for s in (0.01, 0.2, 0.37, 0.5):
            got = hyper(g_const(), h, s)
            want = -(trigamma(1.0 - s) + trigamma(1.0 + s)) / h
            assert got == pytest.approx(want, rel=1e-13)

    def test_exponential_against_finite_part_oracle(self):
        n = 64
        h = 1.0 / n
        g = g_exp()
        x_s = 0.3 * h
        res = integrate_finite_part(g, 1.0, x_s, n)
        ref = finite_part_reference(g, 1.0, x_s)
        assert abs(res.value - ref) <= 1e-10

    def test_small_s_branch_is_continuous(self):
        # |s| = 0.05: where the cancelling difference
        # (g_node - g(x_s) + s h g'(x_s))/(s^2 h) would start to lose digits
        h = 1.0 / 64
        g = g_exp()
        inside = hyper(g, h, 0.049)
        outside = hyper(g, h, 0.051)
        slope = abs(hyper(g, h, 0.06) - outside) / 0.009
        assert abs(outside - inside) <= 0.003 * slope + 1e-10


class TestFdDerivatives:
    def test_cubic_exact(self):
        h = 1.0 / 32
        t = (np.arange(9) - 4) * h
        samples = t ** 3
        d = fd_derivatives(samples, h, 0.3 * h)
        x = 0.3 * h
        expect = [x ** 3, 3 * x ** 2, 6 * x, 6.0, 0.0, 0.0, 0.0]
        for k in range(7):
            assert d[k] == pytest.approx(expect[k], rel=1e-11, abs=1e-9)

    def test_exponential_error_scaling(self):
        h = 1.0 / 32
        x_s = 0.1 * h
        t = (np.arange(9) - 4) * h
        d = fd_derivatives(np.exp(t), h, x_s)
        for k in range(7):
            err = abs(d[k] - math.exp(x_s))
            assert err <= 50.0 * h ** (8 - k)

    def test_offcenter_vs_centered_second_derivative(self):
        h = 1.0 / 64
        t = (np.arange(9) - 4) * h
        centered = fd_derivatives(np.cos(t), h, 0.0)
        shifted = fd_derivatives(np.cos(t + 0.5 * h), h, -0.5 * h + 0.0)
        # both estimate g'' at their own x_s; compare to the analytic value
        assert abs(centered[2] + math.cos(0.0)) <= 1e-9
        assert abs(shifted[2] + math.cos(0.0)) <= 1e-9

    def test_reproduces_polynomials_to_degree_8(self):
        # g = (x - x0)^p, p <= 8, is its own degree-8 interpolant: every
        # derivative at x_s = u h, u on a grid over [-1/2, 1/2], against
        # exact rationals; h = 1/16 makes nodes, samples and x_s exact floats
        h = Fraction(1, 16)
        for x0 in (Fraction(0), Fraction(5, 16)):
            for p in range(9):
                samples = [float((k * h - x0) ** p) for k in range(-4, 5)]
                scale = max(abs(v) for v in samples)
                for i in range(17):
                    x_s = Fraction(i - 8, 16) * h
                    got = fd_derivatives(samples, float(h), float(x_s))
                    for k in range(7):
                        want = math.perm(p, k) * (x_s - x0) ** (p - k) if k <= p else 0
                        # error in units of the k-th Taylor coefficient on the stencil
                        err = abs(Fraction(got[k]) - want) * h ** k / math.factorial(k)
                        assert err <= 1e-15 * scale, (x0, p, i, k)

    def test_operator_is_the_exact_inverse_rounded_once(self):
        # the inverse of the Vandermonde matrix A[i][k] = t_i^k, t = -4..4, by
        # Gauss-Jordan elimination over the rationals, rounded once per entry
        t = range(-4, 5)
        aug = [[Fraction(ti) ** k for k in range(9)] + [Fraction(i == j) for j in range(9)]
               for i, ti in enumerate(t)]
        for col in range(9):
            piv = next(r for r in range(col, 9) if aug[r][col])
            aug[col], aug[piv] = aug[piv], aug[col]
            aug[col] = [x / aug[col][col] for x in aug[col]]
            for r in range(9):
                if r != col:
                    aug[r] = [x - aug[r][col] * y for x, y in zip(aug[r], aug[col])]
        want = [[float(x) for x in row[9:]] for row in aug]
        assert _stencil_operator().tolist() == want

    def test_validation(self):
        with pytest.raises(ValueError):
            fd_derivatives(np.ones(8), 0.1, 0.0)
        with pytest.raises(ValueError):
            fd_derivatives(np.ones(9), 0.1, 0.09)
        for h, x_s in ((0.0, 0.0), (-0.1, 0.0), (math.nan, 0.0), (math.inf, 0.0),
                       (0.1, math.nan), (0.1, math.inf)):
            with pytest.raises(ValueError, match="h must be finite and positive"):
                fd_derivatives(np.ones(9), h, x_s)
        # extreme h: k!/h^k by repeated division, no numpy overflow warning;
        # g = 3 + 2x at h = 1e60 is clean, and an underflow to 0 is fine
        t = np.arange(9) - 4.0
        d = fd_derivatives(3.0 + 2e60 * t, 1e60, 0.0)
        assert d[0] == 3.0 and d[1] == pytest.approx(2.0, rel=1e-14)
        assert np.all(np.abs(d[2:]) <= 1e-60)
        assert fd_derivatives(np.full(9, 2.0), 1e-60, 0.0).tolist() == [2.0] + [0.0] * 6
        # g^(6) = 720/h^6 overflows at h = 1e-60: an error, not an inf
        with pytest.raises(ValueError, match="derivative overflows"):
            fd_derivatives(t ** 6, 1e-60, 0.0)

    def test_overflowing_spread_raises(self):
        # finite samples whose differences overflow: an error, not an inf
        # coefficient behind a numpy warning
        h = 1.0 / 64
        for bad in (-1e308, 0.0, math.nan):
            window = np.full(9, 1e308)
            window[2] = bad
            with pytest.raises(ValueError, match="stencil samples must be finite"):
                fd_derivatives(window, h, 0.0)
        window = np.where(np.arange(9) == 2, -1e308, 1e308)
        with pytest.raises(ValueError, match="stencil samples"):
            _stencil_poly(window, 0.0)
        # a spread that the map and the shift cannot overflow still passes
        window = np.full(9, 1e306)
        window[7] = 0.0
        assert np.all(np.isfinite(fd_derivatives(window, 1.0, 0.5)))


def _log_uniform(lo: float, hi: float):
    """Floats 10^e, e uniform in [lo, hi], of either sign."""
    return st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from((1.0, -1.0)),
                     st.floats(lo, hi))


class TestTaylorParts:
    """The one pass over the mesh-unit coefficients b_k: verify's loop for any
    K against direct evaluation, the core's straight-line pass over b_0..b_6
    against the loop, bit for bit."""

    @staticmethod
    def reference(b, s, lam):
        """(Re G, Im G/lam, g_node, Q) by direct evaluation, and for each the sum
        of the absolute values of its terms."""
        g = 0j
        for coeff in reversed(b):   # G = P(i lam) by complex Horner
            g = g * complex(0.0, lam) + coeff
        k = np.arange(len(b))
        q = pks_quotients(lam, s, len(b) - 1)
        want = (g.real, g.imag / lam if lam else (b[1] if len(b) > 1 else 0.0),
                np.sum(b * (-s) ** k), np.sum(q * b))
        scale = (np.sum(np.abs(b[0::2]) * lam ** k[0::2]),
                 np.sum(np.abs(b[1::2]) * lam ** k[:-1:2]),
                 np.sum(np.abs(b) * abs(s) ** k), np.sum(np.abs(q * b)))
        return want, scale

    def test_against_direct_evaluation(self):
        rng = np.random.default_rng(7)
        for K in (0, 1, 2, 6, 8):
            for s in (0.0, 1e-3, -1e-3, 0.3, -0.3, 0.5, -0.5):
                for lam in (0.0, 1e-9, 1e-3, 0.1, 1.0, 30.0, 1e4):
                    for _ in range(3):
                        b = rng.standard_normal(K + 1)
                        got = taylor_parts(b.tolist(), s, lam)
                        want, scale = self.reference(b, s, lam)
                        for part in range(4):
                            assert abs(got[part] - want[part]) <= 1e-14 * scale[part], \
                                (K, s, lam, part)

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from((0.0, -0.0)), _log_uniform(-300.0, 300.0)),
                    min_size=7, max_size=7),
           st.one_of(st.sampled_from((0.0, -0.0, 0.5, -0.5)), st.floats(-0.5, 0.5)),
           st.one_of(st.just(0.0), _log_uniform(-320.0, 156.0).map(abs)))
    # the loop's first steps on 0.0 turn b_6 = -0.0 into a node value of +0.0
    # at s = -1/2, and so Q into -0.0: a pass without them gives +0.0
    @example([0.0, 0.0, -0.0, -0.0, -0.0, -0.0, -0.0], -0.5, 1e-200)
    def test_straight_line_is_the_loop(self, b, s, lam):
        # repr: signed zeros, infinities and NaNs count; lam^2 overflows from
        # lam ~ 1.3e154 on.  The core forms Re G, Im G/lam and Q, not P(-s)
        re_g, im_g_lam, _, quotient = taylor_parts(b, s, lam)
        assert repr(_taylor_parts(b, s, lam)) == repr((re_g, im_g_lam, quotient))

    def test_stencil_reads_view_and_list_alike(self):
        # the fit reads the pass's read-only view of the samples: the same
        # bits as a fresh array of the same floats, as Python floats
        rng = np.random.default_rng(11)
        for scale in (1e-300, 1e-8, 1.0, 1e8, 1e300):
            gvals = scale * rng.standard_normal(64)
            gvals.flags.writeable = False
            for i0 in (0, 17, 55):
                view = gvals[i0:i0 + 9]
                fresh = np.array(view.tolist())
                for s in (0.0, -0.0, 0.5, -0.5, 0.123):
                    got = _stencil_poly(view, s)
                    assert all(type(v) is float for v in got)
                    assert ([v.hex() for v in got]
                            == [v.hex() for v in _stencil_poly(fresh, s)])
