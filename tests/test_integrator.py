import cmath
import math
import warnings

import numpy as np
import pytest

from nsquad.corrections import GEval
from nsquad.integrator import (
    KernelParams,
    integrate_finite_part,
    integrate_near_singular,
    puncture_split,
)
from nsquad.meshrule import Mesh
from nsquad.oracle import exact_test1, finite_part_reference
from nsquad.verify import self_check

D_GRID = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


def g_scaled_exp(d):
    return GEval.analytic(lambda z: d * np.exp(z))


g_one = GEval.analytic(lambda z: 1.0 + 0.0 * np.asarray(z))


class TestPunctureSplit:
    def test_interior(self):
        h = 1.0 / 64
        j, s = puncture_split(0.1, h)
        assert j == 6 and s == pytest.approx(0.4, abs=1e-13)

    def test_on_node(self):
        j, s = puncture_split(0.0, 0.25)
        assert (j, s) == (0, 0.0)
        j, s = puncture_split(-0.75, 0.25)
        assert (j, s) == (-3, 0.0)

    def test_tie_resolves_to_left_node(self):
        j, s = puncture_split(0.125, 0.25)
        assert j == 0 and s == 0.5
        j, s = puncture_split(-0.125, 0.25)
        assert j == -1 and s == 0.5


class TestNearSingular:
    def test_exact_value_example(self):
        d = 0.01
        res = integrate_near_singular(g_scaled_exp(d),
                                      KernelParams(a=1.0, d=d), 64)
        assert abs(res.value - exact_test1(d)) <= 1e-12

    def test_d_point_one_machine_precision_by_n64(self):
        d = 0.1
        res = integrate_near_singular(g_scaled_exp(d),
                                      KernelParams(a=1.0, d=d), 64)
        assert abs(res.value - exact_test1(d)) <= 1e-13

    def test_arctangent_sanity(self):
        for c, d in ((1.0, 1.0), (2.0, 0.5), (1.0, 0.01)):
            res = integrate_near_singular(g_one, KernelParams(a=1.0, c=c, d=d), 64)
            want = 2.0 * math.atan(c * 1.0 / d) / (c * d)
            assert abs(res.value - want) <= 1e-12 * max(1.0, abs(want))

    def test_value_equals_uncorrected_plus_correction(self):
        res = integrate_near_singular(g_scaled_exp(0.01),
                                      KernelParams(a=1.0, d=0.01, x_s=0.1), 64)
        assert res.value == res.uncorrected + res.breakdown.total
        assert res.breakdown.total == res.breakdown.singular_part + res.breakdown.jump_part

    def test_exponential_until_saturation(self):
        # errors are at the floor by n = 64 and stay there (noise allowance)
        for d in (1e-1, 1e-2, 1e-4):
            errs = []
            for n in (64, 128, 256):
                res = integrate_near_singular(g_scaled_exp(d),
                                              KernelParams(a=1.0, d=d), n)
                errs.append(abs(res.value - exact_test1(d)))
            assert errs[0] <= 1e-12
            assert errs[1] <= errs[0] + 1e-13
            assert errs[2] <= errs[1] + 1e-13

    def test_d_uniformity(self):
        # corrected error at n = 64 varies by at most two orders of
        # magnitude across six decades of d (errors floored at 1 ulp of pi)
        errs = []
        for d in D_GRID:
            res = integrate_near_singular(g_scaled_exp(d),
                                          KernelParams(a=1.0, d=d), 64)
            errs.append(max(abs(res.value - exact_test1(d)), 1e-15))
        assert max(errs) <= 100.0 * min(errs)

    def test_bit_reproducible(self):
        params = KernelParams(a=1.0, d=0.01, x_s=0.1)
        a = integrate_near_singular(g_scaled_exp(0.01), params, 64)
        b = integrate_near_singular(g_scaled_exp(0.01), params, 64)
        assert a.value == b.value and a.uncorrected == b.uncorrected

    def test_method_dispatch(self):
        params = KernelParams(a=1.0, d=0.01)
        res = integrate_near_singular(g_scaled_exp(0.01), params, 64, "fd-series")
        assert res.method == "fd-series"
        real_only = GEval(real_eval=lambda x: 0.01 * math.exp(x))
        res = integrate_near_singular(real_only, params, 64, "auto")
        assert res.method == "fd-series"
        with pytest.raises(ValueError):
            integrate_near_singular(real_only, params, 64, "closed-form")
        with pytest.raises(ValueError):
            integrate_near_singular(real_only, params, 64, "newton")

    def test_validation_errors(self):
        g = g_scaled_exp(0.01)
        with pytest.raises(ValueError):
            integrate_near_singular(g, KernelParams(a=1.0, d=0.01), 8)
        with pytest.raises(ValueError):
            integrate_near_singular(g, KernelParams(a=1.0, d=0.01, x_s=0.95), 64)
        with pytest.raises(ValueError):
            KernelParams(a=1.0, d=-0.1)
        with pytest.raises(ValueError):
            KernelParams(a=1.0, c=0.0, d=0.1)

    def test_nan_at_the_puncture_raises_on_every_branch(self):
        # g(x_s) is not finite on the node x_s = 0: no branch returns a silent NaN
        def sinc(x):
            return math.sin(x) / x if x else math.nan

        def sinc_complex(z):
            return cmath.sin(z) / z if z else complex(math.nan, 0.0)

        real_only = GEval(real_eval=sinc)
        both = GEval(real_eval=sinc, complex_eval=sinc_complex)
        for g, d, method in ((real_only, 0.0, "auto"), (real_only, 1e-3, "auto"),
                             (real_only, 1e-3, "fd-series"), (both, 1e-3, "fd-series"),
                             (both, 1e-3, "closed-form"), (both, 1e-6, "closed-form")):
            with pytest.raises(ValueError, match="window"):
                integrate_near_singular(g, KernelParams(a=1.0, d=d), 64, method)
        with pytest.raises(ValueError, match="window"):
            integrate_finite_part(real_only, 1.0, 0.0, 64)

    def test_random_parameters_property(self):
        # wide sweep of (d, x_s) at n = 64; the corrected rule stays within
        # a few tens of ulp of the exponential-integral value throughout
        from nsquad.oracle import exact_test2
        rng = np.random.default_rng(2024)
        for _ in range(40):
            d = 10.0 ** rng.uniform(-6.0, -0.5)
            x_s = rng.uniform(-0.5, 0.5)
            g = g_scaled_exp(d)
            res = integrate_near_singular(g, KernelParams(a=1.0, d=d, x_s=x_s),
                                          64, "closed-form")
            assert abs(res.value - exact_test2(d, 1.0, x_s)) <= 1e-10

    def test_exact_tie_puncture(self):
        # x_s exactly halfway between nodes: left node chosen, s = +1/2
        from nsquad.oracle import exact_test2
        n = 64
        h = 1.0 / n
        d = 0.01
        x_s = 2.5 * h
        res = integrate_near_singular(g_scaled_exp(d),
                                      KernelParams(a=1.0, d=d, x_s=x_s), n)
        assert res.mesh.puncture == 2 and res.mesh.s == 0.5
        assert abs(res.value - exact_test2(d, 1.0, x_s)) <= 1e-12

    def test_fd_series_large_lambda_accurate_without_warning(self):
        # lam = d/(c h) = 32 here; the Taylor form runs no recurrence, so
        # nothing is lost and nothing is reported
        d = 0.5
        res = integrate_near_singular(g_scaled_exp(d),
                                      KernelParams(a=1.0, d=d), 64, "fd-series")
        assert res.warnings == []
        assert abs(res.value - exact_test1(d)) <= 1e-14 * abs(exact_test1(d))

    def test_tiny_s_and_lambda_fallback(self):
        # with both s and lam tiny the off-mesh closed form cancels badly;
        # its cancelling term is summed in series form and stays accurate
        from nsquad.oracle import exact_test2
        d, x_s = 1e-6, 1e-12
        g = g_scaled_exp(d)
        res = integrate_near_singular(g, KernelParams(a=1.0, d=d, x_s=x_s),
                                      64, "closed-form")
        assert res.breakdown.terms_used > 0
        assert abs(res.value - exact_test2(d, 1.0, x_s)) <= 1e-12

    @pytest.mark.parametrize("s, lams", [
        (0.0, (0.05, 0.09, 0.11, 0.2)),      # lam/(s^2 + lam^2) = 10 at lam = 0.1
        (1e-3, (5e-6, 2e-5, 0.09, 0.11)),    # ... at lam ~ 1e-5 and lam ~ 0.1
    ])
    def test_closed_form_series_guard_straddle(self, s, lams):
        # both sides of the guard on the cancelling term are accurate
        from nsquad.oracle import exact_test2
        n = 64
        h = 1.0 / n
        series_used = set()
        for lam in lams:
            d, x_s = lam * h, s * h
            res = integrate_near_singular(g_scaled_exp(d),
                                          KernelParams(a=1.0, d=d, x_s=x_s), n)
            ref = exact_test2(d, 1.0, x_s)
            assert abs(res.value - ref) <= 1e-13 * abs(ref), lam
            series_used.add(res.breakdown.terms_used > 0)
        assert series_used == {True, False}

    def test_inconsistent_complex_eval_warns(self):
        g = GEval(real_eval=math.exp,
                  complex_eval=lambda z: np.exp(z) * (1.0 + 1e-9))
        res = integrate_near_singular(g, KernelParams(a=1.0, d=0.01), 64)
        assert any("complex_eval" in w for w in res.warnings)


class TestFinitePart:
    def test_constant(self):
        res = integrate_finite_part(g_one, 1.0, 0.0, 64)
        assert res.value == pytest.approx(-2.0, abs=1e-12)
        assert res.breakdown.jump_part == 0.0
        assert res.method == "finite-part"

    def test_x_squared(self):
        g = GEval.analytic(lambda z: np.asarray(z) ** 2)
        res = integrate_finite_part(g, 1.0, 0.0, 64)
        assert res.value == pytest.approx(2.0, abs=1e-12)

    def test_exponential_vs_oracle(self):
        g = GEval.analytic(np.exp)
        res = integrate_finite_part(g, 1.0, 0.0, 64)
        ref = finite_part_reference(g, 1.0, 0.0)
        assert abs(res.value - ref) <= 1e-10

    def test_offmesh_vs_oracle(self):
        g = GEval.analytic(np.exp)
        h = 1.0 / 64
        for frac in (0.3, 0.5):
            res = integrate_finite_part(g, 1.0, frac * h, 64)
            ref = finite_part_reference(g, 1.0, frac * h)
            assert abs(res.value - ref) <= 1e-10

    def test_kernel_scale_on_finite_part_path(self):
        # d = 0 with c != 1: the kernel is c^2 (x - x_s)^2
        g = GEval.analytic(np.exp)
        x_s = 0.3 / 64
        res = integrate_near_singular(g, KernelParams(a=1.0, c=2.0, d=0.0, x_s=x_s), 64)
        ref = finite_part_reference(g, 1.0, x_s) / 4.0
        assert abs(res.value - ref) <= 1e-11

    def test_fd_series_at_d_zero_uses_stencil(self):
        # with or without "fd-series", the only complex call is the
        # consistency check at x_s: the stencil is the one Taylor source
        calls = [0]

        def complex_eval(z):
            calls[0] += 1
            return np.exp(z)

        g = GEval(real_eval=math.exp, complex_eval=complex_eval)
        h = 1.0 / 64
        for frac in (0.0, 0.02, 0.3):
            params = KernelParams(a=1.0, d=0.0, x_s=frac * h)
            calls[0] = 0
            fd = integrate_near_singular(g, params, 64, "fd-series")
            assert calls[0] == 1
            auto = integrate_near_singular(g, params, 64)
            assert calls[0] == 2
            assert fd.value == auto.value

    def test_real_only_samples_once(self):
        # the 2n + 1 mesh samples are all: the stencil reuses them
        calls = [0]

        def real_eval(x):
            calls[0] += 1
            return math.exp(x)

        n = 64
        for frac in (0.3, 0.5, 0.04, 0.0):
            calls[0] = 0
            integrate_finite_part(GEval(real_eval=real_eval), 1.0, frac / n, n)
            assert calls[0] == 2 * n + 1, frac

    def test_small_offsets_at_n512(self):
        # just above |s| = 0.05, where a cancelling difference divided by
        # s^2 h would lose about a digit
        n = 512
        for g in (GEval.analytic(np.exp), GEval(real_eval=math.exp)):
            for frac in (0.051, 0.06, 0.1):
                x_s = frac / n
                res = integrate_finite_part(g, 1.0, x_s, n)
                assert abs(res.value - finite_part_reference(g, 1.0, x_s)) <= 2e-12, frac

    def test_end_correction_warning(self):
        n = 128
        h = 1.0 / n
        g = GEval.analytic(np.exp)
        near_end = integrate_finite_part(g, 1.0, 1.0 - 10.3 * h, n)
        assert any("end corrections" in w for w in near_end.warnings)
        assert integrate_finite_part(g, 1.0, 0.0, n).warnings == []

    def test_d_zero_routes_to_finite_part(self):
        res = integrate_near_singular(g_one, KernelParams(a=1.0, d=0.0), 64)
        assert res.method == "finite-part"
        assert res.breakdown.jump_part == 0.0
        assert res.value == pytest.approx(-2.0, abs=1e-12)


def counted(f):
    """f wrapped to count its calls: (wrapped, {"array": ..., "scalar": ...})."""
    calls = {"array": 0, "scalar": 0}

    def wrapped(z):
        calls["array" if isinstance(z, np.ndarray) else "scalar"] += 1
        return f(z)
    return wrapped, calls


def exp_scalar_only(z):
    return cmath.exp(z) if isinstance(z, complex) else math.exp(z)


class TestArraySampling:
    """A g built by GEval.analytic is called once per array of points."""

    def test_calls_per_integration(self):
        n = 256
        h = 1.0 / n
        f, calls = counted(np.exp)
        g = GEval.analytic(f)
        # beyond the one mesh array: G and the consistency check at x_s
        # (closed form, with g_node or with the Q series), or the check alone
        for params, terms in ((KernelParams(a=1.0, d=1e-2, x_s=0.3 * h), 0),
                              (KernelParams(a=1.0, d=1e-6, x_s=26 * h), 6)):
            calls.update(array=0, scalar=0)
            res = integrate_near_singular(g, params, n)
            assert res.method == "closed-form"
            assert res.breakdown.terms_used == terms
            assert calls["array"] == 1
            assert calls["array"] + calls["scalar"] <= 3
        for x_s in (0.0, 0.3 * h):
            calls.update(array=0, scalar=0)
            integrate_finite_part(g, 1.0, x_s, n)
            assert calls["array"] == 1
            assert calls["array"] + calls["scalar"] <= 2

    def test_scalar_only_analytic_falls_back(self):
        f, calls = counted(exp_scalar_only)
        g = GEval.analytic(f)
        ref = GEval.analytic(np.exp)
        h = 1.0 / 64
        for params in (KernelParams(a=1.0, d=1e-3, x_s=0.3 * h),
                       KernelParams(a=1.0, d=1e-7, x_s=0.0),
                       KernelParams(a=1.0, d=0.0, x_s=0.2 * h)):
            for method in ("closed-form", "fd-series") if params.d > 0 else ("auto",):
                got = integrate_near_singular(g, params, 64, method=method).value
                want = integrate_near_singular(ref, params, 64, method=method).value
                assert abs(got - want) <= 1e-15 * abs(want), (params, method)
        assert calls["array"] <= 1
        assert calls["scalar"] > 2 * 64

    def test_wrong_shape_falls_back(self):
        g = GEval.analytic(lambda z: 1.0)
        res = integrate_finite_part(g, 1.0, 0.0, 64)
        assert res.value == pytest.approx(-2.0, abs=1e-12)
        np.testing.assert_array_equal(g.sample(np.array([0.5, 1 + 2j])), [1.0, 1.0])

    def test_complex_on_real_line_falls_back(self):
        # f returns a complex dtype for real points: scalar calls, float() of each
        f, calls = counted(lambda z: np.exp(np.asarray(z, dtype=complex)))
        g = GEval.analytic(f)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", np.exceptions.ComplexWarning)
            values = g.sample(np.array([0.0, 1.0]))
        assert values.dtype == float
        assert calls == {"array": 1, "scalar": 2}

    def test_bit_identical_to_scalar_calls(self):
        vec = GEval.analytic(np.exp)
        scalar = GEval(real_eval=lambda x: float(np.exp(x)), complex_eval=np.exp)
        rng = np.random.default_rng(5)
        n = 128
        h = 1.0 / n
        for _ in range(12):
            c = float(rng.choice([0.5, 1.0, 2.0]))
            d = float(10.0 ** rng.uniform(-9, -1))
            for x_s in (int(rng.integers(-100, 100)) * h, float(rng.uniform(-0.8, 0.8))):
                for method in ("closed-form", "fd-series"):
                    params = KernelParams(a=1.0, c=c, d=d, x_s=x_s)
                    a = integrate_near_singular(vec, params, n, method=method)
                    b = integrate_near_singular(scalar, params, n, method=method)
                    assert (a.value, a.uncorrected) == (b.value, b.uncorrected)
                a = integrate_finite_part(vec, 1.0, x_s, n)
                b = integrate_finite_part(scalar, 1.0, x_s, n)
                assert (a.value, a.uncorrected) == (b.value, b.uncorrected)

    def test_node_cache_unchanged_by_integration(self):
        # every in-place step works on copies, never on the cached nodes
        mesh = Mesh(1.0, 64)
        nodes = mesh.nodes()
        before = nodes.tobytes()
        params = KernelParams(a=1.0, d=1e-3, x_s=0.3 / 64)
        for g in (GEval.analytic(np.exp), GEval(real_eval=math.exp)):
            for method in ("auto", "fd-series"):
                integrate_near_singular(g, params, 64, method)
            integrate_finite_part(g, 1.0, 0.0, 64)
            integrate_finite_part(g, 1.0, 0.3 / 64, 64)
        assert mesh.nodes() is nodes and nodes.tobytes() == before


class TestScalarContract:
    """GEval(real_eval=..., complex_eval=...): one call per point, Python scalars."""

    @staticmethod
    def recording(f):
        seen = []

        def wrapped(v):
            seen.append(v)
            return f(v)
        return wrapped, seen

    def test_real_eval_once_per_point(self):
        def f(x):
            return math.exp(x) * math.sin(3.0 * x)
        x = np.random.default_rng(7).uniform(-1.0, 1.0, 257)
        ev, seen = self.recording(f)
        values = GEval(real_eval=ev).sample(x)
        assert seen == x.tolist() and all(type(v) is float for v in seen)
        assert values.dtype == float
        assert values.tobytes() == np.array([f(v) for v in x]).tobytes()

    def test_complex_eval_once_per_point(self):
        z = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 128, endpoint=False)) * 0.3 + 0.1
        ev, seen = self.recording(cmath.exp)
        values = GEval(real_eval=math.exp, complex_eval=ev).sample(z)
        assert seen == z.tolist() and all(type(v) is complex for v in seen)
        assert values.dtype == complex
        assert values.tobytes() == np.array([cmath.exp(v) for v in z]).tobytes()

    def test_non_real_value_is_an_error(self):
        x = np.array([0.0, 0.5])
        with pytest.raises(ValueError, match="real_eval must return a real number"):
            GEval(real_eval=cmath.exp).sample(x)
        with pytest.raises(ValueError, match="real_eval must return a real number"):
            integrate_finite_part(GEval(real_eval=cmath.exp), 1.0, 0.1, 64)
        with pytest.raises(ValueError, match="complex_eval must return a complex number"):
            GEval(real_eval=math.exp, complex_eval=lambda z: [z]).sample(x + 0.1j)

    def test_evaluator_type_error_propagates(self):
        def broken(x):
            return len(x)
        with pytest.raises(TypeError, match="has no len"):
            GEval(real_eval=broken).sample(np.array([0.0, 0.5]))

class TestKernelParams:
    @pytest.mark.parametrize("field, kwargs", [
        ("d", dict(a=1.0, d=5e-324)),            # pi/(c d) overflows
        ("d", dict(a=1.0, c=1e-200, d=1e-200)),  # c d underflows to 0
        ("d", dict(a=1.0, d=math.nan)),
        ("c", dict(a=1.0, c=math.inf, d=0.1)),
        ("a", dict(a=math.inf, d=0.1)),
        ("x_s", dict(a=1.0, d=0.1, x_s=math.nan)),
    ])
    def test_rejects_nonfinite_and_overflow(self, field, kwargs):
        with pytest.raises(ValueError, match=rf"^{field} "):
            KernelParams(**kwargs)


class TestInputValidation:
    @pytest.mark.parametrize("radius", [0.0, -0.1, math.nan, math.inf])
    def test_rejects_bad_contour_radius(self, radius):
        with pytest.raises(ValueError, match="radius"):
            GEval.analytic(np.exp, radius=radius)
        with pytest.raises(ValueError, match="radius"):
            GEval(real_eval=math.exp, complex_eval=cmath.exp, radius=radius)

    def test_rejects_non_integer_n(self):
        g = GEval.analytic(np.exp)
        params = KernelParams(a=1.0, d=0.01, x_s=0.1)
        for n in (64.0, 64.5):
            with pytest.raises(ValueError, match=r"^n must be a positive integer"):
                integrate_near_singular(g, params, n)
        want = integrate_near_singular(g, params, 64).value
        assert integrate_near_singular(g, params, np.int64(64)).value == want


class TestConsistencyCheck:
    def test_no_warning_at_a_root_of_g(self):
        # g(x_s) is a rounding error, so numpy's array and scalar paths
        # differ by 100 % of it but by an ulp of g's size
        root = -0.125
        g = GEval.analytic(lambda z: np.exp(z) - math.exp(root))
        res = integrate_near_singular(g, KernelParams(a=1.0, c=1.0, d=1e-3, x_s=root), 64)
        assert res.warnings == []
        assert integrate_finite_part(g, 1.0, root, 64).warnings == []

    def test_warns_on_a_small_disagreement(self):
        g = GEval(real_eval=math.exp, complex_eval=lambda z: cmath.exp(z) * (1.0 + 1e-10))
        for d, x_s in ((1e-3, 0.1), (0.0, 0.1), (1e-3, 0.0)):
            res = integrate_near_singular(g, KernelParams(a=1.0, c=1.0, d=d, x_s=x_s), 64)
            assert any("complex_eval disagrees" in w for w in res.warnings), (d, x_s)


class TestSelfCheck:
    def test_identities_pass_moderate_lambda(self):
        # lam = 0.5, s = 0.25 at n = 64: d = lam*c*h, x_s = s*h
        h = 1.0 / 64
        report = self_check(KernelParams(a=1.0, c=1.0, d=0.5 * h, x_s=0.25 * h), 64)
        assert report.lam == pytest.approx(0.5, rel=1e-12)
        assert report.s == pytest.approx(0.25, rel=1e-12)
        assert report.max_deviation <= 1e-12
        assert report.warnings == []

    def test_half_shift_limits_reported(self):
        h = 1.0 / 64
        report = self_check(KernelParams(a=1.0, c=1.0, d=0.0, x_s=0.5 * h), 64)
        assert report.p0 == pytest.approx(math.pi ** 2 - 4.0, rel=1e-13)
        assert report.p1 == pytest.approx(2.0, rel=1e-13)

    def test_conditioning_warning_for_large_lambda(self):
        h = 1.0 / 64
        report = self_check(KernelParams(a=1.0, c=1.0, d=10.0 * h, x_s=0.0), 64)
        assert any("k >= 6" in w for w in report.warnings)
