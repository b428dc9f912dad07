import cmath
import dataclasses
import math
import sys
import threading
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nsquad.cli import StudyConfig, run_converge
from nsquad.corrections import GEval
from nsquad.integrator import (
    _STUDY_ROWS,
    METHODS,
    KernelParams,
    _mesh_pass,
    _study_values,
    integrate_finite_part,
    integrate_near_singular,
    puncture_split,
)
from nsquad.meshrule import Mesh, _rule_sums
from nsquad.oracle import exact_test1, exact_test2, finite_part_reference
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
        # every method at d = 0 and d > 0, for an analytic and a real-only g:
        # the method reported and the complex_eval calls (G and the check at
        # the puncture node, lam = 0.064), or the error raised before g is
        # sampled
        table = {("auto", 0.0): ("finite-part", 0, "finite-part"),
                 ("auto", 1e-3): ("closed-form", 2, "fd-series"),
                 ("closed-form", 0.0): ("finite-part", 0, "finite-part"),
                 ("closed-form", 1e-3): ("closed-form", 2, None),
                 ("fd-series", 0.0): ("finite-part", 0, "finite-part"),
                 ("fd-series", 1e-3): ("fd-series", 0, "fd-series")}
        real_calls, complex_calls = [], []

        def real_eval(x):
            real_calls.append(x)
            return math.exp(x)

        def complex_eval(z):
            complex_calls.append(z)
            return cmath.exp(z)
        for (method, d), (analytic_method, calls, real_only_method) in table.items():
            params = KernelParams(a=1.0, d=d, x_s=0.1)
            complex_calls.clear()
            res = integrate_near_singular(GEval(real_eval=real_eval, complex_eval=complex_eval),
                                          params, 64, method)
            assert (res.method, len(complex_calls)) == (analytic_method, calls), (method, d)
            real_calls.clear()
            real_only = GEval(real_eval=real_eval)
            if real_only_method is None:
                with pytest.raises(ValueError, match="^closed-form correction needs a "
                                                     "complex evaluator for g$"):
                    integrate_near_singular(real_only, params, 64, method)
                assert real_calls == []
            else:
                res = integrate_near_singular(real_only, params, 64, method)
                assert (res.method, len(real_calls)) == (real_only_method, 129), (method, d)
        with pytest.raises(ValueError):
            integrate_near_singular(g_scaled_exp(0.01), KernelParams(a=1.0, d=0.01), 64,
                                    "newton")

    def test_closed_form_without_complex_eval_fails_before_sampling(self):
        calls = [0]

        def real_eval(x):
            calls[0] += 1
            return math.exp(x)
        with pytest.raises(ValueError, match="needs a complex evaluator"):
            integrate_near_singular(GEval(real_eval=real_eval),
                                    KernelParams(a=1.0, d=0.01, x_s=0.1), 4096, "closed-form")
        assert calls[0] == 0

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
            with pytest.raises(ValueError, match=r"^g is not finite at x = 0\.0: g\(x\) = nan$"):
                integrate_near_singular(g, KernelParams(a=1.0, d=d), 64, method)
        with pytest.raises(ValueError, match=r"^g is not finite at x = 0\.0: g\(x\) = nan$"):
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


class TestOffLatticeMesh:
    """Meshes whose h = a/n is not a power of 2: the rounded nodes k fl(a/n)
    sit off the lattice x_s + (m - s) h that the rule and the correction
    assume, and the kernel must be formed on that lattice."""

    X_S = -0.6112492290265548

    @pytest.mark.parametrize("n, tol", [(300, 1e-11), (1000, 1e-11), (3000, 1e-11),
                                        (10000, 1e-10)])
    def test_finite_part_vs_oracle(self, n, tol):
        g = GEval.analytic(np.exp)
        h = 1.0 / n
        rng = np.random.default_rng(n)
        for x_s in [self.X_S] + rng.uniform(-(1.0 - 40 * h), 1.0 - 40 * h, 40).tolist():
            res = integrate_finite_part(g, 1.0, x_s, n)
            ref = finite_part_reference(g, 1.0, x_s)
            assert abs(res.value - ref) <= tol * max(abs(ref), 1.0), (x_s, res.value, ref)
            assert res.warnings == []

    def test_near_singular_vs_exact(self):
        n = 10000
        for d in np.geomspace(1e-9, 1e-5, 9).tolist():
            params = KernelParams(a=1.0, d=d, x_s=self.X_S)
            ref = exact_test2(d, 1.0, self.X_S)
            for g in (g_scaled_exp(d), GEval(real_eval=lambda x: d * math.exp(x))):
                res = integrate_near_singular(g, params, n)
                assert abs(res.value - ref) <= 2e-15 * max(abs(ref), 1.0), (d, res.method)


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
        # with or without "fd-series", the finite part makes no complex call:
        # the stencil is the one Taylor source, and only the closed form
        # checks complex_eval
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
            auto = integrate_near_singular(g, params, 64)
            assert calls[0] == 0
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

    def test_pass_divides_by_c_squared_once(self):
        # the pass sums c^2 h^2 times the kernel samples, its punctured entry
        # 0; its sums and end-error estimate are those of the kernel samples
        # themselves
        n = 128
        x_s = 1.0 - 10.3 / n   # near an end: the estimate is far above round-off
        for c in (0.5, 2.0, 3.0):
            for d in (1e-3, 0.0):
                params = KernelParams(a=1.0, c=c, d=d, x_s=x_s)
                sampled = _mesh_pass(GEval.analytic(np.exp), params.a, c, d, x_s, n)
                mesh, j = sampled.mesh, sampled.j
                total, est = sampled.uncorrected, sampled.edge_err
                x = mesh.nodes()
                kernel = np.exp(x) / (d * d + c * c * (x - x_s) ** 2)
                kernel[n + j] = 0.0
                want_total, want_est, want_plain = _rule_sums(mesh.h, kernel)
                assert total == pytest.approx(want_total, rel=1e-14, abs=0), (c, d)
                assert est == pytest.approx(want_est, rel=1e-9, abs=0), (c, d)
                plain = sampled.plain / (c * mesh.h) ** 2 * mesh.h
                assert plain == pytest.approx(want_plain, rel=1e-14, abs=0), (c, d)

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
        # the first integration on a mesh samples it in one array call; beyond
        # that, only the closed form calls g: G and its check at the puncture
        # node (with g_node or with the Q series); nothing for the finite part
        for k, (params, terms) in enumerate(((KernelParams(a=1.0, d=1e-2, x_s=0.3 * h), 0),
                                             (KernelParams(a=1.0, d=1e-6, x_s=26 * h), 6))):
            calls.update(array=0, scalar=0)
            res = integrate_near_singular(g, params, n)
            assert res.method == "closed-form"
            assert res.breakdown.terms_used == terms
            assert calls == {"array": int(k == 0), "scalar": 2}
        for x_s in (0.0, 0.3 * h):
            calls.update(array=0, scalar=0)
            integrate_finite_part(g, 1.0, x_s, n)
            assert calls == {"array": 0, "scalar": 0}
        calls.update(array=0, scalar=0)
        integrate_finite_part(GEval.analytic(f), 1.0, 0.0, n)
        assert calls == {"array": 1, "scalar": 0}

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
        np.testing.assert_array_equal(g.sample(np.array([0.5, 1.0])), [1.0, 1.0])

    def test_complex_on_real_line_falls_back(self):
        # f returns a complex dtype for real points: their real part, from the
        # one array call, when every imaginary part is 0
        f, calls = counted(lambda z: np.exp(np.asarray(z, dtype=complex)))
        g = GEval.analytic(f)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = g.sample(np.array([0.0, 1.0]))
        assert values.dtype == float and values.flags.c_contiguous
        np.testing.assert_array_equal(values, [1.0, math.e])
        assert calls == {"array": 1, "scalar": 0}
        # a nonzero imaginary part is an error, not a truncation to the real part
        g = GEval.analytic(lambda z: np.exp(1j * z))
        with pytest.raises(ValueError, match="complex values at real points"):
            integrate_finite_part(g, 1.0, 0.1, 64)

    def test_scalar_fallback_takes_real_evals_rule(self):
        # the zero-imaginary rule holds for an array call only: an f that
        # rejects arrays returns complex values per point, which real_eval's
        # rule rejects
        g = GEval.analytic(cmath.exp)
        with pytest.raises(ValueError) as caught:
            integrate_near_singular(g, KernelParams(a=1.0, d=1e-3, x_s=0.1), 64)
        assert str(caught.value) == ("real_eval must return a real number, "
                                     f"got {cmath.exp(-1.0)!r}")
        assert g._array_f is None

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

    def test_non_real_value_is_an_error(self):
        x = np.array([0.0, 0.5])
        with pytest.raises(ValueError, match="real_eval must return a real number"):
            GEval(real_eval=cmath.exp).sample(x)
        with pytest.raises(ValueError, match="real_eval must return a real number"):
            integrate_finite_part(GEval(real_eval=cmath.exp), 1.0, 0.1, 64)
        with pytest.raises(ValueError, match="real_eval must return a real number"):
            integrate_near_singular(GEval(real_eval=cmath.exp, complex_eval=cmath.exp),
                                    KernelParams(a=1.0, d=0.01, x_s=0.1), 64)
        # a numpy complex scalar, with a zero imaginary part or not, at the
        # first node or a later one, is an error, not a numpy ComplexWarning
        for ev in (lambda x: np.exp(1j * x), lambda x: np.complex64(math.exp(x)),
                   lambda x: np.complex128(math.exp(x)) if x > 0.5 else math.exp(x),
                   lambda x: np.complex64(x) if x == 1.0 else x):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="real_eval must return a real number"):
                    integrate_near_singular(GEval(real_eval=ev),
                                            KernelParams(a=1.0, d=0.01, x_s=0.1), 64)
        # complex points are sampled by no path
        with pytest.raises(ValueError, match="real points only"):
            GEval(real_eval=math.exp, complex_eval=cmath.exp).sample(x + 0.1j)

    def test_mesh_pass_reads_the_cached_node_floats(self):
        # a real-only g, and an analytic g whose f rejects arrays (after one
        # array probe): the first integration on a mesh makes one call per
        # node with Python floats, the nodes in order, and no other real
        # sample; a second one on that mesh makes no real call and gives the
        # same value, bit-identically
        def exp_no_arrays(z):
            if isinstance(z, np.ndarray):
                raise TypeError("scalars only")
            return cmath.exp(z) if isinstance(z, complex) else math.exp(z)

        n = 48
        mesh = Mesh(1.0, n)
        params = KernelParams(a=1.0, d=1e-3, x_s=0.3 / n)
        want = mesh.nodes().tolist()
        real_ev, real_seen = self.recording(math.exp)
        f, f_seen = self.recording(exp_no_arrays)
        for make, seen, probes in ((lambda: GEval(real_eval=real_ev), real_seen, 0),
                                   (lambda: GEval.analytic(f), f_seen, 1)):
            for method in ("auto", "fd-series"):
                g = make()
                seen.clear()
                first = integrate_near_singular(g, params, n, method)
                assert all(isinstance(v, np.ndarray) for v in seen[:probes])
                sampled = seen[probes:probes + len(want)]
                assert sampled == want
                assert all(type(v) is float for v in sampled)
                # the rest are complex_eval's G and consistency check
                assert all(type(v) is complex for v in seen[probes + len(want):])
                seen.clear()
                again = integrate_near_singular(g, params, n, method)
                assert again.value == first.value
                assert all(type(v) is complex for v in seen)

    def test_real_values_of_any_type(self):
        # anything real with __float__ is its float, at every node
        x = np.linspace(-1.0, 1.0, 9)
        want = list(map(math.exp, x.tolist()))
        for convert in (float, np.float64, np.float32, Fraction, mpmath.mpf,
                        lambda v: int(10 * v), lambda v: np.int64(10 * v)):
            values = GEval(real_eval=lambda v: convert(math.exp(v))).sample(x)
            assert values.tolist() == [float(convert(v)) for v in want]
        with pytest.raises(ValueError, match="real_eval must return a real number"):
            GEval(real_eval=lambda v: object()).sample(x)

    def test_evaluator_type_error_propagates(self):
        def broken(x):
            return len(x)
        with pytest.raises(TypeError, match="has no len"):
            GEval(real_eval=broken).sample(np.array([0.0, 0.5]))
        with pytest.raises(TypeError, match="has no len"):
            integrate_finite_part(GEval(real_eval=broken), 1.0, 0.1, 64)


class TestMeshSamples:
    """A GEval samples g once per mesh and keeps the meshes of the 4 most
    recent families: meshes of one half-width nested by powers of 2."""

    @staticmethod
    def counting_g():
        calls = [0]

        def real_eval(x):
            calls[0] += 1
            return math.exp(x)
        return GEval(real_eval=real_eval), calls

    def test_second_integration_makes_no_real_call(self):
        g, calls = self.counting_g()
        n = 64
        params = KernelParams(a=1.0, d=1e-3, x_s=0.1)
        first = integrate_near_singular(g, params, n)
        assert calls == [2 * n + 1]
        again = integrate_near_singular(g, params, n)
        assert integrate_finite_part(g, 1.0, -0.3, n).method == "finite-part"
        assert calls == [2 * n + 1]
        assert (again.value, again.uncorrected) == (first.value, first.uncorrected)
        # another half-width is another mesh, and a new GEval over the same
        # function samples again
        integrate_finite_part(g, 2.0, 0.1, n)
        assert calls == [2 * (2 * n + 1)]
        integrate_near_singular(GEval(real_eval=g.real_eval), params, n)
        assert calls == [3 * (2 * n + 1)]

    def test_four_most_recent_meshes_kept(self):
        g, calls = self.counting_g()

        def new_calls(n):
            calls[0] = 0
            integrate_finite_part(g, 1.0, 0.1, n)
            return calls[0]

        assert [new_calls(n) for n in (16, 17, 18, 19)] == [33, 35, 37, 39]
        assert new_calls(16) == 0    # 16 is now the most recent, 17 the oldest
        assert new_calls(20) == 41   # evicts 17
        assert [new_calls(n) for n in (16, 18, 19, 20)] == [0, 0, 0, 0]
        assert new_calls(17) == 35
        assert len(g._meshes) == 4

    def test_walk_down_keeps_its_finest_mesh(self):
        # five meshes nested by 2, walked finest first twice: each coarser mesh
        # copies its samples from the finest, and all five are one family, so
        # the second walk makes no g call
        g, calls = self.counting_g()
        for _ in range(2):
            for n in (256, 128, 64, 32, 16):
                integrate_finite_part(g, 1.0, 0.1, n)
        assert calls == [513]
        assert list(g._meshes) == [(1.0, 1)] and list(g._meshes[(1.0, 1)]) == [256, 128, 64,
                                                                                32, 16]

    def test_four_families_keep_their_finest_mesh(self):
        # 256 and 128 are one family, 48, 80 and 112 three more: 256 is still
        # kept when the walk comes back to it
        g, calls = self.counting_g()

        def new_calls(n):
            calls[0] = 0
            g.mesh_samples(Mesh(1.0, n))
            return calls[0]

        assert [new_calls(n) for n in (256, 128, 48, 80, 112, 256)] == [513, 0, 97, 161, 225, 0]
        assert list(g._meshes) == [(1.0, 3), (1.0, 5), (1.0, 7), (1.0, 1)]

    def test_samples_read_only_and_never_written(self):
        for g in (GEval.analytic(np.exp), GEval(real_eval=math.exp)):
            mesh = Mesh(1.0, 64)
            values = g.mesh_samples(mesh)
            assert not values.flags.writeable and g.mesh_samples(mesh) is values
            before = values.tobytes()
            for d in (0.0, 1e-3, 1.0):
                for method in ("auto", "fd-series"):
                    integrate_near_singular(g, KernelParams(a=1.0, d=d, x_s=0.3 / 64), 64,
                                            method)
            assert g.mesh_samples(mesh) is values and values.tobytes() == before
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 0.0

    def test_failed_sampling_caches_nothing(self):
        calls = [0]

        def real_eval(x):
            calls[0] += 1
            if calls[0] == 10:
                raise ZeroDivisionError("tenth call")
            return math.exp(x)

        g = GEval(real_eval=real_eval)
        with pytest.raises(ZeroDivisionError):
            integrate_finite_part(g, 1.0, 0.1, 64)
        calls[0] = 10
        integrate_finite_part(g, 1.0, 0.1, 64)
        assert calls == [10 + 129]
        # a complex value at a later node raises again on every integration
        g = GEval(real_eval=lambda x: np.complex128(x) if x > 0.5 else x)
        for _ in range(2):
            with pytest.raises(ValueError, match="real_eval must return a real number"):
                integrate_finite_part(g, 1.0, 0.1, 64)
        assert g._meshes == {}

    def test_functions_cannot_be_swapped(self):
        g = GEval.analytic(np.exp)
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.real_eval = math.sin
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.complex_eval = cmath.sin

    def test_two_threads_share_one_geval(self):
        g = GEval(real_eval=math.exp)
        errors = []

        def work():
            try:
                for k in range(60):
                    n = 16 + k % 6   # more meshes than are kept
                    want = list(map(math.exp, Mesh(1.0, n).nodes().tolist()))
                    assert g.mesh_samples(Mesh(1.0, n)).tolist() == want
            except Exception as exc:   # reported by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == [] and len(g._meshes) <= 4

    def test_threads_grow_one_family(self):
        # more threads than cores, switching often, on the meshes of one family
        # and of five more, so that a family is replaced while another thread
        # reads it: every thread reads the samples a fresh GEval takes
        g = GEval(real_eval=math.exp)
        sizes = (16, 32, 64, 128, 17, 18, 19, 20, 21)
        want = {n: GEval(real_eval=math.exp).sample(Mesh(1.0, n).nodes()).tobytes()
                for n in sizes}
        errors = []

        def work(offset):
            try:
                for k in range(120):
                    n = sizes[(k + offset) % len(sizes)]
                    assert g.mesh_samples(Mesh(1.0, n)).tobytes() == want[n]
            except Exception as exc:   # reported by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == [] and len(g._meshes) <= 4

    @staticmethod
    def counting_real_calls(analytic):
        """A GEval of e^x of either kind and its count of real points sampled."""
        calls = [0]

        def f(z):
            if isinstance(z, np.ndarray):
                calls[0] += z.size
                return np.exp(z)
            if isinstance(z, complex):
                return cmath.exp(z)
            calls[0] += 1
            return math.exp(z)
        return (GEval.analytic(f) if analytic else GEval(real_eval=f)), calls

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(a=st.sampled_from([1.0, 0.3, 1.0 / 3.0, 2.7]), n=st.sampled_from([2, 4, 8]),
           r=st.sampled_from([2, 4, 8]), refine=st.booleans(),
           d=st.sampled_from([0.0, 1e-3, 0.1]), analytic=st.booleans())
    def test_nested_meshes_sample_g_once_per_node(self, a, n, r, refine, d, analytic):
        # meshes 16 n and 16 n r of one half-width, the coarse one first when
        # refining: the second takes every r-th sample of the finer (no g
        # call) or the coarser's samples at every r-th node (2 n_f (r - 1)/r
        # calls), and gives what a fresh GEval gives, bit for bit
        coarse, fine = 16 * n, 16 * n * r
        g, calls = self.counting_real_calls(analytic)
        params = KernelParams(a=a, c=1.0, d=d * a, x_s=0.1 * a)
        first, second = (coarse, fine) if refine else (fine, coarse)
        for m, want_calls in ((first, 2 * first + 1),
                              (second, 2 * fine * (r - 1) // r if refine else 0)):
            calls[0] = 0
            got = integrate_near_singular(g, params, m)
            mesh = Mesh(a, m)
            assert g.mesh_samples(mesh).tobytes() == \
                self.counting_real_calls(analytic)[0].sample(mesh.nodes()).tobytes()
            assert calls == [want_calls]
            fresh = integrate_near_singular(self.counting_real_calls(analytic)[0], params, m)
            assert (got.value, got.uncorrected, got.breakdown, got.method, got.warnings) == \
                (fresh.value, fresh.uncorrected, fresh.breakdown, fresh.method, fresh.warnings)

    def test_ratio_three_and_subnormal_h_sample_afresh(self):
        g, calls = self.counting_real_calls(False)

        def new_calls(a, n):
            calls[0] = 0
            values = g.mesh_samples(Mesh(a, n))
            assert values.tobytes() == GEval(real_eval=math.exp).sample(
                Mesh(a, n).nodes()).tobytes()
            return calls[0]

        # a `*3` range: neither direction shares
        assert [new_calls(1.0, n) for n in (32, 96)] == [65, 193]
        g._meshes.clear()
        assert [new_calls(1.0, n) for n in (96, 32)] == [193, 65]
        # h = a/16 is the smallest normal float, h = a/32 is subnormal
        tiny = 16.0 * sys.float_info.min
        g._meshes.clear()
        assert [new_calls(tiny, n) for n in (16, 32, 16, 64)] == [33, 65, 0, 129]
        # a nested mesh of another half-width shares nothing either
        assert new_calls(2.0, 32) == 65

    def test_repeat_call_returns_the_last_samples(self):
        # the same GEval and Mesh object again: the same read-only array, no g
        # call, and the families' order untouched
        g, calls = self.counting_g()
        meshes = [Mesh(1.0, n) for n in (16, 48, 64)]
        first = [g.mesh_samples(mesh) for mesh in meshes]
        order = [(key, list(family)) for key, family in g._meshes.items()]
        calls[0] = 0
        for _ in range(3):
            again = g.mesh_samples(meshes[-1])
            assert again is first[-1] and not again.flags.writeable
        assert calls == [0]
        assert [(key, list(family)) for key, family in g._meshes.items()] == order

    def test_walk_back_to_a_family_is_most_recent(self):
        # A -> B -> A over two families: each array is a fresh GEval's, and A
        # ends most recent, as when every call reordered the families
        g, calls = self.counting_g()
        a, b = Mesh(1.0, 64), Mesh(1.0, 48)
        got = [g.mesh_samples(mesh) for mesh in (a, b, a)]
        for mesh, values in zip((a, b, a), got):
            assert values.tobytes() == GEval(real_eval=math.exp).mesh_samples(mesh).tobytes()
        assert got[2] is got[0] and calls == [129 + 97]
        assert list(g._meshes) == [(1.0, 3), (1.0, 1)]
        g.mesh_samples(Mesh(1.0, 80))
        g.mesh_samples(Mesh(1.0, 112))
        g.mesh_samples(Mesh(1.0, 144))   # a fifth family evicts the oldest, 48's
        assert list(g._meshes) == [(1.0, 1), (1.0, 5), (1.0, 7), (1.0, 9)]

    def test_equal_distinct_mesh_gets_the_same_samples(self):
        g, calls = self.counting_g()
        first = g.mesh_samples(Mesh(1.0, 64))
        twin = Mesh(1.0, 64)
        assert g.mesh_samples(twin) is first and calls == [129]
        assert g.mesh_samples(twin) is first and calls == [129]

    def test_failed_sampling_leaves_the_last_samples(self):
        calls = [0]

        def real_eval(x):
            calls[0] += 1
            if calls[0] == 140:
                raise ZeroDivisionError("140th call")
            return math.exp(x)

        g = GEval(real_eval=real_eval)
        mesh = Mesh(1.0, 64)
        kept = g.mesh_samples(mesh)
        with pytest.raises(ZeroDivisionError):
            g.mesh_samples(Mesh(1.0, 48))
        assert g._last == (mesh, kept) and list(g._meshes) == [(1.0, 1)]
        calls[0] = 0
        assert g.mesh_samples(mesh) is kept and calls == [0]

    def test_mesh_record_keeps_float_n_apart(self):
        # n = 64 cached, with its record and the GEval's last samples: n = 64.0
        # still raises on both entries
        g = GEval.analytic(np.exp)
        params = KernelParams(a=1.0, d=0.01, x_s=0.1)
        want = integrate_near_singular(g, params, 64)
        integrate_finite_part(g, 1.0, 0.1, 64)
        with pytest.raises(ValueError, match=r"^n must be a positive integer"):
            integrate_near_singular(g, params, 64.0)
        with pytest.raises(ValueError, match=r"^n must be a positive integer"):
            integrate_finite_part(g, 1.0, 0.1, 64.0)
        sampled = _mesh_pass(g, 1.0, 1.0, 0.01, 0.1, 64)
        assert sampled.mesh.h == want.mesh.h == 1.0 / 64
        assert integrate_near_singular(g, params, 64) == want

    def test_failed_refinement_caches_nothing(self):
        calls = [0]

        def real_eval(x):
            calls[0] += 1
            if calls[0] == 40:
                raise ZeroDivisionError("fortieth call")
            return math.exp(x)

        g = GEval(real_eval=real_eval)
        coarse = g.mesh_samples(Mesh(1.0, 16))
        with pytest.raises(ZeroDivisionError):
            g.mesh_samples(Mesh(1.0, 32))
        family = g._meshes[(1.0, 1)]
        assert list(g._meshes) == [(1.0, 1)] and list(family) == [16] and family[16] is coarse
        calls[0] = 40
        assert g.mesh_samples(Mesh(1.0, 32))[::2].tobytes() == coarse.tobytes()
        assert calls == [40 + 32]
        # a complex value at a new node raises, and again on the next try
        g = GEval(real_eval=lambda x: np.complex128(x) if x == 1.0 / 32 else x)
        g.mesh_samples(Mesh(1.0, 16))
        for _ in range(2):
            with pytest.raises(ValueError, match="real_eval must return a real number"):
                g.mesh_samples(Mesh(1.0, 32))
        assert list(g._meshes) == [(1.0, 1)] and list(g._meshes[(1.0, 1)]) == [16]

    def test_threads_refine_and_coarsen_one_geval(self):
        # four threads (more than the cores of a small host) walk six nested
        # meshes (more than are kept) up, down and across, switching often:
        # every sample stays g's at its node
        ns = [16 * 2 ** k for k in range(6)]
        orders = (ns, ns[::-1], ns[::2] + ns[1::2], ns[3:] + ns[:3])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for make in (lambda: GEval(real_eval=math.exp), lambda: GEval.analytic(np.exp)):
                g = make()
                errors = []

                def work(order):
                    try:
                        for k in range(60):
                            mesh = Mesh(0.3, order[k % len(order)])
                            want = make().sample(mesh.nodes())
                            assert g.mesh_samples(mesh).tobytes() == want.tobytes()
                    except Exception as exc:   # reported by the assert below
                        errors.append(exc)

                threads = [threading.Thread(target=work, args=(order,)) for order in orders]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert errors == [] and len(g._meshes) <= 4
        finally:
            sys.setswitchinterval(interval)

    # one GEval of each kind, shared by every example of the property below
    shared = {True: GEval.analytic(np.exp), False: GEval(real_eval=math.exp)}

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.sampled_from([16, 64, 256]), c=st.sampled_from([0.5, 1.0, 2.0]),
           log_d=st.floats(-9.0, 1.0), d_zero=st.booleans(), frac=st.floats(-1.0, 1.0),
           on_node=st.booleans(), method=st.sampled_from(METHODS), analytic=st.booleans())
    def test_shared_geval_matches_fresh(self, n, c, log_d, d_zero, frac, on_node, method,
                                        analytic):
        def make():
            return GEval.analytic(np.exp) if analytic else GEval(real_eval=math.exp)

        x_s = frac * (1.0 - 11.0 / n)   # inside |x_s| < a - 10h
        if on_node:
            x_s = round(x_s * n) / n
        d = 0.0 if d_zero else 10.0 ** log_d
        if method == "closed-form" and not analytic and d > 0.0:
            method = "auto"
        params = KernelParams(a=1.0, c=c, d=d, x_s=x_s)
        shared = self.shared[analytic]
        for _ in range(2):
            a = integrate_near_singular(shared, params, n, method)
            b = integrate_near_singular(make(), params, n, method)
            assert (a.value, a.uncorrected, a.breakdown, a.method, a.warnings) == \
                (b.value, b.uncorrected, b.breakdown, b.method, b.warnings)


class TestNonFiniteSamples:
    """A GEval checks each new mesh's samples once, before it keeps them, and
    names the first node where g is not finite, whichever node the pass
    would read it at and whichever way g was sampled."""

    @staticmethod
    def bad_at(x0, value, analytic):
        """e^x, but `value` at x0: from an `analytic` f's array call, or real_eval's."""
        if analytic:
            return GEval.analytic(lambda z: np.where(z == x0, value, np.exp(z)))
        return GEval(real_eval=lambda x: value if x == x0 else math.exp(x))

    # (x where g is not finite, x_s, the meshes integrated on in order: only
    # the last one has a node at x)
    PLACES = {
        "summed-node": (0.5, 0.1 + 0.3 / 64, (64,)),
        "puncture-node": (0.25, 0.25, (64,)),
        "end-window-node": (-61.0 / 64, 0.1, (64,)),   # 3 nodes in from the left end
        "refined-node": (5.0 / 32, 0.1, (16, 32)),     # an odd node of 32, filled from 16
    }

    @pytest.mark.parametrize("analytic", [True, False], ids=["array", "scalar"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("place", PLACES)
    def test_every_entry_names_the_node(self, place, value, analytic):
        x0, x_s, ns = self.PLACES[place]
        entries = (
            lambda g, n: integrate_near_singular(g, KernelParams(a=1.0, d=1e-3, x_s=x_s), n),
            lambda g, n: integrate_near_singular(g, KernelParams(a=1.0, d=1e-3, x_s=x_s), n,
                                                 "fd-series"),
            lambda g, n: integrate_finite_part(g, 1.0, x_s, n),
        )
        for entry in entries:
            g = self.bad_at(x0, value, analytic)
            for n in ns[:-1]:
                entry(g, n)
            for _ in range(2):
                with pytest.raises(ValueError) as caught:
                    entry(g, ns[-1])
                assert str(caught.value) == f"g is not finite at x = {x0!r}: g(x) = {value!r}"

    def test_failed_sampling_changes_no_state(self):
        g = self.bad_at(5.0 / 32, math.nan, False)
        coarse_mesh = Mesh(1.0, 16)
        coarse = g.mesh_samples(coarse_mesh)
        # refined from the kept n = 16, and sampled afresh on another a's nodes
        for mesh in (Mesh(1.0, 32), Mesh(1.0, 64), Mesh(2.0, 64)):
            for _ in range(2):
                with pytest.raises(ValueError,
                                   match=r"^g is not finite at x = 0\.15625: g\(x\) = nan$"):
                    g.mesh_samples(mesh)
                assert g._last == (coarse_mesh, coarse)
                assert g._meshes == {(1.0, 1): {16: coarse}}


def pass_bits(sampled) -> tuple:
    """Every field of a mesh pass, floats and arrays by their bits."""
    return (sampled.mesh, sampled.mesh.h.hex(), sampled.j, sampled.s.hex(), sampled.lam.hex(),
            sampled.g_node.hex(), sampled.samples.tobytes(), sampled.gvals.tobytes(),
            sampled.plain.hex(), sampled.uncorrected.hex(), sampled.edge_err.hex(),
            sampled.kernel.tobytes())


class TestNestedPass:
    """A pass given the pass of a finer mesh of its nesting family reads that
    pass's kernel and samples at stride r, and is the direct pass bit for
    bit; where it cannot be, it is the direct pass."""

    @staticmethod
    def counted(f, calls):
        return GEval.analytic(lambda z: (calls.append(np.shape(z)), f(z))[1])

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(a=st.sampled_from([0.5, 1.0, 2.0, 3.7]), log_c=st.floats(-0.5, 0.5),
           log_d=st.floats(-9.0, 0.0), frac=st.floats(-0.3, 0.3),
           place=st.sampled_from(["drawn", "zero", "tie"]),
           n=st.sampled_from([16, 24, 32, 48, 64]), log_r=st.integers(1, 4),
           kind=st.sampled_from(["exp", "cos", "pole"]))
    def test_equals_the_direct_pass(self, a, log_c, log_d, frac, place, n, log_r, kind):
        c, d, r = 10.0 ** log_c, 10.0 ** log_d, 2 ** log_r
        x_s = {"drawn": frac * a, "zero": 0.0, "tie": 3.5 * a / n}[place]
        f = {"exp": lambda z: d * np.exp(z), "cos": lambda z: np.cos(3 * z) + z,
             "pole": lambda z: 1 / (z * z + 0.09)}[kind]
        calls = []
        g = self.counted(f, calls)
        finer = _mesh_pass(g, a, c, d, x_s, r * n)
        calls.clear()
        nested = _mesh_pass(g, a, c, d, x_s, n, finer)
        assert calls == []   # neither sampled nor copied: views of the finer pass
        assert np.shares_memory(nested.gvals, finer.gvals)
        direct = _mesh_pass(GEval.analytic(f), a, c, d, x_s, n)
        assert pass_bits(nested) == pass_bits(direct)

    @pytest.mark.parametrize("scale, nests", [(1e-306, False), (1e-300, True)])
    def test_subnormal_kernel_samples_take_the_direct_pass(self, scale, nests):
        # at n = 256 the kernel samples far from x_s are about scale/65536: below
        # the normal range for 1e-306, where r^2 times them is not the coarser
        # mesh's kernel; so that mesh samples g itself
        f = lambda z: scale * np.exp(z)
        calls = []
        g = self.counted(f, calls)
        finer = _mesh_pass(g, 1.0, 1.0, 0.01, 0.1, 256)
        for n in (128, 64, 32, 16):
            nested = _mesh_pass(g, 1.0, 1.0, 0.01, 0.1, n, finer)
            assert np.shares_memory(nested.gvals, finer.gvals) is nests
            direct = _mesh_pass(GEval.analytic(f), 1.0, 1.0, 0.01, 0.1, n)
            assert pass_bits(nested) == pass_bits(direct)
        assert calls == [(513,)]   # the GEval copies the coarser meshes' samples

    def test_zeros_of_g_still_nest(self):
        # sin is exactly 0 at x = 0: a zero kernel sample where g is 0 scales exactly
        f = np.sin
        g = GEval.analytic(f)
        finer = _mesh_pass(g, 1.0, 1.0, 1e-3, 0.1, 64)
        assert finer.kernel[64] == 0.0 and finer.j != 0
        nested = _mesh_pass(g, 1.0, 1.0, 1e-3, 0.1, 16, finer)
        assert np.shares_memory(nested.gvals, finer.gvals)
        assert pass_bits(nested) == pass_bits(_mesh_pass(GEval.analytic(f), 1.0, 1.0, 1e-3,
                                                         0.1, 16))

    @pytest.mark.parametrize("scale", [3.5e307, 1e308])
    def test_overflowing_kernel_matches_the_direct_pass(self, scale):
        # x_s halfway between nodes of n = 16: its two nearest kernel samples are
        # 4 g there, on a node of n = 32 at distance 1 they are g; so the coarse
        # mesh's sums overflow (3.5e307) or its samples do (1e308), and the
        # nested pass gives the same inf or the same error
        f = lambda z: scale + 0.0 * z
        with np.errstate(over="ignore", invalid="ignore"):
            finer = _mesh_pass(GEval.analytic(f), 1.0, 1.0, 1e-9, 1 / 32, 32)
            outcomes = []
            for nested in (finer, None):
                try:
                    outcomes.append(pass_bits(_mesh_pass(GEval.analytic(f), 1.0, 1.0, 1e-9,
                                                         1 / 32, 16, nested)))
                except ValueError as exc:
                    outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        assert (outcomes[0] == "non-finite sample at a summed node" if scale == 1e308
                else outcomes[0][9] == "inf")

    @pytest.mark.parametrize("a, n, x_s, d, ratio", [
        (1.0, 16, 0.1, 1e-3, 3),       # a *3 range: no nesting
        (2.0, 16, 0.1, 1e-3, 2),       # another a
        (1.0, 16, 0.2, 1e-3, 2),       # another target
        (1.0, 16, 0.1, 2e-3, 2),       # another d, so another lam
        (1.0, 64, 0.1, 1e-3, 1),       # the same mesh
        (1.0, 64, 0.1, 1e-3, 0.5),     # a coarser one
    ])
    def test_other_passes_are_ignored(self, a, n, x_s, d, ratio):
        other = _mesh_pass(GEval.analytic(np.exp), a, 1.0, d, x_s, int(ratio * n))
        got = _mesh_pass(GEval.analytic(np.exp), 1.0, 1.0, 1e-3, 0.1, n, other)
        assert not np.shares_memory(got.gvals, other.gvals)
        assert pass_bits(got) == pass_bits(_mesh_pass(GEval.analytic(np.exp), 1.0, 1.0, 1e-3,
                                                      0.1, n))

    def test_inexact_lam_takes_the_direct_pass(self):
        # c h = 1.7e-312 at n = 32 is subnormal, so lam = d/(c h) is not 1/8 of
        # lam at n = 256 (7.4131228688321e150 against 7.4131228688541e150 / 8):
        # the squared distances of the two meshes do not scale by r^2
        a, c, d, x_s = 1.0362478958073752e-213, 5.146429810790725e-98, 1.544297430468232e-162, \
            -1.5228552401734477e-214
        finer = _mesh_pass(GEval.analytic(np.exp), a, c, d, x_s, 256)
        got = _mesh_pass(GEval.analytic(np.exp), a, c, d, x_s, 32, finer)
        assert finer.lam != 8 * got.lam
        assert not np.shares_memory(got.gvals, finer.gvals)
        assert pass_bits(got) == pass_bits(_mesh_pass(GEval.analytic(np.exp), a, c, d, x_s, 32))

    @pytest.mark.parametrize("n, x_s, message", [
        (8, 0.1, "n must be at least 16"),
        (16, 0.4, "x_s too close to an endpoint"),
    ])
    def test_entry_checks_of_the_coarser_mesh(self, n, x_s, message):
        g = GEval.analytic(np.exp)
        finer = _mesh_pass(g, 1.0, 1.0, 1e-3, x_s, 256)
        with pytest.raises(ValueError, match=message):
            _mesh_pass(g, 1.0, 1.0, 1e-3, x_s, n, finer)


class TestNestingFamily:
    """`Mesh._family` is the one statement of which meshes nest: the GEval
    shares samples, and the mesh pass a kernel, exactly within a family."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(a=st.sampled_from([1.0, 3.7, 1e-305]), odd=st.integers(0, 31).map(lambda i: 2 * i + 1),
           k=st.integers(4, 8), r=st.sampled_from([2, 3, 4, 8]),
           frac=st.sampled_from([0.0, 0.1, -0.23]), delta=st.sampled_from([1e-3, 0.05]))
    def test_family_is_where_samples_and_kernels_are_shared(self, a, odd, k, r, frac, delta):
        # at a = 1e-305, h = a/n is subnormal from n = 450 on, so a pair of
        # meshes may have one normal and one subnormal h, or both subnormal
        n = odd * 2 ** k
        x_s, c, d = frac * a, 1.0, delta * a
        calls = []
        g = GEval.analytic(lambda z: (calls.append(np.shape(z)), np.exp(z))[1])
        finer = _mesh_pass(g, a, c, d, x_s, r * n)
        calls.clear()
        g.mesh_samples(Mesh(a, n))
        served = calls == []   # the second mesh of the pair, with no g call
        mesh = Mesh(a, n)
        j, s = puncture_split(x_s, mesh.h)
        strided = finer.stride_to(mesh, j + s, d / (c * mesh.h)) == r
        same = mesh._family == Mesh(a, r * n)._family
        assert served is same and strided is same, (n, r, mesh._family, Mesh(a, r * n)._family)

    @pytest.mark.parametrize("a", [1.0, 3.7, 1e-305])
    def test_mesh_keeps_its_step_and_family(self, a):
        # h and the family are formed once, when the mesh is built: h is a/n bit
        # for bit, the family (a, the odd part of n), or (a, n) where h is
        # subnormal (at a = 1e-305 from n = 450 on); neither is a field
        assert [f.name for f in dataclasses.fields(Mesh)] == ["a", "n"]
        subnormal = 0
        for odd in range(1, 64, 2):
            for k in range(4, 11):
                n = odd * 2 ** k
                mesh = Mesh(a, n)
                assert mesh.h.hex() == (a / n).hex()
                odd_part = n if a / n < sys.float_info.min else odd
                assert mesh._family == (a, odd_part), (a, n)
                subnormal += odd_part == n
        assert (subnormal > 0) is (a == 1e-305)

    def test_doubling_study_forms_one_kernel_directly(self, monkeypatch):
        # 16:256:*2 is one family: the finest mesh samples g and forms the
        # kernel, the 4 coarser ones read its pass at stride r
        meshes = []
        mesh_samples = GEval.mesh_samples

        def counted(g, mesh):
            meshes.append(mesh.n)
            return mesh_samples(g, mesh)

        monkeypatch.setattr(GEval, "mesh_samples", counted)
        values = _study_values(g_scaled_exp(0.01), 1.0, 1.0, 0.01, 0.1,
                               [16, 32, 64, 128, 256], sorted(_STUDY_ROWS))
        assert meshes == [256]
        assert list(values) == [256, 128, 64, 32, 16]


class TestOutputRecords:
    """A result's records are per-call outputs; the inputs it is built from
    are shared (a KernelParams, the cached Mesh) and stay frozen."""

    def test_each_call_builds_its_own_records(self):
        params = KernelParams(a=1.0, d=0.01, x_s=0.1)
        g = g_scaled_exp(0.01)
        for method in ("closed-form", "fd-series"):
            a = integrate_near_singular(g, params, 64, method)
            b = integrate_near_singular(g, params, 64, method)
            assert a == b
            assert a.breakdown is not b.breakdown and a.mesh is not b.mesh

    def test_records_convert_to_dicts(self):
        res = integrate_near_singular(g_scaled_exp(0.01), KernelParams(a=1.0, d=0.01), 64)
        record = dataclasses.asdict(res)
        assert record["breakdown"]["total"] == res.breakdown.total
        assert record["mesh"] == {"a": 1.0, "n": 64, "h": 1.0 / 64, "puncture": 0, "s": 0.0}
        (row,) = run_converge(StudyConfig(d_list=[0.01], n_list=[64],
                                          methods=("corrected-closed",)))
        assert dataclasses.asdict(row) == {
            "n": 64, "h": 1.0 / 64, "d": 0.01, "c": 1.0, "xs": 0.0,
            "method": "corrected-closed", "value": row.value,
            "reference": row.reference, "abs_err": row.abs_err}

    def test_shared_inputs_stay_frozen(self):
        params = KernelParams(a=1.0, d=0.01)
        with pytest.raises(dataclasses.FrozenInstanceError):
            params.d = 0.1
        mesh = Mesh(1.0, 64)
        with pytest.raises(dataclasses.FrozenInstanceError):
            mesh.n = 128


class TestKernelParams:
    @pytest.mark.parametrize("field, kwargs", [
        ("d", dict(a=1.0, d=5e-324)),            # pi/(c d) overflows
        ("d", dict(a=1.0, c=1e-200, d=1e-200)),  # c d underflows to 0
        ("d", dict(a=1.0, d=math.nan)),
        ("c", dict(a=1.0, c=math.inf, d=0.1)),
        ("a", dict(a=math.inf, d=0.1)),
        ("x_s", dict(a=1.0, d=0.1, x_s=math.nan)),
        ("c", dict(a=1.0, c=1e200, d=1e-200)),   # c^2 overflows
        ("c", dict(a=1.0, c=1e160, d=1e-140)),
        ("d", dict(a=1.0, d=1e160)),             # d^2 overflows
        ("c", dict(a=1.0, c=1e-170, d=1e-100)),  # c^2 underflows to 0
        ("c", dict(a=1.0, c=1e-170)),
        ("c", dict(a=1.0, c=1e-155)),            # 1/c^2 overflows
    ])
    def test_rejects_nonfinite_and_overflow(self, field, kwargs):
        with pytest.raises(ValueError, match=rf"^{field} "):
            KernelParams(**kwargs)


def _float_fields(result) -> list:
    """Every float field of a QuadResult, its records' included."""
    return [result.value, result.uncorrected, result.mesh.a, result.mesh.h, result.mesh.s,
            *(getattr(result.breakdown, name) for name in ("singular_part", "jump_part", "total"))]


class TestScalarTypes:
    """The entry converts a kernel's parameters to Python floats: a float32,
    np.float64 or int parameter gives, bit for bit, the result of its float(),
    and every float of a result is a Python float."""

    CONVERTERS = (np.float32, np.float64, int)

    @pytest.mark.parametrize("convert", CONVERTERS)
    @pytest.mark.parametrize("field", ["a", "c", "d", "x_s"])
    @pytest.mark.parametrize("method", ["closed-form", "fd-series"])
    def test_near_singular_matches_float(self, convert, field, method):
        base = dict(a=1.0, c=2.0, d=1e-3, x_s=0.1)
        if convert is int:
            base = dict(a=1.0, c=2.0, d=1.0, x_s=0.0)
        raw = {**base, field: convert(base[field])}
        params = KernelParams(**raw)
        assert all(type(getattr(params, name)) is float for name in base)
        assert params == KernelParams(**{k: float(v) for k, v in raw.items()})
        g = GEval.analytic(np.exp)
        got = integrate_near_singular(g, params, 64, method)
        want = integrate_near_singular(GEval.analytic(np.exp),
                                       KernelParams(**{k: float(v) for k, v in raw.items()}),
                                       64, method)
        assert all(type(v) is float for v in _float_fields(got))
        assert [v.hex() for v in _float_fields(got)] == [v.hex() for v in _float_fields(want)]
        assert (got.method, got.warnings) == (want.method, want.warnings)

    @pytest.mark.parametrize("convert", CONVERTERS)
    def test_finite_part_matches_float(self, convert):
        for a, x_s in ((1.0, 0.1), (2.0, 0.0)):
            for analytic in (True, False):
                g = GEval.analytic(np.exp) if analytic else GEval(real_eval=math.exp)
                for raw in ((convert(a), x_s), (a, convert(x_s))):
                    got = integrate_finite_part(g, *raw, 128)
                    want = integrate_finite_part(g, *map(float, raw), 128)
                    assert all(type(v) is float for v in _float_fields(got))
                    assert [v.hex() for v in _float_fields(got)] == \
                        [v.hex() for v in _float_fields(want)]

    def test_numpy_integer_n(self):
        # a numpy integer n is stored as an int: h, the result's floats and
        # its n are Python numbers, bit for bit those of the int n
        params = KernelParams(a=1.0, d=1e-3, x_s=0.1)
        for n in (np.int64(64), np.int32(64)):
            got = integrate_near_singular(GEval.analytic(np.exp), params, n)
            want = integrate_near_singular(GEval.analytic(np.exp), params, 64)
            assert type(got.mesh.n) is int and got == want
            assert [v.hex() for v in _float_fields(got)] == [v.hex() for v in _float_fields(want)]
            assert all(type(v) is float for v in _float_fields(got))
        mesh = Mesh(np.float32(0.5), np.int64(64))
        assert (type(mesh.a), type(mesh.n), type(mesh.h)) == (float, int, float)

    def test_float32_parameters_meet_the_oracle(self):
        # before the conversion, float32 arithmetic entered the core: the
        # result was ~1e-8 relative off the exact value at the float32 d
        d = np.float32(1e-3)
        params = KernelParams(1, 1, d, 0.1)
        ref = exact_test2(float(d), 1.0, 0.1) / float(d)
        got = integrate_near_singular(GEval.analytic(np.exp), params, 64).value
        assert abs(got - ref) <= 1e-14 * abs(ref)
        x_s = np.float32(0.1)
        got = integrate_finite_part(GEval.analytic(np.exp), 1, x_s, 64).value
        ref = finite_part_reference(GEval.analytic(np.exp), 1.0, float(x_s))
        assert abs(got - ref) <= 1e-11 * max(abs(ref), 1.0)


class TestExtremeScales:
    # scales KernelParams accepts whose c h, c^2 h or result leaves the float
    # range raise a precise ValueError, not ZeroDivisionError or a silent NaN
    @pytest.mark.parametrize("method", ["closed-form", "fd-series"])
    @pytest.mark.parametrize("a, c, d, match", [
        (1e-300, 1e-154, 1.0, r"c h underflows to 0"),
        (1e-300, 1e-154, 0.0, r"c h underflows to 0"),
        (1e-300, 1e-20, 0.0, r"c\^2 h underflows to 0"),
        (1e-275, 1e-20, 0.0, r"result is not finite"),   # inf + (-inf)
    ], ids=("c-h-d-positive", "c-h-d-zero", "c2-h", "inf-minus-inf"))
    def test_underflow_and_overflow_raise(self, a, c, d, match, method):
        params = KernelParams(a=a, c=c, d=d, x_s=0.1 * a)
        with pytest.raises(ValueError, match=match):
            integrate_near_singular(GEval.analytic(np.exp), params, 64, method)

    def test_overflowing_lam_square_raises_before_sampling(self):
        # lam = 6.4e161 at c = 1e-100, d = 1e60: the pass would divide g by inf
        calls = []
        g = GEval.analytic(lambda z: (calls.append(np.shape(z)), np.exp(z))[1])
        with pytest.raises(ValueError, match=r"^lam = d/\(c h\) = 6\.400e\+161 is out of "
                                             r"range: lam\^2 overflows \(d = 1e\+60, "
                                             r"c = 1e-100, h = 0\.015625\)$"):
            _mesh_pass(g, 1.0, 1e-100, 1e60, 0.0, 64)
        assert calls == []


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

    def test_real_only_g_has_no_gap(self):
        assert GEval(real_eval=math.exp).consistency_gap(0.1, 2.0) == 0.0

    def test_warns_on_a_small_disagreement(self):
        g = GEval(real_eval=math.exp, complex_eval=lambda z: cmath.exp(z) * (1.0 + 1e-10))
        for x_s in (0.1, 0.0):
            res = integrate_near_singular(g, KernelParams(a=1.0, c=1.0, d=1e-3, x_s=x_s), 64)
            assert any("complex_eval disagrees" in w for w in res.warnings), x_s


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
