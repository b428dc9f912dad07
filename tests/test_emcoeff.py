import bisect
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nsquad.emcoeff import (
    _SERIES_LIMITS,
    W_STAR,
    _horner_table,
    _series_seeds,
    pi_cot,
    pks_seeds,
    pole_factor,
)
from nsquad.verify import (
    K_MAX_LIMIT,
    CoeffParams,
    coeff_table,
    conditioning_warnings,
    digamma,
    digamma_complex,
    digamma_seeds,
    fk_series_oracle,
    pks_closed,
    pks_table,
    trigamma,
    zks_table,
)

ZETA2 = math.pi ** 2 / 6


def series_ok(lam: float, s: float) -> bool:
    # the rational zeta series converges for |lam| < 1 + s only
    return lam < 0.95 * (1.0 + s)


class TestZk:
    def test_lambda_zero_limit_is_zeta2(self):
        assert zks_table(CoeffParams(lam=0.0, h=0.01, k_max=0))[0] == ZETA2
        near = zks_table(CoeffParams(lam=1e-6, h=0.01, k_max=0))[0]
        assert near == pytest.approx(ZETA2, abs=1e-11)

    def test_recurrence_step(self):
        for lam in (0.3, 0.9, 4.0):
            z = zks_table(CoeffParams(lam=lam, h=0.02, k_max=2))
            assert z[2] + lam * lam * z[0] == pytest.approx(-0.5, rel=1e-14)

    def test_matches_series_oracle(self):
        lam, h = 0.5, 0.01
        z = zks_table(CoeffParams(lam=lam, h=h, k_max=10))
        for k in range(11):
            ref = fk_series_oracle(k, 1j * lam, h).real
            assert z[k] == pytest.approx(ref, rel=1e-12)


class TestZks:
    def test_matches_shifted_series(self):
        lam, s, h = 0.3, 0.25, 0.01
        z = zks_table(CoeffParams(lam=lam, s=s, h=h, k_max=10))
        for k in range(11):
            ref = fk_series_oracle(k, 1j * lam, h, s=s).real
            assert z[k] == pytest.approx(ref, rel=1e-12)

    def test_recurrence_step_hurwitz(self):
        lam, s = 0.6, 0.2
        z = zks_table(CoeffParams(lam=lam, s=s, h=0.01, k_max=2))
        # zeta(0, 1+s) = -1/2 - s
        assert z[2] + lam * lam * z[0] == pytest.approx(-0.5 - s, rel=1e-13)


class TestPks:
    def test_s_to_zero_limit(self):
        s = 1e-7
        p = pks_table(CoeffParams(lam=0.4, s=s, h=0.01, k_max=8))
        z = zks_table(CoeffParams(lam=0.4, s=0.0, h=0.01, k_max=8))
        signs = (-1.0) ** np.arange(9)
        np.testing.assert_allclose(p, (1.0 + signs) * z, atol=5e-6)

    def test_closed_form_vs_recurrence(self):
        for lam in (0.1, 0.5, 0.7, 0.9, 2.0):
            for s in (-0.45, -0.2, 0.0, 0.2, 0.3, 0.45):
                params = CoeffParams(lam=lam, s=s, h=0.01, k_max=12)
                rec = pks_table(params)
                clo = pks_closed(params)
                np.testing.assert_allclose(clo, rec, rtol=1e-12, atol=1e-12)

    def test_lambda_zero_half_shift(self):
        p = pks_table(CoeffParams(lam=0.0, s=0.5, h=0.01, k_max=2))
        assert p[0] == pytest.approx(math.pi ** 2 - 4.0, rel=4e-15)
        assert p[1] == pytest.approx(2.0, rel=4e-15)

    def test_lambda_zero_seeds_match_polygamma(self):
        for s in (0.1, 0.3, 0.45):
            p0, p1 = pks_seeds(0.0, s)
            assert p0 == pytest.approx(trigamma(1 - s) + trigamma(1 + s), rel=1e-14)
            assert p1 == pytest.approx(digamma(1 + s) - digamma(1 - s), rel=1e-14)

    def test_symmetry_identity(self):
        # p_{k,s} = z_{k,-s} + (-1)^k z_{k,s}, entrywise
        for lam in (0.1, 0.5, 0.9, 2.0):
            for s in (-0.45, -0.2, 0.2, 0.45):
                t = coeff_table(CoeffParams(lam=lam, s=s, h=0.01, k_max=12))
                signs = (-1.0) ** np.arange(13)
                combo = t.zk_minus_s + signs * t.zks
                scale = np.maximum(1.0, np.abs(t.pks))
                assert np.max(np.abs(t.pks - combo) / scale) <= 1e-12

    @settings(max_examples=80, deadline=None)
    @given(st.floats(0.0, 3.0), st.floats(-0.5, 0.5))
    def test_symmetry_identity_random(self, lam, s):
        # the z's grow like lam^(k-1) while odd-k p's stay small, so the
        # achievable residual scales with the addends, not with p itself
        t = coeff_table(CoeffParams(lam=lam, s=s, h=0.02, k_max=12))
        signs = (-1.0) ** np.arange(13)
        combo = t.zk_minus_s + signs * t.zks
        scale = np.maximum(1.0, np.abs(t.zks) + np.abs(t.zk_minus_s))
        assert np.max(np.abs(t.pks - combo) / scale) <= 1e-13

    def test_p1_independent_of_h(self):
        # direct recurrence: no h anywhere in p_1
        a = pks_table(CoeffParams(lam=0.6, s=0.2, h=0.01, k_max=1))[1]
        b = pks_table(CoeffParams(lam=0.6, s=0.2, h=0.02, k_max=1))[1]
        assert a == b
        # z-route: the log h terms of z_{1,+/-s} cancel
        def p1_via_z(h):
            zp = zks_table(CoeffParams(lam=0.6, s=0.2, h=h, k_max=1))[1]
            zm = zks_table(CoeffParams(lam=0.6, s=-0.2, h=h, k_max=1))[1]
            return zm - zp
        assert abs(p1_via_z(0.01) - p1_via_z(0.02)) <= 1e-13


def digamma_formula(lam: float, s: float) -> tuple[tuple[float, float], float]:
    """The seeds from digamma at 1 -/+ s - i lam, and the size of the digamma
    real parts that p_1 is the difference of."""
    if lam == 0.0:
        psi_m, psi_p = digamma(1.0 - s), digamma(1.0 + s)
        return (trigamma(1.0 - s) + trigamma(1.0 + s), psi_p - psi_m), abs(psi_m) + abs(psi_p)
    psi_m = digamma_complex(complex(1.0 - s, -lam))
    psi_p = digamma_complex(complex(1.0 + s, -lam))
    seeds = (-(psi_m.imag + psi_p.imag) / lam, psi_p.real - psi_m.real)
    return seeds, abs(psi_m.real) + abs(psi_p.real)


class TestElementarySeeds:
    # |w| = |s + i lam| on both sides of W_STAR, where the seeds switch from
    # the zeta series to pi cot(pi w) - 1/w, and lam = 0 on both sides
    LAMS = (0.0, 1e-9, 1e-3, 0.1, 0.2, 0.25, 0.29, 0.31, 0.5, 1.0, 2.0)
    OFFSETS = (0.2, 0.29, 0.31, 0.45, 0.5)

    def test_both_sides_of_w_star_are_covered(self):
        radii = [math.hypot(s, lam) for lam in self.LAMS for s in self.OFFSETS]
        assert min(radii) < W_STAR < max(radii)
        assert any(abs(r - W_STAR) < 0.02 and r < W_STAR for r in radii)
        assert any(abs(r - W_STAR) < 0.02 and r > W_STAR for r in radii)

    def test_match_digamma_formula(self):
        for lam in self.LAMS:
            for s in self.OFFSETS + tuple(-x for x in self.OFFSETS):
                got = pks_seeds(lam, s)
                want, _ = digamma_formula(lam, s)
                for k in (0, 1):
                    assert got[k] == pytest.approx(want[k], rel=1e-14), (lam, s, k)

    def test_small_offsets_match_digamma_formula(self):
        # p_1 is odd in s: the digamma formula takes it as a difference of two
        # O(1) values, so it is checked against their size
        for lam in self.LAMS:
            for s in (0.0, 1e-3, -1e-3, 0.05, -0.1):
                got = pks_seeds(lam, s)
                want, scale = digamma_formula(lam, s)
                assert got[0] == pytest.approx(want[0], rel=1e-14), (lam, s)
                assert abs(got[1] - want[1]) <= 1e-14 * max(abs(want[1]), scale), (lam, s)

    def test_lambda_zero_limits(self):
        # pi^2/sin^2(pi s) - 1/s^2 and -pi cot(pi s) + 1/s, on both sides of W_STAR
        for s in (0.1, 0.29, 0.31, 0.5):
            p0, p1 = pks_seeds(0.0, s)
            assert p0 == pytest.approx(math.pi ** 2 / math.sin(math.pi * s) ** 2 - 1.0 / s ** 2,
                                       rel=1e-13)
            assert p1 == pytest.approx(1.0 / s - math.pi / math.tan(math.pi * s), rel=1e-13)
        p0, p1 = pks_seeds(0.0, 0.0)
        assert p0 == pytest.approx(2.0 * ZETA2, rel=1e-15) and p1 == 0.0

    def test_continuous_across_w_star(self):
        # the two sides differ by a few ulp of the radius: any step is the
        # difference of the two methods
        for theta in (0.0, 0.4, 1.0, math.pi / 2):
            r_in, r_out = W_STAR * (1.0 - 1e-15), W_STAR * (1.0 + 1e-15)
            inside = pks_seeds(r_in * math.sin(theta), r_in * math.cos(theta))
            outside = pks_seeds(r_out * math.sin(theta), r_out * math.cos(theta))
            for k in (0, 1):
                assert inside[k] == pytest.approx(outside[k], rel=1e-14, abs=1e-14), (theta, k)

    def test_offset_validation(self):
        for s in (0.51, -0.7, math.nan):
            with pytest.raises(ValueError, match="s must lie"):
                pks_seeds(0.5, s)


class TestSeriesSeeds:
    """The seeds' series below W_STAR: one real Horner pass for every lam >= 0."""

    @staticmethod
    def derivative_pass(s: float) -> tuple[float, float]:
        """The lam = 0 seeds as a Horner pass for P(u) and P'(u) at u = s^2."""
        u = s * s
        acc = dacc = 0.0
        for coeff in _horner_table()[-(bisect.bisect_left(_SERIES_LIMITS, u) + 1):]:
            dacc = dacc * u + acc
            acc = acc * u + coeff
        return acc + 2.0 * u * dacc, s * acc

    @staticmethod
    def disk(rng, count: int):
        """(lam, s) uniform on the half disk |s + i lam| < W_STAR, lam >= 0."""
        r = W_STAR * np.sqrt(rng.uniform(size=count))
        theta = rng.uniform(0.0, math.pi, size=count)
        return zip((r * np.sin(theta)).tolist(), (r * np.cos(theta)).tolist())

    def test_lambda_zero_is_the_derivative_pass(self):
        # at lam = 0 the pass makes the derivative pass's operations in its order
        for s in np.random.default_rng(8).uniform(-W_STAR, W_STAR, 1000).tolist():
            assert _series_seeds(0.0, s) == self.derivative_pass(s), s

    def test_continuous_where_lam_squared_underflows(self):
        # lam^2 is normal at 1e-150, subnormal at 1e-160 and 0 at 1e-170
        for s in (1e-3, -0.07, 0.15, 0.299):
            for k, (a, b, c) in enumerate(zip(*(_series_seeds(lam, s)
                                                 for lam in (1e-150, 1e-160, 1e-170)))):
                assert abs(a - b) <= math.ulp(b) and b == c, (s, k)

    def test_match_digamma_seeds(self):
        # p_1 is a difference of two digamma real parts, each about 0.5: it is
        # checked against their size, which carries digamma_seeds' own rounding
        for lam, s in self.disk(np.random.default_rng(9), 2000):
            got, want = _series_seeds(lam, s), digamma_seeds(lam, s)
            scale = sum(abs(digamma_complex(complex(1.0 + x, -lam)).real) for x in (s, -s))
            assert abs(got[0] - want[0]) <= 1e-15 * abs(want[0]), (lam, s)
            assert abs(got[1] - want[1]) <= 4e-15 * scale, (lam, s)

    def test_match_mpmath(self):
        # -Im R(w)/lam and -Re R(w), R(w) = pi cot(pi w) - 1/w, at 40 digits
        with mp.workdps(40):
            for lam, s in self.disk(np.random.default_rng(10), 300):
                w = mp.mpc(s, lam)
                r = mp.pi * mp.cot(mp.pi * w) - 1 / w
                p0, p1 = _series_seeds(lam, s)
                assert abs(p0 + r.imag / lam) <= 1e-15 * abs(p0), (lam, s)
                assert abs(p1 + r.real) <= 1e-15 * abs(p1), (lam, s)


class TestPoleTerms:
    """pi_cot and pole_factor against 40-digit mpmath, on the float inputs."""

    EPS = np.finfo(float).eps

    def test_pi_cot(self):
        # lam = 0 and log-uniform lam in [1e-12, 1e3], |w| >= W_STAR as pks_seeds uses it
        rng = np.random.default_rng(17)
        lams = [0.0] * 20 + (10.0 ** rng.uniform(-12.0, 3.0, 400)).tolist()
        for lam in lams:
            s = float(rng.uniform(-0.5, 0.5))
            while s * s + lam * lam < W_STAR * W_STAR:
                s = float(rng.uniform(-0.5, 0.5))
            re_cot, im_cot_lam = pi_cot(lam, s)
            with mp.workdps(40):
                cot = mp.pi * mp.cot(mp.pi * mp.mpc(s, lam))
                want_im = -(mp.pi / mp.sin(mp.pi * s)) ** 2 if lam == 0.0 else cot.imag / lam
                scale = max(float(abs(cot)), 1.0)
                re_err = float(abs(re_cot - cot.real)) / scale
                im_err = float(abs(im_cot_lam - want_im) / abs(want_im))
            assert re_err <= 8 * self.EPS and im_err <= 8 * self.EPS, (lam, s)

    def test_pole_factor(self):
        rng = np.random.default_rng(19)
        for lam, s in zip(rng.uniform(1.0, 7.0, 400).tolist(),
                          rng.uniform(-0.5, 0.5, 400).tolist()):
            got = pole_factor(lam, s)
            with mp.workdps(40):
                q = mp.exp(2j * mp.pi * mp.mpc(s, lam))
                want = q / (1 - q)
                err = float(abs(got - want) / abs(want))
            # about 2 pi lam eps of it is the rounding of 2 pi lam in r = |q|
            assert err <= 1e-14, (lam, s)

    def test_pks_closed_where_sinh_overflows(self):
        lam = 200.0
        with pytest.raises(OverflowError):
            math.sinh(2.0 * math.pi * lam)
        for s in (0.2, 0.0, -0.5):
            params = CoeffParams(lam=lam, s=s, k_max=3)
            closed = pks_closed(params)
            assert np.all(np.isfinite(closed))
            # the table's p_1 is a difference of digamma values of size log lam,
            # and p_3 carries lam^2 times its error
            np.testing.assert_allclose(closed, pks_table(params), rtol=1e-13,
                                       atol=1e-14 * lam * lam)


class TestSeriesOracle:
    def test_f0_digamma_identity(self):
        got = fk_series_oracle(0, 0.4, 1.0)
        want = (digamma_complex(1.4 + 0j) - digamma_complex(0.6 + 0j)) / 0.8
        assert abs(got - want) <= 1e-13 * abs(want)

    def test_two_step_recurrence(self):
        z = 0.35
        f0 = fk_series_oracle(0, z, 1.0)
        f2 = fk_series_oracle(2, z, 1.0)
        assert (f2 - z * z * f0).real == pytest.approx(-0.5, abs=1e-13)

    def test_f1s_digamma_identity(self):
        got = fk_series_oracle(1, 0.3, 0.01, s=0.2)
        want = -(digamma(1.5) + digamma(0.9)) / 2.0 - math.log(0.01)
        assert abs(got - want) <= 1e-13 * abs(want)

    def test_divergence_region_rejected(self):
        with pytest.raises(ValueError):
            fk_series_oracle(0, 1.0 + 0j, 1.0)
        with pytest.raises(ValueError):
            fk_series_oracle(0, 0.6j, 1.0, s=-0.45)

    def test_recurrences_vs_series_grid(self):
        # analytic continuation: the recurrences extend past the series
        # radius, so comparisons run only where the series converges
        for lam in (0.1, 0.5, 0.9):
            for s in (0.0, -0.2, 0.2, -0.45, 0.45):
                if not series_ok(lam, s):
                    continue
                params = CoeffParams(lam=lam, s=s, h=0.02, k_max=10)
                z = zks_table(params)
                p = pks_table(params)
                for k in range(11):
                    ref = fk_series_oracle(k, 1j * lam, 0.02, s=s).real
                    assert z[k] == pytest.approx(ref, rel=1e-12, abs=1e-13)
                if series_ok(lam, -s):
                    combo = np.array(
                        [fk_series_oracle(k, 1j * lam, 0.02, s=-s).real
                         + (-1) ** k * fk_series_oracle(k, 1j * lam, 0.02, s=s).real
                         for k in range(11)])
                    np.testing.assert_allclose(p, combo, rtol=1e-12, atol=1e-12)


class TestDiagnostics:
    def test_tables_are_real_floats(self):
        t = coeff_table(CoeffParams(lam=0.8, s=0.3, h=0.02, k_max=12))
        for arr in (t.zk, t.zks, t.zk_minus_s, t.pks):
            assert arr.dtype == np.float64
            assert np.all(np.isfinite(arr))

    def test_conditioning_warning_threshold(self):
        msgs = conditioning_warnings(CoeffParams(lam=10.0, s=0.0, h=0.01, k_max=12))
        assert len(msgs) == 1 and "k >= 6" in msgs[0]
        assert conditioning_warnings(CoeffParams(lam=0.9, s=0.0, h=0.01, k_max=12)) == ()

    def test_table_is_finite_or_rejected_when_built(self):
        # lam = 10^0 .. 10^300: where the entries, about lam^(2 floor(k_max/2)),
        # would overflow, CoeffParams says so; elsewhere every array is finite
        # and numpy warns of nothing
        built = 0
        for h in (1.0, 1e-300):
            for j in range(301):
                for k_max in range(K_MAX_LIMIT + 1):
                    try:
                        params = CoeffParams(lam=10.0 ** j, s=0.2, h=h, k_max=k_max)
                    except ValueError as exc:
                        assert str(exc).startswith(f"lam = {10.0 ** j!r} is too large for "
                                                   f"k_max = {k_max}: "), exc
                        continue
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        t = coeff_table(params)
                    for arr in (t.zk, t.zks, t.zk_minus_s, t.pks, t.sym_resid,
                                t.closedform_resid):
                        assert np.all(np.isfinite(arr)), (j, k_max, h)
                    built += 1
        # 3294 points are every point of the grid whose table stays finite
        # without the check, so it rejects none that would not overflow;
        # lam^(2m) up to 1e308 is kept: lam = 1e154 at k_max 2, 1e25 at 12
        assert built == 3294
        for lam, k_max in ((1e154, 2), (1e25, 12), (1e150, 3)):
            for h in (0.01, 1e-300):
                assert np.all(np.isfinite(coeff_table(CoeffParams(lam, 0.2, h, k_max)).zks))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            CoeffParams(lam=-1.0)
        with pytest.raises(ValueError):
            CoeffParams(lam=1.0, s=0.7)
        with pytest.raises(ValueError):
            CoeffParams(lam=1.0, h=0.0)
        with pytest.raises(ValueError):
            CoeffParams(lam=1.0, k_max=40)

    @pytest.mark.parametrize("field, kwargs", [
        ("lam", dict(lam=math.nan)),
        ("lam", dict(lam=math.inf)),
        ("s", dict(lam=1.0, s=math.nan)),
        ("s", dict(lam=1.0, s=math.inf)),
        ("h", dict(lam=1.0, h=math.inf)),
        ("h", dict(lam=1.0, h=math.nan)),
    ])
    def test_param_validation_nonfinite(self, field, kwargs):
        with pytest.raises(ValueError, match=rf"^{field} must "):
            CoeffParams(**kwargs)
