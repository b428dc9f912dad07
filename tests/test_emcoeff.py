import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nsquad.emcoeff import (
    CoeffParams,
    coeff_table,
    conditioning_warnings,
    fk_series_oracle,
    pks_closed,
    pks_seeds,
    pks_table,
    zks_table,
)
from nsquad.specfun import digamma, digamma_complex, trigamma

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

    def test_param_validation(self):
        with pytest.raises(ValueError):
            CoeffParams(lam=-1.0)
        with pytest.raises(ValueError):
            CoeffParams(lam=1.0, s=0.7)
        with pytest.raises(ValueError):
            CoeffParams(lam=1.0, h=0.0)
        with pytest.raises(ValueError):
            CoeffParams(lam=1.0, k_max=40)
