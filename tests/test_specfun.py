import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nsquad.oracle import EULER_GAMMA
from nsquad import bernoulli_number
from nsquad.specfun import _bernoulli_fractions
from nsquad.verify import (
    bernoulli_poly,
    digamma,
    digamma_complex,
    hurwitz_zeta_nonpos,
    trigamma,
)

# frozen 40-digit values (mpmath: digamma(1 - 0.5j), polygamma(1, 1.3))
PSI_1_MINUS_HALF_I = complex(-0.3288863572294593503, -0.7126885749596477556)
TRIGAMMA_1_3 = 1.1342534349966193544


class TestBernoulliNumbers:
    def test_classical_values(self):
        assert bernoulli_number(0) == 1.0
        assert bernoulli_number(1) == -0.5
        assert bernoulli_number(2) == pytest.approx(1.0 / 6.0, rel=0, abs=0)
        assert bernoulli_number(3) == 0.0

    def test_odd_vanish(self):
        for n in range(3, 64, 2):
            assert bernoulli_number(n) == 0.0

    def test_range_errors(self):
        with pytest.raises(ValueError):
            bernoulli_number(65)
        with pytest.raises(ValueError):
            bernoulli_number(-1)

    def test_akiyama_tanigawa_oracle(self):
        # independent exact-rational route (different recurrence entirely)
        from fractions import Fraction
        nmax = 64
        a = [Fraction(0)] * (nmax + 1)
        at = []
        for m in range(nmax + 1):
            a[m] = Fraction(1, m + 1)
            for j in range(m, 0, -1):
                a[j - 1] = j * (a[j - 1] - a[j])
            at.append(a[0])  # B_m with the B_1 = +1/2 convention
        at[1] = -at[1]
        assert _bernoulli_fractions() == tuple(at)
        for n in range(nmax + 1):
            assert bernoulli_number(n) == float(at[n])

    def test_against_scipy(self):
        # scipy computes these numerically; only ~1e-11 agreement is expected
        scipy_special = pytest.importorskip("scipy.special")
        ours = [bernoulli_number(n) for n in range(21)]
        ref = scipy_special.bernoulli(20)
        np.testing.assert_allclose(ours, ref, rtol=5e-11)


class TestBernoulliPolynomials:
    def test_b1(self):
        assert bernoulli_poly(1, 0.25) == -0.25

    def test_brute_force_binomial_sum(self):
        # independent oracle: binomial sum over exact hand-listed B_0..B_8
        from fractions import Fraction
        bern = [Fraction(1), Fraction(-1, 2), Fraction(1, 6), Fraction(0),
                Fraction(-1, 30), Fraction(0), Fraction(1, 42), Fraction(0),
                Fraction(-1, 30)]
        for n, x in [(5, 0.7), (3, -0.4), (8, 1.9)]:
            expected = float(sum(math.comb(n, k) * bern[k] * Fraction(x) ** (n - k)
                                 for k in range(n + 1)))
            assert bernoulli_poly(n, x) == pytest.approx(expected, rel=1e-15)

    def test_reflection(self):
        # B_n(1 - x) = (-1)^n B_n(x)
        for n in range(17):
            for x in (0.0, 0.2, 0.5, 0.77, 1.3, -0.6):
                lhs = bernoulli_poly(n, 1.0 - x)
                rhs = (-1.0) ** n * bernoulli_poly(n, x)
                assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-15)

    def test_translation(self):
        # B_n(1 + x) = B_n(x) + n x^(n-1)
        for n in range(1, 12):
            for x in (0.3, 0.9, -0.25):
                lhs = bernoulli_poly(n, 1.0 + x)
                rhs = bernoulli_poly(n, x) + n * x ** (n - 1)
                assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-14)

    def test_degree_limit(self):
        with pytest.raises(ValueError):
            bernoulli_poly(33, 0.5)


class TestDigamma:
    def test_at_one(self):
        assert digamma_complex(1.0 + 0.0j).real == pytest.approx(-EULER_GAMMA, rel=1e-15)
        assert digamma_complex(1.0 + 0.0j).imag == 0.0

    def test_at_two(self):
        assert digamma_complex(2.0 + 0.0j).real == pytest.approx(1.0 - EULER_GAMMA, rel=1e-15)

    def test_frozen_complex_value(self):
        got = digamma_complex(1.0 - 0.5j)
        assert abs(got - PSI_1_MINUS_HALF_I) <= 8 * np.finfo(float).eps * abs(PSI_1_MINUS_HALF_I)

    def test_poles_raise(self):
        for z in (0.0, -1.0, -7.0):
            with pytest.raises(ValueError):
                digamma_complex(complex(z, 0.0))

    @settings(max_examples=150, deadline=None)
    @given(st.floats(0.25, 2.0), st.floats(1e-6, 1e6))
    def test_conjugate_symmetry(self, re, im):
        z = complex(re, im)
        a = digamma_complex(z.conjugate())
        b = digamma_complex(z).conjugate()
        assert abs(a - b) <= 4 * np.finfo(float).eps * abs(b)

    def test_recurrence_grid(self):
        # psi(z+1) - psi(z) = 1/z over the domain the coefficients need
        for re in (0.25, 0.5, 1.0, 1.5, 2.0):
            for im in (0.0, 1e-4, 0.1, 1.0, 50.0, 1e6):
                z = complex(re, -im)
                resid = digamma_complex(z + 1) - digamma_complex(z) - 1.0 / z
                assert abs(resid) <= 1e-14 * max(1.0, abs(digamma_complex(z)))

    def test_within_four_eps_on_the_seeds_strip(self):
        # the seeds' digamma arguments 1 +/- s - i lam: 3000 seeded points with
        # Re z in [0.5, 1.5] and -Im z log-uniform in [1e-3, 100], against
        # 30-digit values; each part within 4 eps of max(1, |part|)
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(3)
        eps = np.finfo(float).eps
        with mpmath.workdps(30):
            for _ in range(3000):
                z = complex(rng.uniform(0.5, 1.5), -10.0 ** rng.uniform(-3.0, 2.0))
                want = mpmath.digamma(mpmath.mpc(z.real, z.imag))
                got = digamma_complex(z)
                for part, ref in ((got.real, float(want.real)), (got.imag, float(want.imag))):
                    assert abs(part - ref) <= 4.0 * eps * max(1.0, abs(ref)), z

    def test_against_scipy_complex(self):
        scipy_special = pytest.importorskip("scipy.special")
        pts = [complex(re, im) for re in (0.25, 0.75, 1.5, 2.0)
               for im in (-8.0, -0.3, 0.0 if re > 0.2 else 0.1, 0.4, 12.0)]
        for z in pts:
            ref = scipy_special.digamma(z)
            assert abs(digamma_complex(z) - ref) <= 5e-15 * max(1.0, abs(ref))


class TestTrigamma:
    def test_classical(self):
        assert trigamma(1.0) == pytest.approx(math.pi ** 2 / 6, rel=1e-15)
        assert trigamma(0.5) == pytest.approx(math.pi ** 2 / 2, rel=1e-15)

    def test_frozen_value(self):
        assert trigamma(1.3) == pytest.approx(TRIGAMMA_1_3, rel=1e-14)

    def test_direct_sum_oracle(self):
        # direct summation plus integral tail bound as an independent check
        x = 0.7
        n = 20000
        direct = sum(1.0 / (x + k) ** 2 for k in range(n))
        tail = 1.0 / (x + n)  # integral upper bound; error < 1/(x+n)^2
        assert abs(trigamma(x) - (direct + tail)) < 1e-8

    def test_domain(self):
        with pytest.raises(ValueError):
            trigamma(0.0)
        with pytest.raises(ValueError):
            trigamma(-2.5)


class TestZetaValues:
    def test_hurwitz_nonpos_basics(self):
        for a in (0.5, 1.0, 1.25):
            assert hurwitz_zeta_nonpos(0, a) == pytest.approx(0.5 - a, rel=0, abs=1e-16)
        assert hurwitz_zeta_nonpos(1, 1.0) == pytest.approx(-1.0 / 12.0, rel=1e-15)

    def test_reflection_identity(self):
        # zeta(-k, 1+s) + (-1)^k zeta(-k, 1-s) = -s^k
        for s in np.arange(0.05, 0.5, 0.05):
            for k in range(11):
                resid = (hurwitz_zeta_nonpos(k, 1.0 + s)
                         + (-1) ** k * hurwitz_zeta_nonpos(k, 1.0 - s) + s ** k)
                assert abs(resid) <= 1e-12

    def test_digamma_real_wrapper(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, rel=1e-15)
        assert digamma(1.5) - digamma(0.5) == pytest.approx(2.0, rel=1e-14)
