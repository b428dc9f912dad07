import math
from fractions import Fraction

import numpy as np
import pytest

from nsquad.meshrule import (
    GREGORY_ORDERS,
    Mesh,
    end_error_estimate,
    gregory_row,
    gregory_weights,
    plain_trapezoid,
    punctured_trapezoid,
)

E_MINUS_INV_E = math.e - 1.0 / math.e


def monomial_exact(deg: float, a: float = 1.0) -> float:
    return (a ** (deg + 1) - (-a) ** (deg + 1)) / (deg + 1)


def gregory_rule(mesh: Mesh, samples: np.ndarray, order: int) -> float:
    """The Gregory-corrected trapezoid of any order, summed directly."""
    w = gregory_weights(order)
    m = len(w)
    ends = np.dot(w, samples[:m]) + np.dot(w, samples[::-1][:m])
    return mesh.h * (np.sum(samples) - 0.5 * (samples[0] + samples[-1]) + ends)


def exact_gregory_weights(order: int) -> list[Fraction]:
    """Gregory end weights from the Gregory coefficients, not a moment system.

    G_k = (1/k!) int_0^1 x (x - 1) ... (x - k + 1) dx, and the left end adds
    sum_{k=1..order} -G_{k+1} Delta^k f_0 to the trapezoidal sum.
    """
    coeffs = []
    poly = [Fraction(1)]  # x (x - 1) ... (x - k + 1), lowest power first
    for k in range(order + 2):
        coeffs.append(sum(c / (p + 1) for p, c in enumerate(poly)) / math.factorial(k))
        poly = [Fraction(0)] + poly
        poly = [poly[p] - k * (poly[p + 1] if p + 1 < len(poly) else 0)
                for p in range(len(poly))]
    return [sum(-coeffs[k + 1] * (-1) ** (k - j) * math.comb(k, j)
                for k in range(max(j, 1), order + 1))
            for j in range(order + 1)]


def exact_row(n: int) -> list[Fraction]:
    """The Gregory-8 rule's weights on 2n+1 nodes, h factored out, exactly."""
    row = [Fraction(1)] * (2 * n + 1)
    row[0] = row[-1] = Fraction(1, 2)
    for j, wj in enumerate(exact_gregory_weights(8)):
        row[j] += wj
        row[-1 - j] += wj
    return row


class TestMesh:
    def test_nodes(self):
        mesh = Mesh(2.0, 4)
        assert mesh.h == 0.5
        np.testing.assert_array_equal(mesh.nodes(), np.arange(-4, 5) * 0.5)
        assert mesh.node(-4) == -2.0

    def test_nodes_cached_read_only(self):
        for a, n in ((1.0, 64), (2.0, 4096), (0.3, 17)):
            x = Mesh(a, n).nodes()
            want = np.arange(-n, n + 1) * (a / n)
            assert x.dtype == want.dtype and x.tobytes() == want.tobytes()
            assert not x.flags.writeable
            assert Mesh(a, n).nodes() is x
            with pytest.raises(ValueError):
                x[0] = 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Mesh(-1.0, 4)
        with pytest.raises(ValueError):
            Mesh(1.0, 0)
        for a in (math.nan, math.inf, -math.inf, 0.0):
            with pytest.raises(ValueError, match="finite and positive"):
                Mesh(a, 16)
        with pytest.raises(ValueError):
            Mesh(1.0, 4).node(5)


class TestGregoryWeights:
    def test_order_two_classical_values(self):
        # trapezoid + first two Gregory differences: -1/8, 1/6, -1/24
        np.testing.assert_allclose(gregory_weights(2),
                                   [-1.0 / 8, 1.0 / 6, -1.0 / 24], rtol=0)

    def test_constants_need_no_correction(self):
        # the exact rational weights sum to zero; rounding leaves < 1 ulp
        for order in (2, 4, 6, 8, 10):
            assert abs(math.fsum(gregory_weights(order))) < 1e-15

    def test_polynomial_exactness(self):
        # moment-system oracle: exactness on monomials up to the stated degree,
        # for the rule (order 8) and for the weights of every order
        mesh = Mesh(1.0, 24)
        for deg in range(8 + 2):
            samples = mesh.nodes() ** deg
            got = punctured_trapezoid(mesh, samples)
            assert got == pytest.approx(monomial_exact(deg), rel=0, abs=2e-13)
        for order in GREGORY_ORDERS:
            for deg in range(order + 2):
                got = gregory_rule(mesh, mesh.nodes() ** deg, order)
                assert got == pytest.approx(monomial_exact(deg), rel=0, abs=2e-13)

    def test_order_six_exponential(self):
        mesh = Mesh(1.0, 64)
        got = gregory_rule(mesh, np.exp(mesh.nodes()), 6)
        assert abs(got - E_MINUS_INV_E) <= 1e-12

    def test_cached_and_read_only(self):
        w = gregory_weights(8)
        assert w is gregory_weights(8)
        with pytest.raises(ValueError):
            w[0] = 0.0

    def test_match_gregory_coefficients(self):
        # both are exact rationals rounded once
        for order in GREGORY_ORDERS:
            want = [float(x) for x in exact_gregory_weights(order)]
            np.testing.assert_array_equal(gregory_weights(order), want)

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            gregory_weights(3)
        with pytest.raises(ValueError):
            gregory_weights(12)


class TestGregoryRow:
    def test_cached_and_read_only(self):
        row = gregory_row(64)
        assert row is gregory_row(64) and len(row) == 129
        with pytest.raises(ValueError):
            row[0] = 0.0

    def test_matches_exact_weights(self):
        for n in (9, 16, 64):
            # two roundings of entries near 1 (one of w, one of the sum)
            np.testing.assert_allclose(gregory_row(n), [float(x) for x in exact_row(n)],
                                       rtol=0, atol=3e-16)

    def test_rule_against_exact_weights(self):
        # math.fsum of exact-weight products is the reference; the rule's dot
        # product may differ from it by a few ulp of h sum |w f|
        rng = np.random.default_rng(3)
        for n in (16, 64, 1024):
            mesh = Mesh(1.0, n)
            row = exact_row(n)
            samples = rng.normal(size=2 * n + 1)
            for puncture in (None, 0, 3, -3, n - 9, 9 - n):
                terms = [float(r * Fraction(f)) for r, f in zip(row, samples.tolist())]
                if puncture is not None:
                    terms[n + puncture] = 0.0
                want = mesh.h * math.fsum(terms)
                scale = mesh.h * math.fsum(map(abs, terms))
                got = punctured_trapezoid(mesh, samples, puncture=puncture)
                assert abs(got - want) <= 4 * np.finfo(float).eps * scale, (n, puncture)


class TestPuncturedTrapezoid:
    def test_constant_no_puncture(self):
        mesh = Mesh(1.0, 9)  # the smallest mesh the order-8 ends fit
        got = punctured_trapezoid(mesh, np.ones(19))
        assert got == pytest.approx(2.0, rel=0, abs=1e-15)
        mesh = Mesh(1.0, 16)
        got = punctured_trapezoid(mesh, np.ones(33))
        assert got == pytest.approx(2.0, rel=0, abs=1e-15)

    def test_constant_with_puncture(self):
        mesh = Mesh(1.0, 9)
        got = punctured_trapezoid(mesh, np.ones(19), puncture=0)
        assert got == pytest.approx(2.0 - mesh.h, rel=0, abs=1e-15)

    def test_mesh_too_small_for_scheme(self):
        with pytest.raises(ValueError, match="mesh too small"):
            punctured_trapezoid(Mesh(1.0, 8), np.ones(17))

    def test_exponential_gregory8(self):
        mesh = Mesh(1.0, 64)
        got = punctured_trapezoid(mesh, np.exp(mesh.nodes()))
        assert abs(got - E_MINUS_INV_E) <= 1e-13

    def test_left_plus_right_identity(self):
        # the halves k < 0 and k > 0 are summed once; the center is added last
        mesh = Mesh(1.0, 32)
        rng = np.random.default_rng(7)
        samples = rng.normal(size=65)
        t0 = punctured_trapezoid(mesh, samples, puncture=0)
        assert punctured_trapezoid(mesh, samples) == t0 + mesh.h * samples[mesh.n]

    def test_puncture_linearity(self):
        mesh = Mesh(1.0, 32)
        rng = np.random.default_rng(11)
        samples = rng.normal(size=65)
        base = punctured_trapezoid(mesh, samples)
        for j in (-5, 1, 9):
            punct = punctured_trapezoid(mesh, samples, puncture=j)
            omitted = samples[mesh.n + j] * mesh.h
            assert base - punct == pytest.approx(omitted, rel=0,
                                                 abs=4e-16 * max(abs(base), 1.0))

    def test_non_finite_summed_node_rejected(self):
        mesh = Mesh(1.0, 16)
        samples = np.ones(33)
        samples[20] = np.inf
        with pytest.raises(ValueError):
            punctured_trapezoid(mesh, samples)
        # but a non-finite value at the punctured node is fine
        assert np.isfinite(punctured_trapezoid(mesh, samples, puncture=4))

    def test_non_finite_sample_named_wherever_it_is_summed(self):
        mesh = Mesh(1.0, 16)
        for puncture, bad in ((None, 16), (None, 0), (None, 32), (0, 31), (3, 16), (-2, 5)):
            samples = np.ones(33)
            samples[bad] = np.nan
            with pytest.raises(ValueError, match="non-finite sample at a summed node"):
                punctured_trapezoid(mesh, samples, puncture=puncture)
        for bad in (0, 15, 17, 32):  # both ends of both halves
            samples = np.ones(33)
            samples[bad] = np.inf
            with np.errstate(invalid="ignore"), \
                    pytest.raises(ValueError, match="non-finite sample at a summed node"):
                punctured_trapezoid(mesh, samples, puncture=0)
        samples = np.ones(33)
        samples[16] = np.nan  # the center is in neither half
        assert math.isfinite(punctured_trapezoid(mesh, samples, puncture=0))

    def test_overflowing_sum_of_finite_samples_returns_inf(self):
        mesh = Mesh(1.0, 16)
        with np.errstate(over="ignore"):
            assert punctured_trapezoid(mesh, np.full(33, 1e308), puncture=2) == math.inf

    def test_puncture_near_edge_rejected(self):
        mesh = Mesh(1.0, 16)
        with pytest.raises(ValueError):
            punctured_trapezoid(mesh, np.ones(33), puncture=16)
        with pytest.raises(ValueError):
            punctured_trapezoid(mesh, np.ones(33), puncture=-9)

    def test_convergence_rate_matches_scheme_order(self):
        # observed rate between successive doublings stays >= order - 0.5
        # (pairs where the finer error has hit the roundoff floor are skipped)
        f = lambda x: np.exp(3.0 * x)
        exact = (math.exp(3.0) - math.exp(-3.0)) / 3.0
        order = 8
        errs = {}
        for n in (16, 32, 64, 128, 256):
            mesh = Mesh(1.0, n)
            errs[n] = abs(punctured_trapezoid(mesh, f(mesh.nodes())) - exact)
        checked = 0
        for n in (16, 32, 64, 128):
            if errs[2 * n] > 5e-15 * exact:
                rate = math.log2(errs[n] / errs[2 * n])
                assert rate >= order - 0.5, (order, n, rate)
                checked += 1
        assert checked >= 1


    def test_end_error_estimate_tracks_gregory8_error(self):
        for n in (64, 128):
            mesh = Mesh(1.0, n)
            x = mesh.nodes()
            assert end_error_estimate(mesh, x ** 8) <= 1e-15
            for b in (1.2, 1.5):  # a pole b - 1 beyond the right end
                f = 1.0 / (x - b) ** 2
                err = abs(punctured_trapezoid(mesh, f) - (1.0 / (b - 1.0) - 1.0 / (b + 1.0)))
                assert err / 5.0 <= end_error_estimate(mesh, f) <= 5.0 * err, (n, b)


    def test_end_error_estimate_with_puncture_in_an_end_window(self):
        # the punctured entry counts as 0, in a copy: the caller's array is kept
        mesh = Mesh(1.0, 16)
        samples = np.random.default_rng(5).normal(size=33)
        before = samples.tobytes()
        for puncture in (-6, -8, -16, 6, 8, 16):  # indices 10, 8, 0 from either end
            zeroed = samples.copy()
            zeroed[mesh.n + puncture] = 0.0
            got = end_error_estimate(mesh, samples, puncture=puncture)
            assert got == end_error_estimate(mesh, zeroed), puncture
            assert got != end_error_estimate(mesh, samples), puncture
            assert samples.tobytes() == before
        # a puncture outside both windows changes nothing
        assert end_error_estimate(mesh, samples, puncture=5) == end_error_estimate(mesh, samples)


class TestPlainTrapezoid:
    def test_second_order_only(self):
        exact = E_MINUS_INV_E
        errs = [abs(plain_trapezoid(Mesh(1.0, n), np.exp(Mesh(1.0, n).nodes())) - exact)
                for n in (32, 64)]
        rate = math.log2(errs[0] / errs[1])
        assert 1.8 <= rate <= 2.2

    def test_non_finite_summed_node_rejected(self):
        mesh = Mesh(1.0, 16)
        for bad in (0, 16, 32):
            for value in (math.nan, math.inf, -math.inf):
                samples = np.ones(33)
                samples[bad] = value
                with pytest.raises(ValueError, match="non-finite sample at a summed node"):
                    plain_trapezoid(mesh, samples)

    def test_overflowing_sum_of_finite_samples_returns_inf(self):
        mesh = Mesh(1.0, 16)
        with np.errstate(over="ignore"):
            assert plain_trapezoid(mesh, np.full(33, 1e308)) == math.inf
