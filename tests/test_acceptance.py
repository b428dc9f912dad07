"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured margins.
"""

import math
import time

import numpy as np
import pytest

from nsquad.corrections import GEval, correction_offmesh_closed
from nsquad.emcoeff import pks_seeds
from nsquad.integrator import (
    KernelParams,
    integrate_finite_part,
    integrate_near_singular,
)
from nsquad.meshrule import Mesh, plain_trapezoid
from nsquad.oracle import exact_test1, exact_test2, finite_part_reference
from nsquad.specfun import digamma, hurwitz_zeta_nonpos, trigamma
from nsquad.verify import CoeffParams, coeff_table, fk_series_oracle, pks_closed, pks_table

D_FIG = (0.1, 0.01, 0.0001)
N_FIG = 64
S_GRID = (-0.45, -0.3, -0.15, 0.15, 0.3, 0.45)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def g_fig(d: float) -> GEval:
    return GEval.analytic(lambda z, d=d: d * np.exp(z))


def test_criterion_1_fig2_reproduction():
    t0 = time.perf_counter()
    worst = 0.0
    for d in D_FIG:
        res = integrate_near_singular(g_fig(d), KernelParams(a=1.0, d=d),
                                      N_FIG, method="closed-form")
        worst = max(worst, abs(res.value - exact_test1(d)))
    # uncorrected-plain baseline at d = 1e-4
    d = 1e-4
    mesh = Mesh(1.0, N_FIG)
    nodes = mesh.nodes()
    plain = plain_trapezoid(mesh, d * np.exp(nodes) / (d * d + nodes ** 2))
    corrected_err = abs(integrate_near_singular(
        g_fig(d), KernelParams(a=1.0, d=d), N_FIG, "closed-form").value
        - exact_test1(d))
    plain_err = abs(plain - exact_test1(d))
    elapsed = time.perf_counter() - t0
    ok = (worst <= 1e-12 and plain_err >= 1e6 * corrected_err and elapsed < 1.0)
    _report("1 (on-mesh convergence at n=64)", ok,
            f"max corrected err {worst:.2e} <= 1e-12; plain/corrected ratio "
            f"{plain_err / max(corrected_err, 1e-300):.1e} >= 1e6; {elapsed:.2f}s < 1s")


def test_criterion_2_fig3_reproduction():
    worst = 0.0
    for d in D_FIG:
        res = integrate_near_singular(g_fig(d), KernelParams(a=1.0, d=d, x_s=0.1),
                                      N_FIG, method="closed-form")
        worst = max(worst, abs(res.value - exact_test2(d, 1.0, 0.1)))
    _report("2 (off-mesh convergence at n=64, x_s=0.1)", worst <= 1e-12,
            f"max corrected err {worst:.2e} <= 1e-12")


def test_criterion_3_fd6_parity():
    worst = 0.0
    for d in D_FIG:
        for x_s in (0.0, 0.1):
            params = KernelParams(a=1.0, d=d, x_s=x_s)
            closed = integrate_near_singular(g_fig(d), params, N_FIG,
                                             "closed-form").value
            fd6 = integrate_near_singular(g_fig(d), params, N_FIG,
                                          "fd-series").value
            worst = max(worst, abs(fd6 - closed) / abs(closed))
    _report("3 (fd6 vs closed-form parity)", worst <= 1e-9,
            f"max relative gap {worst:.2e} <= 1e-9")


def test_criterion_4_coefficient_identities():
    worst = 0.0
    # reflection identity for nonpositive-order Hurwitz zeta
    for s in S_GRID:
        for k in range(11):
            worst = max(worst, abs(hurwitz_zeta_nonpos(k, 1 + s)
                                   + (-1) ** k * hurwitz_zeta_nonpos(k, 1 - s)
                                   + s ** k))
    # symmetry and closed form across the (lam, s) grid
    for lam in (0.1, 0.5, 0.9, 2.0):
        for s in S_GRID:
            params = CoeffParams(lam=lam, s=s, h=0.01, k_max=12)
            t = coeff_table(params)
            signs = (-1.0) ** np.arange(13)
            scale = np.maximum(1.0, np.abs(t.pks))
            worst = max(worst, float(np.max(
                np.abs(t.pks - (t.zk_minus_s + signs * t.zks)) / scale)))
            worst = max(worst, float(np.max(
                np.abs(t.pks - pks_closed(params)) / scale)))
    # recurrences vs truncated rational zeta series, inside the series radius
    for lam in (0.1, 0.5, 0.9):
        for s in (0.0, -0.2, 0.2, 0.45):
            if lam >= 0.95 * (1.0 + s):
                continue
            params = CoeffParams(lam=lam, s=s, h=0.01, k_max=10)
            t = coeff_table(params)
            for k in range(11):
                ref = fk_series_oracle(k, 1j * lam, 0.01, s=s).real
                worst = max(worst, abs(t.zks[k] - ref) / max(1.0, abs(ref)))
                if s == 0.0:
                    worst = max(worst, abs(t.zk[k] - ref) / max(1.0, abs(ref)))
    # h-independence of p_1 via the z-route
    for lam, s in ((0.3, 0.2), (0.8, -0.4)):
        def p1(h, lam=lam, s=s):
            table = coeff_table(CoeffParams(lam=lam, s=s, h=h, k_max=1))
            return table.zk_minus_s[1] - table.zks[1]
        worst = max(worst, abs(p1(0.01) - p1(0.02)))
    _report("4 (coefficient identity suite)", worst <= 1e-12,
            f"max residual {worst:.2e} <= 1e-12")


def test_criterion_5_limits():
    worst_limit = 0.0
    for s in (0.1, 0.25, 0.4):
        p0, p1 = pks_seeds(1e-6, s)
        worst_limit = max(worst_limit,
                          abs(p0 - (trigamma(1 - s) + trigamma(1 + s))),
                          abs(p1 - (digamma(1 + s) - digamma(1 - s))))
    ok_limit = worst_limit <= 1e-11

    p = pks_table(CoeffParams(lam=0.0, s=0.5, h=0.01, k_max=1))
    half_err = max(abs(p[0] - (math.pi ** 2 - 4.0)), abs(p[1] - 2.0))
    ok_half = half_err <= 4e-15

    g = GEval.analytic(np.exp)
    c, d, h = 1.0, 0.02, 1.0 / 64
    centered = correction_offmesh_closed(g, c, d, h, 0.0, 0.0).total
    s_err = 0.0
    for s in (1e-9, -1e-9):
        off = correction_offmesh_closed(g, c, d, h, s, s * h).total
        s_err = max(s_err, abs(off - centered) / abs(centered))
    ok_s = s_err <= 1e-9

    _report("5 (limits suite)", ok_limit and ok_half and ok_s,
            f"lam->0 dev {worst_limit:.2e} <= 1e-11; s=1/2 dev {half_err:.2e} "
            f"<= 4e-15; s->0 continuity {s_err:.2e} <= 1e-9")


def test_criterion_6_hypersingular():
    n = 64
    h = 1.0 / n
    shapes = {
        "one": GEval.analytic(lambda z: 1.0 + 0.0 * np.asarray(z)),
        "x^2": GEval.analytic(lambda z: np.asarray(z) ** 2),
        "exp": GEval.analytic(np.exp),
        "cos": GEval.analytic(np.cos),
    }
    worst = 0.0
    for g in shapes.values():
        for frac in (0.0, 0.3, 0.5):
            x_s = frac * h
            res = integrate_finite_part(g, 1.0, x_s, n)
            ref = finite_part_reference(g, 1.0, x_s)
            worst = max(worst, abs(res.value - ref))
    # s = 1/2: punctured rule + correction equals the ordinary-rule form
    # (punctured plus the node term) with the pi^2/h weight
    g = shapes["exp"]
    x_s = 0.5 * h
    res = integrate_finite_part(g, 1.0, x_s, n)
    node_term = h * g.real_eval(0.0) / (0.5 * h) ** 2
    compact = res.uncorrected + node_term - math.pi ** 2 / h * g.real_eval(x_s)
    resid = abs(res.value - compact) / max(1.0, abs(compact))
    ok = worst <= 1e-10 and resid <= 1e-12
    _report("6 (finite-part suite)", ok,
            f"max |rule - oracle| {worst:.2e} <= 1e-10; half-shift relation "
            f"residual {resid:.2e} <= 1e-12")


def test_criterion_7_property_suite_inventory():
    # the invariant blocks live in the per-module test files; this records
    # their presence so the acceptance run fails loudly if one disappears
    import tests.test_corrections as tc
    import tests.test_emcoeff as te
    import tests.test_integrator as ti
    import tests.test_meshrule as tm
    import tests.test_oracle as to
    import tests.test_specfun as ts
    wanted = [
        (ts, "test_conjugate_symmetry"),
        (ts, "test_recurrence_grid"),
        (ts, "test_reflection_identity"),
        (tm, "test_left_plus_right_identity"),
        (tm, "test_puncture_linearity"),
        (tm, "test_convergence_rate_matches_scheme_order"),
        (te, "test_symmetry_identity"),
        (te, "test_p1_independent_of_h"),
        (te, "test_recurrences_vs_series_grid"),
        (te, "test_tables_are_real_floats"),
        (tc, "test_closed_vs_series_relative_invariant"),
        (tc, "test_jump_factorization"),
        (tc, "test_s_continuity_at_zero"),
        (tc, "test_lambda_to_zero_matches_hypersingular"),
        (ti, "test_exponential_until_saturation"),
        (ti, "test_d_uniformity"),
        (ti, "test_bit_reproducible"),
        (to, "test_two_oracle_agreement"),
    ]
    missing = []
    for module, name in wanted:
        found = any(name in attr for klass in vars(module).values()
                    if isinstance(klass, type)
                    for attr in vars(klass)) or hasattr(module, name)
        if not found:
            missing.append(f"{module.__name__}.{name}")
    _report("7 (property tests encoded)", not missing,
            "all invariant blocks present" if not missing else f"missing {missing}")
