"""A census of silent wrong numbers, held to ceilings that may only fall.

A result misses when it is more than 1e-12 max(|ref|, 1) off its exact
value, and a miss is silent when the result carries no warning.  Each
class's counts are held at or below its ceilings, the counts measured
when the class was added.  A change that lowers a count lowers its
ceiling in the same change; no change raises one.  The failure message
prints every class's counts, so the next ceilings can be read off it.

- Near an end: targets (k + 0.3)h from either end, k = 12, 20, 30, where
  the Gregory end corrections of the punctured sum limit the rule.
- Wide kernel: lam = d/(c h) = 10 ... 1e6, where the pole form puts back
  the puncture node's sample alone from lam = 5.97 on, for either source
  of G.

Both take g = exp, whose integral `oracle.exact_test2` gives exactly.  A
class for pole g waits for an exact reference of rational g.
"""

import math
from itertools import product

import numpy as np

from nsquad.corrections import GEval
from nsquad.integrator import KernelParams, integrate_near_singular
from nsquad.oracle import exact_test2

TOL = 1e-12
NS = (64, 256, 1024)
CS = (0.5, 1.0, 2.0)

# class: (results, ceiling on misses, ceiling on silent misses)
CEILINGS = {"near-end": (972, 450, 160), "wide-kernel": (486, 0, 0)}


def near_end_cases():
    """exp, both methods, at x_s = +-(1 - (k + 0.3) h) and d = 1e-9 ... 1e-1."""
    g = GEval.analytic(np.exp)
    for n, c, e, k, side, method in product(NS, CS, range(-9, 0), (12, 20, 30),
                                            (1.0, -1.0), ("closed-form", "fd-series")):
        x_s = side * (1.0 - (k + 0.3) / n)
        yield g, KernelParams(a=1.0, c=c, d=10.0 ** e, x_s=x_s), n, method


def wide_kernel_cases():
    """lam = 10 ... 1e6 at three interior x_s: the analytic exp with both
    methods, and a real-only exp with fd-series."""
    analytic, real_only = GEval.analytic(np.exp), GEval(real_eval=math.exp)
    for n, c, e, x_s in product(NS, CS, range(1, 7), (0.1234, -0.37, 0.5)):
        params = KernelParams(a=1.0, c=c, d=10.0 ** e * c / n, x_s=x_s)
        for g, method in ((analytic, "closed-form"), (analytic, "fd-series"),
                          (real_only, "fd-series")):
            yield g, params, n, method


def census(cases) -> tuple[int, int, int, float]:
    """(results, misses, silent misses, worst error of a silent miss)."""
    results = misses = silent = 0
    worst = 0.0
    for g, p, n, method in cases:
        res = integrate_near_singular(g, p, n, method)
        # exact_test2 integrates d e^x
        ref = exact_test2(p.d, p.c, p.x_s) / p.d
        err = abs(res.value - ref) / max(abs(ref), 1.0)
        results += 1
        if not err <= TOL:
            misses += 1
            if not res.warnings:
                silent += 1
                worst = max(worst, err)
    return results, misses, silent, worst


def test_silent_misses_stay_at_or_below_their_ceilings():
    counts = {"near-end": census(near_end_cases()),
              "wide-kernel": census(wide_kernel_cases())}
    report = "; ".join(f"{name}: {results} results, {misses} misses, {silent} silent, "
                       f"worst silent {worst:.3g}"
                       for name, (results, misses, silent, worst) in counts.items())
    for name, (results, misses, silent, _) in counts.items():
        want, max_misses, max_silent = CEILINGS[name]
        assert results == want, report
        assert misses <= max_misses and silent <= max_silent, report
