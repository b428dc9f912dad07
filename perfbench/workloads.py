"""Seeded inputs, oracle references and result checks for the nsquad benchmark.

A workload turns a seed into a list of cases: one pass of the timed loop.
The program under test receives only the generated inputs, never the seed.
Every reference comes from `nsquad.oracle` and is computed before timing.

Categorical inputs (n, c, on-node or not, kind of g) are assigned in exact
proportions and the continuous ones (d, x_s, b) are stratified, so every seed
gives the same mix of code paths.  The proportions are chosen so that the
median and the 90th percentile of the call latency fall inside one group of
similar calls rather than on the step between two groups.  A fixed panel of
cases at the edges of the validated interior (and, on targets-closed, at
the nearest pole) is added to every seed's cases.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from nsquad import cli, integrator
from nsquad.corrections import GEval
from nsquad.integrator import KernelParams
from nsquad.oracle import (exact_test1, exact_test2, finite_part_reference,
                           reference_integral)

A = 1.0              # exact_test1/2 are defined on [-1, 1]
REL_TOL = 1e-10      # a result misses when |value - ref| > REL_TOL * max(|ref|, 1)
STUDY_TOL = 1e-12    # README: corrected study rows at n >= 64 stay below 1e-12
STUDY_MIN_N = 64
ERR_FLOOR = 1e-17    # relative error credited to an exact result (caps min_digits)


@dataclass(frozen=True)
class GSpec:
    """A user callback g: `analytic` ones accept real and complex arguments."""

    f: Callable
    analytic: bool


def build_g(spec: GSpec, wrap: Callable | None = None) -> GEval:
    """The GEval a user would build from `spec`, with `f` optionally wrapped."""
    f = spec.f if wrap is None else wrap(spec.f)
    return GEval.analytic(f) if spec.analytic else GEval(real_eval=f)


def rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / max(abs(ref), 1.0)


@dataclass
class IntegralCase:
    """One call of integrate_near_singular (method given) or integrate_finite_part."""

    g: str                  # key into the workload's g table
    params: KernelParams
    n: int
    method: str | None      # None: integrate_finite_part
    oracle: str             # "exp-exact", "adaptive" or "finite-part"
    panel: bool = False     # one of the fixed cases every seed gets
    reference: float = math.nan
    evals: int = 1

    def call(self, gtab: dict[str, GEval]) -> float:
        # Module attribute lookup at call time, so a traced run sees the wrapper.
        g = gtab[self.g]
        p = self.params
        if self.method is None:
            return integrator.integrate_finite_part(g, p.a, p.x_s, self.n).value
        return integrator.integrate_near_singular(g, p, self.n,
                                                  method=self.method).value

    def compute_reference(self, specs: dict[str, GSpec]) -> None:
        p = self.params
        if self.oracle == "exp-exact":
            # exact_test2 integrates d e^x; this case's numerator is e^x.
            self.reference = exact_test2(p.d, p.c, p.x_s) / p.d
        elif self.oracle == "adaptive":
            g = build_g(specs[self.g])
            # Relative tolerance: the integral is O(pi/(c d)), beyond any
            # absolute tolerance once d is small.
            scale = math.pi / (p.c * p.d) * abs(g.real_eval(p.x_s))
            coarse = reference_integral(g, p, tol=1e-6 * max(1.0, scale)).value
            self.reference = reference_integral(
                g, p, tol=1e-12 * max(1.0, abs(coarse))).value
        elif self.oracle == "finite-part":
            # Both kinds of g in this workload are e^x; the analytic form gives
            # the oracle its most accurate (contour) Taylor coefficients.
            self.reference = finite_part_reference(GEval.analytic(np.exp), p.a, p.x_s)
        else:
            raise ValueError(f"unknown oracle {self.oracle!r}")

    def check(self, value: float, perturb: float = 0.0) -> tuple[int, float, bool]:
        """(failed evals, worst relative error, output well formed)."""
        value = float(value) * (1.0 + perturb)
        if not math.isfinite(value):
            return 1, math.inf, False
        err = rel_err(value, self.reference)
        return int(not err <= REL_TOL), err, True


@dataclass
class StudyCase:
    """One cli.run_converge call: one figure configuration at one d, all methods."""

    config: cli.StudyConfig
    g: None = None          # the CLI builds its own g
    panel: bool = False
    reference: float = math.nan

    @property
    def evals(self) -> int:
        c = self.config
        return len(c.d_list) * len(c.n_list) * len(c.methods)

    def call(self, gtab: dict[str, GEval]) -> list:
        return cli.run_converge(self.config)

    def compute_reference(self, specs: dict[str, GSpec]) -> None:
        c = self.config
        (d,) = c.d_list
        self.reference = (exact_test1(d) if c.integrand == "test1"
                          else exact_test2(d, c.c, c.x_s))

    def check(self, rows: list, perturb: float = 0.0) -> tuple[int, float, bool]:
        if len(rows) != self.evals:
            return self.evals, math.inf, False
        failed, worst, well_formed = 0, 0.0, True
        for row in rows:
            value = float(row.value) * (1.0 + perturb)
            if not math.isfinite(value):
                failed += 1
                well_formed = False
            elif rel_err(row.reference, self.reference) > REL_TOL:
                failed += 1       # the CLI's reference disagrees with the oracle
            elif row.method.startswith("corrected") and row.n >= STUDY_MIN_N:
                err = abs(value - self.reference)
                worst = max(worst, err / max(abs(self.reference), 1.0))
                failed += int(not err <= STUDY_TOL)
        return failed, worst, well_formed


def _shares(rng: random.Random, total: int, weights: dict) -> list:
    """`total` labels in exact proportion to `weights` (largest remainder), shuffled."""
    keys = list(weights)
    wsum = sum(weights.values())
    counts = [total * weights[k] // wsum for k in keys]
    by_remainder = sorted(range(len(keys)),
                          key=lambda i: (-(total * weights[keys[i]] % wsum), i))
    for i in by_remainder[:total - sum(counts)]:
        counts[i] += 1
    out = [k for k, m in zip(keys, counts) for _ in range(m)]
    rng.shuffle(out)
    return out


def _strata(rng: random.Random, total: int, lo: float, hi: float) -> list[float]:
    """One uniform draw in each of `total` equal bins of [lo, hi), shuffled."""
    out = [lo + (hi - lo) * (i + rng.random()) / total for i in range(total)]
    rng.shuffle(out)
    return out


def _target(u: float, n: int, on_node: bool) -> float:
    """x_s in the validated interior |x_s| < a - 10h, from u in [-1, 1)."""
    h = A / n
    if on_node:
        return round(u * (n - 11)) * h
    lim = A - 10.0 * h
    x_s = u * lim
    return x_s if abs(x_s) < lim else math.nextafter(x_s, 0.0)


def _pole(b: float) -> Callable:
    b2 = b * b
    return lambda z: 1.0 / (z * z + b2)


def _edge_panel(ns, cs, log_ds, on_node_too: bool):
    """(n, c, d, x_s) at both ends of the validated interior, for every n, c and d.

    Every seed gets these cases, so the edge of the validated interior (where
    the Gregory end correction is weakest) is always tested, and the worst
    error of a run does not hinge on how close a seed's draws come to it.
    """
    out = []
    for n in ns:
        targets = [_target(-1.0, n, False), _target(1.0, n, False)]
        if on_node_too:
            targets += [_target(-1.0, n, True), _target(1.0, n, True)]
        out += [(n, c, 10.0 ** log_d, x_s)
                for c in cs for log_d in log_ds for x_s in targets]
    return out


def make_targets_closed(seed: int, count: int):
    """Near-singular closed-form calls; one shared g = e^z, 1/16 near-pole g.

    Besides `count` seeded cases, a fixed panel covers the interior's edges
    and the nearest pole (b = 0.3) at a centered target, on a grid of d.
    """
    rng = random.Random(f"targets-closed:{seed}")
    specs = {"exp": GSpec(np.exp, True)}
    cases = []

    def pole_case(b, params, n, panel=False):
        key = f"pole-{len(specs)}"
        specs[key] = GSpec(_pole(b), True)
        return IntegralCase(key, params, n, "auto", "adaptive", panel=panel)

    on = count // 4
    for on_node, m in ((True, on), (False, count - on)):
        ns = _shares(rng, m, {64: 1, 256: 3})
        cs = _shares(rng, m, {0.5: 1, 1.0: 1, 2.0: 1})
        kinds = _shares(rng, m, {"exp": 15, "pole": 1})
        log_ds = _strata(rng, m, -8.0, -1.0)
        us = _strata(rng, m, -1.0, 1.0)
        bs = iter(_strata(rng, kinds.count("pole"), 0.3, 1.0))
        for n, c, kind, log_d, u in zip(ns, cs, kinds, log_ds, us):
            params = KernelParams(a=A, c=c, d=10.0 ** log_d, x_s=_target(u, n, on_node))
            cases.append(IntegralCase("exp", params, n, "auto", "exp-exact")
                         if kind == "exp" else pole_case(next(bs), params, n))
    grid = range(-8, 0)
    for n, c, d, x_s in _edge_panel((64, 256), (0.5, 1.0, 2.0), grid, True):
        cases.append(IntegralCase("exp", KernelParams(a=A, c=c, d=d, x_s=x_s),
                                  n, "auto", "exp-exact", panel=True))
    for n in (64, 256):
        for c in (0.5, 1.0, 2.0):
            for log_d in grid:
                cases.append(pole_case(0.3, KernelParams(a=A, c=c, d=10.0 ** log_d), n,
                                       panel=True))
    rng.shuffle(cases)
    return cases, specs


def make_large_n_fd(seed: int, count: int):
    """fd-series calls with a real-only scalar g = e^x on large meshes,
    plus the fixed panel at the edges of the interior."""
    rng = random.Random(f"large-n-fd:{seed}")
    specs = {"exp-real": GSpec(math.exp, False)}
    cases = []
    on = count // 4
    for on_node, m in ((True, on), (False, count - on)):
        ns = _shares(rng, m, {4096: 3, 16384: 1})
        cs = _shares(rng, m, {0.5: 1, 1.0: 1, 2.0: 1})
        log_ds = _strata(rng, m, -9.0, -2.0)
        us = _strata(rng, m, -1.0, 1.0)
        for n, c, log_d, u in zip(ns, cs, log_ds, us):
            params = KernelParams(a=A, c=c, d=10.0 ** log_d, x_s=_target(u, n, on_node))
            cases.append(IntegralCase("exp-real", params, n, "fd-series", "exp-exact"))
    for n, c, d, x_s in _edge_panel((4096, 16384), (0.5, 1.0, 2.0), range(-9, -1), False):
        cases.append(IntegralCase("exp-real", KernelParams(a=A, c=c, d=d, x_s=x_s),
                                  n, "fd-series", "exp-exact", panel=True))
    rng.shuffle(cases)
    return cases, specs


def make_finite_part(seed: int, count: int):
    """Finite-part (d = 0) calls at off-mesh x_s; half analytic, half real-only e^x,
    plus the fixed panel at the edges of the interior."""
    rng = random.Random(f"finite-part:{seed}")
    specs = {"exp": GSpec(np.exp, True), "exp-real": GSpec(math.exp, False)}
    ns = _shares(rng, count, {128: 1, 512: 3})
    keys = _shares(rng, count, {"exp": 1, "exp-real": 1})
    us = _strata(rng, count, -1.0, 1.0)
    cases = [IntegralCase(key, KernelParams(a=A, c=1.0, d=0.0, x_s=_target(u, n, False)),
                          n, None, "finite-part")
             for n, key, u in zip(ns, keys, us)]
    for n in (128, 512):
        for x_s in (_target(-1.0, n, False), _target(1.0, n, False)):
            cases += [IntegralCase(key, KernelParams(a=A, c=1.0, d=0.0, x_s=x_s),
                                   n, None, "finite-part", panel=True) for key in specs]
    rng.shuffle(cases)
    return cases, specs


STUDY_CONFIGS = (("test1", 0.0), ("test2", 0.1))   # README figure configurations
STUDY_D = (0.1, 0.01, 1e-4)
STUDY_N = "16:256:*2"


def make_converge_study(seed: int, count: int):
    """`count` rounds of the six (configuration, d) studies, each round in seeded order.

    The configurations are fixed by the README; the seed only orders them.
    """
    rng = random.Random(f"converge-study:{seed}")
    n_list = cli.parse_n_range(STUDY_N)
    base = [StudyCase(cli.StudyConfig(d_list=[d], n_list=n_list, integrand=name, x_s=x_s))
            for name, x_s in STUDY_CONFIGS for d in STUDY_D]
    cases = []
    for _ in range(count):
        rnd = base[:]
        rng.shuffle(rnd)
        cases.extend(rnd)
    return cases, {}


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int, int], tuple[list, dict[str, GSpec]]]
    count: int      # cases in one pass of the timed loop
    tiny: int       # cases in one pass for the smoke test
    calibration_points: int = 257   # about the size of the workload's meshes


WORKLOADS = {w.name: w for w in (
    Workload("targets-closed", make_targets_closed, 1600, 16),
    Workload("large-n-fd", make_large_n_fd, 320, 4, calibration_points=8193),
    Workload("finite-part", make_finite_part, 1600, 8),
    Workload("converge-study", make_converge_study, 16, 1),
)}


def prepare(name: str, seed: int, count: int):
    """Cases with their references, and the workload's g table."""
    cases, specs = WORKLOADS[name].make(seed, count)
    for case in {id(c): c for c in cases}.values():
        case.compute_reference(specs)
    return cases, specs
