"""Per-layer tracing and g counting, done from the benchmark's side.

Layers are the nsquad modules.  Each function one layer calls in another is
wrapped under the name the calling module looks it up by, so a span opens
at every layer boundary.  The user's g callables are wrapped too (layer `g`).
Spans stay in memory with parent links and the id of the integration they
belong to; g calls, which are many and tiny, are summed into the span that
made them rather than kept one by one.  Self time is a span's duration minus
its child spans and its g calls, less the measured cost of timing those.
"""

from __future__ import annotations

import gzip
import importlib
import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps

import numpy as np

from nsquad.corrections import GEval


def _nodes_summed(args, kwargs) -> int:
    """Nodes a trapezoidal sum adds: 2n+1, less one when a node is punctured."""
    mesh = args[0]
    puncture = kwargs.get("puncture", args[2] if len(args) > 2 else None)
    return 2 * mesh.n + 1 - (puncture is not None)


# (layer, module the call is looked up in, attribute, count hook)
SITES = (
    ("integrator", "nsquad.integrator", "integrate_near_singular", None),
    ("integrator", "nsquad.integrator", "integrate_finite_part", None),
    ("integrator", "nsquad.cli", "integrate_near_singular", None),
    ("meshrule", "nsquad.integrator", "punctured_trapezoid", _nodes_summed),
    ("meshrule", "nsquad.cli", "plain_trapezoid", _nodes_summed),
    ("meshrule", "nsquad.meshrule", "Mesh.nodes", None),
    ("meshrule", "nsquad.meshrule", "Mesh.node", None),
    ("corrections", "nsquad.integrator", "correction_centered_closed", None),
    ("corrections", "nsquad.integrator", "correction_offmesh_closed", None),
    ("corrections", "nsquad.integrator", "correction_series_truncated", None),
    ("corrections", "nsquad.integrator", "fd_derivatives", None),
    ("corrections", "nsquad.integrator", "hypersingular_offmesh", None),
    ("corrections", "nsquad.corrections", "GEval.consistency_gap", None),
    ("corrections", "nsquad.corrections", "taylor_coeffs", None),
    ("corrections", "nsquad.corrections", "fd_derivatives", None),
    ("emcoeff", "nsquad.integrator", "conditioning_warnings", None),
    ("emcoeff", "nsquad.integrator", "coeff_table", None),
    ("emcoeff", "nsquad.integrator", "pks_closed", None),
    ("emcoeff", "nsquad.integrator", "pks_seeds", None),
    ("emcoeff", "nsquad.integrator", "zks_table", None),
    ("emcoeff", "nsquad.corrections", "pks_seeds", None),
    ("emcoeff", "nsquad.corrections", "pks_table", None),
    ("emcoeff", "nsquad.corrections", "zk_table", None),
    ("emcoeff", "nsquad.cli", "coeff_table", None),
    ("emcoeff", "nsquad.cli", "pks_closed", None),
    ("specfun", "nsquad.integrator", "hurwitz_zeta_nonpos", None),
    ("specfun", "nsquad.corrections", "digamma", None),
    ("specfun", "nsquad.corrections", "trigamma", None),
    ("specfun", "nsquad.emcoeff", "digamma", None),
    ("specfun", "nsquad.emcoeff", "digamma_complex", None),
    ("specfun", "nsquad.emcoeff", "hurwitz_zeta_nonpos", None),
    ("specfun", "nsquad.emcoeff", "trigamma", None),
    ("specfun", "nsquad.emcoeff", "zeta_nonpos", None),
    ("specfun", "nsquad.meshrule", "bernoulli_fraction", None),
    ("specfun", "nsquad.meshrule", "bernoulli_number", None),
    ("specfun", "nsquad.meshrule", "bernoulli_poly_fraction", None),
    ("cli", "nsquad.cli", "run_converge", None),
    ("oracle", "nsquad.cli", "exact_test1", None),
    ("oracle", "nsquad.cli", "exact_test2", None),
    ("oracle", "nsquad.cli", "reference_integral", None),
)

# The CLI builds its own g through this name; replacing it wraps that g too.
CLI_G_SITE = ("nsquad.cli", "GEval")

SPAN_FIELDS = ("id", "parent", "eval", "layer", "name", "start_ns", "end_ns",
               "g_ns", "g_calls", "count")


def _resolve(module: str, attr: str):
    """(owner, name, current value) for "func" or "Class.method"; None if gone."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = vars(owner).get(part)
        if owner is None:
            return None
    value = vars(owner).get(name)
    return None if value is None else (owner, name, value)


class _AnalyticShim:
    """Stands in for GEval in the CLI: GEval.analytic(f) gets a wrapped f."""

    def __init__(self, wrap):
        self._wrap = wrap

    def analytic(self, f, radius: float = 0.5) -> GEval:
        return GEval.analytic(self._wrap(f), radius)


@contextmanager
def cli_g_wrapped(wrap):
    """Wrap every g the CLI builds with `wrap` for the duration of the block."""
    site = _resolve(*CLI_G_SITE)
    if site is None:
        yield False
        return
    owner, name, original = site
    setattr(owner, name, _AnalyticShim(wrap))
    try:
        yield True
    finally:
        setattr(owner, name, original)


class GCounter:
    """Counts real and complex g evaluations and distinct points per API call.

    Arguments may be scalars or arrays; an array counts one per element.
    """

    def __init__(self):
        self.real = 0
        self.complex = 0
        self.distinct = 0
        self._points: set[complex] = set()

    def wrap(self, f):
        points = self._points

        def counted(z):
            if isinstance(z, np.ndarray):
                if np.iscomplexobj(z):
                    self.complex += z.size
                else:
                    self.real += z.size
                points.update(z.astype(complex).ravel().tolist())
            else:
                if isinstance(z, complex):
                    self.complex += 1
                else:
                    self.real += 1
                points.add(complex(z))
            return f(z)
        return counted

    def end_call(self) -> None:
        self.distinct += len(self._points)
        self._points.clear()


class Tracer:
    """Spans at layer boundaries.  A span is a list:
    [id, parent, eval, layer, name, start_ns, end_ns, g_ns, g_calls, count]."""

    def __init__(self):
        self.spans: list[list] = []
        self.eval_id = -1
        self.missing: list[str] = []
        self._stack: list[list] = []
        # g calls made outside any span (none are expected) land here
        self._outside = [-1, -1, -1, "g", "outside", 0, 0, 0, 0, 0]

    def _span(self, fn, layer: str, name: str, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1][0] if stack else -1, tracer.eval_id,
                   layer, name, 0, 0, 0, 0, count(args, kwargs) if count else 0]
            spans.append(rec)
            stack.append(rec)
            rec[5] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[6] = clock()
                stack.pop()
        return traced

    def wrap_g(self, f):
        stack, clock, outside = self._stack, time.perf_counter_ns, self._outside

        def traced_g(z):
            t0 = clock()
            value = f(z)
            dt = clock() - t0
            top = stack[-1] if stack else outside
            top[7] += dt
            top[8] += 1
            return value
        return traced_g

    def g_timer_cost(self, reps: int = 20000) -> tuple[float, float]:
        """Per-call cost, in ns, that timing a g call adds (inside, outside) its
        timed interval, from a no-op g; the fastest of five trials."""
        def noop(z):
            return z
        frame = [-1, -1, -1, "g", "calibration", 0, 0, 0, 0, 0]
        traced = self.wrap_g(noop)
        clock = time.perf_counter_ns
        best = (math.inf, 0.0, 0.0)     # (wrapped, bare, timed) of the fastest trial
        self._stack.append(frame)
        try:
            for _ in range(5):
                frame[7] = 0
                t0 = clock()
                for _ in range(reps):
                    noop(0.5)
                t1 = clock()
                for _ in range(reps):
                    traced(0.5)
                t2 = clock()
                best = min(best, ((t2 - t1) / reps, (t1 - t0) / reps, frame[7] / reps))
        finally:
            self._stack.pop()
        wrapped, bare, timed = best
        return timed - bare, wrapped - timed

    @contextmanager
    def installed(self):
        """Wrap every site for the duration of the block; record missing names."""
        undo = []
        self.missing = []
        try:
            for layer, module, attr, count in SITES:
                site = _resolve(module, attr)
                if site is None:
                    self.missing.append(f"{module}.{attr}")
                    continue
                owner, name, fn = site
                undo.append((owner, name, fn))
                setattr(owner, name, self._span(fn, layer, f"{module}.{attr}", count))
            with cli_g_wrapped(self.wrap_g) as found:
                if not found:
                    self.missing.append(".".join(CLI_G_SITE))
                yield self
        finally:
            for owner, name, fn in reversed(undo):
                setattr(owner, name, fn)

    def layer_totals(self, g_cost: tuple[float, float]) -> dict:
        """Self time per layer, span counts per layer and per name, g totals.

        `g_cost` (from g_timer_cost) is taken off each g call and off the
        span that made it, so self times exclude the cost of timing g.
        """
        inside, outside = g_cost
        spans = self.spans
        child_ns = [0] * len(spans)
        for rec in spans:
            if rec[1] >= 0:
                child_ns[rec[1]] += rec[6] - rec[5]
        self_ns: dict[str, int] = defaultdict(int)
        calls: Counter = Counter()
        names: Counter = Counter()
        counts: Counter = Counter()
        g_ns, g_calls = self._outside[7], self._outside[8]
        for rec in spans:
            self_ns[rec[3]] += rec[6] - rec[5] - child_ns[rec[0]] - rec[7] - rec[8] * outside
            calls[rec[3]] += 1
            names[rec[4].rsplit(".", 1)[-1]] += 1
            counts[rec[3]] += rec[9]
            g_ns += rec[7]
            g_calls += rec[8]
        self_ns["g"] = g_ns - g_calls * inside
        return {"self_ns": self_ns, "calls": calls, "names": names, "counts": counts}

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(",".join(SPAN_FIELDS) + "\n")
            for rec in self.spans:
                fh.write(",".join(map(str, rec)) + "\n")
