"""Benchmark runner for nsquad: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload targets-closed --seed 1 --seconds 15 --trace 0

Single process, closed loop: one caller, no threads.  Each pass of the timed
loop calls the public API once per generated case and checks every result
against its oracle reference; timings are scaled by the host speed that
calibrate.py measures between the calls.  Human-readable lines name every
metric with its unit; the last line is one JSON object with the benchmark's
metrics (end-to-end with --trace 0, per-layer with --trace 1).  See README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = HERE / "out"

SETUP_PROBES = 7
SETUP_CALIBRATIONS = 32

END_TO_END_UNITS = {
    "evals_per_s": "1/s",
    "call_p50_us": "us",
    "call_p90_us": "us",
    "g_calls_per_eval": "count",
    "min_digits": "digits",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "g.real_calls": "count",
    "g.complex_calls": "count",
    "g.distinct_ratio": "ratio",
    "g.self_us": "us",
    "integrator.self_us": "us",
    "meshrule.self_us": "us",
    "meshrule.nodes_summed": "count",
    "corrections.self_us": "us",
    "corrections.contour_fits": "count",
    "corrections.stencil_fits": "count",
    "emcoeff.self_us": "us",
    "emcoeff.calls": "count",
    "specfun.self_us": "us",
    "specfun.calls": "count",
    "cli.self_us": "us",
    "oracle.self_us": "us",
    "oracle.calls": "count",
    "trace.overhead_frac": "ratio",
}


def _import_program():
    """Put this checkout's src/ first on the path and import the benchmark modules."""
    if not (SRC / "nsquad" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no nsquad sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import nsquad
    if not Path(nsquad.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported nsquad from {nsquad.__file__}, not {SRC}")
    import tracer
    import workloads
    return workloads, tracer


@dataclass
class LoopStats:
    evals_per_pass: int
    latencies_ns: list[int] = field(default_factory=list)
    speeds: list[float] = field(default_factory=list)      # host speed at each call
    pass_ns: list[int] = field(default_factory=list)
    pass_speed: list[float] = field(default_factory=list)
    evals_run: int = 0      # evaluations made, over all passes
    verdicts: dict[int, int] = field(default_factory=dict)  # case index -> failed evals
    unstable: int = 0       # calls whose verdict differs from their case's first call
    malformed: int = 0      # calls that raised or returned a non-finite result
    worst: float = 0.0      # worst relative error among finite results
    errors: list[str] = field(default_factory=list)

    def record(self, i: int, case, failed: int) -> None:
        """Check the verdict of a call of case `i` against the case's first one."""
        self.evals_run += case.evals
        self.unstable += self.verdicts.setdefault(i, failed) != failed

    def evals_per_s(self, calibrated: bool = True) -> float:
        passes = [t * s if calibrated else t for t, s in zip(self.pass_ns, self.pass_speed)]
        return self.evals_per_pass / (statistics.median(passes) * 1e-9)

    def latencies(self, calibrated: bool = True) -> list[float]:
        """Call latencies in ns, scaled by the host speed at each call if calibrated."""
        if not calibrated:
            return list(self.latencies_ns)
        return [x * s for x, s in zip(self.latencies_ns, self.speeds)]


def timed_loop(cases, gtab, seconds: float, points: int, perturb: float = 0.0,
               before_call=None) -> LoopStats:
    """Whole passes over `cases` until `seconds` have elapsed (at least one pass).

    Each call is timed on its own and its result checked outside the timed
    interval; `perturb` scales every result by (1 + perturb) before the check.
    The calibration kernel (on `points` points) runs between calls, and its
    time is not part of the pass time.  A pass is scaled by its median host speed, a call by the
    speed measured by the kernel runs nearest to it.
    """
    import calibrate

    stats = LoopStats(evals_per_pass=sum(c.evals for c in cases))
    clock = time.perf_counter_ns
    every = max(1, len(cases) // calibrate.PER_PASS)
    deadline = clock() + int(seconds * 1e9)
    while True:
        kernel_ns, call_kernel = [], []
        p0 = clock()
        for i, case in enumerate(cases):
            if i % every == 0:
                kernel_ns.append(calibrate.timed_kernel(points))
            if before_call is not None:
                before_call()
            t0 = clock()
            try:
                out = case.call(gtab)
            except Exception as exc:  # a call that raises is a failed call
                stats.record(i, case, case.evals)
                stats.malformed += 1
                if len(stats.errors) < 5:
                    stats.errors.append(repr(exc))
                continue
            stats.latencies_ns.append(clock() - t0)
            call_kernel.append(len(kernel_ns) - 1)
            failed, err, well_formed = case.check(out, perturb)
            stats.record(i, case, failed)
            stats.malformed += not well_formed
            if well_formed and err > stats.worst:
                stats.worst = err
        stats.pass_ns.append(clock() - p0 - sum(kernel_ns))
        stats.pass_speed.append(calibrate.speed(kernel_ns, points))
        local = calibrate.local_speeds(kernel_ns, points)
        stats.speeds += [local[j] for j in call_kernel]
        if clock() >= deadline:
            return stats


def count_g(workloads, tracer, cases, specs):
    """One untimed pass with counting g callables; also warms every cache."""
    counter = tracer.GCounter()
    gtab = {k: workloads.build_g(s, counter.wrap) for k, s in specs.items()}
    evals = 0
    with tracer.cli_g_wrapped(counter.wrap):
        for case in cases:
            try:
                case.call(gtab)
            except Exception:  # noqa: BLE001  the timed loop records the failure
                pass
            counter.end_call()
            evals += case.evals
    return counter, evals


def measure_setup(workload: str, seed: int, probes: int) -> list[float]:
    """Cold-start seconds from `probes` fresh interpreters, each scaled by the
    host speed measured just before it (one more probe, uncounted, runs first
    and fills the bytecode cache)."""
    import calibrate

    cmd = [sys.executable, str(HERE / "setup_probe.py"),
           "--workload", workload, "--seed", str(seed)]
    times = []
    for i in range(probes + 1):
        speed = calibrate.speed([calibrate.timed_kernel() for _ in range(SETUP_CALIBRATIONS)])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        if i:
            times.append(float(proc.stdout.split()[-1]) * speed)
    return times


def _percentiles(lat: list[float]) -> tuple[float, float]:
    """Median and 90th percentile, in us, of latencies in ns."""
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]
    return statistics.median(lat) / 1e3, p90 / 1e3


def _min_digits(worst: float, floor: float) -> float:
    return -math.log10(max(worst, floor))


def run(workload: str, seed: int, seconds: float, trace: bool, *,
        count: int | None = None, probes: int = SETUP_PROBES,
        perturb: float = 0.0) -> dict:
    """One benchmark run.  Returns the result object plus human-readable lines."""
    workloads, tracer = _import_program()
    wl = workloads.WORKLOADS[workload]
    lines = [f"workload = {workload}", f"seed = {seed}",
             f"host.cpus = {os.cpu_count()} count",
             f"host.cpus_usable = {len(os.sched_getaffinity(0))} count"]

    setup = None if trace else measure_setup(workload, seed, probes)
    cases, specs = workloads.prepare(workload, seed, count or wl.count)
    counter, counted_evals = count_g(workloads, tracer, cases, specs)
    plain = {k: workloads.build_g(s) for k, s in specs.items()}
    g_calls = counter.real + counter.complex

    if not trace:
        stats = timed_loop(cases, plain, seconds, wl.calibration_points, perturb)
        lat = stats.latencies()
        p50, p90 = _percentiles(lat)
        raw_p50, raw_p90 = _percentiles(stats.latencies(calibrated=False))
        metrics = {
            "evals_per_s": stats.evals_per_s(),
            "call_p50_us": p50,
            "call_p90_us": p90,
            "g_calls_per_eval": g_calls / counted_evals,
            "min_digits": _min_digits(stats.worst, workloads.ERR_FLOOR),
            "setup_s": statistics.median(setup),
        }
        units = END_TO_END_UNITS
        lines += [f"call_samples = {len(lat)} count",
                  f"call_samples_beyond_p90 = {sum(x > p90 * 1e3 for x in lat)} count",
                  f"setup_samples = {len(setup)} count",
                  f"host.speed_median = {statistics.median(stats.pass_speed)!r} ratio",
                  f"raw.evals_per_s = {stats.evals_per_s(calibrated=False)!r} 1/s",
                  f"raw.call_p50_us = {raw_p50!r} us",
                  f"raw.call_p90_us = {raw_p90!r} us"]
        loops = [stats]
    else:
        base = timed_loop(cases, plain, seconds / 2, wl.calibration_points, perturb)
        tr = tracer.Tracer()
        traced_g = {k: workloads.build_g(s, tr.wrap_g) for k, s in specs.items()}
        ids = itertools.count()

        def next_eval():
            tr.eval_id = next(ids)

        with tr.installed():
            stats = timed_loop(cases, traced_g, seconds / 2, wl.calibration_points,
                               perturb, next_eval)
        g_cost = tr.g_timer_cost()
        totals = tr.layer_totals(g_cost)
        evals = stats.evals_run
        speed = statistics.median(stats.pass_speed)
        self_us = {k: v * speed / evals / 1e3 for k, v in totals["self_ns"].items()}
        calls, names = totals["calls"], totals["names"]
        metrics = {
            "g.real_calls": counter.real / counted_evals,
            "g.complex_calls": counter.complex / counted_evals,
            "g.distinct_ratio": counter.distinct / g_calls if g_calls else 0.0,
            "g.self_us": self_us.get("g", 0.0),
            "integrator.self_us": self_us.get("integrator", 0.0),
            "meshrule.self_us": self_us.get("meshrule", 0.0),
            "meshrule.nodes_summed": totals["counts"]["meshrule"] / evals,
            "corrections.self_us": self_us.get("corrections", 0.0),
            "corrections.contour_fits": names["taylor_coeffs"] / evals,
            "corrections.stencil_fits": names["fd_derivatives"] / evals,
            "emcoeff.self_us": self_us.get("emcoeff", 0.0),
            "emcoeff.calls": calls["emcoeff"] / evals,
            "specfun.self_us": self_us.get("specfun", 0.0),
            "specfun.calls": calls["specfun"] / evals,
            "cli.self_us": self_us.get("cli", 0.0),
            "oracle.self_us": self_us.get("oracle", 0.0),
            "oracle.calls": calls["oracle"] / evals,
            "trace.overhead_frac": 1.0 - stats.evals_per_s() / base.evals_per_s(),
        }
        units = PER_LAYER_UNITS
        spans_path = SPANS_DIR / f"spans-{workload}-seed{seed}.csv.gz"
        tr.write(spans_path)
        lines += [f"trace.evals_per_s_untraced = {base.evals_per_s()!r} 1/s",
                  f"trace.evals_per_s_traced = {stats.evals_per_s()!r} 1/s",
                  f"trace.evals = {evals} count",
                  f"trace.spans = {len(tr.spans)} count",
                  f"trace.g_timer_ns = {g_cost[0] + g_cost[1]!r} ns",
                  f"trace.spans_file = {spans_path.relative_to(ROOT)}",
                  f"trace.missing_names = {json.dumps(tr.missing)}"]
        loops = [base, stats]

    # Every call is checked, but a case's verdict is counted once: attempted
    # and failed depend on the seed only, not on how many passes fit the time.
    verdicts = loops[0].verdicts
    unstable = sum(s.unstable for s in loops) + sum(
        v != verdicts.get(i) for s in loops[1:] for i, v in s.verdicts.items())
    attempted = sum(c.evals for c in cases)
    failed = sum(verdicts.values())
    malformed = sum(s.malformed for s in loops)
    panel_attempted = sum(c.evals for c in cases if c.panel)
    panel_failed = sum(v for i, v in verdicts.items() if cases[i].panel)
    seeded_fail_frac = (failed - panel_failed) / (attempted - panel_attempted)
    lines += [f"passes = {sum(len(s.pass_ns) for s in loops)} count",
              f"cases_per_pass = {len(cases)} count",
              f"evals_per_pass = {loops[0].evals_per_pass} count",
              f"evals_run = {sum(s.evals_run for s in loops)} count",
              f"attempted = {attempted} count",
              f"failed = {failed} count",
              f"fail_frac = {failed / attempted!r} ratio",
              f"panel.attempted = {panel_attempted} count",
              f"panel.failed = {panel_failed} count",
              f"seeded.fail_frac = {seeded_fail_frac!r} ratio",
              f"malformed_calls = {malformed} count",
              f"unstable_calls = {unstable} count"]
    if trace:
        worst = max(s.worst for s in loops)
        lines.append(f"min_digits = {_min_digits(worst, workloads.ERR_FLOOR)!r} digits")
    lines += [f"error = {e}" for s in loops for e in s.errors]
    lines += [f"{k} = {v!r} {units[k]}" for k, v in metrics.items()]
    return {
        "correct": malformed == 0 and unstable == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "lines": lines,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One caller, no threads: keep numerical libraries single-threaded.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    workloads, _ = _import_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in result.pop("lines"):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
