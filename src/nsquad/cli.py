"""Command-line driver: convergence studies, coefficient dumps, single evaluations.

Output is CSV or JSON with floats in shortest round-trip decimal form and
rows sorted by (d, n, method), so identical configurations produce
bit-identical files.

A convergence study samples g once per node: each d walks its meshes
finest first, and a coarser mesh nested by a power of 2 of the same a
copies its samples from the GEval (`GEval.mesh_samples`), so a `*2` range
calls g on the finest mesh's nodes only and a `*3` range on every mesh's.
A custom g does not depend on d and serves the whole study.

Every method's row at one (d, n) reads the same mesh pass: the corrected
rows add their correction's value to it (`integrator._corrected`: no check
at the puncture node, no warnings, no result records, none of which a row
prints), `uncorrected-punctured` is its sum, and `uncorrected-plain` is the
classical trapezoid on its kernel samples plus the puncture's own term.
The built-in integrands test1 and test2 have exact references on [-1, 1]
only, so a study of either needs a = 1.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from .corrections import FD_STENCIL, GEval
from .integrator import KernelParams, _corrected, _mesh_pass, integrate_near_singular
from .oracle import exact_test1, exact_test2, reference_integral
from .verify import CoeffParams, coeff_table

CONVERGE_METHODS = ("uncorrected-punctured", "uncorrected-plain",
                    "corrected-closed", "corrected-fd6")

# CoeffTable fields that `nsquad coeffs` prints, one row per k
COEFF_COLUMNS = ("zk", "zks", "zk_minus_s", "pks", "sym_resid", "closedform_resid")


@dataclass
class ConvergenceRow:
    n: int
    h: float
    d: float
    c: float
    xs: float
    method: str
    value: float
    reference: float
    abs_err: float


CSV_HEADER = ",".join(f.name for f in fields(ConvergenceRow))


@dataclass
class StudyConfig:
    d_list: list[float]
    n_list: list[int]
    c: float = 1.0
    x_s: float = 0.0
    a: float = 1.0
    integrand: str = "test1"
    methods: tuple[str, ...] = CONVERGE_METHODS
    out: str = "-"
    fmt: str = "csv"
    g_expr: str | None = None

    def __post_init__(self):
        if not self.d_list or not self.n_list or not self.methods:
            raise ValueError("d, n and method lists must be nonempty")
        if self.integrand not in ("test1", "test2", "custom"):
            raise ValueError("integrand must be test1, test2, or custom")
        bad = [m for m in self.methods if m not in CONVERGE_METHODS]
        if bad:
            raise ValueError(f"unknown methods {bad}; choose from {CONVERGE_METHODS}")
        if self.fmt not in ("csv", "json"):
            raise ValueError("format must be csv or json")
        if self.integrand in ("test1", "test2") and self.a != 1.0:
            # exact_test1/2 integrate over [-1, 1]
            raise ValueError(f"{self.integrand} is defined for a = 1 only; "
                             "use --integrand custom for another a")
        if self.integrand == "test1" and (self.c != 1.0 or self.x_s != 0.0):
            raise ValueError("test1 is defined for c = 1, x_s = 0; use test2")
        if self.integrand == "custom" and not self.g_expr:
            raise ValueError("custom integrand needs --g-expr")
        if any(d <= 0.0 for d in self.d_list):
            raise ValueError("convergence studies require d > 0")


_EXPR_NAMES = {
    "exp": np.exp, "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "sinh": np.sinh, "cosh": np.cosh, "tanh": np.tanh,
    "sqrt": np.sqrt, "log": np.log, "abs": np.abs,
    "pi": np.pi, "e": np.e,
}


def _compile_g_expr(expr: str) -> GEval:
    try:
        f = eval(f"lambda x: ({expr})", {"__builtins__": {}, **_EXPR_NAMES})
        f(0.1)
    except Exception as exc:
        raise ValueError(f"cannot evaluate g expression {expr!r}: {exc}") from exc
    return GEval.analytic(f)


def _study_integrand(d: float) -> GEval:
    """g = d e^z of test1 and test2, which depends on d."""
    return GEval.analytic(lambda z: d * np.exp(z))


def _study_reference(config: StudyConfig, g: GEval, d: float) -> float:
    if config.integrand == "test1":
        return exact_test1(d)
    if config.integrand == "test2":
        return exact_test2(d, config.c, config.x_s)
    # to 1e-13 relative: the integral grows as pi/(c d)
    return reference_integral(g, KernelParams(a=config.a, c=config.c, d=d, x_s=config.x_s)).value


def _method_values(methods: tuple[str, ...], g: GEval, params: KernelParams,
                   n: int) -> list[float]:
    """The value of each method at one (d, n), all from one sampling of g and
    one window of samples around the puncture; the pass's f is c^2 h^2 times
    the kernel samples, its punctured entry 0."""
    c, d, x_s = params.c, params.d, params.x_s
    sampled = _mesh_pass(g, params.a, c, d, x_s, n)
    mesh, _, s, _, _, window, _, f, uncorrected, _ = sampled
    values = []
    for method in methods:
        if method == "corrected-closed":
            value = _corrected(g, c, d, x_s, sampled, "closed-form")[0]
        elif method == "corrected-fd6":
            value = _corrected(g, c, d, x_s, sampled, "fd-series")[0]
        elif method == "uncorrected-plain":
            # the classical trapezoid on the punctured nodes (the pairwise sum
            # of `verify.plain_trapezoid`; `_rule_sums` has checked f), then
            # the puncture's own kernel value, whose mesh-unit denominator
            # s^2 + lam^2 may underflow where this one does not
            h = mesh.h
            r = math.hypot(c * s * h, d)
            ends = 0.5 * float(f[0]) + 0.5 * float(f[-1])
            plain = h * (float(np.add.reduce(f)) - ends)
            value = plain / c ** 2 / h / h + h * window[FD_STENCIL // 2] / r / r
        else:
            value = uncorrected
        values.append(value)
    return values


def run_converge(config: StudyConfig) -> list[ConvergenceRow]:
    """The rows of the study, sorted by (d, n, method); each d walks the
    meshes finest first, with one GEval for every d when g is custom."""
    custom = _compile_g_expr(config.g_expr) if config.integrand == "custom" else None
    # every float field a Python float: `_rows_to_csv` prints str()
    c, x_s = float(config.c), float(config.x_s)
    rows = []
    for d in config.d_list:
        g = custom if custom is not None else _study_integrand(d)
        reference = float(_study_reference(config, g, d))
        params = KernelParams(a=config.a, c=config.c, d=d, x_s=config.x_s)
        d = float(d)
        for n in sorted(config.n_list, reverse=True):
            h = float(config.a / n)
            values = _method_values(config.methods, g, params, n)
            for method, value in zip(config.methods, values):
                rows.append(ConvergenceRow(n, h, d, c, x_s, method, float(value),
                                           reference, float(abs(value - reference))))
    rows.sort(key=lambda r: (r.d, r.n, r.method))
    return rows


def _rows_to_csv(rows: list[ConvergenceRow]) -> str:
    lines = [CSV_HEADER] + [",".join(map(str, asdict(r).values())) for r in rows]
    return "\n".join(lines) + "\n"


def _rows_to_json(rows: list[ConvergenceRow]) -> str:
    return json.dumps([asdict(r) for r in rows], indent=2) + "\n"


def _write_output(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def cmd_converge(config: StudyConfig) -> int:
    rows = run_converge(config)
    text = _rows_to_csv(rows) if config.fmt == "csv" else _rows_to_json(rows)
    _write_output(text, config.out)
    return 0


def cmd_coeffs(lam: float, s: float, h: float, k_max: int,
               out: str = "-", fmt: str = "csv") -> int:
    """Dump z_k, z_{k,s}, z_{k,-s}, p_{k,s} with identity-residual columns."""
    params = CoeffParams(lam=lam, s=s, h=h, k_max=k_max)
    table = coeff_table(params)
    rows = [{"k": k, **{col: float(getattr(table, col)[k]) for col in COEFF_COLUMNS}}
            for k in range(k_max + 1)]
    if fmt == "csv":
        lines = [",".join(["k", *COEFF_COLUMNS])]
        lines += [",".join([str(r["k"]), *(repr(r[col]) for col in COEFF_COLUMNS)])
                  for r in rows]
        lines += [f"# warning: {w}" for w in table.warnings]
        text = "\n".join(lines) + "\n"
    else:
        payload = {"lambda": lam, "s": s, "h": h, "rows": rows,
                   "warnings": list(table.warnings)}
        text = json.dumps(payload, indent=2) + "\n"
    _write_output(text, out)
    return 0


def cmd_eval(a: float, c: float, d: float, x_s: float, n: int,
             integrand: str = "test2", g_expr: str | None = None,
             method: str = "auto", out: str = "-") -> int:
    """Evaluate one corrected integral and print the QuadResult as JSON."""
    if integrand in ("test1", "test2"):
        g = _study_integrand(d)
    elif integrand == "custom":
        if not g_expr:
            raise ValueError("custom integrand needs --g-expr")
        g = _compile_g_expr(g_expr)
    else:
        raise ValueError("integrand must be test1, test2, or custom")
    params = KernelParams(a=a, c=c, d=d, x_s=x_s)
    res = integrate_near_singular(g, params, n, method=method)
    payload = {
        "value": res.value,
        "uncorrected": res.uncorrected,
        "singular_part": res.breakdown.singular_part,
        "jump_part": res.breakdown.jump_part,
        "method": res.method,
        "n": n, "h": res.mesh.h, "a": a, "c": c, "d": d, "xs": x_s,
        "warnings": res.warnings,
    }
    _write_output(json.dumps(payload, indent=2) + "\n", out)
    return 0


def parse_n_range(text: str) -> list[int]:
    """Parse '16:256:*2' (geometric) or '16,32,64' (explicit) n lists."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3 or not parts[2].startswith("*"):
            raise ValueError("n range must look like start:stop:*factor")
        start, stop, factor = int(parts[0]), int(parts[1]), int(parts[2][1:])
        if start < 1 or stop < start or factor < 2:
            raise ValueError("invalid n range")
        out = []
        n = start
        while n <= stop:
            out.append(n)
            n *= factor
        return out
    return [int(tok) for tok in text.split(",") if tok]


def parse_float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nsquad",
        description="Corrected trapezoidal quadrature for near-singular "
                    "and finite-part integrals")
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("converge", help="run a convergence study")
    pc.add_argument("--integrand", default="test1",
                    choices=("test1", "test2", "custom"))
    pc.add_argument("--g-expr", default=None,
                    help="numerator g(x) for --integrand custom, e.g. 'exp(x)'")
    pc.add_argument("--d", required=True, help="comma list of d values")
    pc.add_argument("--n", required=True,
                    help="comma list or geometric range start:stop:*factor")
    pc.add_argument("--method", default=",".join(CONVERGE_METHODS),
                    help="comma list of methods")
    pc.add_argument("--a", type=float, default=1.0)
    pc.add_argument("--c", type=float, default=1.0)
    pc.add_argument("--xs", type=float, default=0.0)
    pc.add_argument("--format", default="csv", choices=("csv", "json"))
    pc.add_argument("--out", default="-")

    pk = sub.add_parser("coeffs", help="dump correction coefficients")
    pk.add_argument("--lambda", dest="lam", type=float, required=True)
    pk.add_argument("--s", type=float, default=0.0)
    pk.add_argument("--h", type=float, default=0.01)
    pk.add_argument("--kmax", type=int, default=12)
    pk.add_argument("--format", default="csv", choices=("csv", "json"))
    pk.add_argument("--out", default="-")

    pe = sub.add_parser("eval", help="evaluate one corrected integral")
    pe.add_argument("--integrand", default="test2",
                    choices=("test1", "test2", "custom"))
    pe.add_argument("--g-expr", default=None)
    pe.add_argument("--a", type=float, default=1.0)
    pe.add_argument("--c", type=float, default=1.0)
    pe.add_argument("--d", type=float, required=True)
    pe.add_argument("--xs", type=float, default=0.0)
    pe.add_argument("--n", type=int, default=64)
    pe.add_argument("--method", default="auto",
                    choices=("auto", "closed-form", "fd-series"))
    pe.add_argument("--out", default="-")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "converge":
            config = StudyConfig(
                d_list=parse_float_list(args.d),
                n_list=parse_n_range(args.n),
                c=args.c, x_s=args.xs, a=args.a,
                integrand=args.integrand,
                methods=tuple(m for m in args.method.split(",") if m),
                out=args.out, fmt=args.format, g_expr=args.g_expr)
            return cmd_converge(config)
        if args.command == "coeffs":
            return cmd_coeffs(args.lam, args.s, args.h, args.kmax,
                              out=args.out, fmt=args.format)
        return cmd_eval(args.a, args.c, args.d, args.xs, args.n,
                        integrand=args.integrand, g_expr=args.g_expr,
                        method=args.method, out=args.out)
    except (ValueError, RuntimeError) as exc:
        print(f"nsquad: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
