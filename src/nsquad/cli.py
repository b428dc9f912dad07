"""Command-line driver: convergence studies, coefficient dumps, single evaluations.

Output is CSV or JSON with floats in shortest round-trip decimal form and
rows in (d, n, method) order, so identical configurations produce
bit-identical files.

A convergence study checks each d's kernel once (`integrator._check_kernel`)
and takes its values from `integrator._study_values`, which walks each
d's meshes finest first, pays one kernel pass per nesting family
(`Mesh._family`) and reads every row at one (d, n) from that mesh's pass;
this module builds g, the references and the rows, from the Python floats
those two return.  A custom g does not depend on d and serves the whole
study.
The built-in integrands test1 and test2 have exact references on [-1, 1]
only, so a study of either needs a = 1.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from dataclasses import asdict, dataclass, fields
from typing import Callable

import numpy as np

from .corrections import GEval
from .integrator import (
    _STUDY_ROWS,
    METHODS,
    KernelParams,
    _check_kernel,
    _study_values,
    integrate_near_singular,
)
from .oracle import exact_test1, exact_test2, reference_integral
from .verify import CoeffParams, coeff_table

CONVERGE_METHODS = tuple(_STUDY_ROWS)
# the integrands of `--integrand`: the built-in ones, then custom
_INTEGRANDS = ("test1", "test2", "custom")
_INTEGRAND_ERROR = f"integrand must be {', '.join(_INTEGRANDS[:-1])}, or {_INTEGRANDS[-1]}"

# CoeffTable fields that `nsquad coeffs` prints, one row per k
COEFF_COLUMNS = ("zk", "zks", "zk_minus_s", "pks", "sym_resid", "closedform_resid")


@dataclass(slots=True)
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
        for name, values in (("d", self.d_list), ("n", self.n_list), ("method", self.methods)):
            repeated = [v for k, v in enumerate(values) if v in values[:k]]
            if repeated:   # it would print its rows twice
                raise ValueError(f"{name} {repeated[0]!r} is repeated; give each {name} once")
        if self.integrand not in _INTEGRANDS:
            raise ValueError(_INTEGRAND_ERROR)
        bad = [m for m in self.methods if m not in CONVERGE_METHODS]
        if bad:
            raise ValueError(f"unknown methods {bad}; choose from {CONVERGE_METHODS}")
        if self.fmt not in ("csv", "json"):
            raise ValueError("format must be csv or json")
        if self.integrand != "custom" and self.a != 1.0:
            # exact_test1/2 integrate over [-1, 1]
            raise ValueError(f"{self.integrand} is defined for a = 1 only; "
                             "use --integrand custom for another a")
        if self.integrand == "test1" and (self.c != 1.0 or self.x_s != 0.0):
            raise ValueError("test1 is defined for c = 1, x_s = 0; use test2")
        if self.integrand == "custom" and not self.g_expr:
            raise ValueError("custom integrand needs --g-expr")
        if any(d <= 0.0 for d in self.d_list):
            raise ValueError("convergence studies require d > 0")


# what a `--g-expr` may call: functions with an analytic continuation, so that
# the closed form's G = g(x_s + i d/c) is g's (abs would give the modulus)
_EXPR_FUNCTIONS = {
    "exp": np.exp, "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "sinh": np.sinh, "cosh": np.cosh, "tanh": np.tanh,
    "sqrt": np.sqrt, "log": np.log,
}
_EXPR_OPERATORS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
# what the error line calls a construct of a `--g-expr` that is not allowed
_EXPR_KINDS = {ast.Name: "name", ast.Attribute: "attribute access", ast.Compare: "comparison",
               ast.Subscript: "subscript", ast.Call: "call", ast.Constant: "constant"}


def _rejected(node: ast.AST) -> ast.AST | None:
    """The first construct under `node`, of a parsed `--g-expr`, that is none
    of x, an int or float constant, pi, e, + - * / **, unary + -, and a call
    with positional arguments of `_EXPR_FUNCTIONS`; None if there is none."""
    if isinstance(node, ast.Call):
        if not (isinstance(node.func, ast.Name) and node.func.id in _EXPR_FUNCTIONS):
            return node.func
        if node.keywords:
            return node
        children = node.args
    elif isinstance(node, ast.BinOp) and isinstance(node.op, _EXPR_OPERATORS):
        children = (node.left, node.right)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        children = (node.operand,)
    elif (isinstance(node, ast.Name) and node.id in ("x", "pi", "e")
          or isinstance(node, ast.Constant) and type(node.value) in (int, float)):
        return None
    else:
        return node
    return next(filter(None, map(_rejected, children)), None)


def _compile_g_expr(expr: str) -> GEval:
    """g of a `--g-expr`, its text parsed without surrounding whitespace;
    ValueError, quoting the expression as given, naming the first construct
    that `_rejected` finds, or the point where it raises: x = 0.0, a node
    of every mesh, where it is tried once, or any later scalar point (1/x
    at x = 0: numpy arrays give inf).  It runs with numpy's floating-point
    warnings silenced: where g is not finite, the GEval and the reference
    name the point."""
    try:
        tree = ast.parse(expr.strip(), mode="eval")
        bad = _rejected(tree.body)
    except (SyntaxError, RecursionError, MemoryError) as exc:   # the last two: nested too deeply
        raise ValueError(f"cannot evaluate g expression {expr!r}: "
                         f"{str(exc) or 'nested too deeply'}") from exc
    if bad is not None:
        raise ValueError(f"g expression {expr!r} may not use the "
                         f"{_EXPR_KINDS.get(type(bad), 'construct')} {ast.unparse(bad)!r}; "
                         f"it may use x, int and float constants, pi, e, + - * / ** and "
                         f"{', '.join(_EXPR_FUNCTIONS)} on positional arguments")
    # `lambda x: <the checked tree>`: the expression's text is parsed once
    code = ast.parse("lambda x: 0", mode="eval")
    code.body.body = tree.body
    f = eval(compile(code, "<g-expr>", "eval"),
             {"__builtins__": {}, **_EXPR_FUNCTIONS, "pi": np.pi, "e": np.e})

    def g(x):
        try:
            with np.errstate(all="ignore"):
                return f(x)
        except ArithmeticError as exc:
            raise ValueError(f"g expression {expr!r} fails at x = {x!r}: {exc}") from exc
    try:
        with np.errstate(all="ignore"):
            f(0.0)
    except Exception as exc:
        raise ValueError(f"g expression {expr!r} fails at x = 0.0: {exc}") from exc
    return GEval.analytic(g)


def _integrand(name: str, g_expr: str | None) -> Callable[[float], GEval]:
    """g as a function of d: d e^z for test1 and test2, and for custom the
    one GEval of the compiled `g_expr`, for every d."""
    if name not in _INTEGRANDS:
        raise ValueError(_INTEGRAND_ERROR)
    if name != "custom":
        return lambda d: GEval.analytic(lambda z: d * np.exp(z))
    if not g_expr:
        raise ValueError("custom integrand needs --g-expr")
    g = _compile_g_expr(g_expr)
    return lambda d: g


def _study_reference(config: StudyConfig, g: GEval, d: float) -> float:
    if config.integrand == "test1":
        return exact_test1(d)
    if config.integrand == "test2":
        return exact_test2(d, config.c, config.x_s)
    # to 1e-13 relative: the integral grows as pi/(c d)
    return reference_integral(g, KernelParams(a=config.a, c=config.c, d=d, x_s=config.x_s)).value


def run_converge(config: StudyConfig) -> list[ConvergenceRow]:
    """The rows of the study in (d, n, method) order, each d's values from
    `_study_values`, with one GEval for every d when g is custom."""
    integrand = _integrand(config.integrand, config.g_expr)
    methods = sorted(config.methods)
    blocks = {}   # d: its rows
    for d in config.d_list:
        g = integrand(d)
        reference = float(_study_reference(config, g, d))
        # every float field a Python float, as `_check_kernel` and `_study_values`
        # return them: `_rows_to_csv` prints str()
        a, c, d, x_s = _check_kernel(config.a, config.c, d, config.x_s)
        values = _study_values(g, a, c, d, x_s, config.n_list, methods)
        # h after the pass, whose check of n reports n = 0 (a / n would divide by zero)
        blocks[d] = [ConvergenceRow(n, a / n, d, c, x_s, method, value, reference,
                                    abs(value - reference))
                     for n in reversed(values) for method, value in zip(methods, values[n])]
    return [row for d in sorted(blocks) for row in blocks[d]]


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
    g = _integrand(integrand, g_expr)(d)
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
    # the options of a kernel and its g that converge and eval share
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--g-expr", default=None,
                        help="numerator g(x) for --integrand custom, e.g. 'exp(x)'")
    shared.add_argument("--a", type=float, default=1.0)
    shared.add_argument("--c", type=float, default=1.0)
    shared.add_argument("--xs", type=float, default=0.0)
    shared.add_argument("--out", default="-")

    pc = sub.add_parser("converge", parents=[shared], help="run a convergence study")
    pc.add_argument("--integrand", default="test1", choices=_INTEGRANDS)
    pc.add_argument("--d", required=True, help="comma list of d values")
    pc.add_argument("--n", required=True,
                    help="comma list or geometric range start:stop:*factor")
    pc.add_argument("--method", default=",".join(CONVERGE_METHODS),
                    help="comma list of methods")
    pc.add_argument("--format", default="csv", choices=("csv", "json"))

    pk = sub.add_parser("coeffs", help="dump correction coefficients")
    pk.add_argument("--lambda", dest="lam", type=float, required=True)
    pk.add_argument("--s", type=float, default=0.0)
    pk.add_argument("--h", type=float, default=0.01)
    pk.add_argument("--kmax", type=int, default=12)
    pk.add_argument("--format", default="csv", choices=("csv", "json"))
    pk.add_argument("--out", default="-")

    pe = sub.add_parser("eval", parents=[shared], help="evaluate one corrected integral")
    pe.add_argument("--integrand", default="test2", choices=_INTEGRANDS)
    pe.add_argument("--d", type=float, required=True)
    pe.add_argument("--n", type=int, default=64)
    pe.add_argument("--method", default="auto", choices=METHODS)
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
    # OSError: an unwritable --out; MemoryError: an n whose 2n+1 nodes do not fit
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(f"nsquad: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
