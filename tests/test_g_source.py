"""Which G a method takes is stated once, in `corrections._g_source`.

The closed form takes G = g(x_s + i d/c) from g's complex_eval or from g's
Taylor polynomial on the 9 samples around the puncture.  `_g_source`
resolves a method and d to one of the two, and `_correction` takes what it
returns, a callable or None.  These tests pin that wiring: the rule, its
callers, and what no other module repeats of it.
"""

import ast
import cmath
import inspect
import math
from pathlib import Path

import numpy as np
import pytest

import nsquad
from nsquad.corrections import GEval, _correction, _g_source
from nsquad.integrator import _study_values

SRC = Path(nsquad.__file__).resolve().parent
ANALYTIC = GEval(real_eval=math.exp, complex_eval=cmath.exp)
REAL_ONLY = GEval(real_eval=math.exp)


def functions(module: str) -> dict[str, ast.FunctionDef]:
    tree = ast.parse((SRC / f"{module}.py").read_text())
    return {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def calls(node: ast.AST) -> set[str]:
    return {call.func.id for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)}


@pytest.mark.parametrize("method, d, g, takes_complex_eval", [
    ("auto", 1e-3, "analytic", True), ("auto", 1e-3, "real-only", False),
    ("auto", 0.0, "analytic", False), ("auto", 0.0, "real-only", False),
    ("closed-form", 1e-3, "analytic", True), ("closed-form", 0.0, "analytic", False),
    ("closed-form", 0.0, "real-only", False),
    ("fd-series", 1e-3, "analytic", False), ("fd-series", 1e-3, "real-only", False),
    ("fd-series", 0.0, "analytic", False), ("fd-series", 0.0, "real-only", False),
])
def test_the_rule(method, d, g, takes_complex_eval):
    g = {"analytic": ANALYTIC, "real-only": REAL_ONLY}[g]
    assert _g_source(g, method, d) is (g.complex_eval if takes_complex_eval else None)


def test_closed_form_at_a_positive_d_needs_complex_eval():
    with pytest.raises(ValueError, match="^closed-form correction needs a complex "
                                         "evaluator for g$"):
        _g_source(REAL_ONLY, "closed-form", 1e-3)


def test_the_correction_takes_the_source_not_a_geval_and_a_flag():
    params = inspect.signature(_correction).parameters
    assert "exact" not in params and "g" not in params
    assert not any(p.annotation in ("bool", "GEval", bool, GEval) for p in params.values())


def test_integrator_reads_no_complex_eval():
    # the code only: docstrings and other strings may name it
    tree = ast.parse((SRC / "integrator.py").read_text())
    reads = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "complex_eval"]
    assert reads == []


def test_the_error_is_written_once():
    text = "".join(path.read_text() for path in sorted(SRC.glob("*.py")))
    assert text.count("needs a complex evaluator") == 1


def test_every_entry_that_takes_a_method_resolves_it():
    integrator, verify = functions("integrator"), functions("verify")
    for node in (integrator["integrate_near_singular"], integrator["_study_values"],
                 verify["correction_offmesh_closed"]):
        assert "_g_source" in calls(node), node.name


def test_a_study_resolves_before_g_is_sampled():
    sampled = []

    def real_eval(x):
        sampled.append(x)
        return math.exp(x)
    with pytest.raises(ValueError, match="needs a complex evaluator"):
        _study_values(GEval(real_eval=real_eval), 1.0, 1.0, 1e-3, 0.1, [64],
                      ["corrected-fd6", "corrected-closed"])
    assert sampled == []
    # d = 0 takes the Taylor G for every method: no complex_eval needed
    values = _study_values(GEval(real_eval=real_eval), 1.0, 1.0, 0.0, 0.1, [64],
                           ["corrected-closed", "corrected-fd6"])
    assert values[64][0] == values[64][1] and np.isfinite(values[64][0])
