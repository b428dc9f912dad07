"""lam = d/(c h) and its range are stated once, in `corrections._lam`.

lam alone picks the form of a correction (the put-back, the pole form, the
seeds' form), so the mesh pass, the checked views of `verify` and
`self_check` all take it, and its two range errors, from that one function.
These tests pin that: no other function forms d/(c h), the helpers it
replaced are gone, and the core's `_assemble` does not check lam^2 again.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import nsquad

SRC = Path(nsquad.__file__).resolve().parent


def functions() -> dict[tuple[str, str], ast.FunctionDef]:
    """{(module, name): node} of every function in `src/nsquad`."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                found[(path.stem, node.name)] = node
    return found


def name_of(node: ast.AST) -> str | None:
    """The name that node reads: d of `d` and of `params.d`."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def divides_d_by_c_h(node: ast.AST) -> bool:
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
            and name_of(node.left) == "d" and isinstance(node.right, ast.BinOp)
            and isinstance(node.right.op, ast.Mult)
            and {name_of(node.right.left), name_of(node.right.right)} == {"c", "h"})


def test_only_lam_divides_d_by_c_h():
    forming = sorted(key for key, node in functions().items()
                     if any(map(divides_d_by_c_h, ast.walk(node))))
    assert forming == [("corrections", "_lam")]


def test_the_replaced_helpers_are_gone():
    names = {name for _, name in functions()}
    assert "_check_mesh_scale" not in names and "_lam_square_error" not in names


def test_assemble_does_not_check_lam_squared():
    node = functions()[("corrections", "_assemble")]
    squares = [sub.lineno for sub in ast.walk(node)
               if isinstance(sub, ast.BinOp) and name_of(sub.left) == "lam"
               and (isinstance(sub.op, ast.Mult) and name_of(sub.right) == "lam"
                    or isinstance(sub.op, ast.Pow))]
    assert squares == []


@pytest.mark.parametrize("module, name", [("integrator", "_mesh_pass"),
                                          ("verify", "_check_scales"),
                                          ("verify", "self_check")])
def test_every_entry_takes_lam_from_lam(module, name):
    node = functions()[(module, name)]
    assert "_lam" in {call.func.id for call in ast.walk(node)
                      if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)}


def test_lam_is_the_quotient():
    # its two range errors are pinned, entry by entry, in tests/test_entry_errors.py
    from nsquad.corrections import _lam

    for c, d, h in ((1.0, 1e-3, 1.0 / 64), (0.7, 0.3, 0.01), (2.0, 0.0, 1e-5)):
        assert _lam(c, d, h) == d / (c * h)
    # where d^2 overflows too, the range is the d^2 check's, at the kernel's entry
    assert _lam(1.0, 1e160, 0.5) == 2e160 and math.isinf(2e160 * 2e160)


def test_the_views_take_lam_of_python_floats():
    # a float32 d is converted before lam is formed: lam is a float's, not a float32's
    from nsquad.verify import _check_scales

    c, d, h, lam = _check_scales(np.float32(0.7), np.float32(0.3), np.float32(0.01))
    assert all(type(v) is float for v in (c, d, h, lam))
    assert lam == d / (c * h)
    a = [1.0, 0.5, 0.25]
    assert (nsquad.correction_taylor(a, 0.7, np.float32(0.3), 0.01, 0.1)
            == nsquad.correction_taylor(a, 0.7, float(np.float32(0.3)), 0.01, 0.1))
