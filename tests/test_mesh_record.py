"""A mesh's step h and nesting family are formed once, in `Mesh.__post_init__`.

Every reader takes them from the `Mesh`: the GEval keys its kept meshes by
`mesh._family`, the study walk and `_MeshPass.stride_to` compare it, and h
is `mesh.h`.  These tests pin that: no module defines a `_family` function,
only `Mesh.__post_init__` forms the odd part of n (`n & -n`), and the mesh
pass keeps no h of its own.
"""

import ast
from pathlib import Path

import nsquad
from nsquad.integrator import _MeshPass

SRC = Path(nsquad.__file__).resolve().parent


def functions() -> dict[tuple[str, str], ast.FunctionDef]:
    """{(module, qualified name): node} of every function in `src/nsquad`."""
    found = {}

    def visit(node: ast.AST, module: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if isinstance(child, ast.FunctionDef):
                    found[(module, name)] = child
                visit(child, module, name + ".")
            else:
                visit(child, module, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "")
    return found


def forms_lowest_bit(node: ast.AST) -> bool:
    """node is `n & -n`, for any name n."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)
            and isinstance(node.left, ast.Name) and isinstance(node.right, ast.UnaryOp)
            and isinstance(node.right.op, ast.USub) and isinstance(node.right.operand, ast.Name)
            and node.left.id == node.right.operand.id)


def test_no_module_defines_family():
    assert [key for key in functions() if key[1].rsplit(".", 1)[-1] == "_family"] == []
    for path in sorted(SRC.glob("*.py")):
        assigned = {target.id for node in ast.parse(path.read_text()).body
                    if isinstance(node, ast.Assign) for target in node.targets
                    if isinstance(target, ast.Name)}
        assert "_family" not in assigned, path.stem


def test_only_mesh_post_init_forms_the_odd_part():
    forming = sorted(key for key, node in functions().items()
                     if any(map(forms_lowest_bit, ast.walk(node))))
    assert forming == [("meshrule", "Mesh.__post_init__")]


def test_mesh_pass_keeps_no_h():
    assert "h" not in _MeshPass.__slots__
