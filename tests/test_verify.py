"""The runtime core does not depend on the coefficient cross-checks."""

import ast
from pathlib import Path

import nsquad

PACKAGE = Path(nsquad.__file__).parent
RUNTIME_CORE = ("integrator", "corrections", "emcoeff", "meshrule", "specfun")


def imported_modules(name: str) -> set[str]:
    """The nsquad submodules that module `name` imports, e.g. {"emcoeff"}."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    dotted = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "nsquad" if node.level else ""
            base = ".".join(filter(None, (base, node.module)))
            # `from . import verify` names a submodule as well as `from .verify import x`
            dotted.add(base)
            dotted.update(f"{base}.{alias.name}" for alias in node.names)
    return {m.split(".")[1] for m in dotted if m.startswith("nsquad.")}


def test_runtime_core_does_not_import_verify():
    for name in RUNTIME_CORE:
        assert "verify" not in imported_modules(name), name
    integrator_imports = imported_modules("integrator")
    assert "emcoeff" not in integrator_imports
    assert "specfun" not in integrator_imports
