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


def imported_names(name: str) -> set[str]:
    """Every name module `name` imports, bare or from another module."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
    return names


def test_integration_path_does_not_import_digamma():
    # the seeds are elementary; digamma and trigamma stay in specfun for verify
    for name in ("emcoeff", "corrections", "integrator", "meshrule"):
        assert not imported_names(name) & {"digamma", "digamma_complex", "trigamma"}, name
    assert {"digamma", "digamma_complex", "trigamma"} <= set(nsquad.__all__)
    assert {"digamma", "digamma_complex", "trigamma"} <= imported_names("verify")


def test_runtime_core_has_no_quotient_tables():
    # sum_k q_k b_k is one synthetic division in corrections; the quotients
    # q_k themselves are verify's reference
    gone = {"pks_quotients", "stencil_taylor", "_quotient_series"}
    for name in RUNTIME_CORE:
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert not (defined | imported_names(name)) & gone, name
    assert "pks_quotients" in nsquad.__all__
    assert nsquad.pks_quotients.__module__ == "nsquad.verify"
