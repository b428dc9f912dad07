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


def defined_names(name: str) -> set[str]:
    """Every function, class and module-level variable module `name` defines."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    names = {node.name for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


VERIFY_ONLY = {"digamma", "digamma_complex", "trigamma", "hurwitz_zeta_nonpos",
               "bernoulli_poly", "bernoulli_poly_fraction"}


def test_integration_path_does_not_import_digamma():
    # the seeds are elementary: the special functions only the cross-checks
    # read live in verify, beside them, and the runtime core neither defines
    # nor imports one
    for name in RUNTIME_CORE:
        assert not (defined_names(name) | imported_names(name)) & VERIFY_ONLY, name
    public = VERIFY_ONLY - {"bernoulli_poly_fraction"}
    assert public <= set(nsquad.__all__)
    for name in public:
        assert getattr(nsquad, name).__module__ == "nsquad.verify", name
    assert {"_bernoulli_fractions", "bernoulli_fraction", "bernoulli_number"} <= (
        defined_names("specfun"))


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
