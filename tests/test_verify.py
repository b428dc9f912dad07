"""The runtime core does not depend on the coefficient cross-checks."""

import ast
import json
import os
import subprocess
import sys
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
    assert {"_bernoulli_fractions", "bernoulli_fraction"} <= defined_names("specfun")


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


# the public entry points of the core that no core module calls
CORE_ENTRY_POINTS = {"integrate_near_singular", "integrate_finite_part"}
# public views over core routines, checked, that integration never calls
MOVED_VIEWS = ("fd_derivatives", "correction_taylor", "correction_offmesh_closed",
               "punctured_trapezoid", "plain_trapezoid")
# nsquad.__all__, the same 36 names wherever they are defined, by defining module
PUBLIC_NAMES = {
    **dict.fromkeys(("Mesh", "gregory_weights"), "meshrule"),
    **dict.fromkeys(("GEval", "CorrectionBreakdown"), "corrections"),
    **dict.fromkeys(("KernelParams", "QuadResult", "integrate_near_singular",
                     "integrate_finite_part", "puncture_split"), "integrator"),
    **dict.fromkeys(("ReferenceResult", "reference_integral", "exact_test1", "exact_test2",
                     "complex_ei", "finite_part_reference"), "oracle"),
    **dict.fromkeys(("punctured_trapezoid", "plain_trapezoid", "CoeffParams", "CoeffTable",
                     "coeff_table", "zks_table", "pks_table", "pks_closed", "pks_quotients",
                     "fk_series_oracle", "correction_taylor", "correction_offmesh_closed",
                     "fd_derivatives",
                     "SelfCheckReport", "self_check", "bernoulli_number", "bernoulli_poly",
                     "digamma", "digamma_complex", "trigamma", "hurwitz_zeta_nonpos"), "verify"),
}


def top_level_names(name: str) -> set[str]:
    """The functions, classes and constants module `name` defines at top level."""
    names = set()
    for node in ast.parse((PACKAGE / f"{name}.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_runtime_core_is_the_integration_path():
    # every name a core module defines is read by some core module (a load
    # or an attribute, not its definition or an import), but for the
    # entry points
    read = set()
    for name in RUNTIME_CORE:
        for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = {(name, defined) for name in RUNTIME_CORE
              for defined in top_level_names(name) - read - CORE_ENTRY_POINTS}
    assert not unread
    for name in MOVED_VIEWS:
        assert getattr(nsquad, name).__module__ == "nsquad.verify", name
        assert not any(name in top_level_names(core) for core in RUNTIME_CORE), name
    assert sorted(nsquad.__all__) == sorted(PUBLIC_NAMES)


COLD_START = """
import json, sys
import numpy as np
import nsquad
at_import = [m for m in ("fractions", "decimal") if m in sys.modules]
from nsquad import GEval, KernelParams, integrate_near_singular
integrate_near_singular(GEval.analytic(np.exp), KernelParams(a=1.0, c=1.0, d=1e-3, x_s=0.1), 64)
loaded = [m for m in ("nsquad.oracle", "nsquad.verify", "nsquad.cli", "mpmath") if m in sys.modules]
missing = sorted(set(nsquad.__all__) - set(dir(nsquad)))
try:
    nsquad.no_such_name
    unknown = "resolved"
except AttributeError:
    unknown = "AttributeError"
from nsquad import digamma
modules = {name: getattr(nsquad, name).__module__ for name in nsquad.__all__}
print(json.dumps([at_import, loaded, missing, unknown, digamma.__name__, modules]))
"""


def test_cold_import_loads_only_the_integration_core():
    # a fresh interpreter: `import nsquad` and one integration load neither the
    # oracle nor the cross-checks, whose names resolve on first access; the
    # import alone loads no `fractions`, which the first table build imports
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", COLD_START], capture_output=True, text=True,
                         env=env, check=True, timeout=120).stdout
    at_import, loaded, missing, unknown, digamma_name, modules = json.loads(out)
    assert at_import == []
    assert loaded == []
    assert missing == []
    assert unknown == "AttributeError"
    assert digamma_name == "digamma"
    assert modules == {name: f"nsquad.{module}" for name, module in PUBLIC_NAMES.items()}
