"""Corrected trapezoidal rules for near-singular and finite-part integrals.

Evaluates integrals of g(x)/(d^2 + c^2 (x - x_s)^2) over [-a, a] to machine
precision uniformly in the near-singularity strength d, by adding one
closed-form correction, in g or in its Taylor polynomial, to the punctured
trapezoidal rule; at d = 0 the same form gives the Hadamard finite part.
"""

import importlib

from .corrections import CorrectionBreakdown, GEval
from .integrator import (
    KernelParams,
    QuadResult,
    integrate_finite_part,
    integrate_near_singular,
    puncture_split,
)
from .meshrule import Mesh, gregory_weights

# The oracle and the cross-checks, which integration never reads, load on
# first access to one of their names (PEP 562), so `import nsquad` costs
# only the integration core.
_LAZY_MODULES = ("oracle", "verify")
_LAZY = {
    **dict.fromkeys(("ReferenceResult", "complex_ei", "exact_test1", "exact_test2",
                     "finite_part_reference", "reference_integral"), "oracle"),
    **dict.fromkeys(("CoeffParams", "CoeffTable", "SelfCheckReport", "bernoulli_number",
                     "bernoulli_poly", "coeff_table", "correction_offmesh_closed",
                     "correction_taylor", "digamma", "digamma_complex",
                     "fd_derivatives", "fk_series_oracle", "hurwitz_zeta_nonpos",
                     "pks_closed", "pks_quotients", "pks_table", "plain_trapezoid",
                     "punctured_trapezoid", "self_check", "trigamma", "zks_table"),
                    "verify"),
}


def __getattr__(name: str):
    if name in _LAZY_MODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__getattr__(_LAZY[name]), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())


__version__ = "0.1.0"

__all__ = [
    "Mesh", "gregory_weights", "punctured_trapezoid", "plain_trapezoid",
    "CoeffParams", "CoeffTable", "coeff_table", "zks_table",
    "pks_table", "pks_closed", "pks_quotients", "fk_series_oracle",
    "GEval", "CorrectionBreakdown",
    "correction_offmesh_closed", "correction_taylor", "fd_derivatives",
    "KernelParams", "QuadResult", "SelfCheckReport",
    "integrate_near_singular", "integrate_finite_part", "self_check",
    "puncture_split",
    "ReferenceResult", "reference_integral", "exact_test1", "exact_test2",
    "complex_ei", "finite_part_reference",
    "bernoulli_number", "bernoulli_poly", "digamma", "digamma_complex",
    "trigamma", "hurwitz_zeta_nonpos",
]
