"""Corrected trapezoidal rules for near-singular and finite-part integrals.

Evaluates integrals of g(x)/(d^2 + c^2 (x - x_s)^2) over [-a, a] to machine
precision uniformly in the near-singularity strength d, by adding one
closed-form correction, in g or in its Taylor polynomial, to the punctured
trapezoidal rule; at d = 0 the same form gives the Hadamard finite part.
"""

from .corrections import (
    CorrectionBreakdown,
    GEval,
    correction_offmesh_closed,
    correction_taylor,
    fd_derivatives,
)
from .emcoeff import pks_quotients
from .integrator import (
    KernelParams,
    QuadResult,
    integrate_finite_part,
    integrate_near_singular,
    puncture_split,
)
from .meshrule import (
    EdgeScheme,
    Mesh,
    gregory_weights,
    left_rule,
    plain_trapezoid,
    punctured_trapezoid,
    right_rule,
    shifted_trapezoid,
)
from .oracle import (
    ReferenceResult,
    complex_ei,
    exact_test1,
    exact_test2,
    finite_part_reference,
    reference_integral,
)
from .specfun import (
    bernoulli_number,
    bernoulli_poly,
    digamma,
    digamma_complex,
    hurwitz_zeta_nonpos,
    trigamma,
)
from .verify import (
    CoeffParams,
    CoeffTable,
    SelfCheckReport,
    coeff_table,
    fk_series_oracle,
    pks_closed,
    pks_table,
    self_check,
    zks_table,
)

__version__ = "0.1.0"

__all__ = [
    "Mesh", "EdgeScheme", "gregory_weights", "punctured_trapezoid",
    "plain_trapezoid", "shifted_trapezoid", "left_rule", "right_rule",
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
