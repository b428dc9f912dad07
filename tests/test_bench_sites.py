"""The benchmark's tracer finds the layer boundaries it measures at.

`perfbench/tracer.py` wraps the functions one nsquad module calls in another
under the names in its `SITES`, and swaps `nsquad.cli.GEval` to count the g
of the CLI (`CLI_G_SITE`).  A rename in the program drops a site silently: a
traced run only lists it as missing.  This test resolves every site as
`Tracer.installed` does, with the tracer's own `_resolve`, so a rename fails
here at once.
"""

import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# the SITES entries the program no longer has; the traced metrics are
# measured at the 12 others.  Once SITES is repaired, this set is empty
KNOWN_MISSING = {
    "nsquad.integrator.punctured_trapezoid",
    "nsquad.cli.plain_trapezoid",
    "nsquad.meshrule.Mesh.node",
    "nsquad.integrator.correction_centered_closed",
    "nsquad.integrator.correction_offmesh_closed",
    "nsquad.integrator.correction_series_truncated",
    "nsquad.integrator.fd_derivatives",
    "nsquad.integrator.hypersingular_offmesh",
    "nsquad.corrections.taylor_coeffs",
    "nsquad.corrections.fd_derivatives",
    "nsquad.integrator.conditioning_warnings",
    "nsquad.integrator.coeff_table",
    "nsquad.integrator.pks_closed",
    "nsquad.integrator.pks_seeds",
    "nsquad.integrator.zks_table",
    "nsquad.corrections.pks_table",
    "nsquad.corrections.zk_table",
    "nsquad.cli.pks_closed",
    "nsquad.integrator.hurwitz_zeta_nonpos",
    "nsquad.corrections.digamma",
    "nsquad.corrections.trigamma",
    "nsquad.emcoeff.digamma",
    "nsquad.emcoeff.digamma_complex",
    "nsquad.emcoeff.hurwitz_zeta_nonpos",
    "nsquad.emcoeff.trigamma",
    "nsquad.emcoeff.zeta_nonpos",
    "nsquad.meshrule.bernoulli_number",
    "nsquad.meshrule.bernoulli_poly_fraction",
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_site_but_the_known_ones_resolves():
    tracer = load_tracer()
    missing = {f"{module}.{attr}" for _, module, attr, _ in tracer.SITES
               if tracer._resolve(module, attr) is None}
    assert missing == KNOWN_MISSING
    assert len(tracer.SITES) - len(missing) == 12
    assert tracer._resolve(*tracer.CLI_G_SITE) is not None
