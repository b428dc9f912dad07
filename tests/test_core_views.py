"""The checked public views return what the integration path's core returns.

Integration checks its inputs once, at the entry, and then calls the
unchecked core of `corrections`; `nsquad.correction_offmesh_closed` checks
the same inputs again and calls that core.  On every branch of the closed
form (the put-back alone at lam >= 5.97, the pole form at lam >= 1, the
seeds' series below |w| = 0.3, the Q series above Q_SERIES_RATIO) the
view's breakdown is integration's, bit for bit, and `integrate_finite_part`
is `integrate_near_singular` at c = 1, d = 0.
"""

import math
import random

import numpy as np
import pytest

import nsquad
from nsquad import GEval, KernelParams, Mesh, integrate_finite_part, integrate_near_singular
from nsquad.corrections import _Q_NEGLIGIBLE_LAM, FD_STENCIL, Q_SERIES_RATIO
from nsquad.emcoeff import W_STAR


def bits(breakdown) -> tuple:
    return (breakdown.singular_part.hex(), breakdown.jump_part.hex(),
            breakdown.total.hex(), breakdown.terms_used)


def lam_grid(s: float, rng: random.Random) -> list[float]:
    """lam on both sides of each switch of the closed form at offset s,
    seeded values between 1e-4 and 10, and two deep in the put-back."""
    switches = [1.0, _Q_NEGLIGIBLE_LAM]
    if abs(s) < W_STAR:
        switches.append(math.sqrt(W_STAR ** 2 - s * s))
    # lam > Q_SERIES_RATIO (s^2 + lam^2) between the two roots
    disc = 1.0 - 4.0 * (Q_SERIES_RATIO * s) ** 2
    if disc > 0.0:
        switches += [(1.0 + r * math.sqrt(disc)) / (2.0 * Q_SERIES_RATIO) for r in (1.0, -1.0)]
    lams = [lam * f for lam in switches if lam > 0.0 for f in (1.0 - 1e-3, 1.0 + 1e-3)]
    return lams + [10.0 ** rng.uniform(-4.0, 1.0) for _ in range(6)] + [100.0, 1e4]


@pytest.mark.parametrize("n, c", [(64, 1.0), (256, 0.5), (100, 3.0)])
def test_closed_form_view_is_the_integration_core(n, c):
    rng = random.Random(f"views:{n}:{c}")
    g = GEval.analytic(lambda z: np.exp(z) / (z * z + 0.49))
    a = 1.0
    h = Mesh(a, n).h
    samples = g.mesh_samples(Mesh(a, n))
    # s = -1/2 is not a puncture offset: a tie resolves to s = +1/2
    offsets = [0.0, 0.5, -0.5 + 2.0 ** -10, 0.03] + [rng.uniform(-0.5, 0.5) for _ in range(4)]
    branches = set()
    for s in offsets:
        for lam in lam_grid(s, rng):
            j = rng.randint(-n // 2, n // 2)
            x_s = (j + s) * h
            result = integrate_near_singular(
                g, KernelParams(a=a, c=c, d=lam * c * h, x_s=x_s), n, "closed-form")
            mesh = result.mesh
            i0 = n + mesh.puncture - FD_STENCIL // 2
            view = nsquad.correction_offmesh_closed(g, c, lam * c * h, h, mesh.s, x_s,
                                                    samples[i0:i0 + FD_STENCIL])
            assert bits(view) == bits(result.breakdown), (s, lam)
            lam_used = lam * c * h / (c * h)
            branches.add((lam_used >= _Q_NEGLIGIBLE_LAM, lam_used >= 1.0,
                          mesh.s ** 2 + lam_used ** 2 < W_STAR ** 2, view.terms_used > 0))
    # the put-back, the pole form, the seeds' series and pi cot, and the Q
    # series all ran
    assert {(True, True, False, False), (False, True, False, False),
            (False, False, True, False), (False, False, False, False),
            (False, False, True, True)} <= branches


def test_finite_part_is_near_singular_at_d_zero():
    rng = random.Random("finite-part")
    for g in (GEval.analytic(np.exp), GEval(real_eval=math.exp)):
        for n in (16, 64, 100, 256, 1024):
            for a in (1.0, 0.5, 3.0):
                h = a / n
                for x_s in [0.0, 3.5 * h] + [rng.uniform(-1.0, 1.0) * (a - 10.5 * h)
                                             for _ in range(4)]:
                    got = integrate_finite_part(g, a, x_s, n)
                    want = integrate_near_singular(g, KernelParams(a, 1, 0, x_s), n)
                    assert got.value.hex() == want.value.hex()
                    assert got.uncorrected.hex() == want.uncorrected.hex()
                    assert bits(got.breakdown) == bits(want.breakdown)
                    assert (got.mesh, got.method, got.warnings) == \
                        (want.mesh, want.method, want.warnings)


@pytest.mark.parametrize("convert", [np.float32, np.float64, int])
def test_views_convert_their_scalars_to_floats(convert):
    # a view's c, d, h, s and x_s, and a coefficient table's lam, s and h, are
    # converted once checked, as a kernel's are at the entry: each type gives
    # the result of its float(), bit for bit, with Python floats throughout
    g = GEval.analytic(np.exp)
    window = np.exp(np.arange(-4, 5) / 64.0 + 0.1)
    taylor = [1.0 / math.factorial(k) for k in range(9)]
    base = dict(c=2.0, d=1e-3, h=1.0 / 64, s=0.25, x_s=0.1)
    if convert is int:
        base = dict(c=2.0, d=1.0, h=1.0, s=0.0, x_s=0.0)
    for name in base:
        raw = {**base, name: convert(base[name])}
        flt = {k: float(v) for k, v in raw.items()}
        for view in (lambda p: nsquad.correction_offmesh_closed(
                         g, p["c"], p["d"], p["h"], p["s"], p["x_s"], window),
                     lambda p: nsquad.correction_taylor(taylor, p["c"], p["d"], p["h"], p["s"])):
            got, want = view(raw), view(flt)
            assert all(type(getattr(got, f)) is float
                       for f in ("singular_part", "jump_part", "total"))
            assert bits(got) == bits(want), name
    coeffs = dict(lam=0.3, s=0.25, h=0.01) if convert is not int else dict(lam=2.0, s=0.0, h=1.0)
    for name in coeffs:
        raw = {**coeffs, name: convert(coeffs[name])}
        params = nsquad.CoeffParams(**raw)
        assert all(type(getattr(params, f)) is float for f in coeffs)
        got, want = nsquad.coeff_table(params), nsquad.coeff_table(
            nsquad.CoeffParams(**{k: float(v) for k, v in raw.items()}))
        assert got.pks.tobytes() == want.pks.tobytes() and got.zks.tobytes() == want.zks.tobytes()
    h, offset = (1.0 / 64, 0.25 / 64) if convert is not int else (1.0, 0.0)
    for raw in ((convert(h), offset), (h, convert(offset))):
        got = nsquad.fd_derivatives(window, *raw)
        assert got.tobytes() == nsquad.fd_derivatives(window, *map(float, raw)).tobytes()
