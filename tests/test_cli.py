import json
import math

import numpy as np
import pytest

from nsquad import cli
from nsquad.cli import (
    CSV_HEADER,
    StudyConfig,
    main,
    parse_float_list,
    parse_n_range,
    run_converge,
)
from nsquad.corrections import FD_STENCIL, GEval
from nsquad.integrator import KernelParams, _mesh_pass, integrate_near_singular
from nsquad.meshrule import Mesh
from nsquad.oracle import exact_test1, exact_test2
from nsquad.verify import plain_trapezoid


class TestParsing:
    def test_geometric_range(self):
        assert parse_n_range("16:256:*2") == [16, 32, 64, 128, 256]
        assert parse_n_range("16:100:*4") == [16, 64]

    def test_comma_list(self):
        assert parse_n_range("16,32,64") == [16, 32, 64]
        assert parse_float_list("0.1,0.01,1e-4") == [0.1, 0.01, 1e-4]

    def test_bad_range(self):
        with pytest.raises(ValueError):
            parse_n_range("16:256:2")
        with pytest.raises(ValueError):
            parse_n_range("256:16:*2")


class TestStudyConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            StudyConfig(d_list=[], n_list=[64])
        with pytest.raises(ValueError):
            StudyConfig(d_list=[0.1], n_list=[64], methods=())
        with pytest.raises(ValueError):
            StudyConfig(d_list=[0.1], n_list=[64], integrand="mystery")
        with pytest.raises(ValueError):
            StudyConfig(d_list=[0.1], n_list=[64], methods=("nope",))
        with pytest.raises(ValueError):
            StudyConfig(d_list=[0.0], n_list=[64])
        with pytest.raises(ValueError):
            StudyConfig(d_list=[0.1], n_list=[64], integrand="test1", x_s=0.1)
        with pytest.raises(ValueError):
            StudyConfig(d_list=[0.1], n_list=[64], integrand="custom")

    @pytest.mark.parametrize("integrand, a", [("test1", 0.5), ("test2", 2.0)])
    def test_built_in_integrands_need_a_one(self, capsys, integrand, a):
        # exact_test1/2 integrate over [-1, 1]: another a would report a
        # wrong reference and abs_err
        with pytest.raises(ValueError, match="a = 1 only; use --integrand custom"):
            StudyConfig(d_list=[0.01], n_list=[64], integrand=integrand, a=a)
        assert main(["converge", "--integrand", integrand, "--a", str(a),
                     "--d", "0.01", "--n", "64"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("nsquad: error: ")
        StudyConfig(d_list=[0.01], n_list=[64], integrand="custom", g_expr="exp(x)", a=a)


def shape_counting_geval(calls: list):
    """A stand-in for `cli.GEval` whose `analytic` g appends the shape of each
    argument to `calls`: (2n+1,) for a mesh, () for a scalar complex_eval."""

    class CountingGEval:
        @staticmethod
        def analytic(f, radius=0.5):
            def counted(z):
                calls.append(np.shape(z))
                return f(z)
            return GEval.analytic(counted, radius)

    return CountingGEval


class TestConverge:
    def test_rows_sorted_and_correct(self):
        config = StudyConfig(d_list=[0.1, 0.01], n_list=[32, 64],
                             methods=("corrected-closed", "uncorrected-plain"))
        rows = run_converge(config)
        assert len(rows) == 8
        keys = [(r.d, r.n, r.method) for r in rows]
        assert keys == sorted(keys)
        for r in rows:
            assert r.abs_err == abs(r.value - r.reference)
            assert r.reference == exact_test1(r.d)
            assert r.h == 1.0 / r.n

    def test_corrected_beats_uncorrected(self):
        config = StudyConfig(d_list=[1e-4], n_list=[128],
                             methods=("corrected-closed", "uncorrected-plain",
                                      "uncorrected-punctured", "corrected-fd6"))
        rows = {r.method: r for r in run_converge(config)}
        assert rows["corrected-closed"].abs_err <= 1e-12
        assert rows["corrected-fd6"].abs_err <= 1e-12
        assert rows["uncorrected-plain"].abs_err >= 1e6 * rows["corrected-closed"].abs_err

    def test_uncorrected_punctured_matches_integrator(self):
        # the plain rule, from the same pass, also sums the puncture node
        for integrand, x_s in (("test1", 0.0), ("test2", 0.1)):
            config = StudyConfig(d_list=[0.01], n_list=[64], integrand=integrand, x_s=x_s,
                                 methods=("uncorrected-punctured", "uncorrected-plain"))
            values = {row.method: row.value for row in run_converge(config)}
            g = GEval.analytic(lambda z: 0.01 * np.exp(z))
            res = integrate_near_singular(g, KernelParams(a=1.0, d=0.01, x_s=x_s), 64)
            assert values["uncorrected-punctured"] == res.uncorrected, integrand
            mesh = Mesh(1.0, 64)
            f = 0.01 * np.exp(mesh.nodes()) / ((mesh.nodes() - x_s) ** 2 + 0.01 ** 2)
            assert values["uncorrected-plain"] == pytest.approx(plain_trapezoid(mesh, f),
                                                                rel=1e-14), integrand

    def test_rows_match_integrator_away_from_c_one(self):
        # the pass's f is c^2 h^2 times the kernel: every row scales it back
        c, x_s = 0.5, 0.1
        config = StudyConfig(d_list=[1e-4, 0.01], n_list=[64, 128], integrand="test2",
                             c=c, x_s=x_s)
        for row in run_converge(config):
            g = GEval.analytic(lambda z, d=row.d: d * np.exp(z))
            params = KernelParams(a=1.0, c=c, d=row.d, x_s=x_s)
            if row.method == "uncorrected-plain":
                x = Mesh(1.0, row.n).nodes()
                f = row.d * np.exp(x) / (row.d ** 2 + c * c * (x - x_s) ** 2)
                assert row.value == pytest.approx(plain_trapezoid(Mesh(1.0, row.n), f),
                                                  rel=1e-14, abs=0)
                continue
            method = {"corrected-closed": "closed-form", "corrected-fd6": "fd-series",
                      "uncorrected-punctured": "auto"}[row.method]
            res = integrate_near_singular(g, params, row.n, method)
            want = res.uncorrected if row.method == "uncorrected-punctured" else res.value
            assert row.value == want, (row.method, row.d, row.n)

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("x_s", [0.0, 0.1])
    def test_uncorrected_rows_bit_identical(self, c, x_s):
        # the plain row is the reference rule on the pass's f, rescaled, plus
        # the puncture's kernel value; the punctured row is the integrator's
        config = StudyConfig(d_list=[1e-8, 1e-4, 0.1], n_list=parse_n_range("16:256:*2"),
                             integrand="test2", c=c, x_s=x_s)
        rows = [r for r in run_converge(config) if r.method.startswith("uncorrected")]
        assert len(rows) == 30
        for row in rows:
            g = cli._study_integrand(row.d)
            mesh, _, s, _, _, window, _, f, _, _ = _mesh_pass(g, 1.0, c, row.d, x_s, row.n)
            if row.method == "uncorrected-plain":
                h = mesh.h
                r = math.hypot(c * s * h, row.d)
                want = (plain_trapezoid(mesh, f) / c ** 2 / h / h
                        + h * window[FD_STENCIL // 2] / r / r)
            else:
                params = KernelParams(a=1.0, c=c, d=row.d, x_s=x_s)
                want = integrate_near_singular(g, params, row.n).uncorrected
            assert row.value == want, (row.method, row.d, row.n)

    def test_plain_row_where_the_mesh_unit_puncture_underflows(self):
        # lam = d/(c h) ~ 6e-169: lam^2 underflows, so the mesh-unit kernel at
        # the puncture has a zero denominator, while the kernel itself is
        # 1/d^2 = 1e140 there, finite
        params = KernelParams(a=1.0, c=1e100, d=1e-70, x_s=0.0)
        (value,) = cli._method_values(("uncorrected-plain",), GEval.analytic(np.exp),
                                      params, 64)
        mesh = Mesh(1.0, 64)
        x = mesh.nodes()
        kernel = np.exp(x) / (params.d ** 2 + params.c ** 2 * x * x)
        assert value == pytest.approx(plain_trapezoid(mesh, kernel), rel=1e-15)
        assert value == pytest.approx(1e140 / 64, rel=1e-15)

    def test_uncorrected_methods_share_one_sampling(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "GEval", shape_counting_geval(calls))
        config = StudyConfig(d_list=[0.01], n_list=[32, 64])
        rows = run_converge(config)
        # per (d, n), finest first: the mesh nodes no sampled mesh has (all 129
        # at n = 64, none at n = 32, every other node of n = 64), then G for
        # the closed form; a study row makes no check at the puncture node
        assert calls == [(129,), (), ()]
        monkeypatch.undo()
        assert len(rows) == 8
        g = GEval.analytic(lambda z: 0.01 * np.exp(z))
        params = KernelParams(a=1.0, c=1.0, d=0.01, x_s=0.0)
        corrected = {"corrected-closed": "closed-form", "corrected-fd6": "fd-series"}
        for row in rows:
            alone = StudyConfig(d_list=[0.01], n_list=[row.n], methods=(row.method,))
            assert run_converge(alone)[0].value == row.value
            if row.method in corrected:
                res = integrate_near_singular(g, params, row.n, corrected[row.method])
                assert res.value == row.value

    @pytest.mark.parametrize("integrand, x_s", [("test1", 0.0), ("test2", 0.1)])
    def test_corrected_rows_are_the_api_values(self, integrand, x_s):
        # the README figure grid: the Q series (test1, d = 1e-4), the seeds,
        # and the pole form on both sides of lam = 5.97 (d = 0.1, n = 32 and 64)
        config = StudyConfig(d_list=[0.1, 0.01, 1e-4], n_list=parse_n_range("16:256:*2"),
                             integrand=integrand, x_s=x_s,
                             methods=("corrected-closed", "corrected-fd6"))
        rows = run_converge(config)
        assert len(rows) == 30
        method = {"corrected-closed": "closed-form", "corrected-fd6": "fd-series"}
        for row in rows:
            g = GEval.analytic(lambda z, d=row.d: d * np.exp(z))
            res = integrate_near_singular(g, KernelParams(a=1.0, d=row.d, x_s=x_s), row.n,
                                          method[row.method])
            assert row.value == res.value, (row.method, row.d, row.n)

    def test_closed_row_beyond_the_pole_term_calls_no_complex_eval(self, monkeypatch):
        # lam = d/(c h) = 6.4 >= 5.97: the pole form reads g_node alone
        calls = []
        monkeypatch.setattr(cli, "GEval", shape_counting_geval(calls))
        (row,) = run_converge(StudyConfig(d_list=[0.1], n_list=[64],
                                          methods=("corrected-closed",)))
        assert calls == [(129,)]
        assert row.abs_err <= 1e-14

    def test_test2_reference(self):
        config = StudyConfig(d_list=[0.01], n_list=[64], integrand="test2",
                             x_s=0.1, methods=("corrected-closed",))
        row = run_converge(config)[0]
        assert row.reference == exact_test2(0.01, 1.0, 0.1)
        assert row.abs_err <= 1e-12

    def test_custom_integrand(self):
        config = StudyConfig(d_list=[0.05], n_list=[64], integrand="custom",
                             g_expr="exp(x)", methods=("corrected-closed",))
        row = run_converge(config)[0]
        assert row.abs_err <= 1e-11 * max(1.0, abs(row.reference))

    def test_custom_integrand_sampled_once_per_study(self, monkeypatch):
        # a custom g does not depend on d: one GEval serves all three d, and
        # its meshes, nested by 2, sample g once per node of the finest
        builds, arrays, scalars = [], [], [0]

        class CountingGEval:
            @staticmethod
            def analytic(f, radius=0.5):
                builds.append(f)

                def counted(z):
                    if isinstance(z, np.ndarray):
                        arrays.append(z.size)
                    elif not isinstance(z, complex):
                        scalars[0] += 1
                    return f(z)
                return GEval.analytic(counted, radius)

        monkeypatch.setattr(cli, "GEval", CountingGEval)
        config = StudyConfig(d_list=[0.1, 0.01, 1e-3], n_list=[32, 64, 128],
                             integrand="custom", g_expr="cos(x) + x", x_s=0.1)
        rows = run_converge(config)
        assert len(builds) == 1 and arrays == [257]
        # every other real call is the reference integral's, as before; one
        # GEval per d sampled 3 (65 + 129 + 257) = 1353 mesh nodes
        oracle_calls = scalars[0]
        scalars[0] = 0
        g = CountingGEval.analytic(builds[0])
        for d in config.d_list:
            cli._study_reference(config, g, d)
        assert oracle_calls == scalars[0]
        monkeypatch.undo()
        for row in rows:
            alone = StudyConfig(d_list=[row.d], n_list=[row.n], methods=(row.method,),
                                integrand="custom", g_expr="cos(x) + x", x_s=0.1)
            assert run_converge(alone)[0] == row

    def test_custom_study_over_five_meshes_samples_g_once(self, monkeypatch):
        # 16:256:*2 is one mesh more than a GEval keeps: every d after the
        # first still finds the finest mesh, so g is sampled on its 513 nodes
        # once, and the rows are those of a study per d, bit for bit
        arrays = []

        class CountingGEval:
            @staticmethod
            def analytic(f, radius=0.5):
                def counted(z):
                    if isinstance(z, np.ndarray):
                        arrays.append(z.size)
                    return f(z)
                return GEval.analytic(counted, radius)

        monkeypatch.setattr(cli, "GEval", CountingGEval)
        config = StudyConfig(d_list=[0.1, 0.01, 1e-3], n_list=parse_n_range("16:256:*2"),
                             integrand="custom", g_expr="exp(x)")
        rows = run_converge(config)
        assert arrays == [513]
        monkeypatch.undo()
        alone = [row for d in config.d_list
                 for row in run_converge(StudyConfig(
                     d_list=[d], n_list=config.n_list, integrand="custom",
                     g_expr="exp(x)"))]
        assert sorted(alone, key=lambda r: (r.d, r.n, r.method)) == rows


class TestCliCommands:
    def test_converge_csv_schema_and_determinism(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        argv = ["converge", "--integrand", "test1", "--d", "0.1,0.01",
                "--n", "32:64:*2", "--method", "corrected-closed"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        text1 = out1.read_text()
        assert text1 == out2.read_text()
        lines = text1.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5
        # floats round-trip through repr
        val = lines[1].split(",")[6]
        assert repr(float(val)) == val

    def test_row_format(self):
        # n as an int, every other number in shortest round-trip form, also
        # where the configuration gave an int
        config = StudyConfig(d_list=[1, 0.01], n_list=[32], integrand="test2", c=2,
                             x_s=0.1, methods=("corrected-fd6", "uncorrected-plain"))
        rows = run_converge(config)
        lines = cli._rows_to_csv(rows).split("\n")
        assert lines[0] == "n,h,d,c,xs,method,value,reference,abs_err"
        assert lines[1:] == [",".join([
            str(r.n), repr(r.h), repr(r.d), "2.0", "0.1", r.method, repr(r.value),
            repr(r.reference), repr(r.abs_err)]) for r in rows] + [""]
        assert json.loads(cli._rows_to_json(rows)) == [
            {"n": r.n, "h": r.h, "d": r.d, "c": 2.0, "xs": 0.1, "method": r.method,
             "value": r.value, "reference": r.reference, "abs_err": r.abs_err} for r in rows]
        assert {type(r.d) for r in rows} == {float}

    def test_converge_json(self, tmp_path, capsys):
        argv = ["converge", "--integrand", "test1", "--d", "0.1", "--n", "32",
                "--method", "corrected-closed", "--format", "json"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["method"] == "corrected-closed"
        assert payload[0]["n"] == 32

    def test_converge_custom_tiny_d(self, capsys):
        # the O(pi/d) reference integral needs a tolerance relative to its scale
        argv = ["converge", "--integrand", "custom", "--g-expr", "exp(x)",
                "--d", "1e-8", "--n", "64", "--method", "corrected-closed",
                "--format", "json"]
        assert main(argv) == 0
        row = json.loads(capsys.readouterr().out)[0]
        assert row["reference"] == pytest.approx(math.pi / 1e-8, rel=1e-6)
        assert row["abs_err"] <= 1e-12 * row["reference"]

    def test_converge_rejects_bad_config(self, capsys):
        assert main(["converge", "--integrand", "test1", "--d", "-0.1",
                     "--n", "32"]) == 1
        assert "error" in capsys.readouterr().err
        assert main(["converge", "--method", ",", "--d", "0.1", "--n", "16"]) == 1
        assert "error" in capsys.readouterr().err

    def test_coeffs_half_shift_limits(self, capsys):
        assert main(["coeffs", "--lambda", "0", "--s", "0.5",
                     "--h", "0.01", "--kmax", "4"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        header = lines[0].split(",")
        row0 = dict(zip(header, lines[1].split(",")))
        row1 = dict(zip(header, lines[2].split(",")))
        assert float(row0["pks"]) == pytest.approx(math.pi ** 2 - 4.0, rel=1e-13)
        assert float(row1["pks"]) == pytest.approx(2.0, rel=1e-13)

    def test_coeffs_s_zero_even_doubling(self, capsys):
        assert main(["coeffs", "--lambda", "0.5", "--s", "0",
                     "--h", "0.01", "--kmax", "8"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        header = lines[0].split(",")
        for k, line in enumerate(lines[1:9]):
            row = dict(zip(header, line.split(",")))
            zk = float(row["zk"])
            pk = float(row["pks"])
            want = (1.0 + (-1.0) ** k) * zk
            assert pk == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_coeffs_residual_columns_small(self, capsys):
        assert main(["coeffs", "--lambda", "0.7", "--s", "0.3",
                     "--h", "0.02", "--kmax", "12"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        header = lines[0].split(",")
        for line in lines[1:]:
            if line.startswith("#"):
                continue
            row = dict(zip(header, line.split(",")))
            scale = max(1.0, abs(float(row["pks"])))
            assert float(row["sym_resid"]) <= 1e-12 * scale
            assert float(row["closedform_resid"]) <= 1e-12 * scale

    @pytest.mark.parametrize("args, field", [
        (["--lambda", "nan", "--kmax", "3"], "lam"),
        (["--lambda", "0.5", "--h", "inf", "--kmax", "3"], "h"),
    ])
    def test_coeffs_rejects_nonfinite(self, capsys, args, field):
        assert main(["coeffs", *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{field} must be finite" in captured.err

    def test_eval_matches_exact(self, capsys):
        assert main(["eval", "--integrand", "test1", "--d", "0.1",
                     "--a", "1", "--c", "1", "--n", "64"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["value"] - exact_test1(0.1)) <= 1e-12
        assert payload["value"] == pytest.approx(
            payload["uncorrected"] + payload["singular_part"] + payload["jump_part"])

    def test_eval_constant_arctangent(self, capsys):
        assert main(["eval", "--integrand", "custom", "--g-expr", "1.0 + 0*x",
                     "--d", "1", "--c", "1", "--a", "1", "--n", "64"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["value"] - math.pi / 2.0) <= 1e-13

    def test_eval_d_zero_finite_part(self, capsys):
        assert main(["eval", "--integrand", "custom", "--g-expr", "exp(x)",
                     "--d", "0", "--xs", "0", "--n", "64"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["jump_part"] == 0.0
        assert payload["method"] == "finite-part"

    def test_eval_underflowing_scales_is_an_error(self, capsys):
        # c h = 1e-154 * 1e-300/64 underflows to 0: a message, not a traceback
        assert main(["eval", "--a", "1e-300", "--c", "1e-154", "--d", "1"]) == 1
        assert capsys.readouterr().err.startswith("nsquad: error: c h underflows to 0")

    def test_eval_bad_expression(self, capsys):
        assert main(["eval", "--integrand", "custom", "--g-expr", "import os",
                     "--d", "0.1"]) == 1
        assert "error" in capsys.readouterr().err
