import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nsquad import cli
from nsquad.cli import (
    CSV_HEADER,
    StudyConfig,
    main,
    parse_float_list,
    parse_n_range,
    run_converge,
)
from nsquad.corrections import GEval
from nsquad.integrator import (KernelParams, _mesh_pass, _study_values,
                               integrate_near_singular)
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
        with pytest.raises(ValueError, match="format must be csv or json"):
            StudyConfig(d_list=[0.1], n_list=[64], fmt="xml")

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


def scaled_kernel(sampled) -> np.ndarray:
    """c^2 h^2 times the kernel samples of a mesh pass, g/((m - s)^2 + lam^2)
    in mesh units with m = k - j, its punctured entry 0: the values the
    pass sums, formed as it forms them."""
    n, i = sampled.mesh.n, sampled.mesh.n + sampled.j
    denom = (np.arange(-n, n + 1) * 1.0 - (sampled.j + sampled.s)) ** 2
    if sampled.lam > 0.0:
        denom += sampled.lam * sampled.lam
    denom[i] = 1.0
    f = sampled.gvals / denom
    f[i] = 0.0
    return f


def direct_value(g: GEval, a: float, c: float, d: float, x_s: float, n: int,
                 method: str) -> float:
    """A study method's value at one (d, n) on the direct pass of its mesh:
    a study of that one mesh."""
    (value,) = _study_values(g, a, c, d, x_s, [n], [method])[n]
    return value


# meshes of a *2 range, of a *3 range from 16, and sizes of other odd parts
STUDY_N_POOL = (16, 32, 64, 128, 256, 48, 144, 24, 40, 80, 96, 200)


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
            g = cli._integrand("test2", None)(row.d)
            sampled = _mesh_pass(g, 1.0, c, row.d, x_s, row.n)
            if row.method == "uncorrected-plain":
                h = sampled.mesh.h
                r = math.hypot(c * sampled.s * h, row.d)
                # the puncture's own term takes the node's sample
                assert sampled.g_node == sampled.gvals[row.n + sampled.j]
                want = (plain_trapezoid(sampled.mesh, scaled_kernel(sampled)) / c ** 2 / h / h
                        + h * sampled.g_node / r / r)
            else:
                params = KernelParams(a=1.0, c=c, d=row.d, x_s=x_s)
                want = integrate_near_singular(g, params, row.n).uncorrected
            assert row.value == want, (row.method, row.d, row.n)

    def test_plain_row_where_the_mesh_unit_puncture_underflows(self):
        # lam = d/(c h) ~ 6e-169: lam^2 underflows, so the mesh-unit kernel at
        # the puncture has a zero denominator, while the kernel itself is
        # 1/d^2 = 1e140 there, finite
        params = KernelParams(a=1.0, c=1e100, d=1e-70, x_s=0.0)
        g = GEval.analytic(np.exp)
        (value,) = _study_values(g, 1.0, params.c, params.d, 0.0, [64],
                                 ["uncorrected-plain"])[64]
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

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(a=st.sampled_from([0.5, 1.0, 2.0, 3.7]), log_c=st.floats(-0.5, 0.5),
           log_d=st.lists(st.floats(-6.0, 0.0), min_size=1, max_size=3, unique=True),
           frac=st.floats(-0.3, 0.3),
           n_list=st.lists(st.sampled_from(STUDY_N_POOL), min_size=1, max_size=6, unique=True),
           expr=st.sampled_from(["exp(x)", "cos(3*x) + x", "1/(x*x+0.09)"]))
    def test_study_rows_are_the_direct_passes(self, a, log_c, log_d, frac, n_list, expr):
        # a coarser mesh of a nesting family reads the finest pass at stride r:
        # every row is, bit for bit, the value of a pass of its own mesh on a
        # fresh GEval; the d and n lists come unsorted
        c, x_s = 10.0 ** log_c, frac * a
        d_list = list(dict.fromkeys(10.0 ** v for v in log_d))
        rows = run_converge(StudyConfig(d_list=d_list, n_list=n_list, c=c, x_s=x_s, a=a,
                                        integrand="custom", g_expr=expr))
        keys = [(r.d, r.n, r.method) for r in rows]
        assert keys == sorted((d, n, m) for d in d_list for n in n_list
                              for m in cli.CONVERGE_METHODS)
        for row in rows:
            want = direct_value(cli._compile_g_expr(expr), a, c, row.d, x_s, row.n, row.method)
            assert row.value.hex() == want.hex(), (row.d, row.n, row.method)

    @pytest.mark.parametrize("expr", ["1e-306*exp(x)", "1e-300*exp(x)"])
    def test_study_with_subnormal_kernel_samples_matches_direct_passes(self, expr):
        # g ~ 1e-306: the kernel samples far from x_s fall below the normal
        # range at n = 256, where scaling by r^2 would not commute with
        # rounding; the coarser meshes take their own passes, and each row is
        # a direct pass's value either way
        config = StudyConfig(d_list=[0.01, 0.3], n_list=parse_n_range("16:256:*2"),
                             integrand="custom", g_expr=expr, x_s=0.1)
        for row in run_converge(config):
            want = direct_value(cli._compile_g_expr(expr), 1.0, 1.0, row.d, 0.1, row.n,
                                row.method)
            assert row.value.hex() == want.hex(), (row.d, row.n, row.method)


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

    @pytest.mark.parametrize("out", ["missing/x.csv", "."])
    def test_unwritable_out_is_an_error(self, tmp_path, capsys, out):
        # a missing directory or a directory itself: the error line, not a traceback
        assert main(["converge", "--d", "0.1", "--n", "16",
                     "--out", str(tmp_path / out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("nsquad: error: ")
        assert str(tmp_path / out) in captured.err

    def test_coeffs_overflowing_table_is_an_error(self, capsys):
        # lam^12 = 1e360 at k_max 12: the error line, not an OverflowError traceback
        assert main(["coeffs", "--lambda", "1e30"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("nsquad: error: lam = 1e+30 is too large for "
                                       "k_max = 12")

    def test_expression_failing_at_a_point_is_an_error(self, capsys):
        # 1/x on the reference's scalar call at x_s = 0: the error line names the
        # expression and the point, not a ZeroDivisionError traceback
        assert main(["converge", "--integrand", "custom", "--g-expr", "1/x",
                     "--d", "0.1", "--n", "16"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("nsquad: error: g expression '1/x' fails at x = 0.0")

    def test_overflowing_lam_square_is_an_error(self, capsys):
        # lam = d/(c h) = 6.4e161: lam^2 overflows, and a pass would divide g by
        # inf (the uncorrected rows printed 0.0 and 1.56e-122 against 2.35e-120)
        assert main(["converge", "--integrand", "custom", "--g-expr", "exp(x)",
                     "--c", "1e-100", "--d", "1e60", "--n", "64",
                     "--method", "uncorrected-punctured,uncorrected-plain"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "nsquad: error: lam = d/(c h) = 6.400e+161 is out of range: lam^2 overflows "
            "(d = 1e+60, c = 1e-100, h = 0.015625)"]

    def test_expression_probed_at_a_node_of_every_mesh(self, capsys):
        # 1/(x - 0.1) is smooth on [-0.05, 0.05]: x = 0.0 is a node there, x = 0.1 is not
        argv = ["eval", "--integrand", "custom", "--g-expr", "1/(x-0.1)", "--a", "0.05",
                "--xs", "0.01", "--d", "0.01", "--n", "64"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        want = integrate_near_singular(GEval.analytic(lambda z: 1 / (z - 0.1)),
                                       KernelParams(a=0.05, d=0.01, x_s=0.01), 64)
        assert (payload["value"], payload["uncorrected"]) == (want.value, want.uncorrected)

    @pytest.mark.parametrize("command", ["eval", "converge"])
    def test_failing_expression_writes_one_error_line(self, command):
        # log(x) is NaN left of 0 and -inf at 0: numpy's warnings stay silent, and
        # stderr holds the error line alone
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONWARNINGS": "default"}
        done = subprocess.run([sys.executable, "-m", "nsquad.cli", command, "--integrand",
                               "custom", "--g-expr", "log(x)", "--xs", "0.1", "--d", "0.1",
                               "--n", "16"], capture_output=True, text=True, env=env,
                              timeout=120)
        assert done.returncode == 1 and done.stdout == ""
        lines = done.stderr.splitlines()
        assert len(lines) == 1, done.stderr
        assert lines[0].startswith("nsquad: error: g is not finite at x = ")

    @pytest.mark.parametrize("n_list, message", [("16,0", "n must be a positive integer, got 0"),
                                                 ("-16", "n must be a positive integer, got -16"),
                                                 ("16,8", "n must be at least 16")])
    def test_bad_n_is_an_error(self, capsys, n_list, message):
        # the mesh pass checks n before the row's h = a/n: the error line, not
        # a ZeroDivisionError traceback for n = 0
        assert main(["converge", "--d", "0.1", "--n", n_list]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"nsquad: error: {message}"]

    @pytest.mark.parametrize("args, message", [
        (["--d", "0.1", "--n", "16,16"], "n 16 is repeated; give each n once"),
        (["--d", "0.1,0.1", "--n", "16"], "d 0.1 is repeated; give each d once"),
        (["--d", "0.1", "--n", "16", "--method", "corrected-fd6,corrected-fd6"],
         "method 'corrected-fd6' is repeated; give each method once"),
    ], ids=["n", "d", "method"])
    def test_repeated_value_is_an_error(self, capsys, args, message):
        # a repeated value would print its rows twice
        assert main(["converge", *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"nsquad: error: {message}"]

    @pytest.mark.parametrize("expr, construct", [
        ("abs(x)", "the name 'abs'"),
        ("x.real", "the attribute access 'x.real'"),
        ("exp(x).real", "the attribute access 'exp(x).real'"),
        ("x.conjugate()", "the attribute access 'x.conjugate'"),
        ("(x>0)*x+1", "the comparison 'x > 0'"),
        ("x[0]", "the subscript 'x[0]'"),
        ("exp(x=1)", "the call 'exp(x=1)'"),
        ("1j*x", "the constant '1j'"),
    ])
    @pytest.mark.parametrize("command", ["eval", "converge"])
    def test_expression_outside_the_whitelist_is_an_error(self, capsys, command, expr,
                                                          construct):
        # abs of a complex argument is its modulus, and x.real drops the imaginary
        # part: the closed form's G would be wrong, with no warning
        assert main([command, "--integrand", "custom", "--g-expr", expr, "--xs", "0.1",
                     "--d", "1e-3", "--n", "64"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"nsquad: error: g expression {expr!r} may not use "
                                   f"{construct}; ")

    @pytest.mark.parametrize("expr, f", [
        ("exp(x)", np.exp),
        ("cos(x) + x", lambda z: np.cos(z) + z),
        ("1/(x*x+0.01)", lambda z: 1 / (z * z + 0.01)),
    ])
    def test_whitelisted_expression_gives_the_api_value(self, capsys, expr, f):
        assert main(["eval", "--integrand", "custom", "--g-expr", expr, "--xs", "0.1234",
                     "--d", "0.1", "--n", "64"]) == 0
        payload = json.loads(capsys.readouterr().out)
        want = integrate_near_singular(GEval.analytic(f), KernelParams(a=1.0, d=0.1, x_s=0.1234),
                                       64)
        assert (payload["value"], payload["uncorrected"]) == (want.value, want.uncorrected)

    @pytest.mark.parametrize("command, d", [("eval", "1e-3"), ("converge", "1e-3,0.1")])
    def test_comment_in_expression_is_ignored(self, capsys, command, d):
        # the text is parsed once: the checked tree, which drops the comment, is the
        # one that runs, so the output is byte for byte that of the plain expression
        outputs = []
        for expr in ("exp(x)", "exp(x) # note", "exp(x)  # an open ( in a comment"):
            assert main([command, "--integrand", "custom", "--g-expr", expr, "--xs", "0.1",
                         "--d", d, "--n", "64"]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            outputs.append(captured.out)
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    @pytest.mark.parametrize("command, d", [("eval", "1e-3"), ("converge", "1e-3,0.1")])
    def test_surrounding_whitespace_is_ignored(self, capsys, command, d):
        # argparse reads a dash-leading value as an option, and ' -x*x+2' is the
        # usual way round: the stripped text is parsed, so a leading space does
        # not raise "unexpected indent"
        outputs = []
        for expr in ("exp(x)", " exp(x)", "exp(x) "):
            assert main([command, "--integrand", "custom", "--g-expr", expr, "--xs", "0.1",
                         "--d", d, "--n", "64"]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            outputs.append(captured.out)
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    @pytest.mark.parametrize("command, d", [("eval", "1e-3"), ("converge", "1e-3,0.1")])
    def test_unary_minus_is_whitelisted(self, capsys, command, d):
        # -x*x+2, written --g-expr=-x*x+2, is (-x)*x + 2: the output is byte for
        # byte that of 2-x*x
        outputs = []
        for expr in ("--g-expr=2-x*x", "--g-expr=-x*x+2"):
            assert main([command, "--integrand", "custom", expr, "--xs", "0.1", "--d", d,
                         "--n", "16:64:*2" if command == "converge" else "64"]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            outputs.append(captured.out)
        assert outputs[1] == outputs[0]

    def test_unary_minus_of_a_rejected_call_is_an_error(self, capsys):
        assert main(["eval", "--integrand", "custom", "--g-expr=-abs(x)", "--xs", "0.1",
                     "--d", "1e-3", "--n", "64"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("nsquad: error: g expression '-abs(x)' may not use "
                                   "the name 'abs'; ")

    @pytest.mark.parametrize("command", [["eval"], ["converge", "--method", "corrected-closed"]])
    def test_expression_failing_at_a_complex_point_is_an_error(self, capsys, command):
        # G = g(x_s + i d/c) = g(0.25j) lands on the pole of 1/(x*x+0.0625): the
        # closed form's complex call raises ZeroDivisionError, named as the point
        assert main([*command, "--integrand", "custom", "--g-expr", "1/(x*x+0.0625)",
                     "--xs", "0", "--d", "0.25", "--n", "16"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "nsquad: error: g expression '1/(x*x+0.0625)' fails at x = 0.25j: "
            "complex division by zero"]

    def test_mesh_too_large_for_memory_is_an_error(self, capsys):
        # 2n+1 = 2e11 + 1 nodes: numpy cannot allocate them, and says so
        assert main(["eval", "--d", "0.01", "--xs", "0.1", "--n", "100000000000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("nsquad: error: ")

    def test_coeffs_half_shift_limits(self, capsys):
        assert main(["coeffs", "--lambda", "0", "--s", "0.5",
                     "--h", "0.01", "--kmax", "4"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        header = lines[0].split(",")
        row0 = dict(zip(header, lines[1].split(",")))
        row1 = dict(zip(header, lines[2].split(",")))
        assert float(row0["pks"]) == pytest.approx(math.pi ** 2 - 4.0, rel=1e-13)
        assert float(row1["pks"]) == pytest.approx(2.0, rel=1e-13)

    def test_coeffs_json_rows_are_the_csv_rows(self, capsys):
        args = ["coeffs", "--lambda", "0.5", "--s", "0.25", "--h", "0.01", "--kmax", "6"]
        assert main(args) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        header = lines[0].split(",")
        csv_rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]
        assert main([*args, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["lambda"], payload["s"], payload["h"]) == (0.5, 0.25, 0.01)
        assert payload["rows"] == csv_rows and len(csv_rows) == 7
        assert payload["warnings"] == []

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
        assert main(["eval", "--integrand", "custom", "--d", "0.1"]) == 1
        assert capsys.readouterr().err == "nsquad: error: custom integrand needs --g-expr\n"
