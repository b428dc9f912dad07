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
from nsquad.corrections import GEval
from nsquad.integrator import KernelParams, integrate_near_singular
from nsquad.oracle import exact_test1, exact_test2


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
        for integrand, x_s in (("test1", 0.0), ("test2", 0.1)):
            config = StudyConfig(d_list=[0.01], n_list=[64], integrand=integrand,
                                 x_s=x_s, methods=("uncorrected-punctured",))
            row = run_converge(config)[0]
            g = GEval.analytic(lambda z: 0.01 * np.exp(z))
            res = integrate_near_singular(g, KernelParams(a=1.0, d=0.01, x_s=x_s), 64)
            assert row.value == res.uncorrected, integrand

    def test_uncorrected_methods_share_one_sampling(self, monkeypatch):
        calls = []

        class CountingGEval:
            @staticmethod
            def analytic(f, radius=0.5):
                def counted(z):
                    calls.append(np.shape(z))
                    return f(z)
                return GEval.analytic(counted, radius)

        monkeypatch.setattr(cli, "GEval", CountingGEval)
        config = StudyConfig(d_list=[0.01], n_list=[32, 64])
        rows = run_converge(config)
        # per (d, n): the mesh with x_s appended, then g(x_s) through
        # complex_eval for the consistency check and G for the closed form
        assert calls == [(66,), (), (), (130,), (), ()]
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

    def test_eval_bad_expression(self, capsys):
        assert main(["eval", "--integrand", "custom", "--g-expr", "import os",
                     "--d", "0.1"]) == 1
        assert "error" in capsys.readouterr().err
