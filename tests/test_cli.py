import json

import jsonschema
import numpy as np
import pytest

from netcm.cli import main, report_schema
from netcm.ncmx import write_matrix
from netcm.states import ghz_state, mix_white_noise


def run(argv):
    return main(argv)


def load_report(capsys):
    return json.loads(capsys.readouterr().out)


def validator():
    return jsonschema.Draft7Validator(json.loads(report_schema()))


class TestCheck:
    def test_ghz_above_threshold_fails(self, capsys):
        code = run(["check", "--state", "ghz", "--parties", "3", "--dim", "2",
                    "--visibility", "0.6", "--observables", "pauli-z",
                    "--criterion", "trace-norm", "--topology", "triangle"])
        report = load_report(capsys)
        assert code == 1
        assert report["lhs"] == pytest.approx(3.0)
        assert report["rhs"] == pytest.approx(3.6)
        assert report["pass"] is False

    def test_ghz_below_threshold_passes(self, capsys):
        code = run(["check", "--state", "ghz", "--visibility", "0.4",
                    "--observables", "pauli-z", "--topology", "triangle"])
        assert code == 0
        assert load_report(capsys)["pass"] is True

    def test_state_file_xi(self, tmp_path, capsys):
        rho = mix_white_noise(ghz_state(3, 4, (0, 3)), 0.1)
        path = tmp_path / "m.ncmx"
        write_matrix(path, rho.matrix)
        code = run(["check", "--state-file", str(path), "--dims", "4,4,4",
                    "--split", "2x2", "--criterion", "xi-psd"])
        assert code == 1
        report = load_report(capsys)
        assert report["criterion"] == "xi-psd"
        assert report["lhs"] == pytest.approx(-0.1, abs=1e-9)

    def test_btn_residual_criterion(self, capsys):
        code = run(["check", "--state", "dicke", "--k", "1", "--split", "2x2",
                    "--criterion", "btn-residual"])
        assert code == 1
        assert load_report(capsys)["rhs"] == pytest.approx(2 / 3, abs=1e-9)

    def test_state_json_with_nested_sources(self, capsys):
        spec = json.dumps({
            "family": "btn",
            "params": {"sources": [{"family": "bell", "params": {"dim": 2}}] * 3},
        })
        code = run(["check", "--state-json", spec, "--criterion", "xi-psd"])
        assert code == 0
        assert load_report(capsys)["pass"] is True

    def test_schema_validates_check_report(self, capsys):
        run(["check", "--state", "w", "--visibility", "0.7",
             "--observables", "w-set", "--topology", "triangle"])
        validator().validate(load_report(capsys))

    def test_csv_format(self, capsys):
        code = run(["check", "--state", "ghz", "--visibility", "0.6",
                    "--observables", "pauli-z", "--topology", "triangle",
                    "--format", "csv"])
        assert code == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "criterion,lhs,rhs,margin,pass,tolerance"
        assert lines[1].startswith("trace-norm,") and ",false," in lines[1]

    def test_deterministic_output(self, tmp_path):
        argv = ["check", "--state", "ghz", "--visibility", "0.6",
                "--observables", "pauli-z", "--topology", "triangle"]
        run(argv + ["--output", str(tmp_path / "a.json")])
        run(argv + ["--output", str(tmp_path / "b.json")])
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestScan:
    def test_w_state_csv_flips_at_three_quarters(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = run(["scan", "--state", "w", "--observables", "w-set",
                    "--criterion", "trace-norm", "--grid", "0:1:0.01",
                    "--format", "csv", "--output", str(out)])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]
                if not line.startswith("#")]
        flips = [
            float(prev[0]) for prev, cur in zip(rows, rows[1:])
            if prev[4] != cur[4]
        ]
        assert len(flips) == 1
        assert abs(flips[0] - 0.75) <= 0.01

    def test_refine_reports_threshold(self, tmp_path, capsys):
        code = run(["scan", "--state", "ghz", "--observables", "pauli-z",
                    "--criterion", "trace-norm", "--grid", "0:1:0.25",
                    "--refine", "--topology", "triangle"])
        assert code == 0
        payload = load_report(capsys)
        assert payload["refined_threshold"] == pytest.approx(0.5, abs=1e-6)

    def test_threads_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NETCM_THREADS", "2")
        out = tmp_path / "scan.csv"
        code = run(["scan", "--state", "ghz", "--observables", "pauli-z",
                    "--grid", "0:1:0.1", "--format", "csv", "--output", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 12  # header + 11 grid points

    def test_threads_env_not_integer(self, monkeypatch):
        monkeypatch.setenv("NETCM_THREADS", "two")
        assert run(["scan", "--state", "ghz", "--observables", "pauli-z",
                    "--grid", "0:1:0.5"]) == 64

    def test_refine_builds_the_state_once(self, monkeypatch, capsys):
        import netcm.cli

        calls = []
        build = netcm.cli.state_from_spec
        monkeypatch.setattr(netcm.cli, "state_from_spec",
                            lambda spec: calls.append(spec) or build(spec))
        assert run(["scan", "--state", "ghz", "--parties", "3", "--observables", "pauli-z",
                    "--topology", "triangle", "--grid", "0:1:0.1", "--refine"]) == 0
        assert load_report(capsys)["refined_threshold"] == pytest.approx(0.5, abs=1e-6)
        assert len(calls) == 1

    def test_bad_grid(self, capsys):
        assert run(["scan", "--state", "w", "--observables", "w-set",
                    "--grid", "nope"]) == 64


class TestDecompose:
    def test_bell_triangle(self, tmp_path, capsys):
        code = run(["decompose", "--state", "btn", "--dim", "2",
                    "--output-dir", str(tmp_path)])
        assert code == 0
        manifest = json.loads((tmp_path / "decomposition.json").read_text())
        assert manifest["parts"] == ["t_c.ncmx", "t_b.ncmx", "t_a.ncmx", "r.ncmx"]
        assert all(v >= -1e-8 for v in manifest["min_eigenvalues"].values())
        from netcm.ncmx import read_matrix

        t_c = read_matrix(tmp_path / "t_c.ncmx")
        assert t_c.shape == (48, 48)

    def test_btn_without_sources_is_64(self, tmp_path):
        assert run(["decompose", "--state-json", '{"family": "btn", "params": {}}',
                    "--output-dir", str(tmp_path)]) == 64

    def test_output_gets_the_manifest(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run(["decompose", "--state", "btn", "--dim", "2",
                    "--output-dir", str(tmp_path / "parts"), "--output", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == (tmp_path / "parts" / "decomposition.json").read_bytes()

    @pytest.mark.parametrize("flag", [["--visibility", "0.5"], ["--split", "2x2"]])
    def test_top_level_visibility_or_split_is_64(self, tmp_path, flag):
        assert run(["decompose", "--state", "btn", "--dim", "2",
                    "--output-dir", str(tmp_path)] + flag) == 64
        assert not (tmp_path / "decomposition.json").exists()

    @pytest.mark.parametrize("argv", [
        ["decompose", "--state", "btn", "--observables", "full-product"],
        ["decompose", "--state", "btn", "--criterion", "xi-psd"],
        ["decompose", "--state", "btn", "--topology", "triangle"],
        ["decompose", "--state", "btn", "--tolerance", "1e-9"],
        ["decompose", "--state", "btn", "--format", "json"],
        ["feasibility", "--state", "w", "--observables", "w-set", "--format", "json"],
    ])
    def test_options_never_read_are_gone(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 64


class TestFeasibility:
    def test_feasible_exit_zero(self, tmp_path, capsys):
        code = run(["feasibility", "--state", "btn", "--dim", "2",
                    "--observables", "full-product", "--topology", "triangle",
                    "--witness-dir", str(tmp_path / "w")])
        assert code == 0
        payload = load_report(capsys)
        assert payload["status"] == "feasible"
        validator().validate(payload)
        assert (tmp_path / "w" / "manifest.json").exists()

    def test_violating_cm_exit_one(self, capsys):
        code = run(["feasibility", "--state", "ghz", "--visibility", "0.8",
                    "--observables", "pauli-z", "--topology", "triangle",
                    "--max-iter", "2000"])
        assert code == 1
        assert load_report(capsys)["status"] == "infeasible"

    def test_certified_report_validates(self, tmp_path, capsys):
        from netcm.covariance import covariance_matrix
        from netcm.feasibility import (FeasibilityProblem, InfeasibilityCertificate,
                                       verify_certificate)
        from netcm.ncmx import read_matrix
        from netcm.observables import named_observable_set
        from netcm.topology import triangle_topology

        code = run(["feasibility", "--state", "ghz", "--visibility", "0.8",
                    "--observables", "pauli-z", "--topology", "triangle",
                    "--witness-dir", str(tmp_path / "w")])
        assert code == 1
        payload = load_report(capsys)
        validator().validate(payload)
        assert payload["status"] == "infeasible"
        cert = payload["certificate"]
        assert cert["kind"] == "separating-hyperplane"
        assert cert["inner_product"] < -cert["epsilon"] * 3.0 - cert["delta"]
        manifest = json.loads((tmp_path / "w" / "manifest.json").read_text())
        assert manifest["certificate"] == cert
        rho = mix_white_noise(ghz_state(3, 2), 0.8)
        problem = FeasibilityProblem(
            covariance_matrix(named_observable_set("pauli-z", rho.layout), rho),
            triangle_topology())
        separator = tuple(read_matrix(tmp_path / "w" / f).real
                          for f in manifest["certificate_files"])
        assert len(separator) == 3
        assert verify_certificate(problem, InfeasibilityCertificate(separator))

    def test_uncovered_pair_report(self, tmp_path, capsys):
        code = run(["feasibility", "--state", "ghz", "--parties", "5", "--visibility", "0.3",
                    "--observables", "pauli-z", "--topology", "line",
                    "--witness-dir", str(tmp_path / "w")])
        assert code == 1
        payload = load_report(capsys)
        validator().validate(payload)
        assert payload["certificate"]["pair"] == ["A", "C"]
        manifest = json.loads((tmp_path / "w" / "manifest.json").read_text())
        assert manifest["certificate_files"] == []
        assert manifest["certificate"]["kind"] == "uncovered-pair"

    @pytest.mark.parametrize("bad", [complex(v, 0.0) for v in (np.nan, np.inf, -np.inf)]
                             + [complex(0.0, v) for v in (np.nan, np.inf, -np.inf)])
    def test_non_finite_cm_file_is_64(self, tmp_path, capsys, bad):
        from netcm.covariance import covariance_matrix, save_cm
        from netcm.observables import named_observable_set

        rho = mix_white_noise(ghz_state(3, 2), 0.3)
        g = covariance_matrix(named_observable_set("pauli-z", rho.layout), rho)
        save_cm(g, tmp_path / "g.ncmx")
        m = g.matrix.astype(complex)
        m[0, 1] = bad
        write_matrix(tmp_path / "g.ncmx", m)
        out = tmp_path / "report.json"
        code = run(["feasibility", "--cm-file", str(tmp_path / "g.ncmx"),
                    "--topology", "triangle", "--output", str(out)])
        assert code == 64
        assert not out.exists()
        assert "non-finite" in capsys.readouterr().err

    def test_cm_file_input(self, tmp_path, capsys):
        from netcm.covariance import covariance_matrix, save_cm
        from netcm.observables import named_observable_set

        rho = mix_white_noise(ghz_state(3, 2), 0.3)
        g = covariance_matrix(named_observable_set("pauli-z", rho.layout), rho)
        save_cm(g, tmp_path / "g.ncmx")
        code = run(["feasibility", "--cm-file", str(tmp_path / "g.ncmx"),
                    "--topology", "triangle"])
        assert code == 0


class TestFidelityBound:
    def test_reports_bound(self, capsys):
        code = run(["fidelity-bound", "--tolerance", "1e-3"])
        assert code == 0
        payload = load_report(capsys)
        assert payload["bound"] == pytest.approx(3 - np.sqrt(5), abs=5e-3)


class TestSchemaCommand:
    def test_version_field(self, capsys):
        assert run(["schema"]) == 0
        schema = json.loads(capsys.readouterr().out)
        assert schema["version"] == "1"

    def test_strict_mode_rejects_unknown_fields(self, capsys):
        run(["check", "--state", "w", "--visibility", "0.5",
             "--observables", "w-set", "--topology", "triangle"])
        report = load_report(capsys)
        report["surprise"] = 1
        with pytest.raises(jsonschema.ValidationError):
            validator().validate(report)


class TestErrors:
    def test_usage_error_is_64(self):
        assert run(["check"]) == 64  # no state given
        assert run(["bogus-command"]) == 64

    def test_unknown_observables_64(self):
        assert run(["check", "--state", "w", "--observables", "nope"]) == 64

    def test_missing_file_is_74(self):
        assert run(["check", "--state-file", "/nonexistent/m.ncmx", "--dims", "2,2",
                    "--observables", "pauli-z"]) == 74

    def test_reports_never_contradict_exit_codes(self, capsys):
        for v, expected in (("0.3", 0), ("0.7", 1)):
            code = run(["check", "--state", "ghz", "--visibility", v,
                        "--observables", "pauli-z", "--topology", "triangle"])
            report = load_report(capsys)
            assert code == expected
            assert report["pass"] == (code == 0)
