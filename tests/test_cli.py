import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import netcm
from netcm.cli import main, report_schema
from netcm.ncmx import write_matrix
from netcm.states import DensityOperator, NoisyPureState, ghz_state, mix_white_noise, random_density


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

    def test_module_entry_point_in_a_fresh_process(self, tmp_path):
        # run from outside the checkout with only the package's own directory on the path
        env = dict(os.environ, PYTHONPATH=str(Path(netcm.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "netcm.cli", "check", "--state", "ghz", "--parties", "3",
             "--visibility", "0.6", "--observables", "pauli-z", "--topology", "triangle"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1, proc.stderr
        assert json.loads(proc.stdout)["pass"] is False

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

    def test_btn_residual_honours_tolerance(self, capsys):
        # the pure Dicke k = 1 residual is 2/3: excluded at the default 1e-9,
        # allowed once the tolerance exceeds it
        argv = ["check", "--state", "dicke", "--k", "1", "--split", "2x2",
                "--criterion", "btn-residual"]
        assert run(argv + ["--tolerance", "0.7"]) == 0
        report = load_report(capsys)
        assert report["lhs"] == 0.7
        assert report["pass"] is True
        assert run(argv + ["--tolerance", "0.6"]) == 1
        assert load_report(capsys)["lhs"] == 0.6
        assert run(argv) == 1
        assert load_report(capsys)["lhs"] == 1e-9

    def test_xi_psd_rejects_tolerance(self, tmp_path, monkeypatch, capsys):
        import netcm.cli

        def refuse(*args, **kwargs):
            raise AssertionError("work started although xi-psd was given --tolerance")

        monkeypatch.setattr(netcm.cli, "state_from_spec", refuse)
        out = tmp_path / "report.json"
        assert run(["check", "--state", "dicke", "--k", "2", "--split", "2x2",
                    "--criterion", "xi-psd", "--tolerance", "5", "--output", str(out)]) == 64
        assert not out.exists()
        assert "1e-8*(1 + ||xi||_2)" in capsys.readouterr().err

    @pytest.mark.parametrize("criterion", ["xi-psd", "btn-residual"])
    def test_triangle_criteria_take_only_the_full_product_basis(self, criterion, capsys):
        argv = ["check", "--state", "dicke", "--k", "2", "--split", "2x2", "--criterion", criterion]
        assert run(argv + ["--observables", "pauli-z"]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{criterion} uses the layout's full product basis" in captured.err
        assert run(argv) == 1
        default = capsys.readouterr().out
        assert run(argv + ["--observables", "full-product"]) == 1
        assert capsys.readouterr().out == default
        assert json.loads(default)["observables_spec"] == "full-product"

    @pytest.mark.parametrize("flags, spec, topology", [
        (["--state", "ghz", "--dim", "4", "--levels", "0,3"],
         {"family": "ghz", "params": {"parties": 3, "dim": 4, "levels": [0, 3]}}, "triangle"),
        (["--state", "ghz", "--dim", "3", "--levels", "full"],
         {"family": "ghz", "params": {"parties": 3, "dim": 3, "levels": "full"}}, "triangle"),
        (["--state", "bell", "--dim", "3"], {"family": "bell", "params": {"dim": 3}},
         '{"nodes": ["1", "2"], "sources": [["1", "2"]]}'),
    ], ids=["levels-0-3", "levels-full", "bell-dim-3"])
    def test_flags_give_the_report_of_their_spec_file(self, flags, spec, topology, tmp_path,
                                                      capsys):
        tail = ["--observables", "full-product", "--topology", topology]
        assert run(["check", *flags, *tail]) == 0
        by_flags = capsys.readouterr().out
        assert json.loads(by_flags)["state_spec"] == spec
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        assert run(["check", "--state-json", f"@{tmp_path / 'spec.json'}", *tail]) == 0
        assert capsys.readouterr().out == by_flags

    def test_state_json_with_nested_sources(self, capsys):
        spec = json.dumps({
            "family": "btn",
            "params": {"sources": [{"family": "bell", "params": {"dim": 2}}] * 3},
        })
        code = run(["check", "--state-json", spec, "--criterion", "xi-psd"])
        assert code == 0
        assert load_report(capsys)["pass"] is True

    @pytest.mark.parametrize("spec, problem", [
        ("[]", "state spec must be an object"),
        ('{"family": "ghz", "params": [1]}', "state spec params must be an object"),
    ])
    def test_state_json_that_is_not_an_object_is_64(self, spec, problem, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run(["check", "--state-json", spec, "--visibility", "0.5",
                    "--observables", "pauli-z", "--output", str(out)])
        assert code == 64
        assert not out.exists()
        assert problem in capsys.readouterr().err

    @pytest.mark.parametrize("spec, field", [
        ('{"family": "ghz", "visibility": [1]}', "'visibility'"),
        ('{"family": "ghz", "params": {"parties": [3]}}', "'params.parties'"),
        ('{"family": "ghz", "split": 5}', "'split'"),
        # once converted instead of rejected: a string read as a list, and a
        # float, string or bool read as an integer or a number
        ('{"family": "ghz", "params": {"levels": "01"}}', "'params.levels'"),
        ('{"family": "ghz", "params": {"levels": [0.5, 1.9]}}', "'params.levels'"),
        ('{"family": "ghz", "params": {"parties": 3.7}}', "'params.parties'"),
        ('{"family": "ghz", "params": {"parties": "3"}}', "'params.parties'"),
        ('{"family": "ghz", "params": {"parties": true}}', "'params.parties'"),
        ('{"family": "ghz", "visibility": "0.3"}', "'visibility'"),
        ('{"family": "ghz", "visibility": true}', "'visibility'"),
        ('{"family": "dicke", "params": {"k": 2}, "split": "22"}', "'split'"),
        ('{"family": "ghz", "split": 0}', "'split'"),
        ('{"family": "dicke", "params": {"k": 2.9}, "split": [2, 2]}', "'params.k'"),
        ('{"family": "bell", "params": {"dim": "2"}}', "'params.dim'"),
        ('{"family": "btn", "params": {"bell_dim": 2.0}}', "'params.bell_dim'"),
        ('{"family": "file", "params": {"path": "rho.ncmx", "dims": "22"}}', "'params.dims'"),
        ('{"family": "file", "params": {"path": "rho.ncmx", "dims": [2, 2], "labels": "AB"}}',
         "'params.labels'"),
        ('{"family": "file", "params": {"path": "rho.ncmx", "dims": [2, 2], "nodes": "AB"}}',
         "'params.nodes'"),
        ('{"family": "file", "params": {"path": "rho.ncmx", "dims": [2, 2], "labels": ""}}',
         "'params.labels'"),
    ])
    def test_state_json_value_of_the_wrong_type_is_64(self, spec, field, tmp_path, capsys,
                                                      monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_matrix(tmp_path / "rho.ncmx", np.eye(4, dtype=complex) / 4)  # for the file family
        tail = (["--criterion", "xi-psd"] if json.loads(spec)["family"] in ("dicke", "btn")
                else ["--observables", "pauli-z"])
        out = tmp_path / "report.json"
        code = run(["check", "--state-json", spec, "--output", str(out)] + tail)
        assert code == 64
        assert not out.exists()
        assert f"state spec field {field} has the wrong type" in capsys.readouterr().err

    @pytest.mark.parametrize("topology", [
        '{"nodes": "ABC", "sources": [["B", "C"], ["C", "A"], ["A", "B"]]}',
        '{"nodes": ["A", "B", "C"], "sources": ["BC", "CA", "AB"]}',
    ])
    def test_topology_strings_are_not_lists(self, topology, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run(["check", "--state", "ghz", "--visibility", "0.3", "--observables", "pauli-z",
                    "--topology", topology, "--output", str(out)])
        assert code == 64
        assert not out.exists()
        assert "list of strings" in capsys.readouterr().err

    def test_splitting_a_split_node_is_64(self, capsys):
        assert run(["check", "--state", "btn", "--split", "2x2", "--criterion", "xi-psd"]) == 64
        assert "already split" in capsys.readouterr().err

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


_DICKE2 = ["--state", "dicke", "--k", "2", "--split", "2x2"]
_TRIANGLE_CRITERIA_ARGV = {"check": ["check", *_DICKE2],
                           "scan": ["scan", *_DICKE2, "--grid", "0:1:0.5"]}


class TestTriangleCriteriaTopology:
    """xi-psd and btn-residual are computed for the triangle's wiring, so reports name no other."""

    @pytest.mark.parametrize("topology", [
        "line",
        '{"nodes": ["A", "B", "C"], "sources": [["C", "B"], ["A", "C"], ["B", "A"]]}',
        '{"nodes": ["X", "Y", "Z"], "sources": [["Y", "Z"], ["Z", "X"], ["X", "Y"]]}',
    ], ids=["line", "reversed", "foreign-nodes"])
    @pytest.mark.parametrize("criterion", ["xi-psd", "btn-residual"])
    @pytest.mark.parametrize("command", ["check", "scan"])
    def test_other_topologies_are_64(self, command, criterion, topology, tmp_path, capsys):
        out = tmp_path / "report.json"
        argv = _TRIANGLE_CRITERIA_ARGV[command] + ["--criterion", criterion]
        assert run(argv + ["--topology", topology, "--output", str(out)]) == 64
        assert not out.exists()
        assert f"{criterion} holds for the triangle topology" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "scan"])
    def test_reordered_triangle_gives_the_default_report(self, command, capsys):
        reordered = {"nodes": ["A", "B", "C"], "sources": [["A", "B"], ["B", "C"], ["C", "A"]]}
        argv = _TRIANGLE_CRITERIA_ARGV[command] + ["--criterion", "xi-psd"]
        reports = []
        for topology in ([], ["--topology", "triangle"], ["--topology", json.dumps(reordered)]):
            run(argv + topology)
            reports.append(load_report(capsys))
        assert reports[0] == reports[1]
        if command == "check":
            assert reports[2].pop("topology") == reordered
            reports[0].pop("topology")
        assert reports[2] == reports[0]


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

    def test_refine_with_zero_tolerance_terminates(self, capsys):
        # the bisection stops once its midpoint equals an end of the bracket
        assert run(["scan", "--state", "ghz", "--observables", "pauli-z", "--topology", "triangle",
                    "--grid", "0:1:0.5", "--refine", "--tolerance", "0"]) == 0
        assert load_report(capsys)["refined_threshold"] == pytest.approx(0.5, abs=1e-12)

    def test_bad_grid(self, capsys):
        assert run(["scan", "--state", "w", "--observables", "w-set",
                    "--grid", "nope"]) == 64

    # a huge in-range grid such as 0:1:1e-9 is valid and would allocate
    # gigabytes, so none is run here
    @pytest.mark.parametrize("grid", ["0:inf:0.1", "0:nan:0.1", "0:1e12:1", "0:2:0.5",
                                      "-0.5:1:0.5", "0:1:0", "0:1:-0.1", "nan:1:0.1"])
    def test_grid_outside_the_unit_interval_is_64_before_any_work(self, grid, monkeypatch,
                                                                   tmp_path, capsys):
        import netcm.cli

        built = []
        monkeypatch.setattr(netcm.cli, "state_from_spec", lambda spec: built.append(spec))
        out = tmp_path / "scan.json"
        assert run(["scan", "--state", "ghz", "--observables", "pauli-z", f"--grid={grid}",
                    "--refine", "--output", str(out)]) == 64
        assert built == []
        assert not out.exists()
        assert "bad grid" in capsys.readouterr().err


class TestSixteenQubits:
    """GHZ16 runs from its vector: a dense 2^16 x 2^16 matrix would take 64 GiB."""

    @pytest.fixture(autouse=True)
    def no_dense_matrix(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a dense matrix was built")

        monkeypatch.setattr(NoisyPureState, "matrix", property(refuse))
        monkeypatch.setattr(DensityOperator, "_trusted", classmethod(refuse))

    @pytest.mark.parametrize("v, code", [(0.066, 0), (0.0674, 1)])
    def test_check(self, v, code, capsys):
        assert run(["check", "--state", "ghz", "--parties", "16", "--visibility", str(v),
                    "--observables", "pauli-z", "--topology", "line"]) == code
        report = load_report(capsys)
        assert report["lhs"] == pytest.approx(16.0, abs=1e-12)
        assert report["rhs"] == pytest.approx(2 * 120 * v, abs=1e-12)

    def test_scan_refine(self, capsys):
        assert run(["scan", "--state", "ghz", "--parties", "16", "--observables", "pauli-z",
                    "--topology", "line", "--grid", "0:1:0.25", "--refine"]) == 0
        report = load_report(capsys)
        assert abs(report["refined_threshold"] - 1.0 / 15.0) <= 1e-5
        assert [row["pass"] for row in report["grid"]] == [True] + [False] * 4


class TestOneMomentPass:
    """The triangle criteria read a state through the moment kernel only."""

    def test_xi_scan_refine_builds_no_mixture(self, monkeypatch, capsys):
        import netcm.cli
        import netcm.criteria
        import netcm.states

        def refuse(*args, **kwargs):
            raise AssertionError("a mixed state was built")

        for module in (netcm.cli, netcm.criteria, netcm.states):
            monkeypatch.setattr(module, "mix_white_noise", refuse, raising=False)
        monkeypatch.setattr(NoisyPureState, "matrix", property(refuse))
        monkeypatch.setattr(DensityOperator, "_trusted", classmethod(refuse))
        assert run(["scan", "--state", "dicke", "--k", "2", "--split", "2x2", "--criterion",
                    "xi-psd", "--grid", "0:1:0.25", "--refine"]) == 0
        report = load_report(capsys)
        assert [row["pass"] for row in report["grid"]] == [True] + [False] * 4
        assert 0.0 < report["refined_threshold"] < 0.25

    def test_decompose_source_declared_one_node(self, tmp_path, rng, capsys):
        # file sources whose two factors form one node "S" are read by their
        # factor labels; the parts equal those of the same sources split in two
        paths = []
        for i in range(3):
            paths.append(str(tmp_path / f"source{i}.ncmx"))
            write_matrix(paths[-1], random_density(4, rng))
        for name, nodes in (("one-node", ["S", "S"]), ("split", None)):
            srcs = [{"family": "file", "params": {"path": p, "dims": [2, 2], "nodes": nodes}}
                    for p in paths]
            spec = json.dumps({"family": "btn", "params": {"sources": srcs}})
            assert run(["decompose", "--state-json", spec, "--output-dir", str(tmp_path / name),
                        "--output", str(tmp_path / f"{name}.json")]) == 0
        from netcm.ncmx import read_matrix

        for part in ("t_c", "t_b", "t_a", "r"):
            assert np.array_equal(read_matrix(tmp_path / "one-node" / f"{part}.ncmx"),
                                  read_matrix(tmp_path / "split" / f"{part}.ncmx"))


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
        ["feasibility", "--state", "btn", "--observables", "full-product", "--criterion", "xi-psd"],
    ])
    def test_options_never_read_are_gone(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 64



class TestValidatedOnce:
    """Input is validated at the boundary; states built from it are not validated again."""

    @pytest.fixture
    def validations(self, monkeypatch):
        calls = []
        validate = DensityOperator.__post_init__

        def counting(rho):
            calls.append(rho.layout)
            validate(rho)

        monkeypatch.setattr(DensityOperator, "__post_init__", counting)
        return calls

    def test_xi_psd_on_split_dicke_validates_nothing(self, validations, capsys):
        assert run(["check", "--state", "dicke", "--k", "2", "--split", "2x2",
                    "--criterion", "xi-psd"]) == 1
        assert validations == []

    @pytest.mark.parametrize("criterion", ["xi-psd", "btn-residual"])
    def test_triangle_checks_build_no_observables(self, criterion, monkeypatch, capsys):
        # decompose: see test_decompose_builds_no_observables_states_or_cms
        from netcm.observables import ObservableSet

        built = []
        for cls in (ObservableSet,):
            def counting(obj, validate=cls.__post_init__):
                built.append(type(obj).__name__)
                validate(obj)
            monkeypatch.setattr(cls, "__post_init__", counting)
        assert run(["check", "--state", "dicke", "--k", "2", "--split", "2x2",
                    "--criterion", criterion]) == 1
        assert built == []

    def test_decompose_validates_only_the_file_sources(self, validations, tmp_path, rng):
        sources = []
        for i in range(3):
            path = tmp_path / f"source{i}.ncmx"
            write_matrix(path, random_density(4, rng))
            sources.append({"family": "file", "params": {"path": str(path), "dims": [2, 2]}})
        spec = json.dumps({"family": "btn", "params": {"sources": sources}})
        assert run(["decompose", "--state-json", spec, "--output-dir", str(tmp_path / "parts"),
                    "--output", str(tmp_path / "manifest.json")]) == 0
        assert len(validations) == 3

    def test_decompose_builds_no_observables_states_or_cms(self, monkeypatch, tmp_path):
        # the summands come from source marginals: no observable set, no
        # relabelled source state and no covariance_matrix call
        import netcm.cli
        import netcm.covariance
        from netcm.observables import ObservableSet

        built = []

        def counting(name, original):
            def wrapper(*args, **kwargs):
                built.append(name)
                return original(*args, **kwargs)
            return wrapper

        for module in (netcm.cli, netcm.covariance):
            monkeypatch.setattr(module, "covariance_matrix",
                                counting("covariance_matrix", netcm.covariance.covariance_matrix))
        for cls in (ObservableSet, DensityOperator):
            monkeypatch.setattr(cls, "__post_init__", counting(cls.__name__, cls.__post_init__))
        monkeypatch.setattr(DensityOperator, "_trusted", classmethod(
            counting("DensityOperator", DensityOperator._trusted.__func__)))
        monkeypatch.setattr(NoisyPureState, "__init__",
                            counting("NoisyPureState", NoisyPureState.__init__))
        spec = json.dumps({"family": "btn", "params": {"sources": [
            {"family": "bell", "params": {"dim": 2}}, {"family": "bell", "params": {"dim": 3}},
            {"family": "bell", "params": {"dim": 2}}]}})
        assert run(["decompose", "--state-json", spec, "--output-dir", str(tmp_path),
                    "--output", str(tmp_path / "manifest.json")]) == 0
        assert built == ["NoisyPureState"] * 3  # the three Bell sources, nothing else


class TestFeasibility:
    def test_zero_tolerance_is_64(self, tmp_path, capsys):
        # a floating-point residual need not ever reach 0, so a zero
        # tolerance would run a feasible CM to the iteration cap
        out = tmp_path / "report.json"
        start = time.perf_counter()
        code = run(["feasibility", "--state-json", '{"family": "btn", "params": {"bell_dim": 2}}',
                    "--observables", "full-product", "--tolerance", "0", "--output", str(out)])
        assert time.perf_counter() - start < 1.0
        assert code == 64
        assert not out.exists()
        assert "tolerance must be > 0" in capsys.readouterr().err

    def test_residual_floor_is_inconclusive(self, capsys):
        # a feasible triangle CM plateaus at rounding (about 3e-15), above the
        # target 1e-16 * max|Gamma_ij|: the cap is hit without a witness or a
        # certificate, which is inconclusive
        code = run(["feasibility", "--state-json", '{"family": "btn", "params": {"bell_dim": 2}}',
                    "--observables", "full-product", "--tolerance", "1e-16", "--max-iter", "300"])
        payload = load_report(capsys)
        assert payload["status"] == "inconclusive"
        assert code == 2

    @pytest.mark.parametrize("scale", [1e8, 1e12])
    def test_scaled_cm_file_feasible(self, scale, tmp_path, capsys):
        # the residual target is relative to max|Gamma_ij|, so a multiple of a
        # feasible CM is feasible too
        from netcm.covariance import BlockCovarianceMatrix, covariance_matrix, load_cm, save_cm
        from netcm.feasibility import FeasibilityProblem, verify_witness
        from netcm.ncmx import read_matrix
        from netcm.observables import full_product_set
        from netcm.states import bell_pair, btn_assemble
        from netcm.topology import triangle_topology

        rho = btn_assemble(*[bell_pair(2)] * 3)
        g = covariance_matrix(full_product_set(rho.layout), rho)
        save_cm(BlockCovarianceMatrix(scale * g.matrix, g.block_sizes, g.node_labels),
                tmp_path / "big.ncmx")
        code = run(["feasibility", "--cm-file", str(tmp_path / "big.ncmx"), "--topology",
                    "triangle", "--witness-dir", str(tmp_path / "w")])
        assert code == 0
        assert load_report(capsys)["status"] == "feasible"
        manifest = json.loads((tmp_path / "w" / "manifest.json").read_text())
        witness = [read_matrix(tmp_path / "w" / f).real for f in manifest["witness_files"]]
        problem = FeasibilityProblem(load_cm(tmp_path / "big.ncmx"), triangle_topology())
        assert verify_witness(problem, witness)

    def test_huge_iteration_cap_allocates_nothing_up_front(self, capsys):
        code = run(["feasibility", "--state-json", '{"family": "btn", "params": {"bell_dim": 2}}',
                    "--observables", "full-product", "--topology", "triangle",
                    "--max-iter", "1000000000000"])
        assert code == 0
        assert load_report(capsys)["status"] == "feasible"

    def test_needs_observables_or_cm_file(self, capsys):
        assert run(["feasibility", "--state", "ghz", "--visibility", "0.8",
                    "--topology", "triangle"]) == 64
        assert "feasibility needs --observables" in capsys.readouterr().err

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
        assert manifest["certificate_files"] == ["certificate.ncmx"]
        g = read_matrix(tmp_path / "w" / "certificate.ncmx").real
        assert verify_certificate(problem, InfeasibilityCertificate(g))

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

    @pytest.mark.parametrize("sizes", [[-1, 2, 2], [1.5, 1, 0.5], [True, 1, 1]])
    def test_bad_sidecar_block_sizes_are_64(self, tmp_path, capsys, sizes):
        from netcm.covariance import covariance_matrix, save_cm
        from netcm.observables import named_observable_set

        rho = mix_white_noise(ghz_state(3, 2), 0.3)
        g = covariance_matrix(named_observable_set("pauli-z", rho.layout), rho)
        save_cm(g, tmp_path / "g.ncmx")
        side = tmp_path / "g.ncmx.json"
        side.write_text(json.dumps(dict(json.loads(side.read_text()), block_sizes=sizes)))
        out = tmp_path / "report.json"
        code = run(["feasibility", "--cm-file", str(tmp_path / "g.ncmx"),
                    "--topology", "triangle", "--output", str(out)])
        assert code == 64
        assert not out.exists()
        assert f"block sizes must be integers >= 0, got {sizes}" in capsys.readouterr().err

    @pytest.mark.parametrize("sidecar", [[], {"block_sizes": 3}, {"node_labels": [["A"], "B", "C"]},
                                         {"node_labels": "ABC"}],
                             ids=["list", "int-sizes", "nested-label", "string-labels"])
    def test_malformed_sidecar_is_64(self, tmp_path, capsys, sidecar):
        from netcm.covariance import covariance_matrix, save_cm
        from netcm.observables import named_observable_set

        rho = mix_white_noise(ghz_state(3, 2), 0.3)
        g = covariance_matrix(named_observable_set("pauli-z", rho.layout), rho)
        save_cm(g, tmp_path / "g.ncmx")
        side = tmp_path / "g.ncmx.json"
        if isinstance(sidecar, dict):
            sidecar = dict(json.loads(side.read_text()), **sidecar)
        side.write_text(json.dumps(sidecar))
        out = tmp_path / "report.json"
        code = run(["feasibility", "--cm-file", str(tmp_path / "g.ncmx"),
                    "--topology", "triangle", "--output", str(out)])
        assert code == 64
        assert not out.exists()
        assert "sidecar needs an object" in capsys.readouterr().err

    def test_slack_is_gone(self):
        assert run(["feasibility", "--state", "ghz", "--visibility", "0.3", "--observables",
                    "pauli-z", "--topology", "triangle", "--slack"]) == 64

    @pytest.mark.parametrize("case", ["btn", "ghz3", "unfed"])
    def test_manifest_lists_one_summand_per_witness_file(self, case, tmp_path, rng, capsys):
        from conftest import with_unfed_node
        from netcm.covariance import covariance_matrix, save_cm
        from netcm.observables import full_product_set
        from netcm.states import bell_pair, btn_assemble

        if case == "btn":
            argv = ["--state", "btn", "--dim", "2", "--observables", "full-product",
                    "--topology", "triangle"]
        elif case == "ghz3":
            argv = ["--state", "ghz", "--visibility", "0.8", "--observables", "pauli-z",
                    "--topology", "triangle"]
        else:
            # a CM on A, B, C, D whose topology feeds no source to D
            rho = btn_assemble(*[bell_pair(2)] * 3)
            save_cm(with_unfed_node(covariance_matrix(full_product_set(rho.layout), rho), rng),
                    tmp_path / "g.ncmx")
            topo = {"nodes": ["A", "B", "C", "D"], "sources": [["B", "C"], ["C", "A"], ["A", "B"]]}
            argv = ["--cm-file", str(tmp_path / "g.ncmx"), "--topology", json.dumps(topo)]
        code = run(["feasibility", *argv, "--witness-dir", str(tmp_path / "w")])
        assert code == (1 if case == "ghz3" else 0)
        manifest = json.loads((tmp_path / "w" / "manifest.json").read_text())
        assert len(manifest["summands"]) == (4 if case == "unfed" else 3)
        if case == "ghz3":
            assert manifest["witness_files"] == []
            assert manifest["certificate_files"] == ["certificate.ncmx"]
        else:
            assert len(manifest["witness_files"]) == len(manifest["summands"])
        assert manifest["summands"][:3] == [["B", "C"], ["C", "A"], ["A", "B"]]
        if case == "unfed":
            assert manifest["summands"][3] == ["D"]

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

    @pytest.mark.parametrize("tol", ["0", "1e-17"])
    def test_tolerance_below_float_spacing_terminates(self, tol, capsys):
        assert run(["fidelity-bound", "--tolerance", tol]) == 0
        assert 3 - np.sqrt(5) <= load_report(capsys)["bound"] <= 3 - np.sqrt(5) + 1e-15

    def test_grid_step_is_gone(self):
        assert run(["fidelity-bound", "--grid-step", "0.02"]) == 64


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


_GHZ3 = ["--state", "ghz", "--visibility", "0.4", "--observables", "pauli-z",
         "--topology", "triangle"]


class TestTolerance:
    """``--tolerance`` must be a finite number >= 0; anything else exits 64 before any work."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        import netcm.cli

        def refuse(*args, **kwargs):
            raise AssertionError("work started with a bad --tolerance")

        for name in ("state_from_spec", "load_cm", "ghz_fidelity_bound"):
            monkeypatch.setattr(netcm.cli, name, refuse)

    @pytest.mark.parametrize("value", ["-1", "nan", "inf", "-inf", "1e-3x"])
    @pytest.mark.parametrize("command", [
        ["check", *_GHZ3],
        ["scan", *_GHZ3, "--grid", "0:1:0.5", "--refine"],
        ["feasibility", *_GHZ3],
        ["fidelity-bound"],
    ], ids=lambda argv: argv[0])
    def test_rejected_before_any_work(self, command, value, no_work, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run([*command, "--tolerance", value, "--output", str(out)]) == 64
        assert not out.exists()
        assert "--tolerance" in capsys.readouterr().err

    def test_negative_check_tolerance_is_rejected(self, capsys):
        # margin 0.6 at v = 0.4: a tolerance of -1 would require margin >= 1
        assert run(["check", *_GHZ3]) == 0
        assert run(["check", *_GHZ3, "--tolerance", "-1"]) == 64

    def test_zero_is_accepted(self, capsys):
        assert run(["check", *_GHZ3, "--tolerance", "0"]) == 0
        assert load_report(capsys)["tolerance"] == 0.0


class TestErrors:
    def test_usage_error_is_64(self):
        assert run(["check"]) == 64  # no state given
        assert run(["bogus-command"]) == 64

    def test_unknown_observables_64(self):
        assert run(["check", "--state", "w", "--observables", "nope"]) == 64

    def test_missing_file_is_74(self):
        assert run(["check", "--state-file", "/nonexistent/m.ncmx", "--dims", "2,2",
                    "--observables", "pauli-z"]) == 74

    @pytest.mark.parametrize("argv, message", [
        (["check", "--state", "dicke", "--k", "2", "--criterion", "xi-psd"], "pass --split"),
        (["decompose", "--state", "w"], "decompose works on the btn family"),
        (["check", "--state-file", "rho.ncmx", "--observables", "pauli-z"],
         "--state-file needs --dims"),
    ], ids=["xi-psd-unsplit", "decompose-w", "state-file-no-dims"])
    def test_missing_or_misplaced_input_is_64(self, argv, message, tmp_path, monkeypatch,
                                              capsys):
        monkeypatch.chdir(tmp_path)
        assert run(argv + ["--output", "report.json"]) == 64
        assert list(tmp_path.iterdir()) == []
        assert message in capsys.readouterr().err

    def test_reports_never_contradict_exit_codes(self, capsys):
        for v, expected in (("0.3", 0), ("0.7", 1)):
            code = run(["check", "--state", "ghz", "--visibility", v,
                        "--observables", "pauli-z", "--topology", "triangle"])
            report = load_report(capsys)
            assert code == expected
            assert report["pass"] == (code == 0)


_COMMAND_NAMES = ("check", "scan", "decompose", "feasibility", "fidelity-bound", "schema")


class TestParser:
    """One invocation builds its own command's parser; the listing only for no command."""

    @pytest.mark.parametrize("name", _COMMAND_NAMES)
    def test_command_help(self, name, capsys):
        with pytest.raises(SystemExit) as exc:
            run([name, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: netcm {name} ")

    def test_listing_names_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--help"])
        assert exc.value.code == 0
        listing = capsys.readouterr().out
        assert all(name in listing for name in _COMMAND_NAMES)

    @pytest.mark.parametrize("argv", [[], ["bogus-command"], ["check", "--bogus"],
                                      ["--", "schema"]],
                             ids=["none", "unknown-command", "unknown-option", "command-not-first"])
    def test_usage_errors_are_64(self, argv, capsys):
        assert run(argv) == 64
        assert capsys.readouterr().err.startswith("netcm: ")

    def test_a_command_builds_no_listing(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the six-command listing was built")

        monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", refuse)
        out = tmp_path / "schema.json"
        assert run(["schema", "--output", str(out)]) == 0
        assert json.loads(out.read_text())["version"] == "1"


class TestTwoNodes:
    """A two-node state defaults to its one bipartite source."""

    def test_check_defaults_to_the_one_source(self, capsys):
        tail = ["check", "--state", "bell", "--dim", "3", "--observables", "full-product"]
        assert run(tail) == 0
        default = capsys.readouterr().out
        assert run(tail + ["--topology", '{"nodes": ["1", "2"], "sources": [["1", "2"]]}']) == 0
        assert capsys.readouterr().out == default

    def test_feasibility_is_feasible(self, capsys):
        assert run(["feasibility", "--state", "bell", "--observables", "full-product"]) == 0
        assert load_report(capsys)["status"] == "feasible"

    def test_one_node_is_64(self, capsys):
        assert run(["check", "--state-json", '{"family": "ghz", "params": {"parties": 1}}',
                    "--observables", "pauli-z"]) == 64
        assert "at least two nodes" in capsys.readouterr().err
