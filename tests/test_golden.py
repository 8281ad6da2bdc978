"""Golden corpus of CLI reports.

Each case runs ``netcm.cli.main`` in-process, inside a temporary directory,
and compares its exit code and report with the files under ``tests/golden``:
keys, key order, strings and booleans exactly, numbers to within
1e-12 * (1 + |x|) so that another numpy/BLAS build may differ in the last
digits.  After an intended report change, regenerate the cases it names with

    PYTHONPATH=src python tests/test_golden.py NAME [NAME ...]

which rewrites only those golden files and their ``exit_codes.json`` keys
(an unknown name exits 2 and writes nothing); with no names it rewrites the
whole corpus.
"""

import json
import math
import os
import sys
import tempfile
from pathlib import Path

import pytest

from netcm.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
FLOAT_TOL = 1e-12

_BTN = json.dumps({"family": "btn", "params": {"sources": [
    {"family": "bell", "params": {"dim": 2}, "visibility": 0.7},
    {"family": "bell", "params": {"dim": 2}},
    {"family": "bell", "params": {"dim": 2}, "visibility": 0.5},
]}})

# name -> (argv, report file written by the run); the file's suffix is the golden's
CASES = {
    "check-ghz3-triangle": (["check", "--state", "ghz", "--parties", "3", "--visibility", "0.6",
                             "--observables", "pauli-z", "--topology", "triangle",
                             "--output", "report.json"], "report.json"),
    "check-ghz5-line": (["check", "--state", "ghz", "--parties", "5", "--visibility", "0.3",
                         "--observables", "pauli-z", "--topology", "line",
                         "--output", "report.json"], "report.json"),
    "check-ghz8-line": (["check", "--state", "ghz", "--parties", "8", "--observables", "pauli-z",
                         "--topology", "line", "--output", "report.json"], "report.json"),
    "check-w": (["check", "--state", "w", "--visibility", "0.8", "--observables", "w-set",
                 "--output", "report.json"], "report.json"),
    "check-cluster4": (["check", "--state", "cluster4", "--visibility", "0.9",
                        "--observables", "cluster-set", "--output", "report.json"], "report.json"),
    "check-dicke2-xi": (["check", "--state", "dicke", "--k", "2", "--split", "2x2",
                         "--criterion", "xi-psd", "--output", "report.json"], "report.json"),
    "check-dicke2-residual": (["check", "--state", "dicke", "--k", "2", "--split", "2x2",
                               "--criterion", "btn-residual", "--output", "report.json"],
                              "report.json"),
    "check-btn-xi": (["check", "--state-json", _BTN, "--criterion", "xi-psd",
                      "--output", "report.json"], "report.json"),
    "check-btn-residual": (["check", "--state-json", _BTN, "--criterion", "btn-residual",
                            "--output", "report.json"], "report.json"),
    "scan-ghz3-refine": (["scan", "--state", "ghz", "--parties", "3", "--observables", "pauli-z",
                          "--topology", "triangle", "--grid", "0:1:0.1", "--refine",
                          "--output", "report.json"], "report.json"),
    "scan-w-refine": (["scan", "--state", "w", "--observables", "w-set", "--grid", "0:1:0.05",
                       "--format", "csv", "--refine", "--output", "report.csv"], "report.csv"),
    "scan-dicke2-xi-refine": (["scan", "--state", "dicke", "--k", "2", "--split", "2x2",
                               "--criterion", "xi-psd", "--grid", "0:1:0.25", "--refine",
                               "--output", "report.json"], "report.json"),
    "decompose-btn": (["decompose", "--state-json", _BTN, "--output-dir", "parts",
                       "--output", "unused"], "parts/decomposition.json"),
    "feasibility-btn-feasible": (["feasibility", "--state-json", _BTN,
                                  "--observables", "full-product", "--output", "report.json"],
                                 "report.json"),
    "feasibility-ghz3-infeasible": (["feasibility", "--state", "ghz", "--visibility", "0.8",
                                     "--observables", "pauli-z", "--topology", "triangle",
                                     "--output", "report.json"], "report.json"),
    "fidelity-bound": (["fidelity-bound", "--output", "report.json"], "report.json"),
    "fidelity-bound-tol1e-6": (["fidelity-bound", "--tolerance", "1e-6", "--output", "report.json"],
                               "report.json"),
}


def _run(name: str, workdir: Path) -> tuple[int, str]:
    argv, report = CASES[name]
    home = os.getcwd()
    os.chdir(workdir)  # every path in argv is relative, so reports do not name the directory
    try:
        code = main(list(argv))
    finally:
        os.chdir(home)
    return code, (workdir / report).read_text()


def _golden_path(name: str) -> Path:
    return GOLDEN / (name + Path(CASES[name][1]).suffix)


def _same(got, want, where: str) -> None:
    assert type(got) is type(want), f"{where}: {got!r} is not of the type of {want!r}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{where}: keys {list(got)} != {list(want)}"
        for key in want:
            _same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            _same(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=0.0, abs_tol=FLOAT_TOL * (1.0 + abs(want))), \
            f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


def _csv_fields(text: str) -> list:
    """CSV report as a nested list, numeric fields parsed as floats."""
    def field(cell: str):
        try:
            return float(cell)
        except ValueError:
            return cell
    return [[field(cell) for cell in line.split(",")] for line in text.splitlines()]


def _parse(name: str, text: str):
    return _csv_fields(text) if _golden_path(name).suffix == ".csv" else json.loads(text)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path):
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    code, text = _run(name, tmp_path)
    assert code == codes[name]
    _same(_parse(name, text), _parse(name, _golden_path(name).read_text()), name)


def _regenerate(names: list[str]) -> int:
    """Rewrite the golden files of ``names``, or of every case if none; the exit status."""
    unknown = [name for name in names if name not in CASES]
    if unknown:
        print(f"unknown golden case(s): {', '.join(unknown)}; known: {', '.join(sorted(CASES))}",
              file=sys.stderr)
        return 2
    GOLDEN.mkdir(exist_ok=True)
    codes_path = GOLDEN / "exit_codes.json"
    codes = json.loads(codes_path.read_text()) if names else {}
    for name in sorted(set(names) or CASES):
        with tempfile.TemporaryDirectory() as work:
            codes[name], text = _run(name, Path(work))
        _golden_path(name).write_text(text)
    codes_path.write_text(json.dumps(dict(sorted(codes.items())), indent=2) + "\n")
    return 0


def test_regenerate_rewrites_only_named_cases(tmp_path, monkeypatch):
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    want = (GOLDEN / "fidelity-bound.json").read_text()
    (tmp_path / "exit_codes.json").write_text(json.dumps(dict(codes, **{"fidelity-bound": 99})))
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN", tmp_path)
    assert _regenerate(["fidelity-bound"]) == 0
    assert sorted(f.name for f in tmp_path.iterdir()) == ["exit_codes.json", "fidelity-bound.json"]
    assert json.loads((tmp_path / "exit_codes.json").read_text()) == codes
    assert (tmp_path / "fidelity-bound.json").read_text() == want


def test_regenerate_unknown_case_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN", tmp_path)
    assert _regenerate(["fidelity-bound", "no-such-case"]) == 2
    assert "no-such-case" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


if __name__ == "__main__":
    sys.exit(_regenerate(sys.argv[1:]))
