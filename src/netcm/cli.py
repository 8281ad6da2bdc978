"""Command-line front end: parse specs, run criteria, emit reports.

Exit codes: 0 criterion satisfied / decomposition feasible, 1 violated /
infeasible (with a verified certificate), 2 inconclusive, 64 malformed spec,
usage or non-finite input, 74 file I/O failure.  Reports are JSON (or CSV for
scans), written atomically, byte-identical for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import ncmx
from .covariance import covariance_matrix, load_cm
from .criteria import (
    CriterionReport,
    WhiteNoiseScan,
    btn_decompose,
    btn_residual_report,
    ghz_fidelity_bound,
    trace_norm_criterion,
    xi_report,
)
from .feasibility import CERTIFICATE_NOTE, FeasibilityProblem, export_witness, solve
from .linalg import SubsystemLayout
from .observables import NAMED_SETS, named_observable_set
from .states import (
    DensityOperator,
    bell_pair,
    btn_assemble,
    cluster4_state,
    dicke_state,
    ghz_state,
    mix_white_noise,
    split_nodes,
    w_state,
)
from .topology import NetworkTopology, line_topology, triangle_topology

SCHEMA_VERSION = "1"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_SPEC = 64
EXIT_IO = 74

STATE_FAMILIES = ("ghz", "w", "dicke", "cluster4", "bell", "btn", "file")
# criteria on the layout's full product basis, which they build themselves
TRIANGLE_CRITERIA = ("xi-psd", "btn-residual")


class SpecError(ValueError):
    """Malformed specification or usage."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2, which we reserve
        raise SpecError(message)


# -- state / observable / topology specs --------------------------------------


def state_from_spec(spec: dict) -> DensityOperator:
    """Build a state from the JSON grammar.

    ``{"family": "ghz|w|dicke|cluster4|bell|btn|file", "params": {...},
    "visibility": v, "split": [d1, d2]}``
    """
    params = _spec_params(spec)
    family = spec["family"]
    if family not in STATE_FAMILIES:
        raise SpecError(f"unknown state family {family!r}; known: {STATE_FAMILIES}")
    try:
        if family == "ghz":
            levels = params.get("levels", "full")
            if levels != "full":
                levels = _field(levels, "params.levels", _integers)
            rho = ghz_state(_field(params.get("parties", 3), "params.parties"),
                            _field(params.get("dim", 2), "params.dim"), levels)
        elif family == "w":
            rho = w_state()
        elif family == "dicke":
            rho = dicke_state(_field(params["k"], "params.k"))
        elif family == "cluster4":
            rho = cluster4_state()
        elif family == "bell":
            rho = bell_pair(_field(params.get("dim", 2), "params.dim"))
        elif family == "btn":
            rho = btn_assemble(*_btn_sources(params))
        else:  # file
            path = params.get("path")
            dims = params.get("dims")
            if path is None or dims is None:
                raise SpecError("file family needs params.path and params.dims")
            matrix = ncmx.read_matrix(path)
            dims = _field(dims, "params.dims", _integers)
            labels, nodes = params.get("labels"), params.get("nodes")  # null: the default
            if labels is None:
                labels = [chr(ord("A") + i) for i in range(len(dims))]
            labels = _field(labels, "params.labels", _strings)
            nodes = _field(labels if nodes is None else nodes, "params.nodes", _strings)
            rho = DensityOperator(matrix, SubsystemLayout(tuple(dims), tuple(labels), tuple(nodes)))
    except KeyError as exc:
        raise SpecError(f"state spec for family {family!r} is missing {exc}") from None
    if "visibility" in spec and spec["visibility"] is not None:
        v = _field(spec["visibility"], "visibility", lambda v: _integer(v) or isinstance(v, float))
        rho = mix_white_noise(rho, float(v))
    if spec.get("split") is not None and _field(spec["split"], "split", _integers):
        rho = split_nodes(rho, spec["split"])
    return rho


def _integer(value) -> bool:  # a JSON integer; a bool is not one
    return isinstance(value, int) and not isinstance(value, bool)


def _integers(value) -> bool:
    return isinstance(value, list) and all(map(_integer, value))


def _field(value, name: str, fits=_integer):
    """``value`` if ``fits(value)``, else a :class:`SpecError` naming the field."""
    if not fits(value):
        raise SpecError(f"state spec field {name!r} has the wrong type: {value!r}")
    return value


def _spec_params(spec) -> dict:
    """The params of a state spec, after checking that the spec and its params are objects."""
    if not isinstance(spec, dict) or "family" not in spec:
        raise SpecError(f"state spec must be an object with a 'family' key, got {spec!r}")
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise SpecError(f"state spec params must be an object, got {params!r}")
    return params


def _btn_sources(params: dict) -> list[DensityOperator]:
    """The three source states (a, b, c) of a btn spec's params."""
    sub = params.get("sources")
    if sub is None and "bell_dim" in params:
        sub = [{"family": "bell",
                "params": {"dim": _field(params["bell_dim"], "params.bell_dim")}}] * 3
    if not isinstance(sub, list) or len(sub) != 3:
        raise SpecError("btn family needs params.sources with exactly three state specs")
    return [state_from_spec(s) for s in sub]


def _parse_split(text: str) -> list[int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise SpecError(f"--split must look like 2x2, got {text!r}")
    return [int(p) for p in parts]


def state_spec_from_args(args) -> dict:
    """Canonical state spec from command-line flags (or pass-through JSON)."""
    given = [bool(args.state), bool(args.state_json), bool(args.state_file)]
    if sum(given) != 1:
        raise SpecError("give exactly one of --state, --state-json, --state-file")
    if args.state_json:
        text = args.state_json
        if text.startswith("@"):
            text = Path(text[1:]).read_text()
        spec = json.loads(text)
        _spec_params(spec)
    elif args.state_file:
        if not args.dims:
            raise SpecError("--state-file needs --dims")
        spec = {
            "family": "file",
            "params": {"path": args.state_file, "dims": [int(d) for d in args.dims.split(",")]},
        }
    else:
        family = args.state
        params: dict = {}
        if family == "ghz":
            params["parties"] = args.parties or 3
            params["dim"] = args.dim or 2
            if args.levels:
                params["levels"] = ("full" if args.levels == "full"
                                    else [int(k) for k in args.levels.split(",")])
        elif family == "dicke":
            if args.k is None:
                raise SpecError("dicke family needs --k")
            params["k"] = args.k
        elif family == "bell":
            params["dim"] = args.dim or 2
        elif family == "btn":
            params["bell_dim"] = args.dim or 2
        elif family not in ("w", "cluster4"):
            raise SpecError(f"unknown state family {family!r}; known: {STATE_FAMILIES}")
        spec = {"family": family, "params": params}
    if args.visibility is not None:
        spec["visibility"] = args.visibility
    if args.split:
        spec["split"] = _parse_split(args.split)
    return spec


def topology_from_spec(spec, node_labels) -> NetworkTopology:
    if spec in (None, "triangle"):
        if len(node_labels) != 3 and spec == "triangle":
            raise SpecError(f"triangle topology needs three nodes, state has {len(node_labels)}")
        if len(node_labels) == 3:
            return triangle_topology(tuple(node_labels))
        return line_topology(tuple(node_labels))
    if spec == "line":
        return line_topology(tuple(node_labels))
    if isinstance(spec, str):
        text = Path(spec[1:]).read_text() if spec.startswith("@") else spec
        try:
            spec = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"topology must be 'triangle', 'line' or JSON: {exc}") from None
    nodes, sources = (spec.get(k) if isinstance(spec, dict) else None for k in ("nodes", "sources"))
    if not (_strings(nodes) and isinstance(sources, list) and all(map(_strings, sources))):
        raise SpecError("topology JSON needs 'nodes', a list of strings, and 'sources', "
                        f"a list of lists of strings; got {spec!r}")
    return NetworkTopology(tuple(nodes), tuple(tuple(s) for s in sources))


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


# -- report plumbing -----------------------------------------------------------


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    ncmx.write_atomic(path, text.encode())


def _emit_json(path: str | None, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2, allow_nan=False) + "\n")


def _check_report(report: CriterionReport, state_spec, obs_spec, topo_spec) -> dict:
    out = {"schema_version": SCHEMA_VERSION}
    out.update(report.to_dict())
    out["state_spec"] = state_spec
    out["observables_spec"] = obs_spec
    out["topology"] = topo_spec
    return out


def report_schema() -> str:
    """Versioned JSON schema for criterion and feasibility reports."""
    schema = {
        "$schema": "http://json-schema.org/draft-07/schema#",
        "$id": "netcm-report",
        "version": SCHEMA_VERSION,
        "oneOf": [
            {"$ref": "#/definitions/criterion_report"},
            {"$ref": "#/definitions/feasibility_report"},
        ],
        "definitions": {
            "criterion_report": {
                "type": "object",
                "additionalProperties": False,
                "required": ["schema_version", "criterion", "lhs", "rhs", "margin",
                             "pass", "tolerance"],
                "properties": {
                    "schema_version": {"const": SCHEMA_VERSION},
                    "criterion": {"type": "string"},
                    "lhs": {"type": "number"},
                    "rhs": {"type": "number"},
                    "margin": {"type": "number"},
                    "pass": {"type": "boolean"},
                    "tolerance": {"type": "number"},
                    "details": {"type": "object"},
                    "state_spec": {"type": ["object", "null"]},
                    "observables_spec": {"type": ["string", "object", "null"]},
                    "topology": {"type": ["object", "null"]},
                },
            },
            "feasibility_report": {
                "type": "object",
                "additionalProperties": False,
                "required": ["schema_version", "status", "residual", "iterations"],
                "properties": {
                    "schema_version": {"const": SCHEMA_VERSION},
                    "status": {"enum": ["feasible", "infeasible", "inconclusive"]},
                    "residual": {"type": "number"},
                    "iterations": {"type": "number"},
                    "certificate": {"$ref": "#/definitions/certificate"},
                    "witness_manifest": {"type": ["string", "null"]},
                    "state_spec": {"type": ["object", "null"]},
                    "observables_spec": {"type": ["string", "object", "null"]},
                    "topology": {"type": ["object", "null"]},
                    "note": {"type": "string"},
                },
            },
            "certificate": {
                "type": "object",
                "additionalProperties": False,
                "required": ["kind", "iteration"],
                "properties": {
                    "kind": {"enum": ["separating-hyperplane", "uncovered-pair"]},
                    "epsilon": {"type": "number"},
                    "inner_product": {"type": "number"},
                    "delta": {"type": "number"},
                    "iteration": {"type": "integer"},
                    "pair": {"type": "array", "items": {"type": "string"},
                             "minItems": 2, "maxItems": 2},
                    "block_max_abs": {"type": "number"},
                },
            },
        },
    }
    return json.dumps(schema, indent=2) + "\n"


# -- commands ------------------------------------------------------------------


def _build_state_and_obs(args, spec: dict, criterion: str):
    """The state of ``spec``, the name of the observable set ``criterion`` reads, and the set.

    The triangle criteria build the layout's full product basis themselves (the set is None).
    """
    if criterion in TRIANGLE_CRITERIA:
        if args.observables not in (None, "full-product"):
            raise SpecError(f"{criterion} uses the layout's full product basis; "
                            f"--observables {args.observables} is not accepted")
        rho = state_from_spec(spec)
        if criterion == "xi-psd" and not args.split and all(
            len(rho.layout.factors_of(x)) == 1 for x in rho.layout.node_order
        ):
            raise SpecError("xi-psd needs split nodes; pass --split d1xd2")
        return rho, "full-product", None
    if not args.observables:
        raise SpecError(f"{criterion} needs --observables")
    rho = state_from_spec(spec)
    return rho, args.observables, named_observable_set(args.observables, rho.layout)


def _criterion_topology(args, rho: DensityOperator) -> NetworkTopology:
    """``--topology`` on rho's nodes; with the triangle criteria, only the oriented sources
    of ``triangle_topology`` in any order (a reversed cycle wires other factors)."""
    nodes = rho.layout.node_order
    topo = topology_from_spec(args.topology, nodes)
    if args.criterion in TRIANGLE_CRITERIA and len(nodes) == 3:  # else the criterion says why not
        triangle = triangle_topology(nodes)
        if (set(topo.nodes), set(topo.sources)) != (set(nodes), set(triangle.sources)):
            raise SpecError(f"{args.criterion} holds for the triangle topology "
                            f"{json.dumps(triangle.to_spec())} only, not for "
                            f"{json.dumps(topo.to_spec())}")
    return topo


def cmd_check(args) -> int:
    if args.criterion == "xi-psd" and args.tolerance is not None:
        raise SpecError("xi-psd uses its own scaled tolerance 1e-8*(1 + ||xi||_2); "
                        "drop --tolerance")
    tolerance = 1e-9 if args.tolerance is None else args.tolerance
    spec = state_spec_from_args(args)
    rho, obs_name, obs = _build_state_and_obs(args, spec, args.criterion)
    topo = _criterion_topology(args, rho)
    if args.criterion == "trace-norm":
        gamma = covariance_matrix(obs, rho)
        report = trace_norm_criterion(gamma, topo, tolerance=tolerance)
    elif args.criterion == "xi-psd":
        report = xi_report(rho)
    else:  # btn-residual
        report = btn_residual_report(rho, threshold=tolerance)
    if args.format == "csv":
        lines = ["criterion,lhs,rhs,margin,pass,tolerance",
                 f"{report.criterion},{report.lhs!r},{report.rhs!r},"
                 f"{report.margin!r},{str(report.passed).lower()},{report.tolerance!r}"]
        _write_text(args.output, "\n".join(lines) + "\n")
    else:
        _emit_json(args.output, _check_report(report, spec, obs_name, topo.to_spec()))
    return EXIT_PASS if report.passed else EXIT_FAIL


def _parse_grid(text: str) -> np.ndarray:
    """Visibilities start, start + step, ... up to stop: finite, inside [0, 1], step > 0."""
    try:
        start, stop, step = (float(x) for x in text.split(":"))
    except ValueError:
        raise SpecError(f"--grid must look like start:stop:step, got {text!r}") from None
    if not (np.isfinite([start, stop, step]).all() and step > 0 and 0.0 <= start <= stop <= 1.0):
        raise SpecError(f"bad grid {text!r}: need finite 0 <= start <= stop <= 1 and step > 0")
    count = int(np.floor((stop - start) / step + 1e-9)) + 1
    # the 1e-9 slack may step past stop by a rounding error; never past 1
    return np.minimum(start + step * np.arange(count), 1.0)


def cmd_scan(args) -> int:
    grid = _parse_grid(args.grid)
    base_spec = state_spec_from_args(args)
    base_spec.pop("visibility", None)
    base, obs_name, obs = _build_state_and_obs(args, base_spec, args.criterion)
    scan = WhiteNoiseScan(base, obs, args.criterion, _criterion_topology(args, base))
    rows = [scan.row(float(v)) for v in grid]
    threshold = scan.threshold(tol=args.tolerance) if args.refine else None

    if args.format == "csv":
        lines = ["visibility,lhs,rhs,margin,pass"]
        for v, (lhs, rhs, margin, ok) in zip(grid, rows):
            lines.append(f"{float(v)!r},{float(lhs)!r},{float(rhs)!r},{float(margin)!r},{str(bool(ok)).lower()}")
        if threshold is not None:
            lines.append(f"# refined_threshold,{threshold!r}")
        _write_text(args.output, "\n".join(lines) + "\n")
    else:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "criterion": args.criterion,
            "state_spec": base_spec,
            "observables_spec": obs_name,
            "grid": [
                {"visibility": float(v), "lhs": float(l), "rhs": float(r),
                 "margin": float(m), "pass": bool(p)}
                for v, (l, r, m, p) in zip(grid, rows)
            ],
        }
        if threshold is not None:
            payload["refined_threshold"] = threshold
        _emit_json(args.output, payload)
    return EXIT_PASS


def cmd_decompose(args) -> int:
    spec = state_spec_from_args(args)
    if spec.get("family") != "btn":
        raise SpecError("decompose works on the btn family (three declared sources)")
    if spec.get("visibility") is not None or spec.get("split"):
        raise SpecError("decompose takes no visibility or split; give them per source")
    dec = btn_decompose(_btn_sources(spec.get("params", {})))
    outdir = Path(args.output_dir or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    names = ["t_c", "t_b", "t_a", "r"]
    min_eigs = {}
    for name, part in zip(names, dec.parts()):
        ncmx.write_matrix(outdir / f"{name}.ncmx", part.astype(complex))
        min_eigs[name] = float(np.linalg.eigvalsh(part)[0])
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "state_spec": spec,
        "parts": [f"{n}.ncmx" for n in names],
        "block_sizes": list(dec.block_sizes),
        "node_labels": list(dec.node_labels),
        "min_eigenvalues": min_eigs,
    }
    _emit_json(str(outdir / "decomposition.json"), manifest)
    _emit_json(args.output, manifest)
    return EXIT_PASS


def cmd_feasibility(args) -> int:
    state_spec = obs_name = None
    if args.cm_file:
        gamma = load_cm(args.cm_file)
        topo = topology_from_spec(args.topology, gamma.node_labels)
    else:
        state_spec = state_spec_from_args(args)
        rho, obs_name, obs = _build_state_and_obs(args, state_spec, "feasibility")
        gamma = covariance_matrix(obs, rho)
        topo = topology_from_spec(args.topology, rho.layout.node_order)
    problem = FeasibilityProblem(gamma, topo)
    outcome = solve(problem, tol=args.tolerance, max_iter=args.max_iter)
    manifest_path = None
    if args.witness_dir:
        manifest_path = str(export_witness(problem, outcome, args.witness_dir))
    payload = {"schema_version": SCHEMA_VERSION}
    payload.update(outcome.to_dict())
    payload.update({
        "witness_manifest": manifest_path,
        "state_spec": state_spec,
        "observables_spec": obs_name,
        "topology": topo.to_spec(),
        "note": CERTIFICATE_NOTE,
    })
    _emit_json(args.output, payload)
    if outcome.status == "feasible":
        return EXIT_PASS
    if outcome.status == "infeasible":
        return EXIT_FAIL
    return EXIT_INCONCLUSIVE


def cmd_fidelity_bound(args) -> int:
    bound = ghz_fidelity_bound(tol=args.tolerance)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "criterion": "trace-norm",
        "target": "ghz3",
        "bound": bound,
        "tolerance": args.tolerance,
    }
    _emit_json(args.output, payload)
    return EXIT_PASS


def cmd_schema(args) -> int:
    _write_text(args.output, report_schema())
    return EXIT_PASS


# -- argument wiring -----------------------------------------------------------


def _tolerance(text: str) -> float:
    """``--tolerance`` value: a finite number >= 0, so no bisection can run forever."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not (np.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _add_state_args(p: argparse.ArgumentParser):
    p.add_argument("--state", help=f"state family: {', '.join(STATE_FAMILIES[:-1])}")
    p.add_argument("--state-json", help="full JSON state spec (inline or @file)")
    p.add_argument("--state-file", help="NCMX density matrix file")
    p.add_argument("--dims", help="comma-separated node dimensions for --state-file")
    p.add_argument("--parties", type=int, help="party count for ghz")
    p.add_argument("--dim", type=int, help="local dimension (ghz, bell, btn)")
    p.add_argument("--levels", help="ghz levels: 'full' or e.g. '0,3'")
    p.add_argument("--k", type=int, help="dicke excitation number")
    p.add_argument("--visibility", type=float, help="white-noise visibility")
    p.add_argument("--split", help="per-node factor split, e.g. 2x2")


def _add_common_args(p: argparse.ArgumentParser):
    p.add_argument("--observables", help=f"named set: {', '.join(sorted(NAMED_SETS))} "
                                         "(xi-psd and btn-residual: full-product only)")
    p.add_argument("--topology", help="'triangle', 'line', or JSON (inline or @file)")
    p.add_argument("--output", help="report path (default: stdout)")


def _add_check_args(p: argparse.ArgumentParser):
    _add_state_args(p)
    _add_common_args(p)
    p.add_argument("--criterion", default="trace-norm",
                   choices=("trace-norm",) + TRIANGLE_CRITERIA)
    p.add_argument("--format", default="json", choices=["json", "csv"])


def _add_scan_args(p: argparse.ArgumentParser):
    _add_check_args(p)
    p.add_argument("--grid", required=True, help="start:stop:step over visibility")
    p.add_argument("--refine", action="store_true", help="bisection-refine the threshold")


def _add_decompose_args(p: argparse.ArgumentParser):
    _add_state_args(p)
    p.add_argument("--output", help="copy of the manifest (default: stdout)")
    p.add_argument("--output-dir", help="directory for the NCMX parts and the manifest")


def _add_feasibility_args(p: argparse.ArgumentParser):
    _add_state_args(p)
    _add_common_args(p)
    p.add_argument("--cm-file", help="NCMX covariance matrix (with JSON sidecar)")
    p.add_argument("--max-iter", type=int, default=50000)
    p.add_argument("--witness-dir", help="directory for witness export")


def _add_output_arg(p: argparse.ArgumentParser):
    p.add_argument("--output")


# name -> (help, handler, adds the command's arguments)
_COMMANDS = {
    "check": ("evaluate one criterion on one state", cmd_check, _add_check_args),
    "scan": ("criterion margin over a visibility grid", cmd_scan, _add_scan_args),
    "decompose": ("source decomposition of a triangle-state CM", cmd_decompose,
                  _add_decompose_args),
    "feasibility": ("block-decomposition feasibility of a CM", cmd_feasibility,
                    _add_feasibility_args),
    "fidelity-bound": ("GHZ fidelity bound from the trace-norm criterion", cmd_fidelity_bound,
                       _add_output_arg),
    "schema": ("print the JSON report schema", cmd_schema, _add_output_arg),
}


# --tolerance per command, (default, help): it controls something different in each
_TOLERANCES = {
    "check": (None, "verdict slack of trace-norm and btn-residual (default 1e-9); not "
                    "accepted with xi-psd, which scales its own: 1e-8*(1 + ||xi||_2)"),
    "scan": (1e-6, "--refine bisection width (default %(default)s); grid verdicts use "
                   "each criterion's default tolerance"),
    "feasibility": (1e-7, "residual target of a feasible verdict, > 0, in units of the "
                          "CM's own max|Gamma_ij| (default %(default)s)"),
    "fidelity-bound": (1e-4, "bisection width (default %(default)s): the bound is at most "
                             "TOL above 3 - sqrt(5)"),
}


def build_parser(command: str | None = None) -> _Parser:
    """The parser of one command, or, for any other ``command``, the listing of all six.

    Adding arguments is most of a parser's cost, and one invocation runs one
    command, so the listing is built only when no command is named.
    """
    if command in _COMMANDS:
        _, handler, add_args = _COMMANDS[command]
        parser = _Parser(prog=f"netcm {command}")
        parser.set_defaults(func=handler)
        add_args(parser)
        if command in _TOLERANCES:
            default, text = _TOLERANCES[command]
            parser.add_argument("--tolerance", type=_tolerance, default=default, metavar="TOL",
                                help=text)
        return parser
    parser = _Parser(prog="netcm",
                     description="Covariance-matrix criteria for quantum network states")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        sub.add_parser(name, help=help_text)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if not argv or argv[0] not in _COMMANDS:
            # prints the listing for --help; anything else is a usage error
            build_parser().parse_args(argv)
            raise SpecError("the command must come first: netcm COMMAND [options]")
        args = build_parser(argv[0]).parse_args(argv[1:])
        return args.func(args)
    except (ValueError, KeyError) as exc:  # SpecError and JSONDecodeError are ValueErrors
        print(f"netcm: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except OSError as exc:
        print(f"netcm: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
