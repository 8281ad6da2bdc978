"""Seeded inputs, operation schedules and analytic oracles of the four workloads.

Each workload builds *cycles*: seeded lists of CLI invocations whose
composition (how many ops of each kind, in which order) does not depend on
the seed; the seed only chooses visibilities, weights and random sources.
The runner builds a fresh cycle, with fresh input files, from the seed and
the cycle's index until its time is up, so every run sees the same mix,
throughput figures are comparable across seeds, and no op sees inputs an
earlier op of the run has seen.

Every expected value comes from the paper's analytic results (thresholds
1/(N-1) and 3/4, the cluster-state equality, the 3 - sqrt(5) fidelity bound,
the xi/residual exclusions, the source decomposition of triangle states),
or from plain numpy written here; never from re-running netcm.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

MAX_ITER = 300  # solver cap of the solve-infeasible workload
GAP = 1e-3  # no visibility is drawn closer than this to a threshold
FIDELITY_BOUND = 3.0 - math.sqrt(5.0)


@dataclass
class Op:
    """One CLI invocation, the report it writes, and what the paper predicts."""

    kind: str
    argv: list[str]
    report: str
    expect: dict = field(default_factory=dict)


def _draw_away(rng, lo, hi, thresholds) -> float:
    while True:
        v = round(float(rng.uniform(lo, hi)), 6)
        if all(abs(v - t) >= GAP for t in thresholds):
            return v


def _ghz_threshold(parties: int) -> float:
    return 1.0 / (parties - 1)


def _topology_name(parties: int) -> str:
    return "triangle" if parties == 3 else "line"


def _finish(ops: list[Op]) -> list[Op]:
    """Interleave the kinds and give each op its own report path.

    The interleaving is one fixed shuffle, the same for every seed, so that
    seeds differ only in the values of the inputs and not in which op
    follows which.
    """
    ops = [ops[i] for i in np.random.default_rng(0).permutation(len(ops))]
    for i, op in enumerate(ops):
        if op.kind.startswith("decompose"):
            # decompose writes decomposition.json into its output directory
            op.report = f"dec/op{i:03d}/decomposition.json"
            op.argv += ["--output-dir", f"dec/op{i:03d}", "--output", op.report]
        else:
            op.report = f"rep/op{i:03d}.json"
            op.argv += ["--output", op.report]
    return ops


# -- thresholds ------------------------------------------------------------------


# W and cluster4 checks per cycle; with the GHZ3..GHZ6 checks they are the
# cheap ops (5-9 ms), which hold the ranks below 0.70
CHEAP_CHECKS = 15


def thresholds(rng, inputs: Path) -> list[Op]:
    """Trace-norm verdict family: 60 ops per cycle, no input files.

    Latencies step from a few ms (GHZ3..GHZ6, W, cluster4) through GHZ7,
    GHZ8 and the scans to about 0.2 s (GHZ9, the GHZ6 scan) and 1.2-1.4 s
    (GHZ10, fidelity-bound).  The mix places the op_p50_s rank inside the
    cheap checks and the op_p90_s rank inside the 0.2 s block, so neither
    decile sits on one of the big steps between kinds of op, where the
    value would jump.
    """
    ops = []
    for parties in range(3, 11):
        for _ in range(3):
            v = _draw_away(rng, 0.0, 1.0, [_ghz_threshold(parties)])
            ops.append(Op(f"check-ghz{parties}", [
                "check", "--state", "ghz", "--parties", str(parties), "--visibility", repr(v),
                "--observables", "pauli-z", "--topology", _topology_name(parties)], "",
                {"passes": v < _ghz_threshold(parties)}))
    for _ in range(CHEAP_CHECKS):
        v = _draw_away(rng, 0.0, 1.0, [0.75])
        ops.append(Op("check-w", ["check", "--state", "w", "--visibility", repr(v),
                                  "--observables", "w-set"], "", {"passes": v < 0.75}))
    # the cluster-set CM at visibility v has trace 4 and two unit-norm pair
    # blocks scaled by v, so the margin is 4 (1 - v): zero for the pure state
    for vis in [None] + [round(float(rng.uniform(0.0, 1.0)), 6) for _ in range(CHEAP_CHECKS - 1)]:
        extra = [] if vis is None else ["--visibility", repr(vis)]
        ops.append(Op("check-cluster4", ["check", "--state", "cluster4", "--observables",
                                         "cluster-set"] + extra, "",
                      {"margin": 4.0 * (1.0 - (1.0 if vis is None else vis))}))
    targets = [(f"ghz{n}", ["--state", "ghz", "--parties", str(n), "--observables", "pauli-z",
                            "--topology", _topology_name(n)], _ghz_threshold(n)) for n in range(3, 7)]
    targets.append(("w", ["--state", "w", "--observables", "w-set"], 0.75))
    for name, args, thr in targets:
        # ten grid points, none within GAP of the threshold
        while True:
            start = round(float(rng.uniform(0.005, 0.095)), 4)
            grid = [start + 0.1 * i for i in range(10)]
            if all(abs(g - thr) >= GAP for g in grid):
                break
        ops.append(Op(f"scan-{name}", ["scan"] + args + [
            "--grid", f"{start!r}:{round(start + 0.9, 4)!r}:0.1", "--refine"], "",
            {"threshold": thr, "points": 10}))
    ops.append(Op("fidelity-bound", ["fidelity-bound"], "", {"bound": FIDELITY_BOUND}))
    return _finish(ops)


def _check_verdict(op: Op, rc, report: dict) -> str | None:
    want = op.expect["passes"]
    if report.get("pass") is not want or rc != (0 if want else 1):
        return f"expected pass={want}, got pass={report.get('pass')} exit {rc}"
    return None


def _check_thresholds(op: Op, rc, report: dict) -> str | None:
    kind = op.kind
    if kind.startswith("check-ghz") or kind == "check-w":
        return _check_verdict(op, rc, report)
    if kind == "check-cluster4":
        if rc != 0 or abs(report["margin"] - op.expect["margin"]) > 1e-10:
            return f"expected margin {op.expect['margin']!r}, got {report['margin']!r} exit {rc}"
    elif kind.startswith("scan-"):
        thr = op.expect["threshold"]
        if rc != 0 or abs(report["refined_threshold"] - thr) > 1e-5:
            return f"refined threshold {report.get('refined_threshold')!r}, analytic {thr!r}"
        rows = report["grid"]
        if len(rows) != op.expect["points"]:
            return f"{len(rows)} grid points, expected {op.expect['points']}"
        for row in rows:
            if row["pass"] is not (row["visibility"] < thr):
                return f"grid point v={row['visibility']!r} pass={row['pass']}, threshold {thr!r}"
    elif kind == "fidelity-bound":
        if rc != 0 or abs(report["bound"] - FIDELITY_BOUND) > 5e-3:
            return f"fidelity bound {report.get('bound')!r}, analytic {FIDELITY_BOUND!r}"
    return None


# -- triangle-criteria ----------------------------------------------------------


_EXCLUDED = [("ghz03", ["--state", "ghz", "--dim", "4", "--levels", "0,3"]),
             ("ghzfull", ["--state", "ghz", "--dim", "4", "--levels", "full"])] + [
    (f"dicke{k}", ["--state", "dicke", "--k", str(k)]) for k in range(1, 8)]
BTN_STATES = 6


def _random_density(dim: int, rng) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / m.trace().real


def triangle_criteria(rng, inputs: Path) -> list[Op]:
    """48x48 full-product CMs: 27 exclusion checks and 6 random btn states x 3 ops.

    Each excluded state gets xi-psd at two weights and btn-residual at one.
    btn-residual is the fastest op (about 16 ms against 20 ms for xi-psd and
    decompose), so with 15 of 45 ops it holds the ranks below 0.33: the
    op_p50_s rank falls in the middle of the xi-psd checks, and op_p90_s
    among xi-psd and decompose, whose latencies are alike.
    """
    from netcm import ncmx

    ops = []
    for name, args in _EXCLUDED:
        # acceptance tests 4-6: xi is not PSD and the closed-form residual is
        # nonzero at every weight in (0, 1) for these states
        for crit in ("xi-psd", "xi-psd", "btn-residual"):
            w = round(float(rng.uniform(0.05, 0.95)), 6)
            ops.append(Op(f"{crit}-{name}", ["check"] + args + [
                "--visibility", repr(w), "--split", "2x2", "--criterion", crit], "",
                {"passes": False}))
    for j in range(BTN_STATES):
        paths, sources = [], []
        for s in "abc":
            rho = _random_density(4, rng)
            path = inputs / f"btn{j}_{s}.ncmx"
            ncmx.write_matrix(path, rho)
            paths.append(str(path))
            sources.append(rho)
        spec = json.dumps({"family": "btn", "params": {"sources": [
            {"family": "file", "params": {"path": p, "dims": [2, 2]}} for p in paths]}})
        for crit in ("xi-psd", "btn-residual"):
            ops.append(Op(f"{crit}-btn", ["check", "--state-json", spec, "--criterion", crit],
                          "", {"passes": True}))
        ops.append(Op("decompose-btn", ["decompose", "--state-json", spec], "",
                      {"sources": sources}))
    return _finish(ops)


_PAULI = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
          np.diag([1.0, -1.0])]


def btn_cm(rho_a, rho_b, rho_c) -> np.ndarray:
    """Full-product CM of the triangle state with sources a, b, c (plain numpy).

    Source a feeds (B2, C1), b feeds (C2, A1), c feeds (A2, B1); node factors
    are ordered A1 A2 B1 B2 C1 C2 and node observables are the 16 products
    of the Pauli basis, in the library's lexicographic order.
    """
    big = np.kron(rho_b, np.kron(rho_c, rho_a)).reshape((2,) * 12)
    # tensor order of big is C2 A1 A2 B1 B2 C1; move to A1 A2 B1 B2 C1 C2
    perm = [1, 2, 3, 4, 5, 0]
    rho = big.transpose(perm + [p + 6 for p in perm]).reshape(64, 64)
    local = [np.kron(p, q) for p in _PAULI for q in _PAULI]
    obs = [np.kron(o, np.eye(16)) for o in local]
    obs += [np.kron(np.eye(4), np.kron(o, np.eye(4))) for o in local]
    obs += [np.kron(np.eye(16), o) for o in local]
    stack = np.stack(obs)
    with_rho = stack @ rho  # O_n rho
    means = np.trace(with_rho, axis1=1, axis2=2).real
    # tr(O_m O_n rho) = sum_ij (O_m)_ij (O_n rho)_ji
    second = (stack.reshape(48, -1) @ with_rho.transpose(0, 2, 1).reshape(48, -1).T).real
    return second - np.outer(means, means)


def _check_triangle(op: Op, rc, report: dict) -> str | None:
    if op.kind != "decompose-btn":
        return _check_verdict(op, rc, report)
    from netcm import ncmx

    if rc != 0:
        return f"decompose exit {rc}"
    outdir = Path(op.report).parent
    parts = [ncmx.read_matrix(outdir / name) for name in report["parts"]]
    if len(parts) != 4:
        return f"{len(parts)} parts, expected 4"
    for name, part in zip(report["parts"], parts):
        low = float(np.linalg.eigvalsh(part)[0])
        if low < -1e-8:
            return f"part {name} has min eigenvalue {low:.3e}"
    dev = float(np.abs(sum(parts) - btn_cm(*op.expect["sources"])).max())
    if dev > 1e-9:
        return f"parts sum to the CM only within {dev:.3e}"
    return None


# -- solve-feasible -------------------------------------------------------------

FEASIBLE_CMS = 50


def solve_feasible(rng, inputs: Path) -> list[Op]:
    """Seeded random triangle full-product CMs, one feasibility solve each."""
    from netcm.covariance import covariance_matrix, save_cm
    from netcm.observables import full_product_set
    from netcm.states import btn_assemble, random_source

    ops, obs = [], None
    for j in range(FEASIBLE_CMS):
        rho = btn_assemble(*(random_source(2, rng) for _ in range(3)))
        obs = obs or full_product_set(rho.layout)
        gamma = covariance_matrix(obs, rho)
        path = inputs / f"cm{j:03d}.ncmx"
        save_cm(gamma, path)
        ops.append(Op("feasible-btn", ["feasibility", "--cm-file", str(path), "--topology",
                                       "triangle", "--witness-dir", f"wit/cm{j:03d}"], "",
                      {"cm": str(path), "gamma": gamma.matrix}))
    return _finish(ops)


class _FeasibleOracle:
    def __init__(self):
        self.witnesses = 0
        self.verified = 0

    def __call__(self, op: Op, rc, report: dict) -> str | None:
        from netcm import ncmx
        from netcm.covariance import load_cm
        from netcm.feasibility import FeasibilityProblem, verify_witness
        from netcm.topology import triangle_topology

        if rc != 0 or report.get("status") != "feasible":
            return f"expected feasible, got {report.get('status')!r} exit {rc}"
        manifest_path = Path(report["witness_manifest"])
        manifest = json.loads(manifest_path.read_text())
        parts = [ncmx.read_matrix(manifest_path.parent / f).real for f in manifest["witness_files"]]
        self.witnesses += 1
        problem = FeasibilityProblem(load_cm(op.expect["cm"]), triangle_topology())
        if not verify_witness(problem, parts, 1e-7):
            return "witness fails verify_witness"
        dev = float(np.abs(sum(parts) - op.expect["gamma"]).max())
        if dev > 1e-6:
            return f"witness summands sum to the CM only within {dev:.3e}"
        self.verified += 1
        return None


# -- solve-infeasible -----------------------------------------------------------

# family -> (parties, observable set, visibility range, ops per input form);
# GHZ3 above 1/2 and W above 3/4 violate the trace-norm criterion, and a GHZ5
# CM on a line has non-adjacent pair blocks that no source can carry.  W
# solves take longer than GHZ3 solves; with 10% GHZ5, 60% GHZ3 and 30% W the
# op_p50_s rank falls well inside the GHZ3 solves and op_p90_s well inside
# the W solves, not on the edge between them.
_INFEASIBLE = {
    "ghz3": (3, "pauli-z", (0.5 + 10 * GAP, 1.0), 12),
    "w": (3, "w-set", (0.75 + 10 * GAP, 1.0), 6),
    "ghz5": (5, "pauli-z", (0.05, 0.5), 2),
}


def solve_infeasible(rng, inputs: Path) -> list[Op]:
    """Trace-norm-violating CMs at a fixed iteration cap: 40 ops per cycle,
    each family given both as a state spec and as a CM file."""
    from netcm.covariance import covariance_matrix, save_cm
    from netcm.observables import named_observable_set
    from netcm.states import ghz_state, mix_white_noise, w_state

    ops = []
    for name, (parties, obs_name, (lo, hi), count) in _INFEASIBLE.items():
        tail = ["--topology", _topology_name(parties), "--max-iter", str(MAX_ITER)]
        for from_file in (False, True):
            for _ in range(count):
                v = round(float(rng.uniform(lo, hi)), 6)
                if not from_file:
                    state = ["--state", "w"] if name == "w" else [
                        "--state", "ghz", "--parties", str(parties)]
                    ops.append(Op(f"infeasible-{name}-spec", ["feasibility"] + state + [
                        "--visibility", repr(v), "--observables", obs_name] + tail, ""))
                    continue
                rho = mix_white_noise(w_state() if name == "w" else ghz_state(parties, 2), v)
                path = inputs / f"cm{len(ops):03d}.ncmx"
                save_cm(covariance_matrix(named_observable_set(obs_name, rho.layout), rho), path)
                ops.append(Op(f"infeasible-{name}-cm",
                              ["feasibility", "--cm-file", str(path)] + tail, ""))
    return _finish(ops)


def _check_infeasible(op: Op, rc, report: dict) -> str | None:
    # no decomposition exists for these CMs; "inconclusive" (exit 2) is a
    # failure to say so
    status = report.get("status")
    if rc != 1 or status in ("feasible", "inconclusive"):
        return f"expected an infeasible verdict with exit 1, got {status!r} exit {rc}"
    return None


@dataclass(frozen=True)
class Workload:
    build: Callable[..., list[Op]]  # (rng, inputs_dir) -> the cycle
    oracle: Callable[[], Callable]  # -> a check (op, exit_code, report) -> error or None


WORKLOADS = {
    "thresholds": Workload(thresholds, lambda: _check_thresholds),
    "triangle-criteria": Workload(triangle_criteria, lambda: _check_triangle),
    "solve-feasible": Workload(solve_feasible, _FeasibleOracle),
    "solve-infeasible": Workload(solve_infeasible, lambda: _check_infeasible),
}
