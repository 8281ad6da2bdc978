#!/usr/bin/env python3
"""netcm benchmark: four verdict workloads driven through ``netcm.cli.main``.

    python3 perfbench/run.py --workload thresholds --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root.  One process, one client, a closed loop: each
CLI invocation is sent after the previous one returns, in-process, so the
figures are what a user's ``netcm`` call costs without interpreter start-up.
Reports go to a scratch directory under ``.perfbench_out/``.  Each cycle of
ops gets fresh seeded inputs, and netcm's functools caches are emptied
before each op, as a fresh ``netcm`` process would find them.  Each op is
checked against the workload's analytic oracle after its timer stops.
Everything runs on one thread.  The end-to-end timings are read at a
reference host speed: each timed interval is scaled by a probe of the
host's speed taken around it (see ``_probe``), because the shared hosts
this runs on change speed by up to 1.8 times for minutes at a time.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one cycle
traced (see spans.py) and one untraced and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
OUT = REPO / ".perfbench_out"

MIN_OPS = 100  # per untraced run, so op_p90_s has at least ten samples beyond it
SETUP_REPEATS = 9
PROBE_REPS = 40  # iterations of the host-speed probe, about 2 ms in all
REF_PROBE_S = 2.0e-3  # the probe's time at the reference host speed
WORKLOAD_NAMES = ("thresholds", "triangle-criteria", "solve-feasible", "solve-infeasible")

END_TO_END_UNITS = {"verdicts_per_s": "1/s", "op_p50_s": "s", "op_p90_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MiB"}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="op time to measure; whole cycles run until it is reached")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# -- host speed --------------------------------------------------------------------

_PROBE_INPUT = []


def _probe() -> float:
    """Seconds for a fixed piece of work of netcm's kind, with no netcm code in it.

    Small-matrix numpy linear algebra under the interpreter, as in netcm's
    own inner loops.  The benchmark runs it before and after every timed op
    to read how fast the (shared) host is running at that moment.
    """
    import numpy as np

    if not _PROBE_INPUT:
        a = np.random.default_rng(0).standard_normal((8, 8))
        _PROBE_INPUT.append(a + a.T)
    m = _PROBE_INPUT[0]
    start = time.perf_counter()
    for _ in range(PROBE_REPS):
        w, v = np.linalg.eigh(m)
        p = (v * np.maximum(w, 0.0)) @ v.T
        np.kron(p[:2, :2], p[:4, :4]).trace()
        sum(i * i for i in range(40))
    return time.perf_counter() - start


def _scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two probes, at the reference host speed.

    The slower probe stands for the interval: an op that straddles a change
    of host speed is read against the slow side, which its tail follows.
    """
    return seconds * REF_PROBE_S / max(before, after)


# -- set-up ------------------------------------------------------------------------


def _import_seconds() -> float:
    """Time to import netcm's CLI in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import netcm.cli; print(repr(time.perf_counter() - t))")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                          text=True, check=True, cwd=REPO, timeout=120)
    return float(done.stdout.strip().splitlines()[-1])


def _cycle(workload, seed: int, index: int):
    """Cycle ``index`` of the run: its ops, with fresh inputs under in/c<index>/."""
    import numpy as np

    shutil.rmtree("in", ignore_errors=True)  # earlier cycles' inputs are done with
    inputs = Path("in") / f"c{index}"
    inputs.mkdir(parents=True)
    return workload.build(np.random.default_rng([seed, index]), inputs)


def _setup(workload, seed: int):
    """Import netcm and generate the first cycle's inputs, SETUP_REPEATS times.

    Returns the first cycle and the median of the repeats' set-up times,
    raw and at the reference host speed.
    """
    sys.path.insert(0, str(SRC))
    import netcm.cli  # noqa: F401  (the in-process import the ops use)

    raw, scaled = [], []
    after = _probe()
    for _ in range(SETUP_REPEATS):
        before = after
        imported = _import_seconds()
        start = time.perf_counter()
        cycle = _cycle(workload, seed, 0)
        raw.append(imported + time.perf_counter() - start)
        after = _probe()
        scaled.append(_scale(raw[-1], before, after))
    for d in ("rep", "dec", "wit"):
        Path(d).mkdir(exist_ok=True)
    return cycle, statistics.median(raw), statistics.median(scaled)


# -- one op ------------------------------------------------------------------------


def _reset_caches() -> None:
    """Empty every functools cache held by a netcm module.

    A user's ``netcm`` invocation is a fresh process, so no op may profit
    from what an earlier op of the run left cached.
    """
    from spans import netcm_modules

    for mod in netcm_modules():
        for obj in vars(mod).values():
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                clear()


def _run_op(cli, op, oracle):
    """Run one CLI invocation; return (seconds, report bytes, error or None)."""
    _reset_caches()
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(op.argv)
    except Exception as exc:  # an exception escaping main is a failed op
        return time.perf_counter() - start, b"", f"raised {exc!r}"
    elapsed = time.perf_counter() - start
    try:
        data = Path(op.report).read_bytes()
        error = oracle(op, rc, json.loads(data))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        data, error = b"", f"exit {rc}, report unusable: {exc!r} {sink.getvalue()[-200:]!r}"
    return elapsed, data, error


class _Loop:
    """Runs cycles of ops and checks them.

    With ``probe``, each op's latency is also kept at the reference host
    speed (see _probe), in ``scaled``.
    """

    def __init__(self, cli, oracle, probe: bool = False):
        self.cli, self.oracle = cli, oracle
        self.latencies: list[float] = []
        self.scaled: list[float] = []
        self.last_probe = _probe() if probe else None
        self.failed = 0
        self.errors: list[str] = []
        self.reports: list[bytes] = []  # of the last cycle

    def run_cycle(self, cycle) -> tuple[float, str]:
        """One pass over ``cycle``; returns its op time and its report digest."""
        digest = hashlib.sha256()
        self.reports, total = [], 0.0
        for op in cycle:
            elapsed, data, error = _run_op(self.cli, op, self.oracle)
            total += elapsed
            self.latencies.append(elapsed)
            if self.last_probe is not None:
                before, self.last_probe = self.last_probe, _probe()
                self.scaled.append(_scale(elapsed, before, self.last_probe))
            if error is not None:
                self.failed += 1
                if len(self.errors) < 10:
                    self.errors.append(f"{op.kind} {' '.join(op.argv)[:160]}: {error}")
            digest.update(len(data).to_bytes(8, "little"))
            digest.update(data)
            self.reports.append(data)
        return total, digest.hexdigest()


# -- environment and records ---------------------------------------------------------


def _blas_threads():
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _environment(args, cycle, cycles: int) -> dict:
    import numpy
    from workloads import MAX_ITER

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "NETCM_THREADS": os.environ.get("NETCM_THREADS"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cycle_ops": len(cycle),
        "cycles": cycles,
        "op_counts": dict(sorted(Counter(op.kind for op in cycle * cycles).items())),
        "max_iter": MAX_ITER if args.workload == "solve-infeasible" else None,
    }


def _code_hash() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.glob("netcm/**/*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.relative_to(REPO).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _compare_record(args, record: dict) -> list[str]:
    """Compare with the previous runs of the same code, workload and seed; then store.

    The first cycle's report digest (traced or not) and the exact counts
    (traced runs only) must repeat; the other fields are measurements and
    may not.
    """
    records = OUT / "records"
    path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    problems = []
    for old_path in sorted(records.glob(f"{args.workload}-seed{args.seed}-trace*.json")):
        old = json.loads(old_path.read_text())
        if old.get("code") != record["code"]:
            continue
        for key in ("report_digest", "exact_counts"):
            if key in old and key in record and old[key] != record[key]:
                problems.append(f"{key} differs from {old_path.name}, a run of this code: "
                                f"{old[key]} vs {record[key]}")
    records.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    tmp.replace(path)
    return problems


# -- the two kinds of run --------------------------------------------------------------


def _latency_metrics(latencies: list[float], failed: int) -> dict:
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "verdicts_per_s": (len(latencies) - failed) / sum(latencies),
        "op_p50_s": deciles[4],
        "op_p90_s": deciles[8],
    }


def _measure(cli, workload, seed: int, cycle, oracle, seconds: float):
    """Whole cycles until ``seconds`` of (raw) op time; metrics raw and scaled."""
    loop = _Loop(cli, oracle, probe=True)
    op_time, digest = loop.run_cycle(cycle)
    cycles = 1
    while op_time < seconds or len(loop.latencies) < MIN_OPS:
        op_time += loop.run_cycle(_cycle(workload, seed, cycles))[0]
        cycles += 1
    scaled = _latency_metrics(loop.scaled, loop.failed)
    raw = _latency_metrics(loop.latencies, loop.failed)
    return loop, cycles, digest, scaled, raw


def _traced(cli, workload, seed: int, cycle, oracle):
    """The first cycle traced, then the second untraced for the overhead ratio."""
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        traced = _Loop(cli, tracer.untraced(oracle))
        traced_time, digest = traced.run_cycle(cycle)
    finally:
        tracer.uninstall()
    reports = [json.loads(data) for data in traced.reports if data]

    plain = _Loop(cli, oracle)
    plain_time = plain.run_cycle(_cycle(workload, seed, 1))[0]
    iterations = sum(int(r["iterations"]) for r in reports if "iterations" in r)
    solves = tracer.calls["feasibility.solve"]
    witnesses = getattr(oracle, "witnesses", 0)
    verified = getattr(oracle, "verified", 0)

    incl, layer, calls = tracer.incl_s, tracer.self_s, tracer.calls
    # seconds are span seconds of the one traced cycle
    metrics = {
        "states.self_s": layer["states"],
        "states.validations": calls["states.DensityOperator.__post_init__"],
        "states.validate_s": incl["states.DensityOperator.__post_init__"],
        "linalg.self_s": layer["linalg"],
        "linalg.partial_trace_calls": calls["linalg.partial_trace"],
        "linalg.partial_trace_s": incl["linalg.partial_trace"],
        "linalg.psd_project_calls": calls["linalg.psd_project"],
        "linalg.psd_project_s": incl["linalg.psd_project"],
        "linalg.trace_norm_calls": calls["linalg.trace_norm"],
        "linalg.trace_norm_s": incl["linalg.trace_norm"],
        "observables.self_s": layer["observables"],
        "observables.basis_builds": calls["observables.OrthogonalBasis.__post_init__"],
        "covariance.self_s": layer["covariance"],
        "covariance.cm_calls": calls["covariance.covariance_matrix"],
        "covariance.validate_s": incl["covariance.BlockCovarianceMatrix.__post_init__"],
        "topology.self_s": layer["topology"],
        "criteria.self_s": layer["criteria"],
        "criteria.margin_evals": calls["criteria.criterion_margin"],
        "criteria.triangle_s": (incl["criteria.xi_matrix"] + incl["criteria.btn_cm_residual"]
                                + incl["criteria.btn_decompose"]),
        "criteria.fidelity_s": incl["criteria.ghz_fidelity_bound"],
        "feasibility.self_s": layer["feasibility"],
        "feasibility.solves": solves,
        "feasibility.iterations": iterations,
        "feasibility.iterations_per_solve": iterations / solves if solves else 0.0,
        "feasibility.affine_project_s": incl["feasibility.affine_project"],
        "feasibility.witness_verified_ratio": verified / witnesses if witnesses else 0.0,
        "ncmx.read_s": incl["ncmx.read_matrix"],
        "ncmx.bytes_read": tracer.bytes["ncmx.bytes_read"],
        "ncmx.write_s": incl["ncmx.write_matrix"],
        "ncmx.bytes_written": tracer.bytes["ncmx.bytes_written"],
        "cli.self_s": layer["cli"],
        "cli.report_bytes": sum(len(data) for data in traced.reports),
        "trace.coverage": sum(layer.values()) / traced_time,
        "trace.overhead_ratio": plain_time / traced_time,  # traced over untraced ops per second
    }
    exact = {"feasibility.iterations": iterations,
             "criteria.margin_evals": metrics["criteria.margin_evals"]}
    seconds = {"traced_op_s": traced_time, "untraced_op_s": plain_time,
               "function_s": dict(incl), "function_calls": dict(calls)}
    return (traced, plain), metrics, exact, digest, seconds


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith((".coverage", "_ratio")):
        return "ratio"
    if "bytes" in name:
        return "bytes"
    return "count"


def run_workload(args) -> int:
    if not (SRC / "netcm" / "cli.py").is_file():
        print(f"perfbench: netcm sources not found under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    code = _code_hash()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    home = os.getcwd()
    os.chdir(work)  # every path in argv and reports is relative, so reports are byte-stable
    try:
        cycle, raw_setup_s, setup_s = _setup(workload, args.seed)
        from netcm import cli

        oracle = workload.oracle()
        record = {"code": code, "workload": args.workload, "seed": args.seed}
        if args.trace:
            loops, metrics, exact, digest, seconds = _traced(cli, workload, args.seed, cycle,
                                                             oracle)
            record.update(exact_counts=exact, report_digest=digest, traced_seconds=seconds)
            cycles = 2
        else:
            loop, cycles, digest, metrics, raw = _measure(cli, workload, args.seed, cycle,
                                                          oracle, args.seconds)
            metrics["setup_s"] = setup_s
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            raw["setup_s"] = raw_setup_s
            loops = (loop,)
            # how much slower than the reference speed the host ran, op by op
            slowdown = statistics.median(r / s for r, s in zip(loop.latencies, loop.scaled))
            record.update(report_digest=digest, raw_metrics=raw, host_slowdown=slowdown)
        env = _environment(args, cycle, cycles)
        record["environment"] = env
        attempted = sum(len(l.latencies) for l in loops)
        failed = sum(l.failed for l in loops)
        record.update(attempted=attempted, failed=failed, fail_ratio=failed / attempted,
                      metrics=metrics)
    finally:
        os.chdir(home)
        shutil.rmtree(work, ignore_errors=True)
    problems = _compare_record(args, record)
    for loop in loops:
        for error in loop.errors:
            print(f"perfbench: FAILED {error}", file=sys.stderr)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)

    print("# environment " + json.dumps(env, sort_keys=True))
    print(f"# {args.workload}: {attempted} ops ({len(cycle)} per cycle), failed {failed}, "
          f"fail_ratio {failed / attempted!r}, report sha256 {digest}")
    if not args.trace:
        print(f"# host ran {record['host_slowdown']!r} times slower than the reference speed "
              f"(median over ops); unscaled: " + ", ".join(
                  f"{name} {value!r} {_unit(name)}" for name, value in raw.items()))
    for name, value in metrics.items():
        print(f"{args.workload:18s} {name:36s} {value!r:>24} {_unit(name)}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process); one table."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True,
                              timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited {done.returncode}", file=sys.stderr)
            status = 1
            combined["correct"] = False
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


# One thread: the host-speed probe runs on one CPU, so it can only stand for
# ops that do too; spans (spans.py) also nest on one thread only.  numpy is
# not imported yet, so OpenBLAS reads these when it loads.
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "NETCM_THREADS": "1"}


def main(argv=None) -> int:
    args = _parse_args(argv)
    os.environ.update(SINGLE_THREAD)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
