#!/usr/bin/env python3
"""Reproduce every analytic threshold at desk scale and print a summary table.

Covers: GHZ/W visibility thresholds from the trace-norm criterion, the
N-party GHZ threshold family for N = 3..16 on a line (a GHZ16 state is held
as its vector of 2^16 amplitudes), the four-qubit cluster-state
equality case, and the GHZ fidelity bound.  Exits 1 if a visibility
threshold misses its analytic value by more than 1e-5, or the fidelity
bound computed at tolerance 1e-4 lies outside [3 - sqrt(5), 3 - sqrt(5) + 1e-4].

    PYTHONPATH=src python scripts/reproduce_thresholds.py
"""

import sys
import time

import numpy as np

from netcm.covariance import covariance_matrix
from netcm.criteria import ghz_fidelity_bound, trace_norm_criterion, visibility_threshold
from netcm.observables import named_observable_set
from netcm.states import cluster4_state, ghz_state, w_state
from netcm.topology import line_topology, triangle_topology


THRESHOLD_TOL = 1e-5
BOUND_TOL = 1e-4


def row(label, got, expected, tol, misses, above=False):
    """Print one result; with ``above`` it must lie in [expected, expected + tol]."""
    ok = expected <= got <= expected + tol if above else abs(got - expected) <= tol
    print(f"  {label:<34} {got:>12.7f}   expected {expected:>12.7f}   "
          f"diff {abs(got - expected):.2e}{'' if ok else '   MISS'}")
    if not ok:
        misses.append(label)


def main() -> int:
    start = time.perf_counter()
    misses = []
    print("visibility thresholds (trace-norm criterion)")
    rho = ghz_state(3, 2)
    thr = visibility_threshold(rho, named_observable_set("pauli-z", rho.layout),
                               "trace-norm", triangle_topology(), tol=1e-6)
    row("ghz3, pauli-z, triangle", thr, 0.5, THRESHOLD_TOL, misses)
    rho = w_state()
    thr = visibility_threshold(rho, named_observable_set("w-set", rho.layout),
                               "trace-norm", triangle_topology(), tol=1e-6)
    row("w, sigma_x/sigma_y set", thr, 0.75, THRESHOLD_TOL, misses)
    for n in range(3, 17):
        rho = ghz_state(n, 2)
        thr = visibility_threshold(rho, named_observable_set("pauli-z", rho.layout), "trace-norm",
                                   line_topology(rho.layout.node_order), tol=1e-6)
        row(f"ghz{n}, pauli-z, line", thr, 1.0 / (n - 1), THRESHOLD_TOL, misses)

    print("\ncluster state (trace-norm equality case)")
    rho = cluster4_state()
    rep = trace_norm_criterion(
        covariance_matrix(named_observable_set("cluster-set", rho.layout), rho),
        line_topology(("A", "B", "C", "D")))
    print(f"  lhs {rep.lhs:.6f}  rhs {rep.rhs:.6f}  margin {rep.margin:+.2e}  "
          f"pass {rep.passed}")

    print("\nghz fidelity bound (trace-norm criterion, worst-case statistics)")
    bound = ghz_fidelity_bound(tol=BOUND_TOL)
    row("bound", bound, 3.0 - np.sqrt(5.0), BOUND_TOL, misses, above=True)

    print(f"\ntotal {time.perf_counter() - start:.1f} s")
    if misses:
        print(f"missed: {'; '.join(misses)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
