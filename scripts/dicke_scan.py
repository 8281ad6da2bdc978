#!/usr/bin/env python3
"""Scan the three-ququart GHZ and Dicke states against the xi positivity test.

Prints, for each state and white-noise weight, the minimal eigenvalue of the
xi matrix (full product basis minus the Kronecker remainder, 2x2 node split)
and whether the state is excluded from the basic triangle scenario.  Writes
a CSV when an output path is given.  Exits 1 when the closed-form residual
of the pure Dicke k = 1 state misses its known value 2/3 by more than 1e-9,
or when a visibility-scan row (``WhiteNoiseScan``, served from the moments
of the state and of 1/d) disagrees with the report on that weight's mixed
state: a different pass flag, or an lhs off lhs + tolerance by over 1e-12.
"""

import argparse
import sys

from netcm.criteria import WhiteNoiseScan, btn_cm_residual, xi_report
from netcm.states import dicke_state, ghz_state, mix_white_noise, split_nodes

DICKE_ONE_RESIDUAL = 2.0 / 3.0  # max-abs closed-form residual of the pure k = 1 state
RESIDUAL_TOL = 1e-9
SCAN_TOL = 1e-12  # scan-row lhs against xi_report lhs + tolerance


def scan(base, label, weights, rows, misses):
    scan_path = WhiteNoiseScan(split_nodes(base, (2, 2)), None, "xi-psd")
    for p in weights:
        rho = split_nodes(mix_white_noise(base, p), (2, 2))
        rep = xi_report(rho)
        rows.append((label, p, rep.lhs, not rep.passed))
        lhs, _, _, passed = scan_path.row(p)
        if passed != rep.passed or abs(lhs - (rep.lhs + rep.tolerance)) > SCAN_TOL:
            misses.append(f"{label} p={p}: scan row lhs {lhs!r} pass {passed}, xi_report "
                          f"lhs + tolerance {rep.lhs + rep.tolerance!r} pass {rep.passed}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--step", type=float, default=0.05)
    parser.add_argument("--output", help="CSV output path (default: stdout table)")
    args = parser.parse_args(argv)

    count = int(round(1.0 / args.step))
    weights = [round(args.step * i, 10) for i in range(count + 1)]
    rows, misses = [], []
    scan(ghz_state(3, 4, (0, 3)), "ghz4(0,3)", weights, rows, misses)
    scan(ghz_state(3, 4, "full"), "ghz4(full)", weights, rows, misses)
    for k in range(1, 10):
        scan(dicke_state(k), f"dicke k={k}", weights, rows, misses)

    if args.output:
        with open(args.output, "w") as fh:
            fh.write("state,weight,xi_min_eigenvalue,excluded\n")
            for label, p, low, excluded in rows:
                fh.write(f"{label},{p!r},{low!r},{str(excluded).lower()}\n")
        print(f"wrote {len(rows)} rows to {args.output}")
    else:
        current = None
        for label, p, low, excluded in rows:
            if label != current:
                print(f"\n{label}")
                current = label
            flag = "excluded" if excluded else "not excluded"
            print(f"  p={p:<5} min eig {low:+.3e}  {flag}")

    # the pure k=1 state is the interesting boundary: xi alone does not
    # exclude it, the marginal closed-form residual does
    _, residual = btn_cm_residual(split_nodes(dicke_state(1), (2, 2)))
    print(f"\npure dicke k=1: closed-form residual max-abs = {residual:.6f} "
          f"(nonzero certifies non-triangle)")
    if abs(residual - DICKE_ONE_RESIDUAL) > RESIDUAL_TOL:
        misses.append(f"residual {residual!r} is not {DICKE_ONE_RESIDUAL!r} within {RESIDUAL_TOL}")
    for miss in misses:
        print(f"MISS: {miss}", file=sys.stderr)
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
