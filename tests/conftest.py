"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's fast paths: partial
traces are explicit index loops and covariance matrices come from global
identity-padded embeddings, so theorem checks compare two genuinely
different computations.
"""

from itertools import product as iproduct

import numpy as np
import pytest

from netcm.covariance import covariance_matrix
from netcm.criteria import _margin_given_means
from netcm.feasibility import (DEFAULT_MAX_ITER, DEFAULT_TOL,
                               FeasibilityOutcome, FeasibilityProblem,
                               InfeasibilityCertificate, _hyperplane_test, _Stack,
                               _uncovered_pair, _with_slack, verify_certificate)
from netcm.linalg import SubsystemLayout, partial_trace, psd_project
from netcm.observables import (Observable, ObservableSet, embed, full_product_set,
                               reduced_observable)
from netcm.states import DensityOperator, random_source, triangle_layout

# plain_dykstra's own plateau rule: a residual plateau below RESIDUAL_FLOOR *
# max(1, max|Gamma_ij|) is rounding, not evidence of infeasibility
RESIDUAL_FLOOR = 1e-12


def naive_partial_trace(rho, dims, keep):
    """Loop-based partial trace; ``keep`` holds factor indices, order preserved."""
    n = len(dims)
    keep = sorted(keep)
    traced = [i for i in range(n) if i not in keep]
    dk = int(np.prod([dims[i] for i in keep])) if keep else 1
    out = np.zeros((dk, dk), dtype=complex)

    def flat(idx):
        f = 0
        for i, d in zip(idx, dims):
            f = f * d + i
        return f

    def flat_keep(idx):
        f = 0
        for i in keep:
            f = f * dims[i] + idx[i]
        return f

    for row in iproduct(*[range(d) for d in dims]):
        for col in iproduct(*[range(d) for d in dims]):
            if all(row[i] == col[i] for i in traced):
                out[flat_keep(row), flat_keep(col)] += rho[flat(row), flat(col)]
    return out


def sequential_partial_trace(rho, dims, keep):
    """Partial trace by one ``np.trace`` per traced factor, last factor first.

    ``keep`` holds factor indices; reads the whole matrix for every traced
    factor, so it is the bitwise reference for the diagonal-view kernel.
    """
    n = len(dims)
    tensor = np.asarray(rho, dtype=complex).reshape(tuple(dims) * 2)
    remaining = n
    for i in sorted(set(range(n)) - set(keep), reverse=True):
        tensor = np.trace(tensor, axis1=i, axis2=i + remaining)
        remaining -= 1
    d = int(np.prod([dims[i] for i in keep])) if keep else 1
    return tensor.reshape(d, d)


# Heuristic maximum of the GHZ-fidelity margin over one-body means, a 101^3
# grid plus coordinate polish: the reference for criteria._max_margin.


def _mean_grid(grid_step: float):
    """The fidelity-independent terms of the mean grid: axis, sum of squares, pair products."""
    axis = np.linspace(-1.0, 1.0, int(round(2.0 / grid_step)) + 1)
    a, b, c = np.meshgrid(axis, axis, axis, indexing="ij")
    return axis, a * a + b * b + c * c, (a * b, a * c, b * c)


def _max_margin_statistics(fidelity: float, grid_step: float, grid) -> float:
    """Max margin over all box-consistent rest statistics (z, w in [-1, 1]).

    For fixed one-body statistics the optimal correlators are explicit, so
    only the three means are searched: the dense ``grid`` of
    :func:`_mean_grid` plus coordinate polish.
    """
    axis, squares, pairs = grid
    vals = _margin_given_means(fidelity, squares, pairs)
    best_flat = int(np.argmax(vals))
    best = float(vals.flat[best_flat])
    idx = np.unravel_index(best_flat, vals.shape)
    point = np.array([axis[idx[0]], axis[idx[1]], axis[idx[2]]])
    # coordinate-descent polish around the best grid point
    step = grid_step
    for _ in range(60):
        improved = False
        for k in range(3):
            for delta in (-step, step):
                trial = point.copy()
                trial[k] = float(np.clip(trial[k] + delta, -1.0, 1.0))
                a, b, c = trial
                val = float(_margin_given_means(fidelity, a * a + b * b + c * c,
                                                (a * b, a * c, b * c)))
                if val > best:
                    best, point, improved = val, trial, True
        if not improved:
            step *= 0.5
            if step < 1e-12:
                break
    return best


def reduced_observable_decomposition(sources) -> tuple[np.ndarray, ...]:
    """(t_c, t_b, t_a) of a triangle CM from explicit reduced observables.

    The reference for ``criteria.btn_decompose``: each node observable of
    the full product set is reduced against the marginal of its factor off
    the source, each source is relabelled onto its node pair, and each
    summand is ``covariance_matrix`` of the reduced observables on that
    source state, padded to the full CM.
    """
    rho_a, rho_b, rho_c = sources
    layout = triangle_layout({"a": rho_a.layout.dims[0], "b": rho_b.layout.dims[0],
                              "c": rho_c.layout.dims[0]})
    obs = full_product_set(layout)
    a_node, b_node, c_node = nodes = layout.node_order
    marg = {
        label: partial_trace(src.matrix, src.layout, [src.layout.labels[i]])
        for src, labels in ((rho_a, ("B2", "C1")), (rho_b, ("C2", "A1")), (rho_c, ("A2", "B1")))
        for i, label in enumerate(labels)
    }

    def reduced_set(x, keep):
        traced = layout.factors_of(x)[0 if keep == 2 else 1]
        dims = tuple(layout.dims[layout.index(l)] for l in layout.factors_of(x))
        return [reduced_observable(o.matrix, dims, marg[traced], keep=keep)
                for o in obs.node_observables(x)]

    def source_cm(pair_state, x, x_obs, y, y_obs):
        mini = ObservableSet(tuple(Observable(m, x) for m in x_obs)
                             + tuple(Observable(m, y) for m in y_obs))
        return covariance_matrix(mini, pair_state)

    def relabel(src, labels, pair):
        return src.with_layout(SubsystemLayout(src.layout.dims, labels, pair))

    cm_c = source_cm(relabel(rho_c, ("A2", "B1"), (a_node, b_node)),
                     a_node, reduced_set(a_node, 2), b_node, reduced_set(b_node, 1))
    rho_b_ac = relabel(rho_b, ("C2", "A1"), (c_node, a_node)).permuted(("A1", "C2"))
    cm_b = source_cm(rho_b_ac, a_node, reduced_set(a_node, 1), c_node, reduced_set(c_node, 2))
    cm_a = source_cm(relabel(rho_a, ("B2", "C1"), (b_node, c_node)),
                     b_node, reduced_set(b_node, 2), c_node, reduced_set(c_node, 1))

    offsets = np.concatenate([[0], np.cumsum(obs.block_sizes)])
    span = {x: slice(offsets[i], offsets[i + 1]) for i, x in enumerate(nodes)}

    def pad(cm, x, y):
        out = np.zeros((offsets[-1], offsets[-1]))
        for u in (x, y):
            for v in (x, y):
                out[span[u], span[v]] = cm.block(u, v)
        return out

    return pad(cm_c, a_node, b_node), pad(cm_b, a_node, c_node), pad(cm_a, b_node, c_node)


def brute_force_cm(obs_set, rho: DensityOperator) -> np.ndarray:
    """Covariance matrix from global embeddings and explicit operator products."""
    mats = [embed(o, rho.layout) for o in obs_set]
    r = rho.matrix
    means = np.array([np.trace(m @ r).real for m in mats])
    n = len(mats)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            sym = 0.5 * (mats[i] @ mats[j] + mats[j] @ mats[i])
            out[i, j] = np.trace(sym @ r).real - means[i] * means[j]
    return out


def expectation(op, rho: DensityOperator) -> float:
    val = complex(np.trace(np.asarray(op) @ rho.matrix))
    assert abs(val.imag) < 1e-10
    return val.real


# Plain Dykstra, the solver before Anderson acceleration: the reference for
# feasibility.solve's statuses, witnesses and certificate iterations.


def plain_dykstra(problem: FeasibilityProblem, tol: float = DEFAULT_TOL,
                  max_iter: int = DEFAULT_MAX_ITER,
                  allow_diagonal_slack: bool = False) -> FeasibilityOutcome:
    """Dykstra alternating projections between the PSD cones and the affine set.

    Stops as soon as the PSD iterate satisfies the affine constraints within
    ``tol`` (status "feasible", the iterate is the witness), or as soon as a
    separating-hyperplane certificate verifies (status "infeasible", see the
    module docstring).  A CM block between two nodes that no source links
    is "infeasible" at once, with that pair as the certificate.  At
    ``max_iter`` without a certificate the verdict is "infeasible-evidence"
    if the residual plateaued at or above both ``10 * tol`` and the rounding
    floor ``RESIDUAL_FLOOR * max(1, max|Gamma_ij|)`` (1e-12 relative) over
    the last tenth of the run, else "inconclusive".

    ``allow_diagonal_slack`` relaxes the diagonal equality to <= by adding a
    free block-diagonal PSD summand, padded to the full CM size.  ``tol``
    must be > 0: a floating-point residual need not ever reach zero.
    """
    if not tol > 0.0:
        raise ValueError(f"feasibility tolerance must be > 0, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if allow_diagonal_slack:
        problem = _with_slack(problem)
    pair, blocked = _uncovered_pair(problem)
    if blocked > tol:
        # a CM block between nodes no source connects cannot be matched by
        # any choice of summands; no amount of iteration changes that
        cert = InfeasibilityCertificate(pair=pair, block_max_abs=blocked)
        return FeasibilityOutcome("infeasible", None, blocked, 0, np.array([blocked]), cert)
    stack = _Stack(problem)
    a0 = stack.start()
    trace = problem.gamma.trace()
    # Dykstra needs no correction term for the affine set: its correction
    # lies in lin(A)^perp, which the projection onto A ignores
    x = psd_project(a0)
    p = np.zeros_like(x)
    history = np.empty(max_iter)
    status, certificate, next_check = "inconclusive", None, 1
    for it in range(1, max_iter + 1):
        y = psd_project(x + p)
        p += x - y
        x = stack.affine(y)
        history[it - 1] = max(stack.violation(y), blocked)
        if history[it - 1] <= tol:
            status = "feasible"
            break
        if it == next_check or it == max_iter:
            next_check *= 2
            sep = stack.separator(y - x)
            ok, eps, inner, delta = _hyperplane_test(sep, a0, trace)
            if ok:
                cert = InfeasibilityCertificate(stack.to_full(sep), epsilon=eps, inner_product=inner,
                                                delta=delta, iteration=it)
                if verify_certificate(problem, cert):
                    status, certificate = "infeasible", cert
                    break
    history = history[:it]
    plateau = history[-max(1, max_iter // 10):].min()
    floor = RESIDUAL_FLOOR * max(1.0, float(np.abs(problem.gamma.matrix).max(initial=0.0)))
    if status == "inconclusive" and plateau >= max(10.0 * tol, floor):
        status = "infeasible-evidence"
    witness = stack.to_full(y) if status == "feasible" else None
    return FeasibilityOutcome(status, witness, float(history[-1]), it, history, certificate)


@pytest.fixture
def rng():
    return np.random.default_rng(20230817)


@pytest.fixture
def random_triangle_sources(rng):
    return [random_source(2, rng) for _ in range(3)]
