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
from netcm.linalg import SubsystemLayout, partial_trace
from netcm.observables import (Observable, ObservableSet, embed, full_product_set,
                               reduced_observable)
from netcm.states import DensityOperator, random_source, triangle_layout


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


@pytest.fixture
def rng():
    return np.random.default_rng(20230817)


@pytest.fixture
def random_triangle_sources(rng):
    return [random_source(2, rng) for _ in range(3)]
