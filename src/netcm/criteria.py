"""Analytic network-compatibility criteria.

Three families of necessary conditions for a state to arise in a (triangle
or NCDS) network with bipartite/local sources and local channels:

* the source decomposition of the covariance matrix for triangle states
  built from explicit reduced observables (``btn_decompose``), and its
  marginal-only closed form whose defect certifies non-triangle states
  (``btn_cm_residual``);
* the positivity criterion: full-basis CM minus the Kronecker product of
  single-factor marginal CMs must be PSD (``xi_matrix``);
* the trace-norm criterion tr(Gamma) >= sum w_xy ||gamma_xy||_tr over node
  pairs (w_xy = 2 for bipartite sources), valid for every NCDS network
  (``trace_norm_criterion``), with visibility scans and the GHZ fidelity
  bound built on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .covariance import BlockCovarianceMatrix, _cross_block, covariance_matrix, moments
from .linalg import SubsystemLayout, eigvals_hermitian, partial_trace, trace_norm
from .observables import Observable, ObservableSet, full_product_set, reduced_observable
from .states import DensityOperator, triangle_layout
from .topology import NetworkTopology, triangle_topology

__all__ = [
    "CriterionReport", "BtnDecomposition", "psd_margin",
    "btn_decompose", "btn_cm_residual", "xi_matrix", "xi_report",
    "trace_norm_criterion", "visibility_threshold", "ghz_fidelity_bound",
]

PSD_BASE_TOL = 1e-8


def psd_margin(matrix) -> tuple[float, float]:
    """Minimal eigenvalue and the scale-aware PSD tolerance 1e-8 * (1 + ||m||_2)."""
    vals = eigvals_hermitian(matrix)
    scale = float(max(abs(vals[0]), abs(vals[-1]))) if vals.size else 0.0
    return float(vals[0]) if vals.size else 0.0, PSD_BASE_TOL * (1.0 + scale)


@dataclass(frozen=True)
class CriterionReport:
    """Verdict record for one criterion evaluation.

    ``margin = lhs - rhs`` and the verdict passes iff ``margin >= -tolerance``.
    """

    criterion: str
    lhs: float
    rhs: float
    margin: float
    passed: bool
    tolerance: float
    details: dict = field(default_factory=dict)

    @classmethod
    def from_values(cls, criterion: str, lhs: float, rhs: float, tolerance: float,
                    details: dict | None = None) -> "CriterionReport":
        margin = lhs - rhs
        return cls(criterion, float(lhs), float(rhs), float(margin),
                   bool(margin >= -tolerance), float(tolerance), details or {})

    def to_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "pass": self.passed,
            "tolerance": self.tolerance,
            "details": self.details,
        }


def trace_norm_criterion(gamma: BlockCovarianceMatrix, topology: NetworkTopology,
                         tolerance: float = 1e-9) -> CriterionReport:
    """tr(Gamma) >= sum_{x<y} w_xy ||gamma_xy||_tr, necessary for any NCDS network state.

    A pair of nodes fed by a common source k, which feeds m_k nodes, has
    weight w_xy = 2 / (m_k - 1): every PSD block matrix T over m nodes obeys
    sum_{x<y} 2 ||T_xy||_tr <= (m - 1) tr T, and in an NCDS network the pair
    block is the block of that one source's summand.  A pair fed by no
    common source has weight 2; its block vanishes on every network state,
    so any weight is sound there.  With bipartite sources every weight is 2.
    """
    if not topology.is_ncds():
        raise ValueError("the trace-norm criterion applies to NCDS topologies only")
    if set(gamma.node_labels) != set(topology.nodes):
        raise ValueError(
            f"CM nodes {gamma.node_labels} do not match topology nodes {topology.nodes}"
        )
    weights = {}
    for s in topology.sources:
        for i, x in enumerate(s):
            for y in s[i + 1:]:
                weights[frozenset((x, y))] = 2.0 / (len(s) - 1)
    lhs = gamma.trace()
    pair_norms, pair_weights = {}, {}
    rhs = 0.0
    for i, x in enumerate(gamma.node_labels):
        for y in gamma.node_labels[i + 1:]:
            norm = trace_norm(gamma.block(x, y))
            weight = weights.get(frozenset((x, y)), 2.0)
            pair_norms[f"{x}{y}"] = norm
            pair_weights[f"{x}{y}"] = weight
            rhs += weight * norm
    details = {"pair_trace_norms": pair_norms}
    if any(w != 2.0 for w in pair_weights.values()):
        details["pair_weights"] = pair_weights
    return CriterionReport.from_values("trace-norm", lhs, rhs, tolerance, details)


# -- triangle source decomposition ------------------------------------------

# cyclic wiring of the triangle: each source spans (first node's second
# factor, second node's first factor), matching the standard assembly
_TRIANGLE_WIRING = ((0, 1), (1, 2), (2, 0))  # node-index pairs (X, Y) with span (X2, Y1)


def _factor_stacks(obs: ObservableSet, layout: SubsystemLayout):
    if obs.factor_bases is None:
        raise ValueError("a full product observable set (with per-factor bases) is required")
    missing = set(layout.labels) - set(obs.factor_bases)
    if missing:
        raise ValueError(f"observable set lacks bases for factors {sorted(missing)}")
    for l in layout.labels:
        b = obs.factor_bases[l]
        if b.dim != layout.dims[layout.index(l)]:
            raise ValueError(f"basis for factor {l!r} has dimension {b.dim}, "
                             f"layout says {layout.dims[layout.index(l)]}")
    return {l: np.stack(list(obs.factor_bases[l])) for l in layout.labels}


def _triangle_pass(rho: DensityOperator, obs: ObservableSet | None):
    """The data the triangle criteria share, each piece computed once.

    Checks that the layout has three nodes of two factors each.  Returns the
    node order, each node's two factors, the CM of the full product set
    ``obs`` (built from the layout when None), its per-factor stacks, and the
    means and complex CM of every single-factor marginal.
    """
    nodes = rho.layout.node_order
    if len(nodes) != 3:
        raise ValueError(f"triangle criteria need exactly three nodes, layout has {len(nodes)}")
    factors = {x: rho.layout.factors_of(x) for x in nodes}
    for x, f in factors.items():
        if len(f) != 2:
            raise ValueError(f"node {x!r} must consist of two factors, has {f}")
    if obs is None:
        obs = full_product_set(rho.layout)
    stacks = _factor_stacks(obs, rho.layout)
    gamma = covariance_matrix(obs, rho)
    if gamma.node_labels != nodes:
        raise ValueError("observable node order must match the layout")
    means, cms = {}, {}
    for l in rho.layout.labels:
        means[l], cms[l] = moments(stacks[l], partial_trace(rho.matrix, rho.layout, [l]))
    return nodes, factors, gamma, stacks, means, cms


def _kron_remainder(factors: Mapping[str, tuple[str, str]],
                    cms: Mapping[str, np.ndarray]) -> np.ndarray:
    """Block-diagonal remainder R; node block x is Re kron(Gamma_x1, Gamma_x2).

    The real part is taken after the product: the complex factor CMs carry
    the non-commuting same-node moments the symmetrized CM drops.
    """
    blocks = [np.kron(cms[f1], cms[f2]).real for f1, f2 in factors.values()]
    offsets = np.cumsum([0] + [len(b) for b in blocks])
    r = np.zeros((offsets[-1], offsets[-1]))
    for b, lo, hi in zip(blocks, offsets, offsets[1:]):
        r[lo:hi, lo:hi] = b
    return r


@dataclass(frozen=True)
class BtnDecomposition:
    """The four summands of a triangle-state covariance matrix.

    ``t_c``, ``t_b``, ``t_a`` carry the source CMs of reduced observables on
    the node pairs (A,B), (A,C), (B,C); ``r`` is block diagonal.  All four
    are padded to the full CM dimension and sum to the covariance matrix of
    the assembled state with the same observables.
    """

    t_c: np.ndarray
    t_b: np.ndarray
    t_a: np.ndarray
    r: np.ndarray
    block_sizes: tuple[int, ...]
    node_labels: tuple[str, ...]

    def parts(self) -> tuple[np.ndarray, ...]:
        return (self.t_c, self.t_b, self.t_a, self.r)

    def total(self) -> np.ndarray:
        return self.t_c + self.t_b + self.t_a + self.r


def btn_decompose(sources: Sequence[DensityOperator],
                  obs: ObservableSet | None = None) -> BtnDecomposition:
    """Source decomposition of the CM of a triangle state, via reduced observables.

    ``sources`` are the three bipartite source states (a, b, c) placed on
    (B2, C1), (C2, A1) and (A2, B1); ``obs`` is a full product observable
    set of the assembled layout (by default the layout's own, built without
    assembling the state).  Each cross-node summand is the genuine CM
    of state-dependent reduced observables evaluated on its source state;
    the remainder is the Kronecker product of single-factor marginal CMs.
    """
    rho_a, rho_b, rho_c = sources
    for name, src in zip("abc", (rho_a, rho_b, rho_c)):
        if len(src.layout.dims) != 2 or src.layout.dims[0] != src.layout.dims[1]:
            raise ValueError(f"source {name} must be bipartite d x d, has dims {src.layout.dims}")
    da, db, dc = (s.layout.dims[0] for s in (rho_a, rho_b, rho_c))
    layout = triangle_layout({"a": da, "b": db, "c": dc})
    nodes = layout.node_order  # (A, B, C)
    if obs is None:
        obs = full_product_set(layout)
    stacks = _factor_stacks(obs, layout)
    if obs.node_order != nodes:
        raise ValueError(f"observable nodes {obs.node_order} must be {nodes}")

    # single-factor marginals; source states are (first factor, second factor)
    marg = {
        label: partial_trace(src.matrix, src.layout, [src.layout.labels[i]])
        for src, labels in ((rho_a, ("B2", "C1")), (rho_b, ("C2", "A1")), (rho_c, ("A2", "B1")))
        for i, label in enumerate(labels)
    }

    node_mats = {x: [o.matrix for o in obs.node_observables(x)] for x in nodes}
    node_dims = {x: tuple(layout.dims[layout.index(l)] for l in layout.factors_of(x)) for x in nodes}

    def reduced_set(x: str, keep: int) -> list[np.ndarray]:
        traced = layout.factors_of(x)[0 if keep == 2 else 1]
        return [reduced_observable(m, node_dims[x], marg[traced], keep=keep) for m in node_mats[x]]

    def source_cm(pair_state: DensityOperator, x: str, x_obs, y: str, y_obs) -> BlockCovarianceMatrix:
        mini = ObservableSet(
            tuple(Observable(m, x) for m in x_obs) + tuple(Observable(m, y) for m in y_obs)
        )
        return covariance_matrix(mini, pair_state)

    def relabel(src: DensityOperator, labels: tuple[str, str], nodes_: tuple[str, str]) -> DensityOperator:
        d = src.layout.dims
        return src.with_layout(SubsystemLayout(d, labels, nodes_))

    a_node, b_node, c_node = nodes
    cm_c = source_cm(relabel(rho_c, ("A2", "B1"), (a_node, b_node)),
                     a_node, reduced_set(a_node, keep=2), b_node, reduced_set(b_node, keep=1))
    rho_b_ac = relabel(rho_b, ("C2", "A1"), (c_node, a_node)).permuted(("A1", "C2"))
    cm_b = source_cm(rho_b_ac,
                     a_node, reduced_set(a_node, keep=1), c_node, reduced_set(c_node, keep=2))
    cm_a = source_cm(relabel(rho_a, ("B2", "C1"), (b_node, c_node)),
                     b_node, reduced_set(b_node, keep=2), c_node, reduced_set(c_node, keep=1))

    sizes = tuple(len(node_mats[x]) for x in nodes)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    span = {x: slice(offsets[i], offsets[i + 1]) for i, x in enumerate(nodes)}
    n = offsets[-1]

    def pad(cm: BlockCovarianceMatrix, x: str, y: str) -> np.ndarray:
        out = np.zeros((n, n))
        out[span[x], span[x]] = cm.block(x, x)
        out[span[y], span[y]] = cm.block(y, y)
        out[span[x], span[y]] = cm.block(x, y)
        out[span[y], span[x]] = cm.block(y, x)
        return out

    return BtnDecomposition(
        t_c=pad(cm_c, a_node, b_node),
        t_b=pad(cm_b, a_node, c_node),
        t_a=pad(cm_a, b_node, c_node),
        r=_kron_remainder({x: layout.factors_of(x) for x in nodes},
                          {l: moments(stacks[l], marg[l])[1] for l in layout.labels}),
        block_sizes=sizes,
        node_labels=nodes,
    )


def btn_cm_residual(rho: DensityOperator, obs: ObservableSet | None = None) -> tuple[np.ndarray, float]:
    """Defect of the marginal-only closed form of a triangle-state CM.

    Rebuilds the CM a triangle state with rho's own marginals would have
    (rank-one structures on the source pair blocks plus the block-diagonal
    Kronecker remainder) and subtracts it from the actual CM.  The residual
    vanishes for every triangle state; a nonzero residual certifies that the
    state cannot be assembled from three bipartite sources with this wiring.

    Returns the residual matrix and its max-abs entry.
    """
    nodes, factors, gamma, stacks, bloch, cms = _triangle_pass(rho, obs)
    sizes = gamma.block_sizes
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    span = {x: slice(offsets[i], offsets[i + 1]) for i, x in enumerate(nodes)}
    n = offsets[-1]
    rhs = np.zeros((n, n))

    for xi, yi in _TRIANGLE_WIRING:
        x, y = nodes[xi], nodes[yi]
        fx, fy = factors[x][1], factors[y][0]  # source spans (X2, Y1)
        pair = partial_trace(rho.matrix, rho.layout, [fx, fy])
        # the marginal keeps layout order; transpose if the pair came out (Y1, X2)
        if rho.layout.index(fx) < rho.layout.index(fy):
            cross = _cross_block(stacks[fx], stacks[fy], pair, bloch[fx], bloch[fy])
        else:
            cross = _cross_block(stacks[fy], stacks[fx], pair, bloch[fy], bloch[fx]).T
        ax1 = bloch[factors[x][0]]
        by2 = bloch[factors[y][1]]
        # the real parts of the complex factor CMs are the symmetrized ones
        rhs[span[x], span[x]] += np.kron(np.outer(ax1, ax1), cms[fx].real)
        rhs[span[y], span[y]] += np.kron(cms[fy].real, np.outer(by2, by2))
        blk = np.einsum("a,bg,d->abgd", ax1, cross, by2).reshape(sizes[xi], sizes[yi])
        rhs[span[x], span[y]] = blk
        rhs[span[y], span[x]] = blk.T

    rhs += _kron_remainder(factors, cms)
    residual = gamma.matrix - rhs
    return residual, float(np.abs(residual).max())


def xi_matrix(rho: DensityOperator, obs: ObservableSet | None = None) -> np.ndarray:
    """Full-basis CM minus the block-diagonal Kronecker of single-factor CMs.

    Every node of the layout must be split into exactly two factors, and
    ``obs`` must be a full product set (by default the layout's own).  The
    result is PSD for every state assembled from three bipartite sources;
    a negative eigenvalue certifies incompatibility.
    """
    _, factors, gamma, _, _, cms = _triangle_pass(rho, obs)
    return gamma.matrix - _kron_remainder(factors, cms)


def xi_report(rho: DensityOperator, obs: ObservableSet | None = None) -> CriterionReport:
    """PSD verdict on the xi matrix; lhs is its minimal eigenvalue."""
    xi = xi_matrix(rho, obs)
    low, tol = psd_margin(xi)
    return CriterionReport.from_values("xi-psd", low, 0.0, tol, {"min_eigenvalue": low})


def btn_residual_report(rho: DensityOperator, obs: ObservableSet | None = None,
                        threshold: float = 1e-9) -> CriterionReport:
    """Pass iff the triangle closed-form residual stays below ``threshold``.

    lhs is the allowed residual, rhs the observed max-abs residual.
    """
    _, residual = btn_cm_residual(rho, obs)
    return CriterionReport.from_values(
        "btn-residual", threshold, residual, 0.0, {"max_abs_residual": residual}
    )


# -- visibility scans ---------------------------------------------------------


def criterion_margin(rho: DensityOperator, obs: ObservableSet | None, criterion: str,
                     topology: NetworkTopology | None) -> float:
    """Scalar margin of a named criterion; negative means excluded."""
    if criterion == "trace-norm":
        if obs is None:
            raise ValueError("the trace-norm criterion needs an observable set")
        topo = topology or triangle_topology(rho.layout.node_order)
        return trace_norm_criterion(covariance_matrix(obs, rho), topo).margin
    if criterion == "xi-psd":
        rep = xi_report(rho, obs)
        return rep.margin + rep.tolerance
    if criterion == "btn-residual":
        rep = btn_residual_report(rho, obs)
        return rep.margin
    raise ValueError(f"unknown criterion {criterion!r}")


def visibility_threshold(state_family: Callable[[float], DensityOperator],
                         observables: ObservableSet | Callable[[DensityOperator], ObservableSet] | None,
                         criterion: str = "trace-norm",
                         topology: NetworkTopology | None = None,
                         tol: float = 1e-6,
                         lo: float = 0.0,
                         hi: float = 1.0) -> float:
    """Bisection estimate of the visibility where the criterion verdict flips.

    ``state_family`` maps a visibility to a state (typically a white-noise
    mixture); the verdict must be monotone on [lo, hi].
    """
    def margin(v: float) -> float:
        rho = state_family(v)
        obs = observables(rho) if callable(observables) else observables
        return criterion_margin(rho, obs, criterion, topology)

    m_lo, m_hi = margin(lo), margin(hi)
    if not (m_lo >= 0.0 > m_hi):
        raise ValueError(
            f"no pass/fail sign change on [{lo}, {hi}]: margins {m_lo:.3e}, {m_hi:.3e}"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if margin(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# -- GHZ fidelity bound -------------------------------------------------------


def ghz_statistics_margin(fidelity: float, means_rest: np.ndarray, correlators_rest: np.ndarray) -> float:
    """Trace-norm margin for given sigma_z statistics of the GHZ-orthogonal rest.

    A state F |GHZ><GHZ| + (1-F) rho_rest has one-body means (1-F) z_x and
    two-body correlators F + (1-F) w_xy in terms of the rest's statistics
    (z, w); the margin depends on those statistics only.
    """
    u = 1.0 - fidelity
    z = np.asarray(means_rest, dtype=float)
    w = np.asarray(correlators_rest, dtype=float)
    means = u * z
    lhs = 3.0 - float(means @ means)
    prods = np.array([means[0] * means[1], means[0] * means[2], means[1] * means[2]])
    rhs = 2.0 * float(np.abs(fidelity + u * w - prods).sum())
    return lhs - rhs


def _max_margin_statistics(fidelity: float, grid_step: float = 0.02) -> float:
    """Max margin over all box-consistent rest statistics (z, w in [-1, 1]).

    For fixed one-body statistics the optimal correlators are explicit, so
    only the three means are searched: dense grid plus coordinate polish.
    """
    u = 1.0 - fidelity
    axis = np.linspace(-1.0, 1.0, int(round(2.0 / grid_step)) + 1)
    z1, z2, z3 = np.meshgrid(axis, axis, axis, indexing="ij")

    def margin_given_means(a, b, c):
        lhs = 3.0 - (u * u) * (a * a + b * b + c * c)
        rhs = 0.0
        for p in (a * b, a * c, b * c):
            # best w in [-1,1] minimizes |F - u^2 p + u w|
            rhs = rhs + 2.0 * np.maximum(0.0, np.abs(fidelity - u * u * p) - u)
        return lhs - rhs

    vals = margin_given_means(z1, z2, z3)
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
                val = float(margin_given_means(*trial))
                if val > best:
                    best, point, improved = val, trial, True
        if not improved:
            step *= 0.5
            if step < 1e-12:
                break
    return best


def ghz_fidelity_bound(tol: float = 1e-4, grid_step: float = 0.02) -> float:
    """Largest GHZ fidelity the trace-norm criterion cannot exclude.

    Bisection over the fidelity; at each step the criterion margin is
    maximized over all sigma_z statistics the GHZ-orthogonal rest could
    contribute (one-body means and pair correlators in [-1, 1], optimized
    independently, exactly as the worst case of the analytic argument).
    Any state whose GHZ fidelity exceeds the returned value is excluded
    from triangle networks with local channels, and by convexity from LOSR
    triangle networks as well.
    """
    lo, hi = 0.0, 1.0
    if _max_margin_statistics(lo, grid_step) < 0 or _max_margin_statistics(hi, grid_step) >= 0:
        raise RuntimeError("fidelity bisection bracket failed")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _max_margin_statistics(mid, grid_step) >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
