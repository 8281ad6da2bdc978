"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's fast paths: partial
traces are explicit index loops and covariance matrices come from global
identity-padded embeddings, so theorem checks compare two genuinely
different computations.

The generators of network states (local unitaries, Kraus channels, convex
mixtures) and the closed forms the decomposition is checked against
(product-state CMs, congruences, reduced observables) live here too: no
command uses them, so they are not part of the package.
"""

from dataclasses import dataclass
from itertools import product as iproduct
from typing import Iterable, Mapping, Sequence

import numpy as np
import pytest

from netcm.covariance import BlockCovarianceMatrix, _raw_moments, covariance_matrix
from netcm.criteria import _margin_given_means
from netcm.feasibility import (DEFAULT_MAX_ITER, DEFAULT_TOL,
                               FeasibilityOutcome, FeasibilityProblem,
                               InfeasibilityCertificate, _certificate_terms, _Stack,
                               _uncovered_pair)
from netcm.linalg import SubsystemLayout, partial_trace, permute_subsystems, psd_project
from netcm.observables import ObservableSet, full_product_set
from netcm.states import DensityOperator, random_source


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


def triangle_layout(dims: Mapping[str, int]) -> SubsystemLayout:
    """The triangle layout A1 A2 B1 B2 C1 C2, written out: source a feeds B2 C1,
    b feeds C2 A1 and c feeds A2 B1; ``dims`` maps each source name to its d."""
    da, db, dc = dims["a"], dims["b"], dims["c"]
    return SubsystemLayout((db, dc, dc, da, da, db), ("A1", "A2", "B1", "B2", "C1", "C2"),
                           ("A", "A", "B", "B", "C", "C"))


def reference_btn_assemble(rho_a, rho_b, rho_c) -> DensityOperator:
    """Triangle state from its own Kronecker product b x (c x a) and permutation.

    The reference for ``states.btn_assemble``, which is ``network_state``
    on the triangle topology and so tensors the sources as (a x b) x c.
    """
    da, db, dc = (s.layout.dims[0] for s in (rho_a, rho_b, rho_c))
    big = np.kron(rho_b.matrix, np.kron(rho_c.matrix, rho_a.matrix))
    transient = SubsystemLayout((db, db, dc, dc, da, da), ("C2", "A1", "A2", "B1", "B2", "C1"))
    mat = permute_subsystems(big, transient, ("A1", "A2", "B1", "B2", "C1", "C2"))
    return DensityOperator._trusted(mat, triangle_layout({"a": da, "b": db, "c": dc}))


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
        return [reduced_observable(m, dims, marg[traced], keep=keep) for m in obs.stacks[x]]

    def source_cm(pair_state, x, x_obs, y, y_obs):
        return covariance_matrix(ObservableSet({x: x_obs, y: y_obs}), pair_state)

    def relabel(src, labels, pair):
        return src.with_layout(SubsystemLayout(src.layout.dims, labels, pair))

    cm_c = source_cm(relabel(rho_c, ("A2", "B1"), (a_node, b_node)),
                     a_node, reduced_set(a_node, 2), b_node, reduced_set(b_node, 1))
    rho_b_ac = permuted(relabel(rho_b, ("C2", "A1"), (c_node, a_node)), ("A1", "C2"))
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


def embed(matrix, node: str, layout: SubsystemLayout,
          factor_support: Sequence[str] | None = None) -> np.ndarray:
    """Identity-padded global operator for an operator on one node, or on the
    contiguous factors ``factor_support`` of it."""
    support = factor_support or layout.factors_of(node)
    positions = sorted(layout.index(l) for l in support)
    if positions != list(range(positions[0], positions[0] + len(positions))):
        raise ValueError(f"factor support {support} is not contiguous in layout {layout.labels}")
    d_sup = int(np.prod([layout.dims[i] for i in positions]))
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape[0] != d_sup:
        raise ValueError(
            f"observable dimension {matrix.shape[0]} does not match support dimension {d_sup}"
        )
    before = int(np.prod(layout.dims[: positions[0]]))
    after = int(np.prod(layout.dims[positions[-1] + 1:]))
    return np.kron(np.eye(before), np.kron(matrix, np.eye(after)))


def brute_force_cm(obs_set: ObservableSet, rho: DensityOperator) -> np.ndarray:
    """Covariance matrix from global embeddings and explicit operator products."""
    mats = [embed(m, x, rho.layout) for x, s in obs_set.stacks.items() for m in s]
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


# Generators of network states: marginals, local unitaries and channels,
# convex mixtures.  Soundness tests apply them to network states to reach
# every state of a declared topology.

KRAUS_TOL = 1e-9


def marginal(rho: DensityOperator, labels: Iterable[str]) -> DensityOperator:
    """Reduced state on the given factors, layout order preserved (validated)."""
    labels = list(labels)
    lay = rho.layout
    sel = [i for i, l in enumerate(lay.labels) if l in labels]
    sub = SubsystemLayout(tuple(lay.dims[i] for i in sel), tuple(lay.labels[i] for i in sel),
                          tuple(lay.nodes[i] for i in sel))
    return DensityOperator(rho.marginal_matrix(labels), sub)


def node_marginal(rho: DensityOperator, *nodes: str) -> DensityOperator:
    return marginal(rho, [l for x in nodes for l in rho.layout.factors_of(x)])


def permuted(rho: DensityOperator, order: Sequence[str]) -> DensityOperator:
    """The state with its factors (and their labels and nodes) in ``order``."""
    lay = rho.layout
    matrix = permute_subsystems(rho.matrix, lay, order)  # checks that order is a permutation
    idx = [lay.index(l) for l in order]
    return DensityOperator._trusted(matrix, SubsystemLayout(
        *(tuple(t[i] for i in idx) for t in (lay.dims, lay.labels, lay.nodes))))


def swap_node_factors(rho: DensityOperator, node: str) -> DensityOperator:
    """Exchange the two factors of a bipartite node (alternative wiring)."""
    f = rho.layout.factors_of(node)
    if len(f) != 2:
        raise ValueError(f"node {node!r} has {len(f)} factors, need exactly 2")
    order = list(rho.layout.labels)
    i, j = order.index(f[0]), order.index(f[1])
    order[i], order[j] = order[j], order[i]
    out = permuted(rho, order)
    # restore the original factor names so downstream labels stay stable
    labels = list(out.layout.labels)
    labels[i], labels[j] = labels[j], labels[i]
    return DensityOperator._trusted(out.matrix, SubsystemLayout(out.layout.dims, tuple(labels),
                                                                out.layout.nodes))


@dataclass(frozen=True)
class KrausChannel:
    """Completely positive trace-preserving map given by Kraus operators."""

    kraus_ops: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.kraus_ops)
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        din = ops[0].shape[1]
        dout = ops[0].shape[0]
        if any(k.shape != (dout, din) for k in ops):
            raise ValueError("all Kraus operators must share one shape")
        total = sum(k.conj().T @ k for k in ops)
        dev = float(np.abs(total - np.eye(din)).max())
        if dev > KRAUS_TOL:
            raise ValueError(f"Kraus completeness violated: max|sum K^dag K - 1| = {dev:.3e}")
        object.__setattr__(self, "kraus_ops", ops)

    @property
    def input_dim(self) -> int:
        return self.kraus_ops[0].shape[1]

    @property
    def output_dim(self) -> int:
        return self.kraus_ops[0].shape[0]

    @classmethod
    def identity(cls, dim: int) -> "KrausChannel":
        return cls((np.eye(dim),))

    @classmethod
    def from_unitary(cls, u) -> "KrausChannel":
        return cls((np.asarray(u, dtype=complex),))

    @classmethod
    def depolarizing(cls, dim: int) -> "KrausChannel":
        """Fully depolarizing channel: every input goes to the maximally mixed state."""
        ops = []
        for i, j in iproduct(range(dim), repeat=2):
            k = np.zeros((dim, dim), dtype=complex)
            k[i, j] = 1.0 / np.sqrt(dim)
            ops.append(k)
        return cls(tuple(ops))


def convex_mix(states: Sequence[DensityOperator], weights: Sequence[float]) -> DensityOperator:
    """Weighted mixture of states sharing one layout."""
    if len(states) != len(weights):
        raise ValueError("need one weight per state")
    w = np.asarray(weights, dtype=float)
    if w.size == 0 or w.min() < 0 or abs(w.sum() - 1.0) > 1e-12:
        raise ValueError(f"weights must be nonnegative and sum to 1, got {weights}")
    layout = states[0].layout
    if any(s.layout != layout for s in states):
        raise ValueError("all states must share the same layout")
    return DensityOperator(sum(wi * s.matrix for wi, s in zip(w, states)), layout)


def apply_local_unitaries(rho: DensityOperator, unitaries: Mapping[str, np.ndarray]) -> DensityOperator:
    """Conjugate by per-node unitaries (identity on omitted nodes)."""
    ops = []
    for node in rho.layout.node_order:
        d = rho.layout.node_dim(node)
        u = np.asarray(unitaries.get(node, np.eye(d)), dtype=complex)
        if u.shape != (d, d):
            raise ValueError(f"unitary for node {node!r} has shape {u.shape}, expected {(d, d)}")
        dev = float(np.abs(u.conj().T @ u - np.eye(d)).max())
        if dev > 1e-9:
            raise ValueError(f"operator for node {node!r} is not unitary: max|U^dag U - 1| = {dev:.3e}")
        ops.append(u)
    big = ops[0]
    for u in ops[1:]:
        big = np.kron(big, u)
    return DensityOperator(big @ rho.matrix @ big.conj().T, rho.layout)


def apply_local_channels(rho: DensityOperator, channels: Mapping[str, KrausChannel]) -> DensityOperator:
    """Apply per-node Kraus channels (identity on omitted nodes).

    A node a channel acts on is collapsed to a single factor carrying the
    channel's output dimension; untouched nodes keep their factorization.
    """
    unknown = set(channels) - set(rho.layout.node_order)
    if unknown:
        raise KeyError(f"unknown nodes {sorted(unknown)}; have {rho.layout.node_order}")
    mat = rho.matrix
    dims, labels, nodes = list(rho.layout.dims), list(rho.layout.labels), list(rho.layout.nodes)
    for node in rho.layout.node_order:
        if node not in channels:
            continue
        chan = channels[node]
        start = nodes.index(node)
        count = nodes.count(node)
        din = int(np.prod(dims[start:start + count]))
        if chan.input_dim != din:
            raise ValueError(
                f"channel for node {node!r} expects input dimension {chan.input_dim}, node has {din}"
            )
        before = int(np.prod(dims[:start])) if start else 1
        after = int(np.prod(dims[start + count:])) if start + count < len(dims) else 1
        out = None
        for k in chan.kraus_ops:
            big = np.kron(np.eye(before), np.kron(k, np.eye(after)))
            term = big @ mat @ big.conj().T
            out = term if out is None else out + term
        mat = out
        dims[start:start + count] = [chan.output_dim]
        labels[start:start + count] = [node]
        nodes[start:start + count] = [node]
    return DensityOperator(mat, SubsystemLayout(tuple(dims), tuple(labels), tuple(nodes)))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Gaussian matrix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_kraus_channel(din: int, dout: int, n_ops: int, rng: np.random.Generator) -> KrausChannel:
    """Random channel from an isometry: stacked Gaussian blocks, orthonormalized."""
    if dout * n_ops < din:
        raise ValueError(
            f"no isometry from dimension {din} into {n_ops} blocks of {dout}; "
            "need dout * n_ops >= din"
        )
    g = rng.standard_normal((dout * n_ops, din)) + 1j * rng.standard_normal((dout * n_ops, din))
    q, _ = np.linalg.qr(g)
    return KrausChannel(tuple(q[i * dout:(i + 1) * dout, :] for i in range(n_ops)))


# Closed forms the decomposition is checked against: Bloch vectors, reduced
# observables, conjugation expansions, product-state CMs and congruences.


def bloch_vector(basis: np.ndarray, rho) -> np.ndarray:
    """Expansion coefficients tr(G_a rho) in a basis stack; real for Hermitian rho."""
    rho = np.asarray(rho)
    return np.array([np.trace(g @ rho).real for g in basis])


def moments(observables: Sequence, rho) -> tuple[np.ndarray, np.ndarray]:
    """Means <O_m> and the Hermitian CM <O_m O_n> - <O_m><O_n> of observables on one state.

    The second moments are unsymmetrized: the real part is the symmetrized
    CM, and the imaginary part carries the commutators of same-node
    observables, which enter product formulas (the real part of a Kronecker
    product of complex CMs differs from the Kronecker product of their real
    parts whenever those observables fail to commute).  The means are the
    Bloch vector when the O_m are an orthogonal basis.
    """
    rho = rho.matrix if isinstance(rho, DensityOperator) else np.asarray(rho)
    stack = np.stack(observables)
    if stack.shape[1:] != rho.shape:
        raise ValueError("observable dimensions do not match the state")
    means, second = _raw_moments(stack, rho)
    return means, second - np.outer(means, means)


def reduced_observable(obs_matrix, dims: tuple[int, int], marginal, keep: int = 2) -> np.ndarray:
    """Effective single-factor operator of a two-factor observable.

    For ``keep=2`` this is tr_1(A [rho_1 x 1_2]) with ``marginal`` the state
    of the traced first factor; ``keep=1`` traces the second factor against
    its marginal instead.
    """
    d1, d2 = dims
    a = np.asarray(obs_matrix, dtype=complex)
    if a.shape != (d1 * d2, d1 * d2):
        raise ValueError(f"observable shape {a.shape} does not match factor dims {dims}")
    rho = np.asarray(marginal, dtype=complex)
    a4 = a.reshape(d1, d2, d1, d2)
    if keep == 2:
        if rho.shape != (d1, d1):
            raise ValueError(f"marginal shape {rho.shape} does not match traced dimension {d1}")
        return np.einsum("ijml,mi->jl", a4, rho)
    if keep == 1:
        if rho.shape != (d2, d2):
            raise ValueError(f"marginal shape {rho.shape} does not match traced dimension {d2}")
        return np.einsum("ijkn,nj->ik", a4, rho)
    raise ValueError(f"keep must be 1 or 2, got {keep}")


def orthogonal_from_unitary(u, basis: np.ndarray) -> np.ndarray:
    """Real matrix O with U^dag G_a U = sum_b O_ab G_b for a basis stack; O is orthogonal."""
    u = np.asarray(u, dtype=complex)
    d = basis.shape[1]
    if u.shape != (d, d):
        raise ValueError(f"unitary shape {u.shape} does not match basis dimension {d}")
    dev = float(np.abs(u.conj().T @ u - np.eye(d)).max())
    if dev > 1e-9:
        raise ValueError(f"input is not unitary: max|U^dag U - 1| = {dev:.3e}")
    conj = [u.conj().T @ g @ u for g in basis]
    o = np.array([[np.trace(cg @ g).real / d for g in basis] for cg in conj])
    return o


def product_state_cm(factors: Sequence[tuple[Sequence, np.ndarray]],
                     node_label: str = "P") -> BlockCovarianceMatrix:
    """Closed-form CM of product observables on a product state.

    ``factors`` lists ``(observables, marginal)`` pairs, one per tensor
    factor.  The result equals the CM of all lexicographic observable
    products on the product of the marginals, computed without ever
    building the product state:

        Gamma = prod_x (|a_x><a_x| + Gamma_x)  -  prod_x |a_x><a_x|  (Kronecker products)

    with the complex per-factor CMs, symmetrized at the end.
    """
    if not factors:
        raise ValueError("need at least one factor")
    with_cm = np.ones((1, 1), dtype=complex)
    rank_one = np.ones((1, 1), dtype=complex)
    for obs, marg in factors:
        a, gamma = moments(obs, marg)
        outer = np.outer(a, a)
        with_cm = np.kron(with_cm, outer + gamma)
        rank_one = np.kron(rank_one, outer)
    total = (with_cm - rank_one).real
    return BlockCovarianceMatrix(total, (total.shape[0],), (node_label,))


def recombine_cm(gamma: BlockCovarianceMatrix, c,
                 col_sizes: Sequence[int] | None = None) -> BlockCovarianceMatrix:
    """Congruence C^T Gamma C for recombined observables M_j = sum_i C_ij N_i.

    With square ``c`` the block layout carries over; for rectangular ``c``
    pass ``col_sizes`` giving the new per-node block sizes.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 2 or c.shape[0] != gamma.dim:
        raise ValueError(f"recombination matrix shape {c.shape} does not match CM dimension {gamma.dim}")
    if col_sizes is None:
        if c.shape[1] != c.shape[0]:
            raise ValueError("rectangular recombination needs explicit col_sizes")
        col_sizes = gamma.block_sizes
    col_sizes = tuple(int(s) for s in col_sizes)
    if sum(col_sizes) != c.shape[1] or len(col_sizes) != len(gamma.node_labels):
        raise ValueError(f"col_sizes {col_sizes} do not match recombination matrix {c.shape}")
    return BlockCovarianceMatrix(c.T @ gamma.matrix @ c, col_sizes, gamma.node_labels)


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


def witness_from_parts(parts: Sequence[np.ndarray], remainder: np.ndarray,
                       problem: FeasibilityProblem) -> list[np.ndarray]:
    """Fold a block-diagonal PSD remainder into the problem's summands.

    Each node's remainder block is added to the first summand that covers
    the node; adding a PSD block-diagonal piece preserves PSD-ness, so a
    valid source decomposition with a separate remainder becomes a valid
    witness for the equality-form constraints.  The same fold turns any
    decomposition with a block-diagonal PSD slack into one without, which
    is why ``FeasibilityProblem`` has no slack summand.
    """
    out = [np.asarray(t, dtype=float).copy() for t in parts]
    for x in problem.gamma.node_labels:
        sl = problem.gamma.node_slice(x)
        k = next(k for k, s in enumerate(problem.summands) if x in s)
        out[k][sl, sl] += remainder[sl, sl]
    return out


def with_unfed_node(gamma: BlockCovarianceMatrix, rng: np.random.Generator) -> BlockCovarianceMatrix:
    """``gamma`` plus a node "D" uncorrelated with the others, with a random
    positive definite 2 x 2 block: a node that a source-free topology leaves unfed."""
    n = gamma.dim
    a = rng.standard_normal((2, 2))
    m = np.zeros((n + 2, n + 2))
    m[:n, :n] = gamma.matrix
    m[n:, n:] = a @ a.T + np.eye(2)
    return BlockCovarianceMatrix(m, gamma.block_sizes + (2,), gamma.node_labels + ("D",))


# Plain Dykstra, the solver before Anderson acceleration: the reference for
# feasibility.solve's statuses, witnesses and certificate iterations.


def plain_dykstra(problem: FeasibilityProblem, tol: float = DEFAULT_TOL,
                  max_iter: int = DEFAULT_MAX_ITER) -> FeasibilityOutcome:
    """Dykstra alternating projections between the PSD cones and the affine set.

    Stops as soon as the PSD iterate satisfies the affine constraints within
    ``tol`` (status "feasible", the iterate is the witness), or as soon as a
    certificate G passes ``feasibility``'s test (status "infeasible", see its
    module docstring).  A CM block between two nodes that no source links
    is "infeasible" at once, with that pair as the certificate.  At
    ``max_iter`` with neither the verdict is "inconclusive".

    ``tol`` must be > 0: a floating-point residual need not ever reach zero.
    """
    if not tol > 0.0:
        raise ValueError(f"feasibility tolerance must be > 0, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    pair, blocked = _uncovered_pair(problem)
    if blocked > tol:
        # a CM block between nodes no source connects cannot be matched by
        # any choice of summands; no amount of iteration changes that
        cert = InfeasibilityCertificate(pair=pair, block_max_abs=blocked)
        return FeasibilityOutcome("infeasible", None, blocked, 0, np.array([blocked]), cert)
    stack = _Stack(problem)
    trace = problem.gamma.trace()
    # Dykstra needs no correction term for the affine set: its correction
    # lies in lin(A)^perp, which the projection onto A ignores
    x = psd_project(stack.start())
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
            g = stack.scatter(stack.separator(y - x))
            eps, inner, delta = _certificate_terms(g, problem.gamma.matrix, stack.index)
            if inner < -eps * trace - delta:
                status = "infeasible"
                certificate = InfeasibilityCertificate(g, epsilon=eps, inner_product=inner,
                                                       delta=delta, iteration=it)
                break
    history = history[:it]
    witness = stack.to_full(y) if status == "feasible" else None
    return FeasibilityOutcome(status, witness, float(history[-1]), it, history, certificate)


@pytest.fixture
def rng():
    return np.random.default_rng(20230817)


@pytest.fixture
def random_triangle_sources(rng):
    return [random_source(2, rng) for _ in range(3)]
