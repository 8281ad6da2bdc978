"""Density operators: named states, noise mixtures, and network-state assembly."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Mapping, Sequence

import numpy as np

from .linalg import (
    SubsystemLayout,
    _as_matrix,
    kron,
    partial_trace,
    permute_subsystems,
    require_hermitian,
)
from .topology import NetworkTopology

TRACE_TOL = 1e-10
MIN_EIG_TOL = 1e-9
KRAUS_TOL = 1e-9

_NODE_NAMES = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, PSD, trace-one matrix together with its subsystem layout."""

    matrix: np.ndarray
    layout: SubsystemLayout

    def __post_init__(self):
        m = require_hermitian(_as_matrix(self.matrix))
        if m.shape[0] != self.layout.dim:
            raise ValueError(
                f"matrix dimension {m.shape[0]} does not match layout dimension {self.layout.dim}"
            )
        tr = float(m.trace().real)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace must be 1, got {tr!r}")
        low = float(np.linalg.eigvalsh(m)[0])
        if low < -MIN_EIG_TOL:
            raise ValueError(f"not positive semi-definite: min eigenvalue {low:.3e}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.layout.dim

    def marginal(self, labels: Iterable[str]) -> "DensityOperator":
        """Reduced state on the given factors, layout order preserved."""
        labels = list(labels)
        return DensityOperator(partial_trace(self.matrix, self.layout, labels), self.layout.keep(labels))

    def node_marginal(self, *nodes: str) -> "DensityOperator":
        labels = [l for x in nodes for l in self.layout.factors_of(x)]
        return self.marginal(labels)

    def permuted(self, new_order: Sequence[str]) -> "DensityOperator":
        return DensityOperator(
            permute_subsystems(self.matrix, self.layout, new_order), self.layout.reorder(new_order)
        )

    def with_layout(self, layout: SubsystemLayout) -> "DensityOperator":
        """Same matrix under a different factorization of equal total dimension."""
        return DensityOperator(self.matrix, layout)

    def expectation(self, op) -> float:
        val = complex(np.trace(np.asarray(op) @ self.matrix))
        return float(val.real) if abs(val.imag) < 1e-9 else val

    def swap_node_factors(self, node: str) -> "DensityOperator":
        """Exchange the two factors of a bipartite node (alternative wiring)."""
        f = self.layout.factors_of(node)
        if len(f) != 2:
            raise ValueError(f"node {node!r} has {len(f)} factors, need exactly 2")
        order = list(self.layout.labels)
        i, j = order.index(f[0]), order.index(f[1])
        order[i], order[j] = order[j], order[i]
        rho = self.permuted(order)
        # restore the original factor names so downstream labels stay stable
        labels = list(rho.layout.labels)
        labels[i], labels[j] = labels[j], labels[i]
        return DensityOperator(rho.matrix, SubsystemLayout(rho.layout.dims, tuple(labels), rho.layout.nodes))


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
        for i, j in product(range(dim), repeat=2):
            k = np.zeros((dim, dim), dtype=complex)
            k[i, j] = 1.0 / np.sqrt(dim)
            ops.append(k)
        return cls(tuple(ops))


def _single_node_layout(parties: int, dim: int) -> SubsystemLayout:
    if parties > len(_NODE_NAMES):
        raise ValueError(f"at most {len(_NODE_NAMES)} parties supported")
    labels = tuple(_NODE_NAMES[:parties])
    return SubsystemLayout((dim,) * parties, labels)


def pure_state(vector, layout: SubsystemLayout) -> DensityOperator:
    """Projector onto a (normalized) state vector."""
    v = np.asarray(vector, dtype=complex).reshape(-1)
    if v.size != layout.dim:
        raise ValueError(f"vector length {v.size} does not match layout dimension {layout.dim}")
    v = v / np.linalg.norm(v)
    return DensityOperator(np.outer(v, v.conj()), layout)


def maximally_mixed(layout: SubsystemLayout) -> DensityOperator:
    return DensityOperator(np.eye(layout.dim) / layout.dim, layout)


def ghz_state(parties: int, local_dim: int = 2, levels="full") -> DensityOperator:
    """GHZ-type state: equal superposition of |k...k> over the chosen levels.

    ``levels`` is an iterable of distinct level indices, or ``"full"`` for all
    ``local_dim`` of them.  ``(3, 2, (0, 1))`` gives the usual three-qubit GHZ
    state, ``(3, 4, (0, 3))`` its three-ququart two-level variant.
    """
    if parties < 1 or local_dim < 2:
        raise ValueError("need at least one party and local dimension >= 2")
    if isinstance(levels, str):
        if levels != "full":
            raise ValueError(f"levels must be index collection or 'full', got {levels!r}")
        levels = range(local_dim)
    levels = tuple(int(k) for k in levels)
    if len(set(levels)) != len(levels):
        raise ValueError(f"levels must be distinct, got {levels}")
    if any(k < 0 or k >= local_dim for k in levels):
        raise ValueError(f"levels {levels} out of range for local dimension {local_dim}")
    layout = _single_node_layout(parties, local_dim)
    vec = np.zeros(layout.dim, dtype=complex)
    stride = (layout.dim - 1) // (local_dim - 1)  # index of |k...k> is k * stride
    for k in levels:
        vec[k * stride] = 1.0
    return pure_state(vec, layout)


def w_state() -> DensityOperator:
    """Three-qubit W state (|100> + |010> + |001>)/sqrt(3)."""
    vec = np.zeros(8, dtype=complex)
    vec[[4, 2, 1]] = 1.0
    return pure_state(vec, _single_node_layout(3, 2))


def dicke_state(k: int) -> DensityOperator:
    """Three-ququart Dicke state: superposition of |i1 i2 i3> with i1+i2+i3 = k."""
    if not 1 <= k <= 9:
        raise ValueError(f"excitation number must be in 1..9, got {k}")
    vec = np.zeros(64, dtype=complex)
    for i1, i2, i3 in product(range(4), repeat=3):
        if i1 + i2 + i3 == k:
            vec[16 * i1 + 4 * i2 + i3] = 1.0
    return pure_state(vec, _single_node_layout(3, 4))


def cluster4_state() -> DensityOperator:
    """Four-qubit cluster state |+0+0> + |+0-1> + |-1-0> + |-1+1|, normalized."""
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    minus = np.array([1.0, -1.0]) / np.sqrt(2)
    zero = np.array([1.0, 0.0])
    one = np.array([0.0, 1.0])
    terms = [
        (plus, zero, plus, zero),
        (plus, zero, minus, one),
        (minus, one, minus, zero),
        (minus, one, plus, one),
    ]
    vec = sum(np.kron(np.kron(a, b), np.kron(c, d)) for a, b, c, d in terms)
    return pure_state(vec, _single_node_layout(4, 2))


def bell_pair(local_dim: int = 2, labels: Sequence[str] = ("1", "2")) -> DensityOperator:
    """Maximally entangled pair: projector onto sum_k |kk>/sqrt(d)."""
    if local_dim < 2:
        raise ValueError("local dimension must be >= 2")
    d = local_dim
    vec = np.zeros(d * d, dtype=complex)
    vec[:: d + 1] = 1.0
    return pure_state(vec, SubsystemLayout((d, d), tuple(labels)))


def mix_white_noise(rho: DensityOperator, v: float) -> DensityOperator:
    """Visibility mixture v*rho + (1-v)*1/dim."""
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {v}")
    mixed = v * rho.matrix + (1.0 - v) * np.eye(rho.dim) / rho.dim
    return DensityOperator(mixed, rho.layout)


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


def triangle_layout(dims: Mapping[str, int] | int = 2) -> SubsystemLayout:
    """Standard six-factor triangle layout A1 A2 B1 B2 C1 C2 (node-major).

    ``dims`` maps source name (``"a"``, ``"b"``, ``"c"``) to its local
    dimension, or is a single dimension for all three sources.  Source a
    feeds B2 and C1, b feeds C2 and A1, c feeds A2 and B1.
    """
    if isinstance(dims, int):
        dims = {"a": dims, "b": dims, "c": dims}
    da, db, dc = dims["a"], dims["b"], dims["c"]
    return SubsystemLayout(
        (db, dc, dc, da, da, db),
        ("A1", "A2", "B1", "B2", "C1", "C2"),
        ("A", "A", "B", "B", "C", "C"),
    )


def btn_assemble(rho_a: DensityOperator, rho_b: DensityOperator, rho_c: DensityOperator) -> DensityOperator:
    """Assemble the basic triangle-network state from three bipartite sources.

    Source a sits on B2 C1, b on C2 A1, c on A2 B1; the sources are tensored
    in the order b, c, a and the result is returned in node-major order
    A1 A2 B1 B2 C1 C2.
    """
    for name, src in (("a", rho_a), ("b", rho_b), ("c", rho_c)):
        if len(src.layout.dims) != 2 or src.layout.dims[0] != src.layout.dims[1]:
            raise ValueError(f"source {name} must be bipartite with equal local dimensions, "
                             f"got dims {src.layout.dims}")
    da, db, dc = (s.layout.dims[0] for s in (rho_a, rho_b, rho_c))
    big = kron(rho_b.matrix, kron(rho_c.matrix, rho_a.matrix))
    transient = SubsystemLayout(
        (db, db, dc, dc, da, da), ("C2", "A1", "A2", "B1", "B2", "C1")
    )
    mat = permute_subsystems(big, transient, ("A1", "A2", "B1", "B2", "C1", "C2"))
    return DensityOperator(mat, triangle_layout({"a": da, "b": db, "c": dc}))


def network_state(topology: NetworkTopology, sources: Sequence[DensityOperator]) -> DensityOperator:
    """Assemble a basic network state for an arbitrary topology.

    ``sources[k]`` is the state of the k-th declared source; its i-th factor
    is delivered to the i-th node of that source.  Factors are tensored in
    declared source order and permuted into node-major order, with each
    node's factors ordered by source declaration index and labelled
    ``<node>1``, ``<node>2``, ...
    """
    if len(sources) != len(topology.sources):
        raise ValueError(f"need {len(topology.sources)} source states, got {len(sources)}")
    transient_dims, transient_labels, final_labels = [], [], {}
    counters = {x: 0 for x in topology.nodes}
    for k, (members, src) in enumerate(zip(topology.sources, sources)):
        if len(src.layout.dims) != len(members):
            raise ValueError(
                f"source {k} connects {len(members)} nodes but its state has "
                f"{len(src.layout.dims)} factors"
            )
        for node, d in zip(members, src.layout.dims):
            counters[node] += 1
            label = f"{node}{counters[node]}"
            transient_dims.append(d)
            transient_labels.append(label)
            final_labels.setdefault(node, []).append(label)
    big = sources[0].matrix
    for src in sources[1:]:
        big = kron(big, src.matrix)
    transient = SubsystemLayout(tuple(transient_dims), tuple(transient_labels))
    order, order_nodes = [], []
    for x in topology.nodes:
        for l in final_labels.get(x, []):
            order.append(l)
            order_nodes.append(x)
    mat = permute_subsystems(big, transient, order)
    dims = tuple(transient_dims[transient_labels.index(l)] for l in order)
    return DensityOperator(mat, SubsystemLayout(dims, tuple(order), tuple(order_nodes)))


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
        big = kron(big, u)
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
            big = kron(np.eye(before), kron(k, np.eye(after)))
            term = big @ mat @ big.conj().T
            out = term if out is None else out + term
        mat = out
        dims[start:start + count] = [chan.output_dim]
        labels[start:start + count] = [node]
        nodes[start:start + count] = [node]
    return DensityOperator(mat, SubsystemLayout(tuple(dims), tuple(labels), tuple(nodes)))


def split_nodes(rho: DensityOperator, split: Mapping[str, tuple[int, int]] | tuple[int, int]) -> DensityOperator:
    """Refine single-factor nodes into two tensor factors each.

    ``split`` maps node label to a dimension pair whose product is the node
    dimension (one pair applies to every node).  New factors are labelled
    ``<node>1`` and ``<node>2``.
    """
    if isinstance(split, tuple):
        split = {x: split for x in rho.layout.node_order}
    dims, labels, nodes = [], [], []
    for d, label, node in zip(rho.layout.dims, rho.layout.labels, rho.layout.nodes):
        if node in split:
            if rho.layout.factors_of(node) != (label,):
                raise ValueError(f"node {node!r} is already split")
            d1, d2 = split[node]
            if d1 * d2 != d:
                raise ValueError(f"split {d1}x{d2} does not match dimension {d} of node {node!r}")
            dims += [d1, d2]
            labels += [f"{node}1", f"{node}2"]
            nodes += [node, node]
        else:
            dims.append(d)
            labels.append(label)
            nodes.append(node)
    return rho.with_layout(SubsystemLayout(tuple(dims), tuple(labels), tuple(nodes)))


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Generic full-rank density matrix: normalized G G^dag with Gaussian G."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / m.trace().real


def random_source(d: int, rng: np.random.Generator, labels: Sequence[str] = ("1", "2")) -> DensityOperator:
    """Random bipartite d x d source state."""
    return DensityOperator(random_density(d * d, rng), SubsystemLayout((d, d), tuple(labels)))


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
