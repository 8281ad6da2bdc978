"""Density operators: named states, noise mixtures, and network-state assembly.

A state is held in one of two forms.  Pure-state families (GHZ, W, Dicke,
cluster, Bell) and their white-noise mixtures are a :class:`NoisyPureState`:
the unit vector psi and the visibility v of v |psi><psi| + (1 - v) 1/d, whose
marginals come from the reshaped vector, so a 16-qubit GHZ state needs a
vector of 2^16 entries, not a 2^16 x 2^16 matrix.  Every other state holds
its dense matrix.  Criteria read states only through
:meth:`DensityOperator.marginal_matrix`; the dense matrix of a noisy pure
state is built when something asks for ``.matrix`` (network assembly).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .linalg import (
    SubsystemLayout,
    _as_matrix,
    partial_trace,
    permute_subsystems,
    require_hermitian,
)
from .topology import NetworkTopology, triangle_topology

TRACE_TOL = 1e-10
MIN_EIG_TOL = 1e-9

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

    @classmethod
    def _trusted(cls, matrix, layout: SubsystemLayout) -> "DensityOperator":
        """A state whose matrix is Hermitian, PSD and of trace one by construction.

        For matrices built exactly Hermitian from validated states or
        vectors: only the shape is checked, and the spectral check is
        skipped.  The matrix is made read-only, as by the validating
        constructor.
        """
        m = _as_matrix(matrix)
        if m.shape != (layout.dim, layout.dim):
            raise ValueError(
                f"matrix shape {m.shape} does not match layout dimension {layout.dim}"
            )
        m.flags.writeable = False
        rho = object.__new__(cls)
        object.__setattr__(rho, "matrix", m)
        object.__setattr__(rho, "layout", layout)
        return rho

    @property
    def dim(self) -> int:
        return self.layout.dim

    def marginal_matrix(self, labels: Iterable[str]) -> np.ndarray:
        """Reduced matrix on the given factors, layout order preserved.

        The one way criteria and CMs read a state; tracing every factor
        gives ``[[tr rho]]``.
        """
        return partial_trace(self.matrix, self.layout, labels)

    def with_layout(self, layout: SubsystemLayout) -> "DensityOperator":
        """Same matrix under a different factorization of equal total dimension."""
        return DensityOperator._trusted(self.matrix, layout)


class NoisyPureState(DensityOperator):
    """v |psi><psi| + (1 - v) 1/d, held as the unit vector psi and the visibility v.

    Trusted by construction: ``vector`` must be a unit vector of length
    ``layout.dim`` and ``visibility`` lie in [0, 1] (:func:`pure_state` and
    :func:`mix_white_noise` check both).  A real vector is kept real, which
    halves its memory and makes each marginal one real ``A A^T``.  The
    complex d x d ``matrix`` is built on first use and kept.
    """

    def __init__(self, vector: np.ndarray, layout: SubsystemLayout, visibility: float = 1.0):
        if vector.shape != (layout.dim,):
            raise ValueError(f"vector shape {vector.shape} does not match layout dimension {layout.dim}")
        vector.flags.writeable = False
        object.__setattr__(self, "vector", vector)
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "visibility", float(visibility))

    def __repr__(self) -> str:  # the dataclass repr would build the matrix
        return f"NoisyPureState(visibility={self.visibility!r}, layout={self.layout!r})"

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        v, d = self.visibility, self.dim
        m = v * np.outer(self.vector, self.vector.conj()) + (1.0 - v) * np.eye(d) / d
        m = m.astype(complex, copy=False)
        m.flags.writeable = False
        return m

    def marginal_matrix(self, labels: Iterable[str]) -> np.ndarray:
        """v A A^dag + (1 - v) 1/d_S, with A the vector reshaped to (kept, traced) factors."""
        kept = sorted(self.layout.index(l) for l in set(labels))
        traced = [i for i in range(len(self.layout.dims)) if i not in kept]
        d = int(np.prod([self.layout.dims[i] for i in kept]))
        v = self.visibility
        noise = (1.0 - v) * np.eye(d) / d
        if v == 0.0:  # 1/d_S, as the formula gives it, without reading the vector
            return noise
        a = self.vector.reshape(self.layout.dims).transpose(kept + traced).reshape(d, -1)
        return v * (a @ a.conj().T) + noise

    def with_layout(self, layout: SubsystemLayout) -> "NoisyPureState":
        return NoisyPureState(self.vector, layout, self.visibility)


def _single_node_layout(parties: int, dim: int) -> SubsystemLayout:
    if parties > len(_NODE_NAMES):
        raise ValueError(f"at most {len(_NODE_NAMES)} parties supported")
    labels = tuple(_NODE_NAMES[:parties])
    return SubsystemLayout((dim,) * parties, labels)


def pure_state(vector, layout: SubsystemLayout) -> NoisyPureState:
    """Projector onto a (normalized) state vector, held as the vector.

    The vector is checked instead of the projector, which is Hermitian,
    PSD and of trace one by construction.
    """
    v = np.asarray(vector, dtype=complex).reshape(-1)
    if v.size != layout.dim:
        raise ValueError(f"vector length {v.size} does not match layout dimension {layout.dim}")
    if not np.isfinite(v).all():
        raise ValueError("state vector has non-finite (NaN or infinite) entries")
    norm = np.linalg.norm(v)
    if not 0.0 < norm < np.inf:
        raise ValueError(f"state vector norm must be positive and finite, got {norm!r}")
    v = v / norm
    return NoisyPureState(np.ascontiguousarray(v.real) if not v.imag.any() else v, layout)


def maximally_mixed(layout: SubsystemLayout) -> NoisyPureState:
    """1/d, as the zero-visibility mixture of a basis vector: no d x d matrix until asked for."""
    vec = np.zeros(layout.dim)
    vec[0] = 1.0
    return NoisyPureState(vec, layout, 0.0)


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
    """Visibility mixture v*rho + (1-v)*1/dim; a noisy pure state stays a vector."""
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {v}")
    if isinstance(rho, NoisyPureState):
        return NoisyPureState(rho.vector, rho.layout, v * rho.visibility)
    mixed = v * rho.matrix + (1.0 - v) * np.eye(rho.dim) / rho.dim
    return DensityOperator._trusted(mixed, rho.layout)


def factor_places(topology: NetworkTopology) -> list[tuple[int, ...]]:
    """``[k][i]``: the place, from 0, of source k's factor among the factors of
    its i-th node, by the ordering rule of :func:`network_state`."""
    held = dict.fromkeys(topology.nodes, 0)
    places = [list(s) for s in topology.sources]
    for _, k, i in sorted((-i, k, i) for k, s in enumerate(topology.sources) for i in range(len(s))):
        x = topology.sources[k][i]
        places[k][i], held[x] = held[x], held[x] + 1
    return [tuple(p) for p in places]


def network_layout(topology: NetworkTopology, dims: Sequence[Sequence[int]]) -> SubsystemLayout:
    """Node-major layout of a network state whose k-th source has factor dimensions
    ``dims[k]``: node x holds ``<x>1``, ``<x>2``, ... placed by :func:`factor_places`."""
    rank = {x: n for n, x in enumerate(topology.nodes)}
    held = sorted((rank[x], j, d, f"{x}{j + 1}", x) for s, p, ds in
                  zip(topology.sources, factor_places(topology), dims) for x, j, d in zip(s, p, ds))
    _, _, dims, labels, nodes = zip(*held)
    return SubsystemLayout(dims, labels, nodes)


def btn_assemble(rho_a: DensityOperator, rho_b: DensityOperator, rho_c: DensityOperator) -> DensityOperator:
    """The basic triangle-network state: :func:`network_state` on :func:`triangle_topology`.

    Each source must be bipartite d x d.  Source a feeds B2 C1, b feeds
    C2 A1 and c feeds A2 B1, in the node-major layout A1 A2 B1 B2 C1 C2.
    """
    for name, src in (("a", rho_a), ("b", rho_b), ("c", rho_c)):
        if len(src.layout.dims) != 2 or src.layout.dims[0] != src.layout.dims[1]:
            raise ValueError(f"source {name} must be bipartite with equal local dimensions, "
                             f"got dims {src.layout.dims}")
    return network_state(triangle_topology(), (rho_a, rho_b, rho_c))


def network_state(topology: NetworkTopology, sources: Sequence[DensityOperator]) -> DensityOperator:
    """Assemble a basic network state for an arbitrary topology.

    ``sources[k]`` is the state of the k-th declared source; its i-th factor
    is delivered to the i-th node of that source.  The sources are tensored
    in declared order and permuted into node-major order.  Each node labels
    its factors ``<node>1``, ``<node>2``, ... and takes them in descending
    order of its position within each source, ties in declaration order.
    Reading a bipartite source (X, Y) as X -> Y, a node so takes its
    incoming sources' factors before its outgoing ones, and each source of
    :func:`triangle_topology` feeds (X2, Y1).
    """
    if len(sources) != len(topology.sources):
        raise ValueError(f"need {len(topology.sources)} source states, got {len(sources)}")
    for k, (members, src) in enumerate(zip(topology.sources, sources)):
        if len(src.layout.dims) != len(members):
            raise ValueError(f"source {k} connects {len(members)} nodes but its state has "
                             f"{len(src.layout.dims)} factors")
    dims = [src.layout.dims for src in sources]
    layout = network_layout(topology, dims)
    placed = zip(topology.sources, factor_places(topology))
    wired = SubsystemLayout(sum(dims, ()),
                            tuple(layout.factors_of(x)[j] for s, p in placed for x, j in zip(s, p)))
    big = functools.reduce(np.kron, [src.matrix for src in sources])
    return DensityOperator._trusted(permute_subsystems(big, wired, layout.labels), layout)


def split_nodes(rho: DensityOperator, split: tuple[int, int]) -> DensityOperator:
    """Refine every single-factor node into two tensor factors ``<node>1`` and ``<node>2``.

    ``split`` is the dimension pair (d1, d2); d1 * d2 must be each node's dimension.
    """
    d1, d2 = split
    dims, labels, nodes = [], [], []
    for d, label, node in zip(rho.layout.dims, rho.layout.labels, rho.layout.nodes):
        if rho.layout.factors_of(node) != (label,):
            raise ValueError(f"node {node!r} is already split")
        if d1 * d2 != d:
            raise ValueError(f"split {d1}x{d2} does not match dimension {d} of node {node!r}")
        dims += [d1, d2]
        labels += [f"{node}1", f"{node}2"]
        nodes += [node, node]
    return rho.with_layout(SubsystemLayout(tuple(dims), tuple(labels), tuple(nodes)))


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Generic full-rank density matrix: normalized G G^dag with Gaussian G."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / m.trace().real


def random_source(d: int, rng: np.random.Generator, labels: Sequence[str] = ("1", "2")) -> DensityOperator:
    """Random bipartite d x d source state."""
    return DensityOperator(random_density(d * d, rng), SubsystemLayout((d, d), tuple(labels)))

