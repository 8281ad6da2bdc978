"""Local observable sets and orthogonal operator bases.

An observable set is one stack of operators per node, as the moment kernel
reads it.  :func:`_full_product_stack` forms a node's product basis for both
the full product sets and the triangle criteria, which use the plain
arrays, with no observable set.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .linalg import HERMITICITY_TOL, SubsystemLayout, _as_matrix, require_hermitian

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class OrthogonalBasis:
    """Complete set of d^2 Hermitian operators with tr(G_a G_b) = d * delta_ab.

    The identity is always the first element.
    """

    elements: tuple[np.ndarray, ...]

    def __post_init__(self):
        elems = tuple(_as_matrix(g).copy() for g in self.elements)
        d = elems[0].shape[0]
        if len(elems) != d * d:
            raise ValueError(f"need d^2 = {d * d} elements, got {len(elems)}")
        for g in elems:
            require_hermitian(g)
            g.flags.writeable = False  # bases are shared (see orthogonal_basis)
        if np.abs(elems[0] - np.eye(d)).max() > HERMITICITY_TOL:
            raise ValueError("first basis element must be the identity")
        gram = np.array([[np.trace(a @ b).real for b in elems] for a in elems])
        if np.abs(gram - d * np.eye(d * d)).max() > 1e-10:
            raise ValueError("basis violates tr(G_a G_b) = d * delta_ab")
        object.__setattr__(self, "elements", elems)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, i):
        return self.elements[i]


@functools.lru_cache(maxsize=None)
def orthogonal_basis(d: int) -> OrthogonalBasis:
    """Identity plus generalized Gell-Mann matrices rescaled to tr(G G') = d delta.

    Ordering: identity, then for each index pair j < k (lexicographic) the
    symmetric and antisymmetric elements, then the diagonal family.  For
    d = 2 this reproduces the Pauli basis.  Cached: every call with the same
    ``d`` returns the same (read-only) basis.
    """
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    scale = np.sqrt(d / 2.0)
    elems = [np.eye(d, dtype=complex)]
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0
            asym = np.zeros((d, d), dtype=complex)
            asym[j, k] = -1j
            asym[k, j] = 1j
            elems += [scale * sym, scale * asym]
    for l in range(1, d):
        diag = np.zeros(d, dtype=complex)
        diag[:l] = 1.0
        diag[l] = -l
        elems.append(scale * np.sqrt(2.0 / (l * (l + 1))) * np.diag(diag))
    return OrthogonalBasis(tuple(elems))


@dataclass(frozen=True)
class ObservableSet:
    """Local observables: node label -> stack ``(m, d, d)`` of operators on the whole node.

    Nodes keep the mapping's order.  Checked once, here: the mapping is
    non-empty and each stack is non-empty and passes
    :func:`~netcm.linalg.require_hermitian`, whose tolerance scales with the
    stack's largest entry.  The stacks are kept symmetrized and read-only.
    """

    stacks: Mapping[str, np.ndarray]

    def __post_init__(self):
        if not self.stacks:
            raise ValueError("observable set must not be empty")
        stacks = {}
        for x, s in self.stacks.items():
            s = np.asarray(s, dtype=complex)
            if s.ndim != 3 or not len(s):
                raise ValueError(f"node {x!r} needs a non-empty stack of shape (m, d, d), "
                                 f"got {s.shape}")
            stacks[x] = require_hermitian(s)
            stacks[x].flags.writeable = False
        object.__setattr__(self, "stacks", MappingProxyType(stacks))

    @property
    def node_order(self) -> tuple[str, ...]:
        return tuple(self.stacks)

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.stacks.values())


def product_stack(stacks: Sequence[np.ndarray]) -> np.ndarray:
    """All Kronecker products of one matrix per stack, in lexicographic order.

    Entry (a, b, ...) of the result is kron(s_1[a], s_2[b], ...), the first
    stack varying slowest, bitwise as chained ``np.kron`` calls form it.
    """
    out = stacks[0]
    for s in stacks[1:]:
        (n, d), (m, e) = out.shape[:2], s.shape[:2]
        out = (out[:, None, :, None, :, None] * s[None, :, None, :, None, :]).reshape(
            n * m, d * e, d * e)
    return out


def _full_product_stack(layout: SubsystemLayout, node: str) -> np.ndarray:
    """A node's full product basis: the :func:`product_stack` of its factors'
    :func:`orthogonal_basis` elements, the node identity first."""
    return product_stack([np.stack(list(orthogonal_basis(layout.dims[layout.index(l)])))
                          for l in layout.factors_of(node)])


def full_product_set(layout: SubsystemLayout) -> ObservableSet:
    """Complete product observable set for every node of a layout."""
    return ObservableSet({x: _full_product_stack(layout, x) for x in layout.node_order})


def _require_qubit_nodes(layout: SubsystemLayout):
    for node in layout.node_order:
        if layout.node_dim(node) != 2:
            raise ValueError(f"node {node!r} has dimension {layout.node_dim(node)}, need qubits")


def pauli_z_set(layout: SubsystemLayout) -> ObservableSet:
    """One sigma_z per qubit node."""
    _require_qubit_nodes(layout)
    return ObservableSet({x: PAULI_Z[None] for x in layout.node_order})


def w_set(layout: SubsystemLayout) -> ObservableSet:
    """sigma_x and sigma_y on every qubit node."""
    _require_qubit_nodes(layout)
    return ObservableSet({x: np.stack([PAULI_X, PAULI_Y]) for x in layout.node_order})


def cluster_set(layout: SubsystemLayout) -> ObservableSet:
    """The four-qubit set {sigma_x, sigma_z, sigma_z, sigma_x} along the chain."""
    _require_qubit_nodes(layout)
    nodes = layout.node_order
    if len(nodes) != 4:
        raise ValueError(f"cluster set needs four nodes, layout has {len(nodes)}")
    mats = (PAULI_X, PAULI_Z, PAULI_Z, PAULI_X)
    return ObservableSet({x: m[None] for m, x in zip(mats, nodes)})


NAMED_SETS = {
    "pauli-z": pauli_z_set,
    "w-set": w_set,
    "full-product": full_product_set,
    "cluster-set": cluster_set,
}


def named_observable_set(name: str, layout: SubsystemLayout) -> ObservableSet:
    """Build one of the named sets: pauli-z, w-set, full-product, cluster-set."""
    try:
        builder = NAMED_SETS[name]
    except KeyError:
        raise ValueError(f"unknown observable set {name!r}; known: {sorted(NAMED_SETS)}") from None
    return builder(layout)
