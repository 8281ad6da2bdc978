"""Local observable sets, orthogonal operator bases, and reduced observables.

:func:`product_stack` forms the product bases of both the full product sets
and the triangle criteria, which use the plain arrays, with no observables.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import HERMITICITY_TOL, SubsystemLayout, _as_matrix, kron, require_hermitian

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

    def bloch_vector(self, rho) -> np.ndarray:
        """Expansion coefficients tr(G_a rho); real for Hermitian rho."""
        rho = np.asarray(rho)
        return np.array([np.trace(g @ rho).real for g in self.elements])


def pauli_basis() -> OrthogonalBasis:
    """Qubit basis {1, sigma_x, sigma_y, sigma_z}; tr(G G') = 2 delta."""
    return OrthogonalBasis((np.eye(2, dtype=complex), PAULI_X, PAULI_Y, PAULI_Z))


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
class Observable:
    """Hermitian operator acting on one node (optionally on named factors only)."""

    matrix: np.ndarray
    node: str
    factor_support: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "matrix", require_hermitian(_as_matrix(self.matrix)))
        if self.factor_support is not None:
            object.__setattr__(self, "factor_support", tuple(self.factor_support))


@dataclass(frozen=True)
class ObservableSet:
    """Ordered observables grouped contiguously by node."""

    observables: tuple[Observable, ...]

    def __post_init__(self):
        obs = tuple(self.observables)
        if not obs:
            raise ValueError("observable set must not be empty")
        seen = {}
        for i, o in enumerate(obs):
            if o.node in seen and seen[o.node] != i - 1:
                raise ValueError(f"observables of node {o.node!r} are not contiguous")
            seen[o.node] = i
        object.__setattr__(self, "observables", obs)

    @property
    def node_order(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(o.node for o in self.observables))

    @property
    def block_sizes(self) -> tuple[int, ...]:
        counts = {}
        for o in self.observables:
            counts[o.node] = counts.get(o.node, 0) + 1
        return tuple(counts[x] for x in self.node_order)

    def node_observables(self, node: str) -> list[Observable]:
        out = [o for o in self.observables if o.node == node]
        if not out:
            raise KeyError(f"no observables on node {node!r}")
        return out

    def __len__(self) -> int:
        return len(self.observables)

    def __iter__(self):
        return iter(self.observables)


def embed(obs: Observable, layout: SubsystemLayout) -> np.ndarray:
    """Identity-padded global operator for an observable on one node."""
    support = obs.factor_support or layout.factors_of(obs.node)
    positions = sorted(layout.index(l) for l in support)
    if positions != list(range(positions[0], positions[0] + len(positions))):
        raise ValueError(f"factor support {support} is not contiguous in layout {layout.labels}")
    d_sup = int(np.prod([layout.dims[i] for i in positions]))
    if obs.matrix.shape[0] != d_sup:
        raise ValueError(
            f"observable dimension {obs.matrix.shape[0]} does not match support dimension {d_sup}"
        )
    before = int(np.prod(layout.dims[: positions[0]])) if positions[0] else 1
    after_start = positions[-1] + 1
    after = int(np.prod(layout.dims[after_start:])) if after_start < len(layout.dims) else 1
    return kron(np.eye(before), kron(obs.matrix, np.eye(after)))


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


def product_observable_set(bases: Sequence[OrthogonalBasis], node: str) -> ObservableSet:
    """All tensor products of per-factor basis elements, lexicographic order.

    The identity-first ordering of each basis puts the node identity first.
    """
    stack = product_stack([np.stack(list(b)) for b in bases])
    return ObservableSet(tuple(Observable(m, node) for m in stack))


def full_product_set(layout: SubsystemLayout) -> ObservableSet:
    """Complete product observable set for every node of a layout.

    Each factor gets the :func:`orthogonal_basis` of its dimension.
    """
    return ObservableSet(tuple(
        o for node in layout.node_order
        for o in product_observable_set(
            [orthogonal_basis(layout.dims[layout.index(l)]) for l in layout.factors_of(node)],
            node)))


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


def orthogonal_from_unitary(u, basis: OrthogonalBasis) -> np.ndarray:
    """Real matrix O with U^dag G_a U = sum_b O_ab G_b; O is orthogonal."""
    u = np.asarray(u, dtype=complex)
    d = basis.dim
    if u.shape != (d, d):
        raise ValueError(f"unitary shape {u.shape} does not match basis dimension {d}")
    dev = float(np.abs(u.conj().T @ u - np.eye(d)).max())
    if dev > 1e-9:
        raise ValueError(f"input is not unitary: max|U^dag U - 1| = {dev:.3e}")
    conj = [u.conj().T @ g @ u for g in basis]
    o = np.array([[np.trace(cg @ g).real / d for g in basis] for cg in conj])
    return o


def _require_qubit_nodes(layout: SubsystemLayout):
    for node in layout.node_order:
        if layout.node_dim(node) != 2:
            raise ValueError(f"node {node!r} has dimension {layout.node_dim(node)}, need qubits")


def pauli_z_set(layout: SubsystemLayout) -> ObservableSet:
    """One sigma_z per qubit node."""
    _require_qubit_nodes(layout)
    return ObservableSet(tuple(Observable(PAULI_Z, x) for x in layout.node_order))


def w_set(layout: SubsystemLayout) -> ObservableSet:
    """sigma_x and sigma_y on every qubit node."""
    _require_qubit_nodes(layout)
    return ObservableSet(
        tuple(Observable(p, x) for x in layout.node_order for p in (PAULI_X, PAULI_Y))
    )


def cluster_set(layout: SubsystemLayout) -> ObservableSet:
    """The four-qubit set {sigma_x, sigma_z, sigma_z, sigma_x} along the chain."""
    _require_qubit_nodes(layout)
    nodes = layout.node_order
    if len(nodes) != 4:
        raise ValueError(f"cluster set needs four nodes, layout has {len(nodes)}")
    mats = (PAULI_X, PAULI_Z, PAULI_Z, PAULI_X)
    return ObservableSet(tuple(Observable(m, x) for m, x in zip(mats, nodes)))


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
