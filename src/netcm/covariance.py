"""Covariance matrices with node-block structure.

Entries follow the symmetrized convention Re<O_m O_n> - <O_m><O_n>; for
observables on different nodes the supports commute and this is the plain
second moment minus the product of means.  Blocks are computed on node and
node-pair marginals, never on the global state, which keeps full product
bases cheap.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import ncmx
from .linalg import partial_trace, require_hermitian
from .states import DensityOperator
from .observables import Observable, ObservableSet, embed

PSD_TOL = 1e-8


@dataclass(frozen=True)
class BlockCovarianceMatrix:
    """Real symmetric PSD matrix partitioned into node-indexed blocks."""

    matrix: np.ndarray
    block_sizes: tuple[int, ...]
    node_labels: tuple[str, ...]

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        sizes = tuple(int(s) for s in self.block_sizes)
        labels = tuple(self.node_labels)
        if len(sizes) != len(labels):
            raise ValueError("need one block size per node label")
        if len(set(labels)) != len(labels):
            raise ValueError(f"node labels must be unique: {labels}")
        if m.shape != (sum(sizes), sum(sizes)):
            raise ValueError(f"matrix shape {m.shape} does not match block sizes {sizes}")
        m = require_hermitian(m)
        low = float(np.linalg.eigvalsh(m)[0]) if m.size else 0.0
        if low < -PSD_TOL:
            raise ValueError(f"covariance matrix not PSD: min eigenvalue {low:.3e}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "block_sizes", sizes)
        object.__setattr__(self, "node_labels", labels)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def node_slice(self, node: str) -> slice:
        try:
            i = self.node_labels.index(node)
        except ValueError:
            raise KeyError(f"unknown node {node!r}; have {self.node_labels}") from None
        start = sum(self.block_sizes[:i])
        return slice(start, start + self.block_sizes[i])

    def block(self, x: str, y: str) -> np.ndarray:
        """Sub-block for a node pair; block(x, x) is the marginal CM."""
        return self.matrix[self.node_slice(x), self.node_slice(y)]

    def trace(self) -> float:
        return float(np.trace(self.matrix))


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
    stack = np.stack([o.matrix if isinstance(o, Observable) else np.asarray(o) for o in observables])
    if stack.shape[1:] != rho.shape:
        raise ValueError("observable dimensions do not match the state")
    means = np.einsum("mij,ji->m", stack, rho).real
    second = np.einsum("mik,nkj,ji->mn", stack, stack, rho)
    return means, second - np.outer(means, means)


def _cross_block(stack_x, stack_y, rho_xy, means_x, means_y) -> np.ndarray:
    dx, dy = stack_x.shape[1], stack_y.shape[1]
    rho4 = rho_xy.reshape(dx, dy, dx, dy)
    t = np.einsum("njl,klij->nki", stack_y, rho4)
    second = np.einsum("mik,nki->mn", stack_x, t)
    return second.real - np.outer(means_x, means_y)


def covariance_matrix(obs: ObservableSet, rho: DensityOperator) -> BlockCovarianceMatrix:
    """Covariance matrix of local observables, with node-indexed block structure."""
    nodes = obs.node_order
    layout = rho.layout
    unknown = set(nodes) - set(layout.node_order)
    if unknown:
        raise KeyError(f"observables on unknown nodes {sorted(unknown)}; "
                       f"state has {layout.node_order}")
    factors = {x: layout.factors_of(x) for x in nodes}
    stacks, marginals, means = {}, {}, {}
    for x in nodes:
        group = obs.node_observables(x)
        dx = layout.node_dim(x)
        if any(o.matrix.shape[0] != dx or o.factor_support is not None for o in group):
            mats = []
            node_layout = layout.keep(factors[x])
            for o in group:
                if o.factor_support is None and o.matrix.shape[0] == dx:
                    mats.append(o.matrix)
                else:
                    mats.append(embed(o, node_layout))
            stacks[x] = np.stack(mats)
        else:
            stacks[x] = np.stack([o.matrix for o in group])
        marginals[x] = partial_trace(rho.matrix, layout, factors[x])
    sizes = [stacks[x].shape[0] for x in nodes]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    full = np.zeros((offsets[-1], offsets[-1]))
    for i, x in enumerate(nodes):
        means[x], blk = moments(stacks[x], marginals[x])
        full[offsets[i]:offsets[i + 1], offsets[i]:offsets[i + 1]] = blk.real
    for i, x in enumerate(nodes):
        for j in range(i + 1, len(nodes)):
            y = nodes[j]
            pair = partial_trace(rho.matrix, layout, factors[x] + factors[y])
            # the marginal keeps the state's factor order, which may put y first
            if layout.index(factors[x][0]) < layout.index(factors[y][0]):
                blk = _cross_block(stacks[x], stacks[y], pair, means[x], means[y])
            else:
                blk = _cross_block(stacks[y], stacks[x], pair, means[y], means[x]).T
            full[offsets[i]:offsets[i + 1], offsets[j]:offsets[j + 1]] = blk
            full[offsets[j]:offsets[j + 1], offsets[i]:offsets[i + 1]] = blk.T
    full = 0.5 * (full + full.T)
    return BlockCovarianceMatrix(full, tuple(sizes), nodes)


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
    for obs, marginal in factors:
        a, gamma = moments(obs, marginal)
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


def save_cm(gamma: BlockCovarianceMatrix, path) -> None:
    """Write the CM as NCMX (zero imaginary parts) plus a JSON layout sidecar."""
    path = Path(path)
    ncmx.write_matrix(path, gamma.matrix.astype(complex))
    sidecar = {
        "format": "netcm-cm",
        "version": 1,
        "node_labels": list(gamma.node_labels),
        "block_sizes": list(gamma.block_sizes),
    }
    side = path.with_suffix(path.suffix + ".json")
    tmp = side.with_name(side.name + ".tmp")
    tmp.write_text(json.dumps(sidecar, indent=2) + "\n")
    tmp.replace(side)


def load_cm(path) -> BlockCovarianceMatrix:
    path = Path(path)
    m = ncmx.read_matrix(path)
    if np.abs(m.imag).max(initial=0.0) > 1e-12:
        raise ValueError(f"{path}: covariance matrix has nonzero imaginary parts")
    meta = json.loads(path.with_suffix(path.suffix + ".json").read_text())
    return BlockCovarianceMatrix(m.real, tuple(meta["block_sizes"]), tuple(meta["node_labels"]))
