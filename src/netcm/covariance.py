"""Covariance matrices with node-block structure.

Entries follow the symmetrized convention Re<O_m O_n> - <O_m><O_n>; for
observables on different nodes the supports commute and this is the plain
second moment minus the product of means.  One kernel,
:func:`_stacked_moments`, reads a state for every CM and every criterion:
the means and raw second moments of per-node operator stacks, taken on the
marginals of each stack's factors and of each pair of stacks, never on the
global state, which keeps full product bases cheap.  Its diagonal blocks
stay complex for the triangle criteria; :func:`_centred` makes the CM, and
:func:`white_noise_moments` serves visibility scans from two moment sets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from . import ncmx
from .linalg import psd_margin, require_hermitian
from .states import DensityOperator, maximally_mixed
from .observables import Observable, ObservableSet, embed


@dataclass(frozen=True)
class BlockCovarianceMatrix:
    """Real symmetric matrix, PSD by :func:`~netcm.linalg.psd_margin`, in node-indexed blocks."""

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
        low, tol = psd_margin(m)
        if low < -tol:
            raise ValueError(f"covariance matrix not PSD: min eigenvalue {low:.3e} < -{tol:.1e}")
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


def _raw_moments(stack: np.ndarray, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Means <O_m> and unsymmetrized second moments <O_m O_n> of a stack on a matrix."""
    means = np.einsum("mij,ji->m", stack, rho).real
    return means, np.einsum("mik,nkj,ji->mn", stack, stack, rho)


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
    means, second = _raw_moments(stack, rho)
    return means, second - np.outer(means, means)


def _cross_second(stack_x, stack_y, rho_xy) -> np.ndarray:
    """Re <X_m Y_n> on the pair marginal of two nodes, x's factors first."""
    dx, dy = stack_x.shape[1], stack_y.shape[1]
    rho4 = rho_xy.reshape(dx, dy, dx, dy)
    t = np.einsum("njl,klij->nki", stack_y, rho4)
    return np.einsum("mik,nki->mn", stack_x, t).real


def _node_stacks(obs: ObservableSet, layout) -> dict[str, tuple[tuple[str, ...], np.ndarray]]:
    """Each node's factors and its observables as one stack of operators on the whole node."""
    unknown = set(obs.node_order) - set(layout.node_order)
    if unknown:
        raise KeyError(f"observables on unknown nodes {sorted(unknown)}; "
                       f"state has {layout.node_order}")
    stacks = {}
    for x in obs.node_order:
        dx, factors = layout.node_dim(x), layout.factors_of(x)
        # an observable on part of a node is padded to the whole node
        stacks[x] = (factors, np.stack([
            o.matrix if o.factor_support is None and o.matrix.shape[0] == dx
            else embed(o, layout.keep(factors)) for o in obs.node_observables(x)]))
    return stacks


def _block_cm(stacks: Mapping, full: np.ndarray) -> BlockCovarianceMatrix:
    return BlockCovarianceMatrix(full, tuple(len(s) for _, s in stacks.values()), tuple(stacks))


def covariance_matrix(obs: ObservableSet, rho: DensityOperator) -> BlockCovarianceMatrix:
    """Covariance matrix of local observables, with node-indexed block structure."""
    stacks = _node_stacks(obs, rho.layout)
    return _block_cm(stacks, _centred(*_stacked_moments(stacks, rho)))


def _stacked_moments(stacks: Mapping, rho: DensityOperator) -> tuple[np.ndarray, np.ndarray]:
    """Means and raw second moments <O_m O_n> of operator stacks, in mapping order.

    ``stacks[k]`` is ``(labels, stack)``: Hermitian operators on the
    contiguous factors ``labels`` of ``rho`` (whatever their node grouping),
    trusted as given.  Blocks come from the marginals on each stack's and
    each pair of stacks' factors.  A diagonal block keeps the complex
    <O_m O_n>, whose imaginary part holds same-factor commutators; a block
    between two stacks is Re <X_m Y_n>.  :func:`_centred` makes the CM.
    """
    items = list(stacks.values())
    offsets = np.concatenate([[0], np.cumsum([len(s) for _, s in items])])
    span = [slice(lo, hi) for lo, hi in zip(offsets, offsets[1:])]
    means = []
    second = np.zeros((offsets[-1], offsets[-1]), dtype=complex)
    for i, (fx, sx) in enumerate(items):
        a, second[span[i], span[i]] = _raw_moments(sx, rho.marginal_matrix(fx))
        means.append(a)
        for j in range(i):
            fy, sy = items[j]
            pair = rho.marginal_matrix(fy + fx)
            # the marginal keeps the state's factor order, which may put x first
            if rho.layout.index(fy[0]) < rho.layout.index(fx[0]):
                blk = _cross_second(sy, sx, pair)
            else:
                blk = _cross_second(sx, sy, pair).T
            second[span[j], span[i]] = blk
            second[span[i], span[j]] = blk.T
    return np.concatenate(means), second


def _centred(means: np.ndarray, second: np.ndarray) -> np.ndarray:
    """The symmetrized CM Re <O_m O_n> - <O_m><O_n> from :func:`_stacked_moments`."""
    full = second.real - np.outer(means, means)
    return 0.5 * (full + full.T)


def white_noise_moments(stacks: Mapping, rho: DensityOperator) -> Callable[[float], tuple]:
    """The moments (:func:`_stacked_moments`) of v*rho + (1 - v)*1/d as a function of v.

    Both are linear in the state, so those of rho and of 1/d are taken once
    and a visibility costs O(n^2), with no marginal taken again.
    """
    (a1, m1), (a0, m0) = (_stacked_moments(stacks, r) for r in (rho, maximally_mixed(rho.layout)))
    return lambda v: (v * a1 + (1.0 - v) * a0, v * m1 + (1.0 - v) * m0)


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
