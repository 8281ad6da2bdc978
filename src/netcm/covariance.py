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
from typing import Callable, Mapping

import numpy as np

from . import ncmx
from .linalg import psd_margin, require_hermitian
from .states import DensityOperator, maximally_mixed
from .observables import ObservableSet


@dataclass(frozen=True)
class BlockCovarianceMatrix:
    """Real symmetric matrix, PSD by :func:`~netcm.linalg.psd_margin`, in node-indexed blocks."""

    matrix: np.ndarray
    block_sizes: tuple[int, ...]
    node_labels: tuple[str, ...]

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        sizes = tuple(self.block_sizes)
        if not all(isinstance(s, (int, np.integer)) and not isinstance(s, bool) and s >= 0
                   for s in sizes):
            raise ValueError(f"block sizes must be integers >= 0, got {list(sizes)}")
        sizes = tuple(int(s) for s in sizes)
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


def _cross_second(stack_x, stack_y, rho_xy) -> np.ndarray:
    """Re <X_m Y_n> on the pair marginal of two nodes, x's factors first."""
    dx, dy = stack_x.shape[1], stack_y.shape[1]
    rho4 = rho_xy.reshape(dx, dy, dx, dy)
    t = np.einsum("njl,klij->nki", stack_y, rho4)
    return np.einsum("mik,nki->mn", stack_x, t).real


def _node_stacks(obs: ObservableSet, layout) -> dict[str, tuple[tuple[str, ...], np.ndarray]]:
    """Each node's factors and its stack, after checking the node against the state's layout."""
    unknown = set(obs.node_order) - set(layout.node_order)
    if unknown:
        raise KeyError(f"observables on unknown nodes {sorted(unknown)}; "
                       f"state has {layout.node_order}")
    for x, s in obs.stacks.items():
        if s.shape[1] != layout.node_dim(x):
            raise ValueError(f"observables of node {x!r} have dimension {s.shape[1]}, "
                             f"the node has {layout.node_dim(x)}")
    return {x: (layout.factors_of(x), s) for x, s in obs.stacks.items()}


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
    ncmx.write_atomic(path.with_suffix(path.suffix + ".json"),
                      (json.dumps(sidecar, indent=2) + "\n").encode())


def load_cm(path) -> BlockCovarianceMatrix:
    path = Path(path)
    m = ncmx.read_matrix(path)
    if np.abs(m.imag).max(initial=0.0) > 1e-12:
        raise ValueError(f"{path}: covariance matrix has nonzero imaginary parts")
    side = path.with_suffix(path.suffix + ".json")
    meta = json.loads(side.read_text())
    if not isinstance(meta, dict):
        meta = {}
    labels, sizes = meta.get("node_labels"), meta.get("block_sizes")
    if not (isinstance(labels, list) and all(isinstance(x, str) for x in labels)
            and isinstance(sizes, list)):
        raise ValueError(f"{side}: the sidecar needs an object with a list of strings "
                         "'node_labels' and a list 'block_sizes'")
    return BlockCovarianceMatrix(m.real, tuple(sizes), tuple(labels))
