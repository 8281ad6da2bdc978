"""Dense complex matrix kernel: tensor operations, spectral routines, PSD machinery.

Everything operates on plain complex numpy arrays.  Matrices fed to the
spectral routines must be finite and Hermitian within
``HERMITICITY_TOL * max(1, max|m|)``: the tolerance scales with the input,
since rounding grows with the entries.  They are symmetrized before
factorization so results are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

HERMITICITY_TOL = 1e-10
PSD_BASE_TOL = 1e-8


def _as_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {m.shape}")
    return m


def require_hermitian(m) -> np.ndarray:
    """Validate a Hermitian matrix, or a stack ``(..., n, n)`` of them; return it symmetrized.

    The input's dtype is kept.  Every entry must be finite, and the matrix
    Hermitian within ``HERMITICITY_TOL * max(1, max|m|)``.
    """
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    mh = np.swapaxes(m, -1, -2).conj()
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, rejected below
        dev = float(np.abs(m - mh).max()) if m.size else 0.0
    if not dev <= HERMITICITY_TOL:  # the scaled tolerance is never smaller, so only then compute it
        if not np.isfinite(dev):  # any NaN or infinite entry makes dev NaN or infinite
            raise ValueError("matrix has non-finite (NaN or infinite) entries")
        tol = HERMITICITY_TOL * max(1.0, float(np.abs(m).max()))
        if dev > tol:
            raise ValueError(f"matrix is not Hermitian (symmetric): "
                             f"max|m - m^dag| = {dev:.3e} > {tol:.1e}")
    return 0.5 * (m + mh)


def kron(a, b) -> np.ndarray:
    """Kronecker product; dimensions multiply."""
    return np.kron(_as_matrix(a), _as_matrix(b))


@dataclass(frozen=True)
class SubsystemLayout:
    """Tensor factorization of a global Hilbert space.

    ``dims``   local dimension of each factor, in tensor order.
    ``labels`` unique name per factor.
    ``nodes``  node label per factor; factors of one node must be contiguous.
               Defaults to ``labels`` (every factor its own node).
    """

    dims: tuple[int, ...]
    labels: tuple[str, ...]
    nodes: tuple[str, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "labels", tuple(self.labels))
        if not self.nodes:
            object.__setattr__(self, "nodes", self.labels)
        else:
            object.__setattr__(self, "nodes", tuple(self.nodes))
        if len(self.dims) != len(self.labels) or len(self.dims) != len(self.nodes):
            raise ValueError("dims, labels and nodes must have equal length")
        if any(d < 1 for d in self.dims):
            raise ValueError("factor dimensions must be positive")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"factor labels must be unique: {self.labels}")
        seen = {}
        for i, x in enumerate(self.nodes):
            if x in seen and seen[x] != i - 1:
                raise ValueError(f"factors of node {x!r} are not contiguous")
            seen[x] = i

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    @property
    def node_order(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(self.nodes))

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown factor label {label!r}; have {self.labels}") from None

    def factors_of(self, node: str) -> tuple[str, ...]:
        out = tuple(l for l, x in zip(self.labels, self.nodes) if x == node)
        if not out:
            raise KeyError(f"unknown node {node!r}; have {self.node_order}")
        return out

    def node_dim(self, node: str) -> int:
        return int(np.prod([self.dims[self.index(l)] for l in self.factors_of(node)]))

    def reorder(self, new_order: Sequence[str]) -> "SubsystemLayout":
        if sorted(new_order) != sorted(self.labels):
            raise ValueError(f"{tuple(new_order)} is not a permutation of {self.labels}")
        idx = [self.index(l) for l in new_order]
        return SubsystemLayout(
            tuple(self.dims[i] for i in idx),
            tuple(self.labels[i] for i in idx),
            tuple(self.nodes[i] for i in idx),
        )


def partial_trace(rho, layout: SubsystemLayout, keep: Iterable[str]) -> np.ndarray:
    """Reduced operator on the kept factors, factor order preserved.

    Tracing over every factor yields the 1x1 matrix ``[tr(rho)]``.  Only the
    entries on the traced factors' diagonals are read: one diagonal view
    of them, whose traced axes are summed last factor first, as successive
    single-factor traces would sum them.
    """
    rho = _as_matrix(rho)
    if rho.shape[0] != rho.shape[1] or rho.shape[0] != layout.dim:
        raise ValueError(f"operator shape {rho.shape} does not match layout dimension {layout.dim}")
    keep = set(keep)
    unknown = keep - set(layout.labels)
    if unknown:
        raise KeyError(f"unknown factor labels {sorted(unknown)}; have {layout.labels}")
    n = len(layout.dims)
    kept = [i for i, l in enumerate(layout.labels) if l in keep]
    traced = [i for i in range(n) if i not in kept]
    if not kept and n:  # np.trace of the first factor's marginal: summed as successive traces sum
        return np.trace(partial_trace(rho, layout, layout.labels[:1])).reshape(1, 1)
    # einsum axis ids: row index i, column index n + i, shared by the traced factors
    cols = [i if i in traced else n + i for i in range(n)]
    tensor = np.einsum(rho.reshape(layout.dims + layout.dims), list(range(n)) + cols,
                       kept + [n + i for i in kept] + traced)
    for axis in range(tensor.ndim - 1, 2 * len(kept) - 1, -1):
        tensor = tensor.sum(axis=axis)
    d = int(np.prod([layout.dims[i] for i in kept])) if kept else 1
    return tensor.reshape(d, d)


def permute_subsystems(rho, layout: SubsystemLayout, new_order: Sequence[str]) -> np.ndarray:
    """State re-expressed in the reordered tensor factorization."""
    rho = _as_matrix(rho)
    if rho.shape[0] != layout.dim:
        raise ValueError(f"operator shape {rho.shape} does not match layout dimension {layout.dim}")
    if sorted(new_order) != sorted(layout.labels):
        raise ValueError(f"{tuple(new_order)} is not a permutation of {layout.labels}")
    n = len(layout.dims)
    perm = [layout.index(l) for l in new_order]
    tensor = rho.reshape(layout.dims + layout.dims)
    tensor = tensor.transpose(perm + [p + n for p in perm])
    return tensor.reshape(layout.dim, layout.dim)


def eigvals_hermitian(m) -> np.ndarray:
    """Real spectrum of a Hermitian matrix, ascending."""
    return np.linalg.eigvalsh(require_hermitian(_as_matrix(m)))


def trace_norm(m) -> float:
    """Sum of singular values."""
    m = _as_matrix(m)
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False).sum())


def psd_margin(m) -> tuple[float, float]:
    """Minimal eigenvalue of a Hermitian matrix and its PSD tolerance 1e-8 * (1 + ||m||_2).

    The matrix counts as PSD iff the first is >= minus the second.  The
    tolerance scales with the spectral norm, read off the same eigenvalues,
    since rounding grows with the entries.
    """
    vals = eigvals_hermitian(m)
    scale = float(max(abs(vals[0]), abs(vals[-1]))) if vals.size else 0.0
    return float(vals[0]) if vals.size else 0.0, PSD_BASE_TOL * (1.0 + scale)


def psd_project(m) -> np.ndarray:
    """Nearest PSD matrix in Frobenius norm: eigenvalues clipped at zero.

    Real input stays real and complex input stays complex.  A stack of
    shape ``(..., n, n)`` is projected matrix by matrix with one batched
    ``eigh``; every matrix must pass :func:`require_hermitian`.
    """
    m = np.asarray(m)
    if not np.iscomplexobj(m):
        m = m.astype(float, copy=False)
    vals, vecs = np.linalg.eigh(require_hermitian(m))
    clipped = np.clip(vals, 0.0, None)
    return (vecs * clipped[..., None, :]) @ np.swapaxes(vecs, -1, -2).conj()
