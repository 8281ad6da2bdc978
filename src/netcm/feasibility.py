"""Numerical feasibility test for the source block decomposition of a CM.

Whether a covariance matrix splits into PSD summands, one per source and one
per node no source feeds (``FeasibilityProblem.summands``; off-diagonal
blocks fixed, diagonal blocks free but summing to the CM's diagonal blocks),
is a convex feasibility problem.  It is solved here with Dykstra's
alternating projections between the product of PSD cones and the affine
constraint set A, written as a fixed-point map on w = x + p: y = P+(w),
x = P_A(y), f = x - y, g(w) = w + f (Dykstra's correction for A lies in
lin(A)^perp, which P_A ignores, so A needs none).  Type-II Anderson
acceleration (Walker & Ni 2011; Higham & Strabic 2016) replaces g(w) by
w + f - (dW + dF) c, symmetrised, where dW and dF hold the last
ANDERSON_DEPTH differences of w and of f, and c minimises
||f - dF c||^2 + ANDERSON_REG ||f||^2 ||c||^2.  Weighting the Tikhonov term
by ||f||^2 turns the extrapolation off when f stagnates at a nonzero gap, as
it does for an infeasible CM, so there the pair a certificate is read from
follows plain Dykstra.  Iteration 1 is a plain step from P+(a0), bitwise
that of plain Dykstra, so a certificate found there is plain Dykstra's.  A
PSD iterate within the target tol * max|Gamma_ij| of the affine
constraints, relative to the CM's own scale, is returned as an explicit witness.
The target scales with the CM at every size, so a verdict does not depend
on the CM's units beyond rounding.

Infeasibility is proved by a separating hyperplane read off the gap between
the two iterates.  Let Y be the PSD iterate minus the affine iterate,
projected onto lin(A)^perp (symmetrized, and each node's free diagonal
blocks replaced by their mean over the summands that carry the node), let
eps = max_k max(-lambda_min(Y_k), 0), and let a0 be any point of A.  Every
feasible tuple T lies in A, so <Y, T> = <Y, a0>, and has PSD summands with
sum_k tr T_k = tr Gamma, so <Y, T> >= -eps tr Gamma.  Hence

    <Y, a0> < -eps tr Gamma - delta

proves that no decomposition exists.  The margin delta = CERT_RTOL ||Y|| ||a0||
(Frobenius norms) covers the rounding of the inner product, of the
eigenvalues and of a0 itself.  The check runs at iterations 1, 2, 4, 8, ...
and at the cap, so converging solves pay for O(log iterations) checks; a
certificate that passes it is confirmed by ``verify_certificate`` before the
solver stops with status "infeasible", so that status always carries a
proof; a run that reaches the cap without one or a witness is "inconclusive".

Summands are stored compactly: summand k lives on the rows and columns of
its nodes only, padded with zeros to a common size m (PSD projection keeps
a zero border zero), and all summands form one real (K, m, m) stack, so an
iteration is one batched ``eigh`` plus array operations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Sequence

import numpy as np

from . import ncmx
from .covariance import BlockCovarianceMatrix
from .linalg import psd_project
from .topology import NetworkTopology

DEFAULT_TOL = 1e-7
DEFAULT_MAX_ITER = 50000
# certificate margin delta = CERT_RTOL * ||Y|| * ||a0||.  With unit roundoff
# u = 1.1e-16, rounding moves <Y, a0> by at most about K m^2 u ||Y|| ||a0||,
# the eigenvalues by about m u ||Y|| (times tr Gamma <= sqrt(K m) ||a0||) and
# a0 off A by about u ||a0||: all below 1e-9 ||Y|| ||a0|| for stacks of up to
# 10^6 entries, far beyond what a dense solver handles
CERT_RTOL = 1e-9
# Anderson acceleration (module docstring): (dW, dF) pairs kept, Tikhonov weight per ||f||^2
ANDERSON_DEPTH = 5
ANDERSON_REG = 1e-1
# the "note" of feasibility reports and witness manifests
CERTIFICATE_NOTE = "the residual is not a certificate; an infeasible verdict carries a verified one"


@dataclass(frozen=True)
class FeasibilityProblem:
    """A CM, an NCDS topology, and the summands the CM must split into.

    ``summands`` lists the nodes each summand covers: the topology's sources
    in order, then ``(x,)`` for each node ``x`` that no source feeds.  A
    summand carries the CM's off-diagonal blocks between its nodes, free
    PSD diagonal blocks on them, and zeros elsewhere; the diagonal blocks of
    the summands covering a node sum to the CM's.  A one-node summand holds
    its node's whole diagonal block, and a block-diagonal PSD remainder
    folds into any summand covering its node, so no separate slack summand
    is needed.
    """

    gamma: BlockCovarianceMatrix
    topology: NetworkTopology
    summands: tuple[tuple[str, ...], ...] = field(init=False)

    def __post_init__(self):
        if not self.topology.is_ncds():
            raise ValueError("feasibility decomposition requires an NCDS topology")
        if set(self.gamma.node_labels) != set(self.topology.nodes):
            raise ValueError(
                f"CM nodes {self.gamma.node_labels} do not match topology nodes {self.topology.nodes}"
            )
        fed = {x for s in self.topology.sources for x in s}
        object.__setattr__(self, "summands", self.topology.sources
                           + tuple((x,) for x in self.topology.nodes if x not in fed))


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """A checkable proof that no source decomposition exists.

    Either ``pair``, two nodes that no summand carries whose CM block is
    nonzero (largest entry ``block_max_abs``), or ``separator``, one full
    n x n matrix per summand defining a separating hyperplane (see the
    module docstring) together with the solver's ``epsilon``,
    ``inner_product`` and ``delta`` and the ``iteration`` it was found at.
    ``verify_certificate`` reads only the pair or the separator.
    """

    separator: tuple[np.ndarray, ...] = field(default=(), repr=False)
    pair: tuple[str, str] | None = None
    block_max_abs: float = 0.0
    epsilon: float = 0.0
    inner_product: float = 0.0
    delta: float = 0.0
    iteration: int = 0

    def to_dict(self) -> dict:
        if self.pair is not None:
            return {"kind": "uncovered-pair", "pair": list(self.pair),
                    "block_max_abs": self.block_max_abs, "iteration": self.iteration}
        return {"kind": "separating-hyperplane", "epsilon": self.epsilon,
                "inner_product": self.inner_product, "delta": self.delta,
                "iteration": self.iteration}


@dataclass(frozen=True)
class FeasibilityOutcome:
    """Solver verdict: status, witness (when feasible), certificate (when
    infeasible), residual trace."""

    status: str  # "feasible" | "infeasible" | "inconclusive"
    witness: tuple[np.ndarray, ...] | None
    residual: float
    iterations: int
    residual_history: np.ndarray = field(repr=False, default_factory=lambda: np.empty(0))
    certificate: InfeasibilityCertificate | None = None

    def to_dict(self) -> dict:
        out = {
            "status": self.status,
            "residual": self.residual,
            "iterations": self.iterations,
        }
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_dict()
        return out


def _scale(gamma: BlockCovarianceMatrix) -> float:
    """max|Gamma_ij|: the unit of every residual target.

    It is 0 for the all-zero CM, whose one decomposition, zero summands,
    ``solve`` reaches exactly at iteration 1 (a PSD projection of zeros is
    zero) and ``verify_witness`` accepts at the target 0.
    """
    return float(np.abs(gamma.matrix).max(initial=0.0))


def _node_slices(gamma: BlockCovarianceMatrix) -> dict[str, slice]:
    return {x: gamma.node_slice(x) for x in gamma.node_labels}


class _Stack:
    """Compact stacked layout of the summands of one problem.

    ``index[k]`` lists the CM rows of summand k's nodes; compact row i of
    summand k is CM row ``index[k][i]`` and rows past ``len(index[k])`` are
    zero padding.  Entries where ``fixed`` holds, off-diagonal blocks and
    padding, are pinned to ``target``; ``free`` lists the others, the
    diagonal blocks, as flat indices, ``group`` names the (node, row,
    column) each one belongs to, and the entries of one group must sum to
    ``diag[group]`` over the ``counts`` summands that carry the node.
    """

    def __init__(self, problem: FeasibilityProblem):
        gamma = problem.gamma
        sizes = np.asarray(gamma.block_sizes)
        node = np.repeat(np.arange(len(sizes)), sizes)  # node index of each CM row
        first = np.cumsum(sizes) - sizes                # first CM row of each node
        first_diag = np.cumsum(sizes**2) - sizes**2     # first entry of each node in diag
        self.index = [np.flatnonzero([gamma.node_labels[j] in s for j in node])
                      for s in problem.summands]
        k_count, m = len(self.index), max(len(ix) for ix in self.index)
        self.fixed = np.ones((k_count, m, m), dtype=bool)
        self.target = np.zeros((k_count, m, m))
        free, group = [], []
        for k, ix in enumerate(self.index):
            same = node[ix][:, None] == node[ix][None, :]  # the diagonal blocks
            self.fixed[k, :len(ix), :len(ix)] = ~same
            self.target[k, :len(ix), :len(ix)] = np.where(same, 0.0, gamma.matrix[np.ix_(ix, ix)])
            i, j = np.nonzero(same)
            free.append((k * m + i) * m + j)
            x = node[ix[i]]
            group.append(first_diag[x] + (ix[i] - first[x]) * sizes[x] + ix[j] - first[x])
        # groups follow diag's order and, within a group, k rises, so the sums
        # of _group_sums add the carriers in summand order
        self.free, self.group = np.concatenate(free), np.concatenate(group)
        self.diag = np.concatenate([gamma.block(x, x).ravel() for x in gamma.node_labels])
        self.counts = np.bincount(self.group, minlength=self.diag.size).astype(float)
        self.shape = (k_count, m, m)
        self.n = gamma.dim

    def _group_sums(self, z: np.ndarray) -> np.ndarray:
        return np.bincount(self.group, weights=z.reshape(-1)[self.free], minlength=self.diag.size)

    def start(self) -> np.ndarray:
        """The point of A that gives each carrier an equal share of every diagonal block."""
        a0 = self.target.copy()
        a0.reshape(-1)[self.free] = (self.diag / self.counts)[self.group]
        return a0

    def affine(self, z: np.ndarray) -> np.ndarray:
        """Euclidean projection onto A: pin the fixed entries and spread each
        node's diagonal deficit equally over its carriers."""
        out = np.where(self.fixed, self.target, z)
        share = (self.diag - self._group_sums(out)) / self.counts
        out.reshape(-1)[self.free] += share[self.group]
        return out

    def violation(self, y: np.ndarray) -> float:
        """Max-abs violation of the affine constraints."""
        pinned = float(np.abs(np.where(self.fixed, y - self.target, 0.0)).max(initial=0.0))
        return max(pinned, float(np.abs(self._group_sums(y) - self.diag).max(initial=0.0)))

    def separator(self, z: np.ndarray) -> np.ndarray:
        """Projection onto lin(A)^perp: symmetrize, then replace free entries by
        their mean over the node's carriers."""
        y = 0.5 * (z + np.swapaxes(z, 1, 2))
        y.reshape(-1)[self.free] = (self._group_sums(y) / self.counts)[self.group]
        return y

    def to_full(self, z: np.ndarray) -> tuple[np.ndarray, ...]:
        out = []
        for zk, ix in zip(z, self.index):
            t = np.zeros((self.n, self.n))
            t[np.ix_(ix, ix)] = zk[:len(ix), :len(ix)]
            out.append(t)
        return tuple(out)


def _uncovered_pair(problem: FeasibilityProblem) -> tuple[tuple[str, str] | None, float]:
    """The node pair no summand carries with the largest CM block, and that block's max-abs entry."""
    gamma = problem.gamma
    nodes = gamma.node_labels
    worst, pair = 0.0, None
    for i, x in enumerate(nodes):
        for y in nodes[i + 1:]:
            if not any(x in s and y in s for s in problem.summands):
                size = float(np.abs(gamma.block(x, y)).max(initial=0.0))
                if pair is None or size > worst:
                    worst, pair = size, (x, y)
    return pair, worst


def _hyperplane_test(y: np.ndarray, a0: np.ndarray, trace: float) -> tuple[bool, float, float, float]:
    """Whether ``y`` (already in lin(A)^perp) separates: (passes, eps, <y, a0>, delta)."""
    eps = max(0.0, -float(np.linalg.eigvalsh(y)[..., 0].min()))
    inner = float(np.vdot(y, a0))
    delta = CERT_RTOL * float(np.linalg.norm(y)) * float(np.linalg.norm(a0))
    return inner < -eps * trace - delta, eps, inner, delta


def solve(problem: FeasibilityProblem, tol: float = DEFAULT_TOL,
          max_iter: int = DEFAULT_MAX_ITER) -> FeasibilityOutcome:
    """Anderson-accelerated Dykstra projections between the PSD cones and the affine set.

    Stops as soon as the PSD iterate satisfies the affine constraints within
    the target ``tol * max|Gamma_ij|`` (status "feasible", the
    iterate is the witness), or as soon as a separating-hyperplane
    certificate verifies (status "infeasible", see the module docstring).
    A CM block above the target between two nodes that no source links is
    "infeasible" at once, with that pair as the certificate.  At
    ``max_iter`` with neither the verdict is "inconclusive".

    Iterations apply the module docstring's map: iteration 1 is plain, later
    ones extrapolate over the last ``ANDERSON_DEPTH`` steps.

    ``tol`` must be > 0: a floating-point residual need not ever reach zero.
    """
    if not tol > 0.0:
        raise ValueError(f"feasibility tolerance must be > 0, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    target = tol * _scale(problem.gamma)
    pair, blocked = _uncovered_pair(problem)
    if blocked > target:
        # a CM block between nodes no source connects cannot be matched by
        # any choice of summands; no amount of iteration changes that
        cert = InfeasibilityCertificate(pair=pair, block_max_abs=blocked)
        return FeasibilityOutcome("infeasible", None, blocked, 0, np.array([blocked]), cert)
    stack = _Stack(problem)
    a0 = stack.start()
    trace = problem.gamma.trace()
    w = psd_project(a0)
    history, diffs = [], []  # residuals; Anderson's (dW, dF) pairs, oldest first
    status, certificate, next_check = "inconclusive", None, 1
    for it in range(1, max_iter + 1):
        # psd_project symmetrises its input this same way, so iteration 1 is
        # bitwise plain Dykstra; later the extrapolation would amplify drift
        w = 0.5 * (w + np.swapaxes(w, 1, 2))
        y = psd_project(w)
        x = stack.affine(y)
        history.append(max(stack.violation(y), blocked))
        if history[-1] <= target:
            status = "feasible"
            break
        if it == next_check or it == max_iter:
            next_check *= 2
            sep = stack.separator(y - x)
            ok, eps, inner, delta = _hyperplane_test(sep, a0, trace)
            if ok:
                cert = InfeasibilityCertificate(stack.to_full(sep), epsilon=eps, inner_product=inner,
                                                delta=delta, iteration=it)
                if verify_certificate(problem, cert):
                    status, certificate = "infeasible", cert
                    break
        f = x - y
        if it > 1:
            diffs.append(((w - last_w).ravel(), (f - last_f).ravel()))
            del diffs[:-ANDERSON_DEPTH]
        last_w, last_f = w, f
        w = w + f
        if diffs:
            dw, df = (np.array(d) for d in zip(*diffs))
            gram = df @ df.T + ANDERSON_REG * float(np.vdot(f, f)) * np.eye(len(diffs))
            coef = np.linalg.solve(gram, df @ f.ravel())
            w -= ((dw + df).T @ coef).reshape(w.shape)
    history = np.array(history)
    witness = stack.to_full(y) if status == "feasible" else None
    return FeasibilityOutcome(status, witness, float(history[-1]), it, history, certificate)


def verify_witness(problem: FeasibilityProblem, witness: Sequence[np.ndarray],
                   tol: float = DEFAULT_TOL) -> bool:
    """Independent check of a decomposition witness.

    Each summand must be PSD, carry the CM's off-diagonal blocks between the
    nodes it covers and be zero outside them, and the diagonal blocks must
    sum to the CM's, all within the target ``tol * max|Gamma_ij|`` that ``solve`` stops at.
    """
    if len(witness) != len(problem.summands):
        raise ValueError(f"need {len(problem.summands)} summands, got {len(witness)}")
    n = problem.gamma.dim
    mats = [np.asarray(t, dtype=float) for t in witness]
    if any(t.shape != (n, n) for t in mats):
        raise ValueError("witness summand shapes do not match the CM")
    target = tol * _scale(problem.gamma)
    for t in mats:
        if float(np.linalg.eigvalsh(0.5 * (t + t.T))[0]) < -target:
            return False
    return _affine_violation(mats, problem) <= target


def _affine_violation(ts: Sequence[np.ndarray], problem: FeasibilityProblem) -> float:
    gamma = problem.gamma
    sl = _node_slices(gamma)
    nodes = gamma.node_labels
    worst = 0.0
    for t, s in zip(ts, problem.summands):
        for i, x in enumerate(nodes):
            for y in nodes[i + 1:]:
                target = gamma.block(x, y) if x in s and y in s else 0.0
                worst = max(worst, float(np.abs(t[sl[x], sl[y]] - target).max(initial=0.0)))
            if x not in s:
                worst = max(worst, float(np.abs(t[sl[x], sl[x]]).max(initial=0.0)))
    for x in nodes:
        total = sum(t[sl[x], sl[x]] for t in ts)
        worst = max(worst, float(np.abs(total - gamma.block(x, x)).max(initial=0.0)))
    # node pairs carried by no summand: the total decomposition has zero
    # there, so the CM block itself must vanish
    worst = max(worst, _uncovered_pair(problem)[1])
    return worst


def verify_certificate(problem: FeasibilityProblem, certificate: InfeasibilityCertificate) -> bool:
    """Independent check that ``certificate`` proves ``problem`` infeasible.

    Only the certificate's pair or separator matrices are read; its epsilon,
    inner product and margin are recomputed here, on full n x n matrices,
    without the solver's compact layout.  A pair certificate holds if no
    summand carries the pair and the CM block between them is nonzero.  A
    separator must be finite, lie in lin(A)^perp within ``CERT_RTOL``
    relative to its norm, and satisfy <Y, a0> < -eps tr Gamma - delta for
    the equal-share point a0 of the affine set (module docstring).
    """
    gamma = problem.gamma
    if certificate.pair is not None:
        x, y = certificate.pair
        return (not any(x in s and y in s for s in problem.summands)
                and float(np.abs(gamma.block(x, y)).max(initial=0.0)) > 0.0)
    if len(certificate.separator) != len(problem.summands):
        raise ValueError(f"need {len(problem.summands)} separator matrices, "
                         f"got {len(certificate.separator)}")
    n = gamma.dim
    if any(np.shape(t) != (n, n) for t in certificate.separator):
        raise ValueError("separator shapes do not match the CM")
    ys = np.array(certificate.separator, dtype=float)
    if not np.isfinite(ys).all():
        return False
    sl = _node_slices(gamma)
    proj = 0.5 * (ys + np.swapaxes(ys, 1, 2))
    a0 = np.zeros_like(ys)
    for x in gamma.node_labels:
        carriers = [k for k, s in enumerate(problem.summands) if x in s]
        proj[carriers, sl[x], sl[x]] = proj[carriers, sl[x], sl[x]].mean(axis=0)
        a0[carriers, sl[x], sl[x]] = gamma.block(x, x) / len(carriers)
    for k, s in enumerate(problem.summands):
        for x, y in combinations(s, 2):
            a0[k, sl[x], sl[y]] = gamma.block(x, y)
            a0[k, sl[y], sl[x]] = gamma.block(y, x)
    if np.linalg.norm(ys - proj) > CERT_RTOL * np.linalg.norm(ys):
        return False
    eps = max(0.0, -float(np.linalg.eigvalsh(proj)[:, 0].min()))
    inner = float(np.vdot(proj, a0))
    delta = CERT_RTOL * float(np.linalg.norm(proj)) * float(np.linalg.norm(a0))
    return inner < -eps * gamma.trace() - delta


def export_witness(problem: FeasibilityProblem, outcome: FeasibilityOutcome, directory) -> Path:
    """Write one NCMX file per summand plus a JSON manifest.

    A feasible outcome writes its witness as ``witness_{k}.ncmx``; an
    infeasible one writes its separator, if it has one, as
    ``certificate_{k}.ncmx`` and records the certificate in the manifest.
    The manifest's ``summands`` lists the nodes of each file's summand, in file order.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    def write_all(prefix: str, mats) -> list[str]:
        names = []
        for k, t in enumerate(mats or ()):
            names.append(f"{prefix}_{k}.ncmx")
            ncmx.write_matrix(directory / names[-1], t.astype(complex))
        return names

    cert = outcome.certificate
    manifest = {
        "format": "netcm-witness",
        "version": 1,
        "status": outcome.status,
        "residual": outcome.residual,
        "iterations": outcome.iterations,
        "node_labels": list(problem.gamma.node_labels),
        "block_sizes": list(problem.gamma.block_sizes),
        "topology": problem.topology.to_spec(),
        "summands": [list(s) for s in problem.summands],
        "witness_files": write_all("witness", outcome.witness),
        "certificate_files": write_all("certificate", cert.separator if cert else ()),
        "certificate": cert.to_dict() if cert else None,
        "note": CERTIFICATE_NOTE,
    }
    path = directory / "manifest.json"
    ncmx.write_atomic(path, (json.dumps(manifest, indent=2, allow_nan=False) + "\n").encode())
    return path
