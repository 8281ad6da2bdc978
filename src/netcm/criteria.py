"""Analytic network-compatibility criteria.

Three families of necessary conditions for a state to arise in a (triangle
or NCDS) network with bipartite/local sources and local channels:

* the source decomposition of the covariance matrix for triangle states
  (``btn_decompose``): source summands, the CMs of implicit reduced
  observables built from single-factor and pair marginals alone, plus a
  Kronecker remainder; the same summands, taken from a state's own
  marginals, give the closed form whose defect certifies non-triangle
  states (``btn_cm_residual``);
* the positivity criterion: full-basis CM minus the Kronecker product of
  single-factor marginal CMs must be PSD (``xi_matrix``);
* the trace-norm criterion tr(Gamma) >= sum w_xy ||gamma_xy||_tr over node
  pairs (w_xy = 2 for bipartite sources), valid for every NCDS network
  (``trace_norm_criterion``), with visibility scans and the GHZ fidelity
  bound built on top.

The first two take no observables: they are stated on the layout's full
product basis, each split node's lexicographic products of its two factors'
:func:`~netcm.observables.orthogonal_basis` elements.  One kernel call on
that basis gives the full-product CM, and the factor means and CMs and
the source cross CMs are indexed out of it; visibility scans mix its
output on rho and on 1/d (``WhiteNoiseScan``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .covariance import (BlockCovarianceMatrix, _block_cm, _centred, _node_stacks, _stacked_moments,
                         white_noise_moments)
from .linalg import SubsystemLayout, psd_margin, trace_norm
from .observables import ObservableSet, _full_product_stack, orthogonal_basis
from .states import DensityOperator, factor_places, network_layout
from .topology import NetworkTopology, triangle_topology

__all__ = [
    "CriterionReport", "BtnDecomposition",
    "btn_decompose", "btn_cm_residual", "xi_matrix", "xi_report",
    "trace_norm_criterion", "WhiteNoiseScan", "ghz_fidelity_bound",
]

@dataclass(frozen=True)
class CriterionReport:
    """Verdict record for one criterion evaluation.

    ``margin = lhs - rhs`` and the verdict passes iff ``margin >= -tolerance``.
    """

    criterion: str
    lhs: float
    rhs: float
    margin: float
    passed: bool
    tolerance: float
    details: dict = field(default_factory=dict)

    @classmethod
    def from_values(cls, criterion: str, lhs: float, rhs: float, tolerance: float,
                    details: dict | None = None) -> "CriterionReport":
        margin = lhs - rhs
        return cls(criterion, float(lhs), float(rhs), float(margin),
                   bool(margin >= -tolerance), float(tolerance), details or {})

    def to_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "pass": self.passed,
            "tolerance": self.tolerance,
            "details": self.details,
        }


def trace_norm_criterion(gamma: BlockCovarianceMatrix, topology: NetworkTopology,
                         tolerance: float = 1e-9) -> CriterionReport:
    """tr(Gamma) >= sum_{x<y} w_xy ||gamma_xy||_tr, necessary for any NCDS network state.

    A pair of nodes fed by a common source k, which feeds m_k nodes, has
    weight w_xy = 2 / (m_k - 1): every PSD block matrix T over m nodes obeys
    sum_{x<y} 2 ||T_xy||_tr <= (m - 1) tr T, and in an NCDS network the pair
    block is the block of that one source's summand.  A pair fed by no
    common source has weight 2; its block vanishes on every network state,
    so any weight is sound there.  With bipartite sources every weight is 2.
    """
    if not topology.is_ncds():
        raise ValueError("the trace-norm criterion applies to NCDS topologies only")
    if set(gamma.node_labels) != set(topology.nodes):
        raise ValueError(
            f"CM nodes {gamma.node_labels} do not match topology nodes {topology.nodes}"
        )
    weights = {}
    for s in topology.sources:
        for i, x in enumerate(s):
            for y in s[i + 1:]:
                weights[frozenset((x, y))] = 2.0 / (len(s) - 1)
    lhs = gamma.trace()
    pair_norms, pair_weights = {}, {}
    rhs = 0.0
    for i, x in enumerate(gamma.node_labels):
        for y in gamma.node_labels[i + 1:]:
            norm = trace_norm(gamma.block(x, y))
            weight = weights.get(frozenset((x, y)), 2.0)
            pair_norms[f"{x}{y}"] = norm
            pair_weights[f"{x}{y}"] = weight
            rhs += weight * norm
    details = {"pair_trace_norms": pair_norms}
    if any(w != 2.0 for w in pair_weights.values()):
        details["pair_weights"] = pair_weights
    return CriterionReport.from_values("trace-norm", lhs, rhs, tolerance, details)


# -- triangle source decomposition ------------------------------------------

def _factor_moments(rows, means: np.ndarray, second: np.ndarray) -> tuple[dict, dict]:
    """Means and complex CMs of every factor, indexed out of the kernel's moments."""
    a = {l: means[r] for l, r in rows.items()}
    return a, {l: second[np.ix_(r, r)] - np.outer(a[l], a[l]) for l, r in rows.items()}


def _triangle_stacks(layout: SubsystemLayout):
    """Kernel stacks of each node's full product basis, and each factor's rows in their moments.

    Checks that the layout has three nodes of two factors each.  The bases
    put the identity first, so with basis sizes n1, n2 element a of a node's
    first factor is the product at row a * n2 and element b of its second
    the one at row b, offset to the node.
    """
    nodes = layout.node_order
    if len(nodes) != 3:
        raise ValueError(f"triangle criteria need exactly three nodes, layout has {len(nodes)}")
    stacks, rows, start = {}, {}, 0
    for x in nodes:
        f = layout.factors_of(x)
        if len(f) != 2:
            raise ValueError(f"node {x!r} must consist of two factors, has {f}")
        n1, n2 = (layout.dims[layout.index(l)] ** 2 for l in f)  # basis sizes
        stacks[x] = (f, _full_product_stack(layout, x))
        rows[f[0]], rows[f[1]] = start + n2 * np.arange(n1), start + np.arange(n2)
        start += n1 * n2
    return stacks, rows


def _kron_remainder(factors: Mapping[str, tuple[str, str]],
                    cms: Mapping[str, np.ndarray]) -> np.ndarray:
    """Block-diagonal remainder R; node block x is Re kron(Gamma_x1, Gamma_x2).

    The real part is taken after the product: the complex factor CMs carry
    the non-commuting same-node moments the symmetrized CM drops.
    """
    blocks = [np.kron(cms[f1], cms[f2]).real for f1, f2 in factors.values()]
    offsets = np.cumsum([0] + [len(b) for b in blocks])
    r = np.zeros((offsets[-1], offsets[-1]))
    for b, lo, hi in zip(blocks, offsets, offsets[1:]):
        r[lo:hi, lo:hi] = b
    return r


@dataclass(frozen=True)
class BtnDecomposition:
    """The four summands of a triangle-state covariance matrix.

    ``t_c``, ``t_b``, ``t_a`` carry the source CMs of reduced observables on
    the node pairs (A,B), (A,C), (B,C); ``r`` is block diagonal.  All four
    are padded to the full CM dimension and sum to the covariance matrix of
    the assembled state with the same observables.
    """

    t_c: np.ndarray
    t_b: np.ndarray
    t_a: np.ndarray
    r: np.ndarray
    block_sizes: tuple[int, ...]
    node_labels: tuple[str, ...]

    def parts(self) -> tuple[np.ndarray, ...]:
        return (self.t_c, self.t_b, self.t_a, self.r)

    def total(self) -> np.ndarray:
        return self.t_c + self.t_b + self.t_a + self.r


def _wiring(factors: Mapping[str, tuple[str, str]]) -> list[tuple[str, str]]:
    """The factor pair (X2, Y1) each source of the triangle on ``factors``' nodes feeds,
    in declaration order, as :func:`~netcm.states.factor_places` places it."""
    topo = triangle_topology(tuple(factors))
    return [tuple(factors[x][j] for x, j in zip(s, p))
            for s, p in zip(topo.sources, factor_places(topo))]


def _source_parts(factors: Mapping[str, tuple[str, str]], means, cms,
                  cross: Callable[[str, str], np.ndarray]) -> list[np.ndarray]:
    """Padded source summands of sources a, b, c, one per pair (X2, Y1) of :func:`_wiring`.

    The summand of the source on (X2, Y1) is the CM of its reduced
    observables, built from marginals alone: |a_X1><a_X1| x Re Gamma_X2 on
    node X, Re Gamma_Y1 x |b_Y2><b_Y2| on node Y, and a_X1 x C x b_Y2
    between them, with C = ``cross(X2, Y1)`` the source's cross CM.
    """
    node = {f: x for x, fs in factors.items() for f in fs}
    sizes = {x: len(means[f1]) * len(means[f2]) for x, (f1, f2) in factors.items()}
    offsets = np.concatenate([[0], np.cumsum(list(sizes.values()))])
    span = {x: slice(lo, hi) for x, lo, hi in zip(factors, offsets, offsets[1:])}
    parts = []
    for fx, fy in _wiring(factors):
        x, y = node[fx], node[fy]
        ax1, by2 = means[factors[x][0]], means[factors[y][1]]
        t = np.zeros((offsets[-1], offsets[-1]))
        # the real parts of the complex factor CMs are the symmetrized ones
        t[span[x], span[x]] = np.kron(np.outer(ax1, ax1), cms[fx].real)
        t[span[y], span[y]] = np.kron(cms[fy].real, np.outer(by2, by2))
        blk = np.einsum("a,bg,d->abgd", ax1, cross(fx, fy), by2).reshape(sizes[x], sizes[y])
        t[span[x], span[y]] = blk
        t[span[y], span[x]] = blk.T
        parts.append(t)
    return parts


def btn_decompose(sources: Sequence[DensityOperator]) -> BtnDecomposition:
    """Source decomposition of the full-product CM of a triangle state, from source marginals.

    ``sources`` are the three bipartite source states (a, b, c) of
    :func:`~netcm.states.btn_assemble`, on (B2, C1), (C2, A1) and (A2, B1).
    One kernel call per source, on its two factors whatever its node
    grouping, gives the summands' inputs (:func:`_source_parts`); the
    remainder is the Kronecker product of single-factor marginal CMs.
    """
    for name, src in zip("abc", sources):
        if len(src.layout.dims) != 2 or src.layout.dims[0] != src.layout.dims[1]:
            raise ValueError(f"source {name} must be bipartite d x d, has dims {src.layout.dims}")
    layout = network_layout(triangle_topology(), [src.layout.dims for src in sources])
    factors = {x: layout.factors_of(x) for x in layout.node_order}  # (A, B, C)

    means, cms, cross = {}, {}, {}
    for placed, src in zip(_wiring(factors), sources):
        basis = orthogonal_basis(src.layout.dims[0])
        n = len(basis)
        a, second = _stacked_moments({p: ((l,), basis) for p, l in zip(placed, src.layout.labels)}, src)
        m, c = _factor_moments({placed[0]: np.arange(n), placed[1]: n + np.arange(n)}, a, second)
        means.update(m)
        cms.update(c)
        cross[placed] = _centred(a, second)[:n, n:]

    t_a, t_b, t_c = _source_parts(factors, means, cms, lambda fx, fy: cross[fx, fy])
    sizes = tuple(len(means[f1]) * len(means[f2]) for f1, f2 in factors.values())
    return BtnDecomposition(t_c, t_b, t_a, _kron_remainder(factors, cms), sizes, tuple(factors))


def _xi(stacks, rows, means: np.ndarray, second: np.ndarray):
    """:func:`xi_matrix` from the full product moments, with its factors, factor means and CMs."""
    factors = {x: f for x, (f, _) in stacks.items()}
    a, cms = _factor_moments(rows, means, second)
    return _centred(means, second) - _kron_remainder(factors, cms), factors, a, cms


def _residual(stacks, rows, means: np.ndarray, second: np.ndarray) -> np.ndarray:
    """:func:`btn_cm_residual` from the full product moments: xi minus the source summands,
    whose cross CMs are xi's cross blocks (the remainder is block diagonal)."""
    xi, factors, a, cms = _xi(stacks, rows, means, second)
    return xi - sum(_source_parts(factors, a, cms, lambda fx, fy: xi[np.ix_(rows[fx], rows[fy])]))


def btn_cm_residual(rho: DensityOperator) -> tuple[np.ndarray, float]:
    """Defect of the marginal-only closed form of a triangle-state full-product CM.

    Rebuilds the CM a triangle state with rho's own marginals would have
    (the summands of :func:`_source_parts` plus the block-diagonal Kronecker
    remainder) and subtracts it from the actual CM.  The residual
    vanishes for every triangle state; a nonzero residual certifies that the
    state cannot be assembled from three bipartite sources with this wiring.

    Returns the residual matrix and its max-abs entry.
    """
    stacks, rows = _triangle_stacks(rho.layout)
    residual = _residual(stacks, rows, *_stacked_moments(stacks, rho))
    return residual, float(np.abs(residual).max())


def xi_matrix(rho: DensityOperator) -> np.ndarray:
    """Full-product CM minus the block-diagonal Kronecker of single-factor CMs.

    Every node of the layout must be split into exactly two factors.  The
    result is PSD for every state assembled from three bipartite sources;
    a negative eigenvalue certifies incompatibility.
    """
    stacks, rows = _triangle_stacks(rho.layout)
    return _xi(stacks, rows, *_stacked_moments(stacks, rho))[0]


def _xi_verdict(xi: np.ndarray) -> CriterionReport:
    low, tol = psd_margin(xi)
    return CriterionReport.from_values("xi-psd", low, 0.0, tol, {"min_eigenvalue": low})


def xi_report(rho: DensityOperator) -> CriterionReport:
    """PSD verdict on the xi matrix; lhs is its minimal eigenvalue."""
    return _xi_verdict(xi_matrix(rho))


def _residual_verdict(residual: np.ndarray, threshold: float = 1e-9) -> CriterionReport:
    worst = float(np.abs(residual).max())
    return CriterionReport.from_values("btn-residual", threshold, worst, 0.0, {"max_abs_residual": worst})


def btn_residual_report(rho: DensityOperator, threshold: float = 1e-9) -> CriterionReport:
    """Pass iff the triangle closed-form residual stays below ``threshold``.

    lhs is the allowed residual, rhs the observed max-abs residual.
    """
    return _residual_verdict(btn_cm_residual(rho)[0], threshold)


# -- visibility scans ---------------------------------------------------------


class WhiteNoiseScan:
    """A criterion's verdict on v*rho + (1 - v)*1/d as a function of the visibility v.

    A visibility mixes the moments of rho and of 1/d, taken once
    (:func:`~netcm.covariance.white_noise_moments`), and runs the report's
    moment-level code: O(n^2) plus one spectral step, no mixed state built.
    """

    def __init__(self, rho: DensityOperator, obs: ObservableSet | None, criterion: str,
                 topology: NetworkTopology | None = None):
        self.criterion = criterion
        if criterion == "trace-norm":
            if obs is None:
                raise ValueError("the trace-norm criterion needs an observable set")
            if topology is None:
                raise ValueError("the trace-norm criterion needs a topology")
            stacks = _node_stacks(obs, rho.layout)
            self._report = lambda a, m: trace_norm_criterion(_block_cm(stacks, _centred(a, m)),
                                                             topology)
        elif criterion == "xi-psd":
            stacks, rows = _triangle_stacks(rho.layout)
            self._report = lambda a, m: _xi_verdict(_xi(stacks, rows, a, m)[0])
        elif criterion == "btn-residual":
            stacks, rows = _triangle_stacks(rho.layout)
            self._report = lambda a, m: _residual_verdict(_residual(stacks, rows, a, m))
        else:
            raise ValueError(f"unknown criterion {criterion!r}")
        self._moments = white_noise_moments(stacks, rho)

    def row(self, v: float) -> tuple[float, float, float, bool]:
        """(lhs, rhs, margin, passed) at visibility v; the triangle criteria
        report margin + tolerance as lhs and margin, 0 as rhs."""
        rep = self._report(*self._moments(v))
        if self.criterion == "trace-norm":
            return rep.lhs, rep.rhs, rep.margin, rep.passed
        m = rep.margin + rep.tolerance
        return m, 0.0, m, m >= 0.0

    def threshold(self, tol: float = 1e-6) -> float:
        """Bisection estimate of the visibility in [0, 1] where the margin changes sign.

        The verdict must be monotone on [0, 1].  Any ``tol`` >= 0
        terminates: the bisection also stops at adjacent floats.
        """
        def margin(v: float) -> float:
            return self.row(v)[2]

        m_lo, m_hi = margin(0.0), margin(1.0)
        if not (m_lo >= 0.0 > m_hi):
            raise ValueError(
                f"no pass/fail sign change on [0.0, 1.0]: margins {m_lo:.3e}, {m_hi:.3e}"
            )
        lo, hi = _bisect(margin, 0.0, 1.0, tol)
        return 0.5 * (lo + hi)


def _bisect(margin: Callable[[float], float], lo: float, hi: float,
            tol: float) -> tuple[float, float]:
    """Narrow [lo, hi], margin(lo) >= 0 > margin(hi), to width <= tol or to adjacent floats."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if margin(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return lo, hi


# -- GHZ fidelity bound -------------------------------------------------------


def _margin_given_means(fidelity: float, squares, pairs):
    """Margin for one-body means with sum of squares ``squares`` and pair products ``pairs``.

    The correlators are optimal for those means: the best w in [-1, 1]
    minimizes |F - u^2 p + u w|.
    """
    u = 1.0 - fidelity
    lhs = 3.0 - (u * u) * squares
    rhs = 0.0
    for p in pairs:
        rhs = rhs + 2.0 * np.maximum(0.0, np.abs(fidelity - u * u * p) - u)
    return lhs - rhs


def _candidate_means(fidelity: float) -> list[float]:
    """Diagonal one-body means (t, t, t) among which :func:`_max_margin` lies."""
    u = 1.0 - fidelity
    candidates = [0.0, 1.0]
    if 0.0 <= fidelity - u <= u * u:
        candidates.append(float(np.sqrt((fidelity - u) / (u * u))))
    return candidates


def _max_margin(fidelity: float) -> float:
    """Exact max of :func:`_margin_given_means` over all one-body means (a, b, c) in [-1, 1]^3.

    Let u = 1 - F and d = F - u.  For F <= 1/2 the margin is at most 3 (lhs
    <= 3, rhs >= 0) and zero means reach 3.  For F > 1/2, u^2 < F, so each
    pair term is 2 max(0, d - u^2 p), which does not increase with the pair
    product p.  As a^2 + b^2 + c^2 >= ab + ac + bc, the margin is at most 3
    minus the sum over pairs of h(p) = u^2 p + 2 max(0, d - u^2 p), with
    equality when a = b = c.  h falls up to p* = d / u^2 and rises after, so
    on [-1, 1] it is least at min(p*, 1), which the diagonal point with
    t^2 = min(p*, 1) gives all three pairs at once.  So the maximum lies at
    one of :func:`_candidate_means`.  As a function of F it is 3 up to 1/2,
    6 - 6F up to d = u^2 and 3u^2 + 12u - 3 after: it does not increase and
    is zero at F = 3 - sqrt(5).
    """
    return max(float(_margin_given_means(fidelity, t * t + t * t + t * t, (t * t,) * 3))
               for t in _candidate_means(fidelity))


def ghz_fidelity_bound(tol: float = 1e-4) -> float:
    """Largest GHZ fidelity the trace-norm criterion cannot exclude, rounded up.

    Bisection over the fidelity F on the criterion margin maximized over all
    sigma_z statistics the GHZ-orthogonal rest could contribute (one-body
    means and pair correlators in [-1, 1]), which :func:`_max_margin` gives
    exactly; its sign changes once, at the exact bound 3 - sqrt(5).  The
    result is the bracket's midpoint when the margin there is negative and
    its upper end otherwise: never below the exact bound, at most ``tol``
    above it, and for ``tol`` = 0 the least float with a negative margin.
    Any state whose GHZ fidelity exceeds it is excluded from triangle
    networks with local channels, and by convexity from LOSR triangle
    networks as well.
    """
    lo, hi = _bisect(_max_margin, 0.0, 1.0, tol)  # margins 3 at F = 0 and -3 at F = 1
    mid = 0.5 * (lo + hi)
    return mid if _max_margin(mid) < 0.0 else hi
