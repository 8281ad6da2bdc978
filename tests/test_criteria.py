from decimal import Decimal, localcontext

import numpy as np
import pytest

from netcm.covariance import BlockCovarianceMatrix, _centred, _stacked_moments, covariance_matrix, moments
from netcm.criteria import (
    _candidate_means,
    _margin_given_means,
    _max_margin,
    WhiteNoiseScan,
    _factor_moments,
    _triangle_stacks,
    btn_cm_residual,
    btn_decompose,
    btn_residual_report,
    ghz_fidelity_bound,
    trace_norm_criterion,
    xi_matrix,
    xi_report,
)
from netcm.observables import (
    ObservableSet,
    full_product_set,
    named_observable_set,
    orthogonal_basis,
)
from netcm.states import (
    DensityOperator,
    bell_pair,
    btn_assemble,
    cluster4_state,
    dicke_state,
    ghz_state,
    maximally_mixed,
    mix_white_noise,
    network_state,
    pure_state,
    random_source,
    split_nodes,
    w_state,
)
from netcm.linalg import SubsystemLayout, psd_margin
from netcm.feasibility import FeasibilityProblem
from netcm.topology import NetworkTopology, line_topology, triangle_topology

from conftest import (
    _max_margin_statistics,
    _mean_grid,
    convex_mix,
    ghz_statistics_margin,
    node_marginal,
    recombine_cm,
    reduced_observable_decomposition,
)


class TestTopology:
    def test_triangle_is_ncds(self):
        assert triangle_topology().is_ncds()

    def test_five_node_example_is_ncds(self):
        topo = NetworkTopology(("1", "2", "3", "4", "5"),
                               (("1", "2", "3"), ("3", "4", "5"), ("1", "5")))
        assert topo.is_ncds()

    def test_shared_pair_is_not(self):
        topo = NetworkTopology(("1", "2", "3"), (("1", "2"), ("1", "2")))
        assert not topo.is_ncds()

    def test_global_source_rejected(self):
        with pytest.raises(ValueError, match="at most N-1"):
            NetworkTopology(("1", "2", "3"), (("1", "2", "3"),))

    def test_two_node_bipartite_allowed(self):
        topo = NetworkTopology(("1", "2"), (("1", "2"),))
        assert topo.is_ncds()


def summands(topo):
    """The summands of a feasibility problem on ``topo``, with a unit CM."""
    n = len(topo.nodes)
    return FeasibilityProblem(BlockCovarianceMatrix(np.eye(n), (1,) * n, topo.nodes), topo).summands


class TestSummands:
    def test_triangle_summands(self):
        assert summands(triangle_topology()) == (("B", "C"), ("C", "A"), ("A", "B"))

    def test_five_node_summands(self):
        topo = NetworkTopology(("1", "2", "3", "4", "5"),
                               (("1", "2", "3"), ("3", "4", "5"), ("1", "5")))
        assert summands(topo) == (("1", "2", "3"), ("3", "4", "5"), ("1", "5"))

    def test_single_source_two_nodes(self):
        assert summands(NetworkTopology(("1", "2"), (("1", "2"),))) == (("1", "2"),)

    def test_unfed_nodes_get_one_node_summands(self):
        topo = NetworkTopology(("D", "A", "B", "C", "E"), (("B", "C"), ("C", "A"), ("A", "B")))
        assert summands(topo) == (("B", "C"), ("C", "A"), ("A", "B"), ("D",), ("E",))

    def test_non_ncds_rejected(self):
        topo = NetworkTopology(("1", "2", "3"), (("1", "2"), ("1", "2")))
        with pytest.raises(ValueError, match="NCDS"):
            summands(topo)


class TestTraceNormCriterion:
    def test_ghz_values(self):
        for v in (0.2, 0.6, 0.9):
            rho = mix_white_noise(ghz_state(3, 2), v)
            g = covariance_matrix(named_observable_set("pauli-z", rho.layout), rho)
            rep = trace_norm_criterion(g, triangle_topology())
            assert rep.lhs == pytest.approx(3.0)
            assert rep.rhs == pytest.approx(6.0 * v)
            assert rep.passed == (v <= 0.5)

    def test_w_state_threshold_region(self):
        for v, ok in ((0.74, True), (0.76, False)):
            rho = mix_white_noise(w_state(), v)
            g = covariance_matrix(named_observable_set("w-set", rho.layout), rho)
            assert trace_norm_criterion(g, triangle_topology()).passed == ok

    def test_cluster_equality(self):
        rho = cluster4_state()
        g = covariance_matrix(named_observable_set("cluster-set", rho.layout), rho)
        rep = trace_norm_criterion(g, line_topology(("A", "B", "C", "D")))
        assert abs(rep.lhs - rep.rhs) <= 1e-10
        assert rep.passed

    def test_non_ncds_rejected(self):
        g = BlockCovarianceMatrix(np.eye(3), (1, 1, 1), ("A", "B", "C"))
        bad = NetworkTopology(("A", "B", "C"), (("A", "B"), ("A", "B")))
        with pytest.raises(ValueError, match="NCDS"):
            trace_norm_criterion(g, bad)

    def test_invariant_under_orthogonal_recombination(self, rng):
        # per-node orthogonal recombination leaves trace and block norms alone
        rho = mix_white_noise(w_state(), 0.8)
        g = covariance_matrix(named_observable_set("w-set", rho.layout), rho)
        rep = trace_norm_criterion(g, triangle_topology())
        for _ in range(10):
            blocks = []
            for _x in "ABC":
                q, r = np.linalg.qr(rng.standard_normal((2, 2)))
                blocks.append(q * np.sign(np.diag(r)))
            c = np.zeros((6, 6))
            for i, blk in enumerate(blocks):
                c[2 * i:2 * i + 2, 2 * i:2 * i + 2] = blk
            rotated = trace_norm_criterion(recombine_cm(g, c), triangle_topology())
            assert rotated.passed == rep.passed
            assert rotated.lhs == pytest.approx(rep.lhs, abs=1e-9)
            assert rotated.rhs == pytest.approx(rep.rhs, abs=1e-9)


    def test_three_node_source_weighted(self):
        # GHZ3 from source {A,B,C} and a Bell pair from {C,D}, sigma_z on every
        # factor: a genuine network state that an unweighted sum excludes
        topo = NetworkTopology(("A", "B", "C", "D"), (("A", "B", "C"), ("C", "D")))
        rho = network_state(topo, [ghz_state(3, 2), bell_pair(2)])
        sz = np.diag([1.0, -1.0])
        obs = ObservableSet({x: [on_factor(sz, rho.layout, l) for l in rho.layout.factors_of(x)]
                             for x in rho.layout.node_order})
        g = covariance_matrix(obs, rho)
        rep = trace_norm_criterion(g, topo)
        assert rep.lhs == pytest.approx(5.0)
        assert rep.margin == pytest.approx(0.0, abs=1e-12)
        assert rep.passed
        assert rep.details["pair_weights"] == {"AB": 1.0, "AC": 1.0, "AD": 2.0,
                                               "BC": 1.0, "BD": 2.0, "CD": 2.0}

    def test_bipartite_reports_have_no_weights(self):
        rho = mix_white_noise(ghz_state(3, 2), 0.6)
        g = covariance_matrix(named_observable_set("pauli-z", rho.layout), rho)
        assert "pair_weights" not in trace_norm_criterion(g, triangle_topology()).details


def on_factor(op, layout: SubsystemLayout, label: str) -> np.ndarray:
    """``op`` on factor ``label``, padded with identities to the whole of its node."""
    out = np.ones((1, 1))
    for l in layout.factors_of(layout.nodes[layout.index(label)]):
        out = np.kron(out, op if l == label else np.eye(layout.dims[layout.index(l)]))
    return out


def _random_ncds_with_triple(rng):
    """Random NCDS topology on 4-5 nodes with a three-node source, at most 8 factors."""
    while True:
        nodes = tuple("ABCDE"[:int(rng.integers(4, 6))])
        sources = [tuple(str(x) for x in rng.choice(nodes, 3, replace=False))]
        for _ in range(int(rng.integers(1, 4))):
            cand = tuple(str(x) for x in rng.choice(nodes, int(rng.integers(2, 4)), replace=False))
            if NetworkTopology(nodes, tuple(sources) + (cand,)).is_ncds():
                sources.append(cand)
        if set().union(*sources) == set(nodes) and sum(map(len, sources)) <= 8:
            return NetworkTopology(nodes, tuple(sources))


def test_trace_norm_holds_on_networks_with_three_node_sources(rng):
    # generalized GHZ sources a|0..0> + b|1..1> with sigma_z on every factor
    # saturate the per-source bound; a random observable per node adds noise
    sz = np.diag([1.0, -1.0])
    for _ in range(25):
        topo = _random_ncds_with_triple(rng)
        srcs = []
        for s in topo.sources:
            vec = np.zeros(2 ** len(s), dtype=complex)
            vec[0], vec[-1] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            layout = SubsystemLayout((2,) * len(s), tuple(f"f{i}" for i in range(len(s))))
            srcs.append(pure_state(vec, layout))
        rho = network_state(topo, srcs)
        obs = {}
        for x in rho.layout.node_order:
            obs[x] = [on_factor(sz, rho.layout, label) for label in rho.layout.factors_of(x)]
            d = rho.layout.node_dim(x)
            h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            obs[x].append(0.1 * (h + h.conj().T))
        rep = trace_norm_criterion(covariance_matrix(ObservableSet(obs), rho), topo)
        assert rep.margin >= -1e-8 * (1.0 + rep.lhs)


class TestVisibilityThreshold:
    def test_ghz3(self):
        rho = ghz_state(3, 2)
        thr = WhiteNoiseScan(rho, named_observable_set("pauli-z", rho.layout),
                             "trace-norm", triangle_topology()).threshold(1e-6)
        assert thr == pytest.approx(0.5, abs=1e-6)

    def test_no_sign_change_raises(self):
        layout = ghz_state(3, 2).layout
        with pytest.raises(ValueError, match="sign change"):
            WhiteNoiseScan(maximally_mixed(layout), named_observable_set("pauli-z", layout),
                           "trace-norm", triangle_topology()).threshold()

    def test_trace_norm_needs_topology(self):
        # no default: a triangle guessed from the nodes fails on any other node count
        rho = ghz_state(4, 2)
        with pytest.raises(ValueError, match="the trace-norm criterion needs a topology"):
            WhiteNoiseScan(rho, named_observable_set("pauli-z", rho.layout), "trace-norm")


class TestTrianglePass:
    """The triangle criteria's own product basis gives the CM of the full product set, bitwise."""

    @staticmethod
    def assert_same_cm(rho):
        stacks, _ = _triangle_stacks(rho.layout)
        gamma = _centred(*_stacked_moments(stacks, rho))
        sizes = tuple(len(s) for _, s in stacks.values())
        want = covariance_matrix(full_product_set(rho.layout), rho)
        assert np.array_equal(gamma, want.matrix)
        assert sizes == want.block_sizes

    @pytest.mark.parametrize("v", [0.3, 1.0])
    @pytest.mark.parametrize("state", ["ghz", "dicke1", "dicke2", "dicke3"])
    def test_split_states(self, state, v):
        base = ghz_state(3, 4) if state == "ghz" else dicke_state(int(state[-1]))
        self.assert_same_cm(split_nodes(mix_white_noise(base, v), (2, 2)))

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2)], ids=["qubits", "mixed"])
    def test_random_btn_states(self, rng, dims):
        for _ in range(3):
            self.assert_same_cm(btn_assemble(*[random_source(d, rng) for d in dims]))


def _basis(layout, label):
    return np.stack(list(orthogonal_basis(layout.dims[layout.index(label)])))


def _pair_cross_cm(rho, fx, fy):
    """Re <X_m Y_n> - <X_m><Y_n> on the marginal of two factors, by explicit Kronecker products."""
    bx, by = _basis(rho.layout, fx), _basis(rho.layout, fy)
    pair = rho.marginal_matrix([fx, fy])  # layout order
    x_first = rho.layout.index(fx) < rho.layout.index(fy)
    ax = moments(bx, rho.marginal_matrix([fx]))[0]
    ay = moments(by, rho.marginal_matrix([fy]))[0]
    second = np.array([[np.trace((np.kron(x, y) if x_first else np.kron(y, x)) @ pair).real
                        for y in by] for x in bx])
    return second - np.outer(ax, ay)


class TestOneMomentPass:
    """Factor means, complex factor CMs and cross CMs indexed out of the full-product
    moments, against the single-factor and pair marginals."""

    @staticmethod
    def assert_indexed_match_marginals(rho):
        stacks, rows = _triangle_stacks(rho.layout)
        means, second = _stacked_moments(stacks, rho)
        a, cms = _factor_moments(rows, means, second)
        gamma = _centred(means, second)
        labels, nodes = rho.layout.labels, rho.layout.nodes
        for f in labels:
            want_a, want_cm = moments(_basis(rho.layout, f), rho.marginal_matrix([f]))
            assert np.abs(a[f] - want_a).max() <= 1e-13, f
            assert np.abs(cms[f] - want_cm).max() <= 1e-13, f
        for fx, x in zip(labels, nodes):
            for fy, y in zip(labels, nodes):
                if x != y:
                    got = gamma[np.ix_(rows[fx], rows[fy])]
                    assert np.abs(got - _pair_cross_cm(rho, fx, fy)).max() <= 1e-13, (fx, fy)

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2)], ids=["qubits", "mixed"])
    def test_random_btn_states(self, rng, dims):
        for _ in range(3):
            self.assert_indexed_match_marginals(btn_assemble(*[random_source(d, rng) for d in dims]))

    @pytest.mark.parametrize("v", [0.3, 1.0])
    @pytest.mark.parametrize("state", ["ghz", "dicke1", "dicke2", "dicke3"])
    def test_split_states(self, state, v):
        base = ghz_state(3, 4) if state == "ghz" else dicke_state(int(state[-1]))
        self.assert_indexed_match_marginals(split_nodes(mix_white_noise(base, v), (2, 2)))


class TestScanRows:
    """WhiteNoiseScan rows of the triangle criteria against reports on the dense mixture."""

    @pytest.mark.parametrize("criterion", ["xi-psd", "btn-residual"])
    def test_match_dense_mixture(self, criterion, rng):
        bases = [split_nodes(dicke_state(k), (2, 2)) for k in (1, 2, 3)]
        bases += [split_nodes(ghz_state(3, 4, (0, 3)), (2, 2)),
                  btn_assemble(*[random_source(2, rng) for _ in range(3)])]
        report = xi_report if criterion == "xi-psd" else btn_residual_report
        for base in bases:
            scan = WhiteNoiseScan(base, None, criterion)
            for v in np.linspace(0.0, 1.0, 21):
                # a validated dense state: its marginals come from linalg.partial_trace
                rep = report(DensityOperator(mix_white_noise(base, v).matrix, base.layout))
                want = rep.margin + rep.tolerance
                lhs, rhs, margin, passed = scan.row(v)
                assert abs(lhs - want) <= 1e-12, (base.layout, v)
                assert (margin, rhs, passed) == (lhs, 0.0, want >= 0.0), (base.layout, v)


class TestXi:
    def test_btn_states_are_psd(self, rng):
        for _ in range(5):
            rho = btn_assemble(*[random_source(2, rng) for _ in range(3)])
            low, tol = psd_margin(xi_matrix(rho))
            assert low >= -tol

    def test_ghz4_split(self):
        base = ghz_state(3, 4, (0, 3))
        rho0 = split_nodes(mix_white_noise(base, 0.0), (2, 2))
        assert xi_report(rho0).passed
        rho1 = split_nodes(mix_white_noise(base, 0.1), (2, 2))
        rep = xi_report(rho1)
        assert not rep.passed
        assert rep.lhs == pytest.approx(-0.1, abs=1e-9)

    def test_needs_split_nodes(self):
        with pytest.raises(ValueError, match="two factors"):
            xi_matrix(ghz_state(3, 4))


class TestBtnDecompose:
    def test_bell_pairs(self):
        bells = [bell_pair(2) for _ in range(3)]
        rho = btn_assemble(*bells)
        dec = btn_decompose(bells)
        g = covariance_matrix(full_product_set(rho.layout), rho)
        assert np.abs(dec.total() - g.matrix).max() <= 1e-9
        for part in dec.parts():
            assert np.linalg.eigvalsh(part)[0] >= -1e-8

    def test_product_sources_have_no_cross_blocks(self, rng):
        from netcm.linalg import SubsystemLayout
        from netcm.states import DensityOperator, random_density

        srcs = [
            DensityOperator(np.kron(random_density(2, rng), random_density(2, rng)),
                            SubsystemLayout((2, 2), ("1", "2")))
            for _ in range(3)
        ]
        dec = btn_decompose(srcs)
        for part, (x, y) in zip((dec.t_c, dec.t_b, dec.t_a), (("A", "B"), ("A", "C"), ("B", "C"))):
            sl = {n: slice(16 * i, 16 * (i + 1)) for i, n in enumerate("ABC")}
            assert np.abs(part[sl[x], sl[y]]).max() <= 1e-12

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2)], ids=["qubits", "mixed"])
    def test_matches_reduced_observable_reference(self, rng, dims):
        # the closed-form summands equal the CMs of explicit reduced
        # observables on each source, also for unequal source dimensions
        for _ in range(3):
            srcs = [random_source(d, rng) for d in dims]
            dec = btn_decompose(srcs)
            for part, want in zip((dec.t_c, dec.t_b, dec.t_a),
                                  reduced_observable_decomposition(srcs)):
                assert part.shape == want.shape
                assert np.abs(part - want).max() <= 1e-12

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2)], ids=["qubits", "mixed"])
    def test_residual_is_cm_minus_decomposition(self, rng, dims):
        srcs = [random_source(d, rng) for d in dims]
        rho = btn_assemble(*srcs)
        gamma = covariance_matrix(full_product_set(rho.layout), rho)
        residual, _ = btn_cm_residual(rho)
        assert np.abs(residual - (gamma.matrix - btn_decompose(srcs).total())).max() <= 1e-12


class TestBtnResidual:
    def test_btn_state_vanishes(self, rng):
        rho = btn_assemble(*[random_source(2, rng) for _ in range(3)])
        _, mx = btn_cm_residual(rho)
        assert mx <= 1e-9

    def test_maximally_mixed_vanishes(self):
        rho = split_nodes(maximally_mixed(ghz_state(3, 4).layout), (2, 2))
        _, mx = btn_cm_residual(rho)
        assert mx <= 1e-9

    def test_dicke_one_excluded(self):
        rho = split_nodes(dicke_state(1), (2, 2))
        _, mx = btn_cm_residual(rho)
        assert mx > 0.01
        assert mx == pytest.approx(2.0 / 3.0, abs=1e-9)  # frozen from direct evaluation

    def test_report(self):
        rho = split_nodes(dicke_state(1), (2, 2))
        rep = btn_residual_report(rho)
        assert not rep.passed
        assert rep.details["max_abs_residual"] == pytest.approx(2.0 / 3.0, abs=1e-9)


class TestGhzStatisticsMargin:
    def test_fidelity_zero_satisfiable(self):
        assert ghz_statistics_margin(0.0, np.zeros(3), -np.ones(3) / 3) > 0

    def test_above_bound_always_violated(self):
        # coarse sweep of the statistics box at F = 0.8 > 3 - sqrt(5)
        axis = np.linspace(-1.0, 1.0, 9)
        worst = -np.inf
        for z1 in axis:
            for z2 in axis:
                for z3 in axis:
                    for w in (-1.0, -0.5, 0.0, 0.5, 1.0):
                        m = ghz_statistics_margin(0.8, np.array([z1, z2, z3]), np.full(3, w))
                        worst = max(worst, m)
        assert worst < 0

    def test_above_bound_violated_for_diagonal_noise_states(self, rng):
        # state-level oracle: at F = 0.8, every GHZ-orthogonal noise state in
        # the diagonal family (phase-flipped GHZ plus the six intermediate
        # basis strings) leaves the criterion violated
        from netcm.linalg import SubsystemLayout
        from netcm.states import DensityOperator, pure_state

        layout = ghz_state(3, 2).layout
        minus = np.zeros(8)
        minus[0], minus[7] = 1.0, -1.0
        vertices = [pure_state(minus, layout)]
        for idx in (1, 2, 3, 4, 5, 6):
            vec = np.zeros(8)
            vec[idx] = 1.0
            vertices.append(pure_state(vec, layout))
        ghz = ghz_state(3, 2)
        f = 0.8
        samples = [np.eye(7)[i] for i in range(7)]
        samples += [np.full(7, 1 / 7.0)]
        samples += [rng.dirichlet(np.ones(7)) for _ in range(200)]
        for w in samples:
            rest = convex_mix(vertices, w)
            assert abs(np.trace(ghz.matrix @ rest.matrix).real) < 1e-12
            rho = convex_mix([ghz, rest], [f, 1 - f])
            g = covariance_matrix(named_observable_set("pauli-z", rho.layout), rho)
            assert not trace_norm_criterion(g, triangle_topology()).passed

    def test_margin_matches_actual_state(self):
        # the statistics formula reproduces the criterion margin of a real mixture
        ghz = ghz_state(3, 2)
        rest = mix_white_noise(w_state(), 1.0)  # <GHZ|W> = 0
        f = 0.4
        rho = convex_mix([ghz, rest], [f, 1 - f])
        g = covariance_matrix(named_observable_set("pauli-z", rho.layout), rho)
        rep = trace_norm_criterion(g, triangle_topology())
        z = np.array([moments([np.array([[1, 0], [0, -1]], dtype=complex)],
                              node_marginal(rest, x))[0][0] for x in "ABC"])
        w_corr = np.array([
            covariance_matrix(named_observable_set("pauli-z", rest.layout), rest).block(x, y)[0, 0]
            + z["ABC".index(x)] * z["ABC".index(y)]
            for x, y in (("A", "B"), ("A", "C"), ("B", "C"))
        ])
        assert ghz_statistics_margin(f, z, w_corr) == pytest.approx(rep.margin, abs=1e-10)


# fidelities where the exact mean maximum meets its oracles: [0.5, 1] and the bound itself
ORACLE_FIDELITIES = np.append(np.linspace(0.5, 1.0, 201), 3.0 - np.sqrt(5.0))


def _exact_bound() -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 40
        return 3 - Decimal(5).sqrt()


class TestGhzFidelityBound:
    def test_exact_max_dominates_grid_oracle(self):
        grid = _mean_grid(0.02)
        for f in ORACLE_FIDELITIES:
            assert _max_margin(f) >= _max_margin_statistics(f, 0.02, grid) - 1e-12, f

    def test_exact_max_dominates_random_means(self):
        a, b, c = np.random.default_rng(20231106).uniform(-1.0, 1.0, size=(3, 200_000))
        squares, pairs = a * a + b * b + c * c, (a * b, a * c, b * c)
        for f in ORACLE_FIDELITIES:
            assert _max_margin(f) >= float(_margin_given_means(f, squares, pairs).max()) - 1e-12, f

    def test_max_attained_at_a_candidate(self):
        for f in np.linspace(0.0, 1.0, 1001):
            candidates = _candidate_means(f)
            assert all(0.0 <= t <= 1.0 for t in candidates)
            values = [float(_margin_given_means(f, 3 * t * t, (t * t,) * 3)) for t in candidates]
            assert _max_margin(f) == pytest.approx(max(values), abs=1e-15)
            u = 1.0 - f  # the closed form the docstring derives
            if f <= 0.5:
                closed = 3.0
            elif f - u <= u * u:
                closed = 6.0 - 6.0 * f
            else:
                closed = 3.0 * u * u + 12.0 * u - 3.0
            assert _max_margin(f) == pytest.approx(closed, abs=1e-12), f

    def test_max_does_not_increase_with_fidelity(self):
        values = np.array([_max_margin(f) for f in np.linspace(0.0, 1.0, 20_001)])
        assert np.all(np.diff(values) <= 0.0)

    @pytest.mark.parametrize("tol", [10.0 ** -k for k in range(2, 13)])
    def test_bound_is_sound_at_every_tolerance(self, tol):
        bound = Decimal(ghz_fidelity_bound(tol))
        assert _exact_bound() <= bound <= _exact_bound() + Decimal(tol)

    @pytest.mark.parametrize("tol", [0.0, 1e-17, 5e-324])
    def test_tolerance_below_float_spacing_terminates(self, tol):
        # the bisection stops at adjacent floats: the least float with a negative margin
        bound = ghz_fidelity_bound(tol)
        assert _exact_bound() <= Decimal(bound) <= _exact_bound() + Decimal(2.0 ** -52)
        assert _max_margin(bound) < 0.0 <= _max_margin(np.nextafter(bound, 0.0))

    def test_default_bound_bytes(self):
        assert ghz_fidelity_bound() == 0.763946533203125


class TestCriterionMargin:
    def test_dispatch(self):
        rho = mix_white_noise(ghz_state(3, 2), 0.3)
        obs = named_observable_set("pauli-z", rho.layout)
        m = WhiteNoiseScan(rho, obs, "trace-norm", triangle_topology()).row(1.0)[2]
        assert m == pytest.approx(3.0 - 1.8)
        with pytest.raises(ValueError, match="unknown criterion"):
            WhiteNoiseScan(rho, obs, "bogus", None)
