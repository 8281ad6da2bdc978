import warnings
from itertools import combinations, permutations, product

import numpy as np
import pytest

from netcm.linalg import SubsystemLayout, partial_trace
from netcm.observables import PAULI_X, PAULI_Z
from netcm.states import (
    DensityOperator,
    NoisyPureState,
    bell_pair,
    btn_assemble,
    cluster4_state,
    dicke_state,
    ghz_state,
    maximally_mixed,
    mix_white_noise,
    network_state,
    pure_state,
    random_density,
    random_source,
    split_nodes,
    w_state,
)
from netcm.topology import NetworkTopology

from conftest import (
    KrausChannel,
    apply_local_channels,
    apply_local_unitaries,
    convex_mix,
    embed,
    expectation,
    marginal,
    naive_partial_trace,
    node_marginal,
    permuted,
    random_kraus_channel,
    random_unitary,
    swap_node_factors,
)


class TestGhz:
    def test_three_qubit(self):
        rho = ghz_state(3, 2, (0, 1))
        vec = np.zeros(8)
        vec[[0, 7]] = 1 / np.sqrt(2)
        assert np.allclose(rho.matrix, np.outer(vec, vec))

    def test_three_ququart_two_level(self):
        rho = ghz_state(3, 4, (0, 3))
        assert rho.matrix[0, 0] == pytest.approx(0.5)
        assert rho.matrix[0, 63] == pytest.approx(0.5)
        assert rho.matrix[63, 63] == pytest.approx(0.5)
        assert np.trace(rho.matrix) == pytest.approx(1.0)

    def test_four_level_full(self):
        rho = ghz_state(3, 4, "full")
        diag_idx = [0, 21, 42, 63]  # |kkk> for k = 0..3
        for i in diag_idx:
            for j in diag_idx:
                assert rho.matrix[i, j] == pytest.approx(0.25)
        assert np.trace(rho.matrix) == pytest.approx(1.0)

    def test_bad_levels(self):
        with pytest.raises(ValueError):
            ghz_state(3, 2, (0, 5))
        with pytest.raises(ValueError):
            ghz_state(3, 2, (1, 1))


class TestW:
    def test_trace(self):
        assert np.trace(w_state().matrix) == pytest.approx(1.0)

    def test_no_111_support(self):
        assert w_state().matrix[7, 7] == pytest.approx(0.0)

    def test_single_qubit_marginal(self):
        rho = w_state()
        marg = naive_partial_trace(rho.matrix, rho.layout.dims, [0])
        assert np.allclose(marg, np.diag([2 / 3, 1 / 3]))


class TestDicke:
    def test_k1(self):
        rho = dicke_state(1)
        vec = np.zeros(64)
        vec[[1, 4, 16]] = 1 / np.sqrt(3)  # |001>, |010>, |100> in base 4
        assert np.allclose(rho.matrix, np.outer(vec, vec))

    def test_k9_single_term(self):
        rho = dicke_state(9)
        expect = np.zeros((64, 64))
        expect[63, 63] = 1.0
        assert np.allclose(rho.matrix, expect)

    def test_k2_enumeration(self):
        # oracle: enumerate index triples with sum 2
        terms = [t for t in product(range(4), repeat=3) if sum(t) == 2]
        assert len(terms) == 6
        rho = dicke_state(2)
        for t in terms:
            idx = 16 * t[0] + 4 * t[1] + t[2]
            assert rho.matrix[idx, idx] == pytest.approx(1 / 6)

    def test_permutation_symmetric(self):
        for k in (1, 3, 5):
            rho = dicke_state(k)
            for order in permutations(("A", "B", "C")):
                assert np.abs(permuted(rho, order).matrix - rho.matrix).max() <= 1e-12

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            dicke_state(0)
        with pytest.raises(ValueError):
            dicke_state(10)


class TestCluster:
    def test_stabilizer_generators(self):
        rho = cluster4_state()
        eye = np.eye(2)
        generators = [
            (PAULI_X, PAULI_Z, eye, eye),
            (PAULI_Z, PAULI_X, PAULI_Z, eye),
            (eye, PAULI_Z, PAULI_X, PAULI_Z),
            (eye, eye, PAULI_Z, PAULI_X),
        ]
        for g in generators:
            op = np.kron(np.kron(g[0], g[1]), np.kron(g[2], g[3]))
            assert expectation(op, rho) == pytest.approx(1.0)

    def test_trace(self):
        assert np.trace(cluster4_state().matrix) == pytest.approx(1.0)


class TestBellPair:
    def test_qubit_marginal(self):
        rho = bell_pair(2)
        marg = naive_partial_trace(rho.matrix, (2, 2), [0])
        assert np.allclose(marg, np.eye(2) / 2)

    def test_amplitude(self):
        assert bell_pair(2).matrix[0, 0] == pytest.approx(0.5)  # |<00|phi+>|^2

    def test_d4_trace(self):
        assert np.trace(bell_pair(4).matrix) == pytest.approx(1.0)


class TestWhiteNoise:
    def test_boundaries(self, rng):
        rho = DensityOperator(random_density(4, rng), SubsystemLayout((2, 2), ("A", "B")))
        assert np.array_equal(mix_white_noise(rho, 1.0).matrix, rho.matrix)
        assert np.allclose(mix_white_noise(rho, 0.0).matrix, np.eye(4) / 4)

    def test_ghz_half_visibility_zz(self):
        rho = mix_white_noise(ghz_state(3, 2), 0.5)
        op = np.kron(np.kron(PAULI_Z, PAULI_Z), np.eye(2))
        assert expectation(op, rho) == pytest.approx(0.5)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            mix_white_noise(ghz_state(3, 2), 1.5)


class TestNoisyPureState:
    """Pure states and their white-noise mixtures are held as a vector and a visibility."""

    @staticmethod
    def random_state(rng, dims, labels, nodes=()):
        vec = rng.standard_normal(int(np.prod(dims))) + 1j * rng.standard_normal(int(np.prod(dims)))
        return pure_state(vec, SubsystemLayout(dims, labels, nodes)), vec / np.linalg.norm(vec)

    @pytest.mark.parametrize("v", [0.0, 0.37, 1.0])
    @pytest.mark.parametrize("layout", ["uneven", "split"])
    def test_marginals_match_dense_partial_trace(self, rng, layout, v):
        if layout == "uneven":
            rho, psi = self.random_state(rng, (2, 3, 2), ("A", "B", "C"))
        else:  # three ququart nodes, each split into two qubit factors
            base, psi = self.random_state(rng, (4, 4, 4), ("A", "B", "C"))
            rho = split_nodes(base, (2, 2))
        d = rho.dim
        # the dense mixture, built here from the vector, and the dense partial trace
        dense = v * np.outer(psi, psi.conj()) + (1.0 - v) * np.eye(d) / d
        mixed = mix_white_noise(rho, v)
        labels = rho.layout.labels
        for keep in [c for k in (1, 2) for c in combinations(labels, k)]:
            got = mixed.marginal_matrix(keep)
            want = partial_trace(dense, rho.layout, keep)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13, keep
        assert "matrix" not in vars(mixed)

    def test_mixing_keeps_the_vector(self):
        rho = ghz_state(16)
        mixed = mix_white_noise(mix_white_noise(rho, 0.5), 0.4)
        assert isinstance(mixed, NoisyPureState)
        assert mixed.vector is rho.vector
        assert mixed.visibility == 0.5 * 0.4
        assert mixed.marginal_matrix(["A", "P"]) == pytest.approx(
            0.2 * np.diag([0.5, 0, 0, 0.5]) + 0.8 * np.eye(4) / 4, abs=1e-15)
        assert "matrix" not in vars(mixed) and "matrix" not in repr(mixed)

    def test_real_vectors_stay_real_and_the_matrix_is_complex(self, rng):
        assert ghz_state(3).vector.dtype == float
        rho, _ = self.random_state(rng, (2, 2), ("A", "B"))
        assert rho.vector.dtype == complex
        for state in (ghz_state(3), rho, maximally_mixed(rho.layout)):
            assert state.matrix.dtype == complex
            assert not state.matrix.flags.writeable

    def test_vector_is_read_only(self):
        with pytest.raises(ValueError):
            ghz_state(3).vector[0] = 2.0

    def test_maximally_mixed_needs_no_matrix(self):
        rho = maximally_mixed(ghz_state(16).layout)
        assert np.array_equal(rho.marginal_matrix(["C", "F"]), np.eye(4) / 4)
        assert "matrix" not in vars(rho)

    def test_with_layout_keeps_the_vector(self):
        rho = split_nodes(mix_white_noise(ghz_state(3, 4), 0.3), (2, 2))
        assert isinstance(rho, NoisyPureState) and rho.visibility == 0.3
        assert rho.layout.dims == (2,) * 6


class TestBtnAssemble:
    def test_three_bell_pairs(self):
        rho = btn_assemble(bell_pair(2), bell_pair(2), bell_pair(2))
        assert rho.layout.labels == ("A1", "A2", "B1", "B2", "C1", "C2")
        # pure state
        assert np.trace(rho.matrix @ rho.matrix).real == pytest.approx(1.0)
        assert np.allclose(marginal(rho, ["A2", "B1"]).matrix, bell_pair(2).matrix)

    def test_product_sources_give_product_state(self, rng):
        halves = [random_density(2, rng) for _ in range(6)]
        srcs = [
            DensityOperator(np.kron(halves[2 * i], halves[2 * i + 1]),
                            SubsystemLayout((2, 2), ("1", "2")))
            for i in range(3)
        ]
        rho = btn_assemble(*srcs)
        # every single-factor marginal of a fully product state is one half
        rebuilt = marginal(rho, ["A1"]).matrix
        for label in rho.layout.labels[1:]:
            rebuilt = np.kron(rebuilt, marginal(rho, [label]).matrix)
        assert np.abs(rho.matrix - rebuilt).max() <= 1e-12

    def test_node_marginal_is_product_of_sources(self, random_triangle_sources):
        rho_a, rho_b, rho_c = random_triangle_sources
        rho = btn_assemble(rho_a, rho_b, rho_c)
        # marginal on node A factorizes into the b- and c-source halves
        a1 = marginal(rho_b, [rho_b.layout.labels[1]]).matrix
        a2 = marginal(rho_c, [rho_c.layout.labels[0]]).matrix
        assert np.abs(node_marginal(rho, "A").matrix - np.kron(a1, a2)).max() <= 1e-12

    def test_ab_marginal_factorizes(self, random_triangle_sources):
        rho = btn_assemble(*random_triangle_sources)
        lhs = node_marginal(rho, "A", "B").matrix
        rhs = np.kron(marginal(rho, ["A1"]).matrix,
                      np.kron(marginal(rho, ["A2", "B1"]).matrix, marginal(rho, ["B2"]).matrix))
        assert np.abs(lhs - rhs).max() <= 1e-12

    def test_rejects_non_bipartite(self, rng):
        bad = DensityOperator(random_density(8, rng), SubsystemLayout((2, 2, 2), ("1", "2", "3")))
        with pytest.raises(ValueError, match="bipartite"):
            btn_assemble(bad, bell_pair(2), bell_pair(2))


class TestLocalOperations:
    def test_identity_unitaries(self, random_triangle_sources):
        rho = btn_assemble(*random_triangle_sources)
        out = apply_local_unitaries(rho, {})
        assert np.array_equal(out.matrix, rho.matrix)

    def test_spectrum_preserved(self, rng, random_triangle_sources):
        rho = btn_assemble(*random_triangle_sources)
        us = {x: random_unitary(4, rng) for x in "ABC"}
        out = apply_local_unitaries(rho, us)
        assert np.abs(np.linalg.eigvalsh(out.matrix) - np.linalg.eigvalsh(rho.matrix)).max() <= 1e-10

    def test_marginal_conjugates(self, rng, random_triangle_sources):
        rho = btn_assemble(*random_triangle_sources)
        u = random_unitary(4, rng)
        out = apply_local_unitaries(rho, {"A": u})
        expect = u @ node_marginal(rho, "A").matrix @ u.conj().T
        assert np.abs(node_marginal(out, "A").matrix - expect).max() <= 1e-10

    def test_rejects_non_unitary(self, random_triangle_sources):
        rho = btn_assemble(*random_triangle_sources)
        with pytest.raises(ValueError, match="unitary"):
            apply_local_unitaries(rho, {"A": np.diag([1.0, 2.0, 1.0, 1.0])})

    def test_identity_channels(self, random_triangle_sources):
        rho = btn_assemble(*random_triangle_sources)
        out = apply_local_channels(rho, {x: KrausChannel.identity(4) for x in "ABC"})
        assert np.abs(out.matrix - rho.matrix).max() <= 1e-12

    def test_depolarizing_all_nodes(self, random_triangle_sources):
        rho = btn_assemble(*random_triangle_sources)
        out = apply_local_channels(rho, {x: KrausChannel.depolarizing(4) for x in "ABC"})
        assert np.allclose(out.matrix, np.eye(64) / 64)

    def test_random_channels_preserve_trace(self, rng, random_triangle_sources):
        rho = btn_assemble(*random_triangle_sources)
        chans = {x: random_kraus_channel(4, int(rng.integers(2, 5)), 3, rng) for x in "ABC"}
        out = apply_local_channels(rho, chans)
        assert np.trace(out.matrix).real == pytest.approx(1.0)
        assert out.dim == np.prod([c.output_dim for c in chans.values()])

    def test_unitary_kraus_matches_unitary_path(self, rng, random_triangle_sources):
        rho = btn_assemble(*random_triangle_sources)
        us = {x: random_unitary(4, rng) for x in "ABC"}
        via_chan = apply_local_channels(rho, {x: KrausChannel.from_unitary(u) for x, u in us.items()})
        via_unit = apply_local_unitaries(rho, us)
        assert np.abs(via_chan.matrix - via_unit.matrix).max() <= 1e-12

    def test_incomplete_kraus_rejected(self):
        with pytest.raises(ValueError, match="completeness"):
            KrausChannel((np.diag([1.0, 0.5]),))


class TestConvexMix:
    def test_single_state(self, rng):
        rho = DensityOperator(random_density(4, rng), SubsystemLayout((2, 2), ("A", "B")))
        assert np.array_equal(convex_mix([rho], [1.0]).matrix, rho.matrix)

    def test_equal_mix_of_basis_projectors(self):
        layout = SubsystemLayout((2,), ("A",))
        p0 = DensityOperator(np.diag([1.0, 0.0]), layout)
        p1 = DensityOperator(np.diag([0.0, 1.0]), layout)
        assert np.allclose(convex_mix([p0, p1], [0.5, 0.5]).matrix, np.eye(2) / 2)

    def test_trace_one(self, rng):
        layout = SubsystemLayout((3,), ("A",))
        states = [DensityOperator(random_density(3, rng), layout) for _ in range(4)]
        w = rng.random(4)
        w /= w.sum()
        assert np.trace(convex_mix(states, w).matrix).real == pytest.approx(1.0)

    def test_bad_weights(self, rng):
        layout = SubsystemLayout((2,), ("A",))
        s = DensityOperator(random_density(2, rng), layout)
        with pytest.raises(ValueError):
            convex_mix([s, s], [0.7, 0.7])


class TestDensityOperatorValidation:
    def test_rejects_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityOperator(np.eye(2), SubsystemLayout((2,), ("A",)))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="positive"):
            DensityOperator(np.diag([1.5, -0.5]), SubsystemLayout((2,), ("A",)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        # NaN fails both the trace and the eigenvalue comparison silently
        with pytest.raises(ValueError, match="non-finite"):
            DensityOperator(np.array([[bad, 0.0], [0.0, 1.0]]), SubsystemLayout((2,), ("A",)))

    def test_constructors_satisfy_invariants(self, rng):
        for rho in (ghz_state(4, 2), w_state(), dicke_state(4), cluster4_state(),
                    bell_pair(3), btn_assemble(*[random_source(2, rng) for _ in range(3)])):
            m = rho.matrix
            assert np.abs(m - m.conj().T).max() <= 1e-10
            assert abs(np.trace(m).real - 1.0) <= 1e-10
            assert np.linalg.eigvalsh(m)[0] >= -1e-9


    def test_constructors_build_exactly_hermitian_states(self, rng):
        # these constructors skip the spectral check, so each must build an
        # exactly Hermitian matrix that the validating constructor accepts
        btn = btn_assemble(*[random_source(2, rng) for _ in range(3)])
        ghz = ghz_state(3, 4)
        topo = NetworkTopology(("1", "2", "3", "4"), (("1", "2", "3"), ("3", "4")))
        states = [mix_white_noise(ghz, v) for v in (0.0, 0.5, 1.0)] + [
            permuted(btn, ("B1", "B2", "A2", "A1", "C2", "C1")),
            swap_node_factors(btn, "B"),
            split_nodes(ghz, (2, 2)),
            network_state(topo, [
                DensityOperator(random_density(8, rng), SubsystemLayout((2, 2, 2), ("x", "y", "z"))),
                random_source(3, rng)]),
            ghz_state(10),
            w_state(), dicke_state(4), cluster4_state(), bell_pair(3), btn,
        ]
        for rho in states:
            m = rho.matrix
            assert np.array_equal(m, m.conj().T)
            assert not m.flags.writeable
            DensityOperator(m, rho.layout)

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf, -np.inf])
    def test_pure_state_rejects_degenerate_vectors(self, bad):
        vec = np.full(4, bad) if bad == 0.0 else np.array([1.0, bad, 0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="state vector"):
                pure_state(vec, SubsystemLayout((2, 2), ("A", "B")))

    def test_trusted_constructor_checks_shape(self):
        with pytest.raises(ValueError, match="layout dimension"):
            ghz_state(3).with_layout(SubsystemLayout((2, 2), ("A", "B")))


class TestNetworkState:
    def test_five_node_example(self, rng):
        topo = NetworkTopology(("1", "2", "3", "4", "5"),
                               (("1", "2", "3"), ("3", "4", "5"), ("1", "5")))
        srcs = [
            DensityOperator(random_density(8, rng), SubsystemLayout((2, 2, 2), ("x", "y", "z"))),
            DensityOperator(random_density(8, rng), SubsystemLayout((2, 2, 2), ("x", "y", "z"))),
            DensityOperator(random_density(4, rng), SubsystemLayout((2, 2), ("x", "y"))),
        ]
        rho = network_state(topo, srcs)
        assert rho.layout.nodes == ("1", "1", "2", "3", "3", "4", "5", "5")
        assert rho.layout.node_dim("1") == 4 and rho.layout.node_dim("2") == 2
        # unconnected pair (2, 4): joint marginal factorizes
        pair = node_marginal(rho, "2", "4").matrix
        assert np.abs(pair - np.kron(node_marginal(rho, "2").matrix,
                                     node_marginal(rho, "4").matrix)).max() <= 1e-12

    def test_source_count_mismatch(self, rng):
        topo = NetworkTopology(("1", "2", "3"), (("1", "2"), ("2", "3")))
        with pytest.raises(ValueError, match="source states"):
            network_state(topo, [bell_pair(2)])


class TestLayoutHelpers:
    def test_split_nodes(self):
        rho = split_nodes(ghz_state(3, 4), (2, 2))
        assert rho.layout.dims == (2, 2, 2, 2, 2, 2)
        assert rho.layout.nodes == ("A", "A", "B", "B", "C", "C")
        assert np.array_equal(rho.matrix, ghz_state(3, 4).matrix)

    def test_split_rejects_bad_product(self):
        with pytest.raises(ValueError, match="split"):
            split_nodes(ghz_state(3, 4), (2, 3))

    def test_swap_node_factors(self, rng):
        srcs = [random_source(2, rng) for _ in range(3)]
        rho = btn_assemble(*srcs)
        swapped = swap_node_factors(rho, "A")
        assert swapped.layout.labels == rho.layout.labels
        back = swap_node_factors(swapped, "A")
        assert np.abs(back.matrix - rho.matrix).max() <= 1e-12
        a1 = marginal(rho, ["A1"]).matrix
        assert np.abs(marginal(swapped, ["A2"]).matrix - a1).max() <= 1e-12

    def test_expectation_via_embed(self, rng):
        rho = mix_white_noise(w_state(), 0.7)
        global_op = embed(PAULI_X, "B", rho.layout)
        marg = node_marginal(rho, "B")
        assert expectation(global_op, rho) == pytest.approx(
            np.trace(PAULI_X @ marg.matrix).real
        )

    def test_maximally_mixed(self):
        layout = SubsystemLayout((2, 3), ("A", "B"))
        assert np.allclose(maximally_mixed(layout).matrix, np.eye(6) / 6)
