import numpy as np
import pytest

from netcm.covariance import (
    BlockCovarianceMatrix,
    _block_cm,
    _centred,
    _node_stacks,
    covariance_matrix,
    load_cm,
    moments,
    save_cm,
    white_noise_moments,
)
from netcm.linalg import SubsystemLayout
from netcm.observables import (
    PAULI_X,
    PAULI_Z,
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
    ghz_state,
    mix_white_noise,
    random_density,
    random_source,
    w_state,
)

from conftest import (
    brute_force_cm,
    convex_mix,
    embed,
    node_marginal,
    orthogonal_from_unitary,
    product_state_cm,
    random_unitary,
    recombine_cm,
)


def ghz_z_oracle(v):
    """Dense expectation oracle for the GHZ(v) pauli-z CM, built from embeddings."""
    rho = mix_white_noise(ghz_state(3, 2), v)
    zs = [embed(PAULI_Z, x, rho.layout) for x in "ABC"]
    out = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            mean_i = np.trace(zs[i] @ rho.matrix).real
            mean_j = np.trace(zs[j] @ rho.matrix).real
            out[i, j] = np.trace(zs[i] @ zs[j] @ rho.matrix).real - mean_i * mean_j
    return out


class TestCovarianceMatrix:
    @pytest.mark.parametrize("v", [0.0, 0.3, 0.5, 1.0])
    def test_ghz_pauli_z(self, v):
        rho = mix_white_noise(ghz_state(3, 2), v)
        g = covariance_matrix(named_observable_set("pauli-z", rho.layout), rho)
        analytic = np.array([[1, v, v], [v, 1, v], [v, v, 1]], dtype=float)
        assert np.abs(g.matrix - analytic).max() <= 1e-12
        assert np.abs(g.matrix - ghz_z_oracle(v)).max() <= 1e-12

    def test_product_state_off_diagonals_vanish(self, rng):
        layout = SubsystemLayout((2, 2), ("A", "B"))
        rho = DensityOperator(np.kron(random_density(2, rng), random_density(2, rng)), layout)
        obs = ObservableSet({x: [PAULI_X, PAULI_Z] for x in "AB"})
        g = covariance_matrix(obs, rho)
        assert np.abs(g.block("A", "B")).max() <= 1e-12

    def test_cluster_displayed_matrix(self):
        rho = cluster4_state()
        g = covariance_matrix(named_observable_set("cluster-set", rho.layout), rho)
        want = np.array([
            [1, 1, 0, 0],
            [1, 1, 0, 0],
            [0, 0, 1, 1],
            [0, 0, 1, 1],
        ], dtype=float)
        assert np.abs(g.matrix - want).max() <= 1e-12

    def test_matches_brute_force_on_triangle(self, rng):
        srcs = [random_source(2, rng) for _ in range(3)]
        rho = btn_assemble(*srcs)
        obs = full_product_set(rho.layout)
        g = covariance_matrix(obs, rho)
        assert np.abs(g.matrix - brute_force_cm(obs, rho)).max() <= 1e-10

    def test_diagonal_block_equals_marginal_cm(self, rng):
        rho = btn_assemble(*[random_source(2, rng) for _ in range(3)])
        obs = full_product_set(rho.layout)
        g = covariance_matrix(obs, rho)
        for x in "ABC":
            marg = node_marginal(rho, x)
            assert np.abs(g.block(x, x) - moments(obs.stacks[x], marg)[1].real).max() <= 1e-12

    def test_output_is_psd(self, rng):
        rho = mix_white_noise(w_state(), 0.8)
        g = covariance_matrix(named_observable_set("w-set", rho.layout), rho)
        assert np.linalg.eigvalsh(g.matrix)[0] >= -1e-8

    def test_unknown_node_rejected(self):
        rho = ghz_state(3, 2)
        obs = ObservableSet({"Q": [PAULI_Z]})
        with pytest.raises(KeyError):
            covariance_matrix(obs, rho)

    def test_node_dimension_mismatch_rejected(self):
        rho = ghz_state(3, 2)
        obs = ObservableSet({"A": [PAULI_Z], "B": [np.eye(4)]})
        with pytest.raises(ValueError, match="dimension 4"):
            covariance_matrix(obs, rho)

    def test_observable_order_independent_of_layout_order(self, rng):
        # listing nodes in reverse layout order must not transpose the blocks
        rho = mix_white_noise(ghz_state(3, 2), 0.4)
        fwd = ObservableSet({x: [PAULI_Z] for x in "ABC"})
        rev = ObservableSet({x: [PAULI_Z] for x in "CBA"})
        g_fwd = covariance_matrix(fwd, rho)
        g_rev = covariance_matrix(rev, rho)
        for x in "ABC":
            for y in "ABC":
                assert np.abs(g_fwd.block(x, y) - g_rev.block(x, y)).max() <= 1e-12
        # and on a state with asymmetric cross blocks
        rho2 = btn_assemble(*[random_source(2, rng) for _ in range(3)])
        obs_fwd = full_product_set(rho2.layout)
        obs_rev = ObservableSet({x: obs_fwd.stacks[x] for x in "CBA"})
        g1 = covariance_matrix(obs_fwd, rho2)
        g2 = covariance_matrix(obs_rev, rho2)
        assert np.abs(g1.block("A", "C") - g2.block("A", "C")).max() <= 1e-12


class TestBlockAccess:
    def test_ghz_cross_block(self):
        rho = mix_white_noise(ghz_state(3, 2), 0.3)
        g = covariance_matrix(named_observable_set("pauli-z", rho.layout), rho)
        assert np.abs(g.block("A", "B") - [[0.3]]).max() <= 1e-12

    def test_transpose_symmetry(self, rng):
        rho = btn_assemble(*[random_source(2, rng) for _ in range(3)])
        g = covariance_matrix(full_product_set(rho.layout), rho)
        for x in "ABC":
            for y in "ABC":
                assert np.array_equal(g.block(x, y), g.block(y, x).T)

    def test_unknown_node(self):
        g = BlockCovarianceMatrix(np.eye(2), (1, 1), ("A", "B"))
        with pytest.raises(KeyError):
            g.block("A", "Q")


class TestMeanVector:
    def test_traceless_on_maximally_mixed(self):
        rho = np.eye(2) / 2
        assert np.abs(moments([PAULI_X, PAULI_Z], rho)[0]).max() == 0.0

    def test_identity_entry(self):
        assert moments([np.eye(2)], np.eye(2) / 2)[0] == pytest.approx([1.0])

    def test_ground_state_bloch(self):
        rho = np.diag([1.0, 0.0])
        assert np.allclose(moments(list(orthogonal_basis(2)), rho)[0], [1.0, 0.0, 0.0, 1.0])


class TestProductStateCm:
    def test_two_factor_closed_form(self, rng):
        # explicit second form: |a><a| x G2 + G1 x |b><b| + G1 x G2
        r1, r2 = random_density(2, rng), random_density(2, rng)
        obs1 = list(orthogonal_basis(2))
        obs2 = list(orthogonal_basis(2))
        got = product_state_cm([(obs1, r1), (obs2, r2)])
        (a, g1), (b, g2) = moments(obs1, r1), moments(obs2, r2)
        want = (np.kron(np.outer(a, a), g2) + np.kron(g1, np.outer(b, b))
                + np.kron(g1, g2)).real
        assert np.abs(got.matrix - want).max() <= 1e-10

    def test_matches_direct_cm(self, rng):
        r1, r2 = random_density(2, rng), random_density(3, rng)
        obs1, obs2 = list(orthogonal_basis(2)), list(orthogonal_basis(3))
        layout = SubsystemLayout((2, 3), ("P1", "P2"), ("P", "P"))
        rho = DensityOperator(np.kron(r1, r2), layout)
        direct = covariance_matrix(full_product_set(layout), rho)
        closed = product_state_cm([(obs1, r1), (obs2, r2)])
        assert np.abs(closed.matrix - direct.matrix).max() <= 1e-9

    def test_three_factors_match_direct(self, rng):
        marginals = [random_density(2, rng) for _ in range(3)]
        layout = SubsystemLayout((2, 2, 2), ("P1", "P2", "P3"), ("P", "P", "P"))
        rho = DensityOperator(np.kron(marginals[0], np.kron(marginals[1], marginals[2])), layout)
        direct = covariance_matrix(full_product_set(layout), rho)
        closed = product_state_cm([(list(orthogonal_basis(2)), m) for m in marginals])
        assert np.abs(closed.matrix - direct.matrix).max() <= 1e-9

    def test_maximally_mixed_zero_means(self):
        # traceless observables on maximally mixed factors: only the G1 x G2 term survives
        obs = [PAULI_X, PAULI_Z]
        r = np.eye(2) / 2
        got = product_state_cm([(obs, r), (obs, r)])
        _, g = moments(obs, r)
        assert np.abs(got.matrix - np.kron(g, g).real).max() <= 1e-12


def white_noise_cm(obs, rho):
    """v -> the CM of v*rho + (1 - v)*1/d, centred from the endpoint mixer's moments."""
    stacks = _node_stacks(obs, rho.layout)
    moments_at = white_noise_moments(stacks, rho)
    return lambda v: _block_cm(stacks, _centred(*moments_at(v)))


class TestWhiteNoiseCm:
    """The CM from the two endpoint moment sets against the CM of the dense mixture."""

    @staticmethod
    def dense_mixture(rho, v):
        # a validated dense state: its marginals come from linalg.partial_trace
        return DensityOperator(mix_white_noise(rho, v).matrix, rho.layout)

    @pytest.mark.parametrize("state, name", [(ghz_state(4, 2), "pauli-z"), (w_state(), "w-set"),
                                             (cluster4_state(), "cluster-set")])
    def test_matches_dense_mixture(self, state, name):
        obs = named_observable_set(name, state.layout)
        cm_at = white_noise_cm(obs, state)
        for v in np.linspace(0.0, 1.0, 21):
            got, want = cm_at(v), covariance_matrix(obs, self.dense_mixture(state, v))
            assert (got.block_sizes, got.node_labels) == (want.block_sizes, want.node_labels)
            assert np.abs(got.matrix - want.matrix).max() <= 1e-12, v

    def test_dense_state(self, rng):
        rho = btn_assemble(*[random_source(2, rng) for _ in range(3)])
        obs = full_product_set(rho.layout)
        cm_at = white_noise_cm(obs, rho)
        for v in (0.0, 0.37, 1.0):
            want = covariance_matrix(obs, self.dense_mixture(rho, v))
            assert np.abs(cm_at(v).matrix - want.matrix).max() <= 1e-12

    def test_endpoints_are_the_plain_cms(self):
        rho = mix_white_noise(ghz_state(5, 2), 0.8)
        obs = named_observable_set("pauli-z", rho.layout)
        assert np.array_equal(white_noise_cm(obs, rho)(1.0).matrix,
                              covariance_matrix(obs, rho).matrix)


class TestConcavity:
    def test_mixture_dominates_average(self, rng):
        layout = SubsystemLayout((2, 2), ("A", "B"))
        obs = ObservableSet({x: [PAULI_X, PAULI_Z] for x in "AB"})
        for _ in range(10):
            states = [DensityOperator(random_density(4, rng), layout) for _ in range(3)]
            w = rng.random(3)
            w /= w.sum()
            mixed = convex_mix(states, w)
            diff = covariance_matrix(obs, mixed).matrix - sum(
                wi * covariance_matrix(obs, s).matrix for wi, s in zip(w, states))
            assert np.linalg.eigvalsh(diff)[0] >= -1e-8


class TestRecombine:
    def test_identity(self, rng):
        rho = mix_white_noise(ghz_state(3, 2), 0.4)
        g = covariance_matrix(named_observable_set("pauli-z", rho.layout), rho)
        out = recombine_cm(g, np.eye(3))
        assert np.abs(out.matrix - g.matrix).max() <= 1e-12

    def test_permutation(self, rng):
        rho = mix_white_noise(w_state(), 0.9)
        g = covariance_matrix(named_observable_set("w-set", rho.layout), rho)
        p = np.eye(6)[:, ::-1]
        out = recombine_cm(g, p)
        assert np.abs(out.matrix - g.matrix[::-1, ::-1]).max() <= 1e-12

    def test_congruence_matches_recombined_observables(self, rng):
        # Lemma-style identity: CM of M_j = sum_i C_ij N_i equals C^T Gamma C
        layout = SubsystemLayout((2, 2), ("A", "B"))
        rho = DensityOperator(random_density(4, rng), layout)
        obs = ObservableSet({x: [PAULI_X, PAULI_Z] for x in "AB"})
        g = covariance_matrix(obs, rho)
        c = rng.standard_normal((4, 4))
        mats = [embed(m, x, layout) for x in "AB" for m in (PAULI_X, PAULI_Z)]
        recombined = [sum(c[i, j] * mats[i] for i in range(4)) for j in range(4)]
        means = [np.trace(m @ rho.matrix).real for m in recombined]
        direct = np.zeros((4, 4))
        for i in range(4):
            for j in range(4):
                sym = 0.5 * (recombined[i] @ recombined[j] + recombined[j] @ recombined[i])
                direct[i, j] = np.trace(sym @ rho.matrix).real - means[i] * means[j]
        out = recombine_cm(g, c)
        assert np.abs(out.matrix - direct).max() <= 1e-10

    def test_rectangular_needs_col_sizes(self, rng):
        g = BlockCovarianceMatrix(np.eye(4), (2, 2), ("A", "B"))
        with pytest.raises(ValueError, match="col_sizes"):
            recombine_cm(g, np.ones((4, 2)))
        out = recombine_cm(g, np.eye(4)[:, :2], col_sizes=(1, 1))
        assert out.block_sizes == (1, 1)

    def test_unitary_expansion_matches_conjugated_observable_cm(self, rng):
        # direct-CM oracle: the CM of conjugated basis elements U^dag G U
        # equals the congruence with the expansion matrix of the conjugation
        layout = SubsystemLayout((3,), ("A",))
        basis = orthogonal_basis(3)
        obs = ObservableSet({"A": list(basis)})
        rho = DensityOperator(random_density(3, rng), layout)
        g = covariance_matrix(obs, rho)
        u = random_unitary(3, rng)
        conjugated = ObservableSet({"A": [u.conj().T @ el @ u for el in basis]})
        direct = covariance_matrix(conjugated, rho)
        o = orthogonal_from_unitary(u, basis)
        # U^dag G_a U = sum_b O_ab G_b, i.e. the recombination matrix is O^T
        out = recombine_cm(g, o.T)
        assert np.abs(out.matrix - direct.matrix).max() <= 1e-9


class TestIo:
    def test_roundtrip(self, tmp_path, rng):
        rho = btn_assemble(*[random_source(2, rng) for _ in range(3)])
        g = covariance_matrix(full_product_set(rho.layout), rho)
        path = tmp_path / "gamma.ncmx"
        save_cm(g, path)
        back = load_cm(path)
        assert np.array_equal(back.matrix, g.matrix)
        assert back.block_sizes == g.block_sizes
        assert back.node_labels == g.node_labels

    def test_validation_on_construction(self):
        with pytest.raises(ValueError, match="symmetric"):
            BlockCovarianceMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]), (1, 1), ("A", "B"))
        with pytest.raises(ValueError, match="PSD"):
            BlockCovarianceMatrix(-np.eye(2), (1, 1), ("A", "B"))

    @pytest.mark.parametrize("scale", [1e8, 1e12])
    def test_psd_tolerance_scales_with_the_norm(self, scale, tmp_path):
        # the Bell-triangle CM is singular, so rounding of the scaled matrix
        # gives eigenvalues below zero that grow with the scale
        rho = btn_assemble(*[bell_pair(2)] * 3)
        g = covariance_matrix(full_product_set(rho.layout), rho)
        big = BlockCovarianceMatrix(scale * g.matrix, g.block_sizes, g.node_labels)
        save_cm(big, tmp_path / "big.ncmx")
        assert np.array_equal(load_cm(tmp_path / "big.ncmx").matrix, big.matrix)

    def test_psd_violation_at_unit_scale_rejected(self):
        m = np.diag([1.0, -1e-6])
        with pytest.raises(ValueError, match="PSD"):
            BlockCovarianceMatrix(m, (1, 1), ("A", "B"))

    def test_symmetry_tolerance_scales_with_entries(self):
        m = np.array([[1e7, 0.0], [5e-10, 1e7]])  # the asymmetry exceeds the unit-scale 1e-10
        g = BlockCovarianceMatrix(m, (1, 1), ("A", "B"))
        assert np.array_equal(g.matrix, g.matrix.T)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        m = np.eye(2)
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            BlockCovarianceMatrix(m, (1, 1), ("A", "B"))
