import numpy as np
import pytest

from netcm.linalg import SubsystemLayout
from netcm.observables import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    ObservableSet,
    full_product_set,
    named_observable_set,
    orthogonal_basis,
    product_stack,
)
from netcm.states import ghz_state, random_density, split_nodes, w_state

from conftest import bloch_vector, embed, orthogonal_from_unitary, random_unitary, reduced_observable


def gram(elements):
    return np.array([[np.trace(a @ b).real for b in elements] for a in elements])


class TestPauliBasis:
    def test_orthogonality(self):
        b = orthogonal_basis(2)
        assert np.trace(PAULI_X @ PAULI_Y).real == pytest.approx(0.0)
        assert np.trace(PAULI_Z @ PAULI_Z).real == pytest.approx(2.0)
        assert len(b) == 4

    def test_identity_first(self):
        assert np.array_equal(orthogonal_basis(2)[0], np.eye(2))


class TestOrthogonalBasis:
    def test_d2_is_pauli(self):
        b = orthogonal_basis(2)
        for got, want in zip(b, (np.eye(2), PAULI_X, PAULI_Y, PAULI_Z)):
            assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_shape_and_identity_first(self, d):
        b = orthogonal_basis(d)
        assert b.shape == (d * d, d, d) and b.dtype == complex
        assert np.array_equal(b[0], np.eye(d))

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_hermitian_and_gram(self, d):
        b = orthogonal_basis(d)
        assert np.array_equal(b, np.swapaxes(b, 1, 2).conj())
        assert np.abs(gram(list(b)) - d * np.eye(d * d)).max() <= 1e-10

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_completeness(self, d, rng):
        b = orthogonal_basis(d)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        m = 0.5 * (g + g.conj().T)
        back = sum(np.trace(el @ m) / d * el for el in b)
        assert np.abs(back - m).max() <= 1e-10

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_read_only_and_cached(self, d):
        b = orthogonal_basis(d)
        assert orthogonal_basis(d) is b
        assert not b.flags.writeable and not any(g.flags.writeable for g in b)
        with pytest.raises(ValueError):
            b[1][0, 0] = 1.0

    def test_bloch_vector_roundtrip(self, rng):
        b = orthogonal_basis(3)
        rho = random_density(3, rng)
        coeffs = bloch_vector(b, rho)
        assert coeffs[0] == pytest.approx(1.0)  # identity component = trace
        back = sum(c * el for c, el in zip(coeffs, b)) / 3
        assert np.abs(back - rho).max() <= 1e-10


class TestObservable:
    """One observable, as a one-element stack of an :class:`ObservableSet`."""

    def test_hermiticity_tolerance_scales_with_entries(self):
        skew = np.zeros((2, 2))
        skew[0, 1] = 5e-10  # above the unit-scale tolerance 1e-10
        assert ObservableSet({"A": [1e7 * PAULI_Z + skew]}).stacks["A"].shape == (1, 2, 2)
        with pytest.raises(ValueError, match="Hermitian"):
            ObservableSet({"A": [PAULI_Z + skew]})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_rejects_non_finite(self, bad, where):
        m = PAULI_X.copy()
        m[where] = m[where[::-1]] = bad
        with pytest.raises(ValueError, match="non-finite"):
            ObservableSet({"A": [m]})


class TestObservableSet:
    def test_rejects_empty_mapping(self):
        with pytest.raises(ValueError, match="empty"):
            ObservableSet({})

    def test_rejects_non_hermitian_stack(self):
        with pytest.raises(ValueError, match="Hermitian"):
            ObservableSet({"A": [PAULI_Z, np.array([[0.0, 1.0], [0.0, 0.0]])]})

    def test_rejects_non_finite_stack(self):
        with pytest.raises(ValueError, match="non-finite"):
            ObservableSet({"A": [PAULI_Z], "B": [np.full((2, 2), np.nan)]})

    @pytest.mark.parametrize("stack", [np.zeros((0, 2, 2)), PAULI_Z, np.zeros((1, 2, 3))])
    def test_rejects_empty_flat_or_non_square_stack(self, stack):
        with pytest.raises(ValueError, match="stack"):
            ObservableSet({"A": stack})

    def test_stacks_are_read_only_and_symmetrized(self):
        m = np.array([[1.0, 2.0 + 1e-12], [2.0, -1.0]])
        s = ObservableSet({"A": [m], "B": [PAULI_Z, PAULI_X]})
        assert s.node_order == ("A", "B") and s.block_sizes == (1, 2)
        assert np.array_equal(s.stacks["A"][0], s.stacks["A"][0].conj().T)
        with pytest.raises(ValueError):
            s.stacks["B"][0, 0, 0] = 2.0
        with pytest.raises(TypeError):
            s.stacks["C"] = np.stack([PAULI_Z])


class TestEmbed:
    def test_sigma_z_on_first(self):
        layout = SubsystemLayout((2, 2, 2), ("A", "B", "C"))
        out = embed(PAULI_Z, "A", layout)
        assert np.allclose(out, np.kron(PAULI_Z, np.eye(4)))

    def test_identity_observable(self):
        layout = SubsystemLayout((2, 3), ("A", "B"))
        out = embed(np.eye(3), "B", layout)
        assert np.allclose(out, np.eye(6))

    def test_factor_support_within_node(self):
        layout = SubsystemLayout((2, 2, 2), ("A1", "A2", "B"), ("A", "A", "B"))
        out = embed(PAULI_X, "A", layout, factor_support=("A2",))
        assert np.allclose(out, np.kron(np.eye(2), np.kron(PAULI_X, np.eye(2))))

    def test_unknown_node(self):
        layout = SubsystemLayout((2,), ("A",))
        with pytest.raises(KeyError):
            embed(PAULI_Z, "Q", layout)


class TestProductSet:
    def qubit_pair(self):
        return product_stack([orthogonal_basis(2)] * 2)

    def test_qubit_pair_count(self):
        assert len(self.qubit_pair()) == 16

    def test_identity_first(self):
        assert np.allclose(self.qubit_pair()[0], np.eye(4))

    def test_product_norm(self):
        assert np.abs(gram(list(self.qubit_pair())) - 4.0 * np.eye(16)).max() <= 1e-10

    def test_full_product_set_blocks(self):
        rho = split_nodes(ghz_state(3, 4), (2, 2))
        s = full_product_set(rho.layout)
        assert s.block_sizes == (16, 16, 16)
        assert s.node_order == rho.layout.node_order


class TestReducedObservable:
    def test_product_observable_reduces_to_scaled_factor(self, rng):
        rho1 = random_density(2, rng)
        for ga in orthogonal_basis(2):
            for gb in orthogonal_basis(2):
                red = reduced_observable(np.kron(ga, gb), (2, 2), rho1, keep=2)
                want = np.trace(ga @ rho1) * gb
                assert np.abs(red - want).max() <= 1e-12

    def test_keep_first_factor(self, rng):
        rho2 = random_density(3, rng)
        a = np.kron(PAULI_X, orthogonal_basis(3)[4])
        red = reduced_observable(a, (2, 3), rho2, keep=1)
        want = np.trace(orthogonal_basis(3)[4] @ rho2) * PAULI_X
        assert np.abs(red - want).max() <= 1e-12

    def test_zz_zx_with_ground_state(self):
        ground = np.diag([1.0, 0.0])
        assert np.abs(reduced_observable(np.kron(PAULI_Z, PAULI_X), (2, 2), ground, 2) - PAULI_X).max() <= 1e-12
        assert np.abs(reduced_observable(np.kron(PAULI_X, PAULI_X), (2, 2), ground, 2)).max() <= 1e-12

    def test_linear(self, rng):
        rho1 = random_density(2, rng)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = 0.5 * (a + a.conj().T)
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = 0.5 * (b + b.conj().T)
        lhs = reduced_observable(2.0 * a + 3.0 * b, (2, 2), rho1, 2)
        rhs = 2.0 * reduced_observable(a, (2, 2), rho1, 2) + 3.0 * reduced_observable(b, (2, 2), rho1, 2)
        assert np.abs(lhs - rhs).max() <= 1e-12

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError, match="marginal"):
            reduced_observable(np.eye(4), (2, 2), random_density(3, rng), 2)


class TestOrthogonalFromUnitary:
    def test_identity(self):
        o = orthogonal_from_unitary(np.eye(2), orthogonal_basis(2))
        assert np.abs(o - np.eye(4)).max() <= 1e-12

    def test_orthogonal(self, rng):
        for d in (2, 3, 4):
            b = orthogonal_basis(d)
            o = orthogonal_from_unitary(random_unitary(d, rng), b)
            assert np.abs(o @ o.T - np.eye(d * d)).max() <= 1e-9

    def test_hadamard_maps_z_to_x(self):
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
        o = orthogonal_from_unitary(h, orthogonal_basis(2))
        # hand expansion: H z H = x, H x H = z, H y H = -y
        assert np.allclose(o[3], [0.0, 1.0, 0.0, 0.0], atol=1e-12)
        assert np.allclose(o[1], [0.0, 0.0, 0.0, 1.0], atol=1e-12)
        assert np.allclose(o[2], [0.0, 0.0, -1.0, 0.0], atol=1e-12)

    def test_composition(self, rng):
        b = orthogonal_basis(3)
        u1, u2 = random_unitary(3, rng), random_unitary(3, rng)
        lhs = orthogonal_from_unitary(u1 @ u2, b)
        rhs = orthogonal_from_unitary(u1, b) @ orthogonal_from_unitary(u2, b)
        assert np.abs(lhs - rhs).max() <= 1e-9

    def test_expansion_is_faithful(self, rng):
        b = orthogonal_basis(2)
        u = random_unitary(2, rng)
        o = orthogonal_from_unitary(u, b)
        for i, g in enumerate(b):
            back = sum(o[i, j] * gj for j, gj in enumerate(b))
            assert np.abs(u.conj().T @ g @ u - back).max() <= 1e-10

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            orthogonal_from_unitary(np.diag([1.0, 2.0]), orthogonal_basis(2))


class TestNamedSets:
    def test_pauli_z(self):
        s = named_observable_set("pauli-z", ghz_state(3, 2).layout)
        assert sum(s.block_sizes) == 3
        assert all(np.array_equal(m, PAULI_Z) for st in s.stacks.values() for m in st)
        assert s.node_order == ("A", "B", "C")

    def test_w_set(self):
        s = named_observable_set("w-set", w_state().layout)
        assert sum(s.block_sizes) == 6
        mats = s.stacks["B"]
        assert np.array_equal(mats[0], PAULI_X) and np.array_equal(mats[1], PAULI_Y)

    def test_cluster_set(self):
        from netcm.states import cluster4_state

        s = named_observable_set("cluster-set", cluster4_state().layout)
        mats = [m for st in s.stacks.values() for m in st]
        for got, want in zip(mats, (PAULI_X, PAULI_Z, PAULI_Z, PAULI_X)):
            assert np.array_equal(got, want)

    def test_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown observable set"):
            named_observable_set("bogus", ghz_state(3, 2).layout)

    def test_pauli_z_needs_qubits(self):
        with pytest.raises(ValueError, match="qubit"):
            named_observable_set("pauli-z", ghz_state(3, 4).layout)
