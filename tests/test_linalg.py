from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netcm.linalg import (
    SubsystemLayout,
    eigvals_hermitian,
    kron,
    partial_trace,
    permute_subsystems,
    psd_margin,
    psd_project,
    require_hermitian,
    trace_norm,
)
from netcm.observables import PAULI_Z
from netcm.states import random_unitary

from conftest import naive_partial_trace, sequential_partial_trace


def complex_matrix(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def hermitian(rng, n):
    g = complex_matrix(rng, n)
    return 0.5 * (g + g.conj().T)


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_sigma_z_pair(self):
        assert np.allclose(kron(PAULI_Z, PAULI_Z), np.diag([1, -1, -1, 1]))

    def test_projector_product(self):
        p0 = np.diag([1.0, 0.0])
        p1 = np.diag([0.0, 1.0])
        out = kron(p0, p1)
        expect = np.zeros((4, 4))
        expect[1, 1] = 1.0  # |01>
        assert np.allclose(out, expect)


class TestPartialTrace:
    def test_product_state(self, rng):
        from netcm.states import random_density

        ra, rb = random_density(2, rng), random_density(3, rng)
        layout = SubsystemLayout((2, 3), ("A", "B"))
        out = partial_trace(np.kron(ra, rb), layout, ["A"])
        assert np.allclose(out, ra)

    def test_full_trace(self, rng):
        from netcm.states import random_density

        layout = SubsystemLayout((2, 2), ("A", "B"))
        out = partial_trace(random_density(4, rng), layout, [])
        assert out.shape == (1, 1)
        assert np.allclose(out, [[1.0]])

    def test_bell_marginal(self):
        # direct 4x4 computation: |phi+><phi+| entries are 1/2 at the corners
        phi = np.zeros((4, 4))
        phi[0, 0] = phi[0, 3] = phi[3, 0] = phi[3, 3] = 0.5
        layout = SubsystemLayout((2, 2), ("A1", "A2"))
        out = partial_trace(phi, layout, ["A2"])
        assert np.allclose(out, np.eye(2) / 2)

    def test_matches_naive_oracle(self, rng):
        from netcm.states import random_density

        dims = (2, 3, 2)
        layout = SubsystemLayout(dims, ("X", "Y", "Z"))
        rho = random_density(12, rng)
        for keep in (["X"], ["Y"], ["X", "Z"], ["Y", "Z"], ["X", "Y", "Z"]):
            idx = [layout.labels.index(l) for l in keep]
            assert np.allclose(
                partial_trace(rho, layout, keep), naive_partial_trace(rho, dims, idx)
            )

    @pytest.mark.parametrize("dims", [(2, 3, 4, 2), (3, 3, 4, 4), (2,) * 10])
    def test_bitwise_equal_to_sequential_traces(self, rng, dims):
        from netcm.states import random_density

        layout = SubsystemLayout(dims, tuple(f"F{i}" for i in range(len(dims))))
        rho = random_density(layout.dim, rng)
        for r in range(len(dims) + 1):
            for keep in combinations(range(len(dims)), r):
                got = partial_trace(rho, layout, [layout.labels[i] for i in keep])
                assert np.array_equal(got, sequential_partial_trace(rho, dims, keep)), keep

    def test_composes(self, rng):
        from netcm.states import random_density

        dims = (2, 2, 3)
        layout = SubsystemLayout(dims, ("A", "B", "C"))
        rho = random_density(12, rng)
        once = partial_trace(rho, layout, ["A"])
        via_b = partial_trace(rho, layout, ["A", "C"])
        two_step = partial_trace(via_b, SubsystemLayout((2, 3), ("A", "C")), ["A"])
        assert np.abs(once - two_step).max() <= 1e-12

    def test_unknown_label(self, rng):
        from netcm.states import random_density

        layout = SubsystemLayout((2, 2), ("A", "B"))
        with pytest.raises(KeyError):
            partial_trace(random_density(4, rng), layout, ["Q"])


class TestPermuteSubsystems:
    def test_identity(self, rng):
        from netcm.states import random_density

        layout = SubsystemLayout((2, 3), ("A", "B"))
        rho = random_density(6, rng)
        assert np.array_equal(permute_subsystems(rho, layout, ("A", "B")), rho)

    def test_swap_product(self, rng):
        from netcm.states import random_density

        ra, rb = random_density(2, rng), random_density(3, rng)
        layout = SubsystemLayout((2, 3), ("A", "B"))
        out = permute_subsystems(np.kron(ra, rb), layout, ("B", "A"))
        assert np.allclose(out, np.kron(rb, ra))

    def test_three_bell_pairs_marginals(self):
        from netcm.states import bell_pair, btn_assemble

        rho = btn_assemble(bell_pair(2), bell_pair(2), bell_pair(2))
        for label in rho.layout.labels:
            idx = rho.layout.labels.index(label)
            marg = naive_partial_trace(rho.matrix, rho.layout.dims, [idx])
            assert np.allclose(marg, np.eye(2) / 2)

    def test_spectrum_preserved(self, rng):
        from netcm.states import random_density

        layout = SubsystemLayout((2, 2, 3), ("A", "B", "C"))
        rho = random_density(12, rng)
        out = permute_subsystems(rho, layout, ("C", "A", "B"))
        assert np.abs(np.sort(np.linalg.eigvalsh(out)) - np.sort(np.linalg.eigvalsh(rho))).max() <= 1e-10

    def test_not_a_permutation(self, rng):
        from netcm.states import random_density

        layout = SubsystemLayout((2, 2), ("A", "B"))
        with pytest.raises(ValueError):
            permute_subsystems(random_density(4, rng), layout, ("A", "A"))


class TestSpectral:
    def test_diagonal(self):
        assert np.allclose(eigvals_hermitian(np.diag([3.0, 1.0, 2.0])), [1, 2, 3])

    def test_two_by_two(self):
        assert np.allclose(eigvals_hermitian(np.array([[1.0, 2.0], [2.0, 1.0]])), [-1, 3])

    def test_ghz_projector(self):
        from netcm.states import ghz_state

        vals = eigvals_hermitian(ghz_state(3, 2, (0, 1)).matrix)
        assert np.allclose(vals[:7], 0.0, atol=1e-12)
        assert abs(vals[-1] - 1.0) < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            eigvals_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_require_hermitian_stack_rejects_one_bad_matrix(self, rng):
        stack = np.stack([hermitian(rng, 3) for _ in range(4)])
        assert require_hermitian(stack).shape == (4, 3, 3)
        stack[2, 0, 1] += 1e-6
        with pytest.raises(ValueError, match="Hermitian"):
            require_hermitian(stack)

    def test_require_hermitian_keeps_dtype(self, rng):
        real = hermitian(rng, 3).real
        assert require_hermitian(real).dtype == np.float64
        assert require_hermitian(real.astype(complex)).dtype == np.complex128

    def test_eigh_reconstruction(self, rng):
        h = hermitian(rng, 40)
        vals, vecs = np.linalg.eigh(h)
        back = (vecs * vals) @ vecs.conj().T
        assert np.abs(back - h).max() <= 1e-9

    def test_trace_norm_examples(self):
        assert trace_norm(np.eye(3)) == pytest.approx(3.0)
        assert trace_norm(np.diag([1.0, -2.0])) == pytest.approx(3.0)
        assert trace_norm(np.array([[-0.7]])) == pytest.approx(0.7)

    def test_trace_norm_unitary_invariance(self, rng):
        m = complex_matrix(rng, 6)
        u, v = random_unitary(6, rng), random_unitary(6, rng)
        assert trace_norm(u @ m @ v) == pytest.approx(trace_norm(m), abs=1e-8)

    def test_psd_margin(self):
        def is_psd(m):
            low, tol = psd_margin(m)
            return low >= -tol

        assert is_psd(np.eye(4))
        assert not is_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert is_psd(np.zeros((3, 3)))
        assert psd_margin(np.zeros((0, 0))) == (0.0, 1e-8)

    def test_psd_margin_tolerance_scales_with_the_spectral_norm(self):
        low, tol = psd_margin(np.diag([-2.0, 0.5]))
        assert (low, tol) == (-2.0, 1e-8 * 3.0)
        for scale in (1e8, 1e12):
            # a rounding-sized negative eigenvalue of a large matrix is within tolerance
            low, tol = psd_margin(np.diag([scale, -1e-9 * scale]))
            assert low >= -tol
        low, tol = psd_margin(np.diag([1.0, -1e-6]))
        assert low < -tol

    def test_psd_project_fixed_point(self, rng):
        g = complex_matrix(rng, 5)
        psd = g @ g.conj().T
        assert np.abs(psd_project(psd) - psd).max() <= 1e-10

    def test_psd_project_clips(self):
        assert np.allclose(psd_project(np.diag([1.0, -1.0])), np.diag([1.0, 0.0]))
        assert np.abs(psd_project(-np.eye(3))).max() == 0.0

    def test_psd_project_keeps_dtype(self, rng):
        real = psd_project(np.diag([1.0, -1.0]))
        assert real.dtype == np.float64
        assert psd_project(hermitian(rng, 3)).dtype == np.complex128

    def test_psd_project_stack_matches_each(self, rng):
        stack = np.stack([hermitian(rng, 4) for _ in range(3)])
        out = psd_project(stack)
        assert out.shape == stack.shape
        for got, h in zip(out, stack):
            assert np.abs(got - psd_project(h)).max() <= 1e-12

    def test_psd_project_stack_checks_hermiticity(self, rng):
        stack = np.stack([hermitian(rng, 3), complex_matrix(rng, 3)])
        with pytest.raises(ValueError, match="Hermitian"):
            psd_project(stack)

    def test_psd_project_tolerance_scales_with_entries(self, rng):
        h = hermitian(rng, 4)
        h /= np.abs(h).max()
        skew = np.zeros((4, 4))
        skew[0, 1] = 5e-10  # above the unit-scale tolerance 1e-10
        with pytest.raises(ValueError, match="Hermitian"):
            psd_project(np.stack([h, h + skew]))
        assert psd_project(np.stack([1e7 * h, 1e7 * h + skew])).shape == (2, 4, 4)

    def test_psd_project_output_psd(self, rng):
        for _ in range(20):
            h = hermitian(rng, 6)
            assert eigvals_hermitian(psd_project(h))[0] >= -1e-10


@st.composite
def small_hermitian(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    r = np.random.default_rng(seed)
    g = r.standard_normal((n, n)) + 1j * r.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


@settings(max_examples=30, deadline=None)
@given(small_hermitian(), small_hermitian(), small_hermitian())
def test_kron_associative(a, b, c):
    assert np.allclose(kron(kron(a, b), c), kron(a, kron(b, c)), atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_partial_trace_composition_property(seed):
    from netcm.states import random_density

    r = np.random.default_rng(seed)
    dims = tuple(int(d) for d in r.integers(2, 4, size=3))
    layout = SubsystemLayout(dims, ("A", "B", "C"))
    rho = random_density(int(np.prod(dims)), r)
    at_once = partial_trace(rho, layout, ["A"])
    step = partial_trace(rho, layout, ["A", "B"])
    two = partial_trace(step, SubsystemLayout(dims[:2], ("A", "B")), ["A"])
    assert np.abs(at_once - two).max() <= 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.permutations(["A", "B", "C"]))
def test_permute_preserves_spectrum_property(seed, order):
    from netcm.states import random_density

    r = np.random.default_rng(seed)
    dims = tuple(int(d) for d in r.integers(2, 4, size=3))
    layout = SubsystemLayout(dims, ("A", "B", "C"))
    rho = random_density(int(np.prod(dims)), r)
    out = permute_subsystems(rho, layout, order)
    assert np.trace(out) == pytest.approx(np.trace(rho))
    assert np.abs(np.linalg.eigvalsh(out) - np.linalg.eigvalsh(rho)).max() <= 1e-10
