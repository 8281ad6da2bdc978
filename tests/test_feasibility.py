import json

import numpy as np
import pytest

from conftest import plain_dykstra, with_unfed_node, witness_from_parts
from netcm import feasibility

from netcm.covariance import BlockCovarianceMatrix, covariance_matrix
from netcm.criteria import btn_decompose, trace_norm_criterion
from netcm.feasibility import (
    FeasibilityProblem,
    InfeasibilityCertificate,
    _Stack,
    export_witness,
    solve,
    verify_certificate,
    verify_witness,
)
from netcm.linalg import SubsystemLayout
from netcm.ncmx import read_matrix
from netcm.observables import ObservableSet, full_product_set, named_observable_set
from netcm.states import (
    btn_assemble,
    ghz_state,
    mix_white_noise,
    pure_state,
    random_density,
    random_source,
    w_state,
)
from netcm.topology import NetworkTopology, line_topology, triangle_topology


def ghz_problem(v):
    rho = mix_white_noise(ghz_state(3, 2), v)
    g = covariance_matrix(named_observable_set("pauli-z", rho.layout), rho)
    return FeasibilityProblem(g, triangle_topology())


def ghz4_three_node_source_problem(v):
    """GHZ4 on pauli-z with sources (A, B, C), (A, D), (B, D), (C, D)."""
    rho = mix_white_noise(ghz_state(4, 2), v)
    g = covariance_matrix(named_observable_set("pauli-z", rho.layout), rho)
    topo = NetworkTopology(("A", "B", "C", "D"), (("A", "B", "C"), ("A", "D"), ("B", "D"), ("C", "D")))
    return FeasibilityProblem(g, topo)


def w_problem(v):
    rho = mix_white_noise(w_state(), v)
    g = covariance_matrix(named_observable_set("w-set", rho.layout), rho)
    return FeasibilityProblem(g, triangle_topology())


def btn_problem(rng):
    srcs = [random_source(2, rng) for _ in range(3)]
    rho = btn_assemble(*srcs)
    obs = full_product_set(rho.layout)
    g = covariance_matrix(obs, rho)
    return FeasibilityProblem(g, triangle_topology()), srcs, obs


def scaled_problem(prob, scale):
    g = prob.gamma
    return FeasibilityProblem(
        BlockCovarianceMatrix(scale * g.matrix, g.block_sizes, g.node_labels), prob.topology)


class TestSolve:
    def test_zero_matrix(self):
        g = BlockCovarianceMatrix(np.zeros((3, 3)), (1, 1, 1), ("A", "B", "C"))
        out = solve(FeasibilityProblem(g, triangle_topology()))
        assert out.status == "feasible"
        assert all(np.abs(t).max() <= 1e-12 for t in out.witness)

    def test_zero_matrix_has_the_exact_zero_witness(self):
        # the unit max|Gamma_ij| is 0, so the target is 0: only exact zeros meet it
        prob = FeasibilityProblem(BlockCovarianceMatrix(np.zeros((3, 3)), (1, 1, 1),
                                                        ("A", "B", "C")), triangle_topology())
        out = solve(prob)
        assert (out.status, out.iterations, out.residual) == ("feasible", 1, 0.0)
        assert all(not t.any() for t in out.witness)
        assert verify_witness(prob, out.witness)
        assert not verify_witness(prob, [t + 1e-300 * np.eye(3) for t in out.witness])

    @pytest.mark.parametrize("scale", [1e-3, 1e-8])
    def test_small_violating_cm_stays_infeasible(self, scale):
        # the residual target is relative at every scale: shrinking a CM the
        # trace-norm criterion excludes must not make it feasible
        prob = scaled_problem(ghz_problem(0.8), scale)
        out = solve(prob)
        assert out.status == "infeasible"
        assert verify_certificate(prob, out.certificate)

    def test_small_btn_cm_feasible(self, rng):
        prob = scaled_problem(btn_problem(rng)[0], 1e-8)
        out = solve(prob)
        assert out.status == "feasible"
        assert out.residual <= 1e-7 * np.abs(prob.gamma.matrix).max()
        assert verify_witness(prob, out.witness)

    def test_btn_cm_feasible_with_verified_witness(self, rng):
        prob, _, _ = btn_problem(rng)
        out = solve(prob)
        assert out.status == "feasible"
        assert out.residual <= 1e-7
        assert verify_witness(prob, out.witness, 1e-7)

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e5, 1e7])
    def test_scaled_btn_cm_feasible(self, rng, scale):
        # rounding in the PSD projection grows with the entries; its
        # Hermiticity tolerance must grow with them too
        prob, _, _ = btn_problem(rng)
        g = prob.gamma
        scaled = FeasibilityProblem(
            BlockCovarianceMatrix(scale * g.matrix, g.block_sizes, g.node_labels), prob.topology)
        out = solve(scaled, tol=1e-7 * scale)
        assert out.status == "feasible"
        assert verify_witness(scaled, out.witness, 1e-7 * scale)

    @pytest.mark.parametrize("scale", [1e3, 1e5, 1e7])
    def test_scaled_btn_cm_meets_the_relative_target(self, rng, scale):
        # the target is tol * max|Gamma_ij|: the unscaled tol asks a scaled CM
        # for the relative accuracy it asks of the original
        prob, _, _ = btn_problem(rng)
        g = prob.gamma
        scaled = FeasibilityProblem(
            BlockCovarianceMatrix(scale * g.matrix, g.block_sizes, g.node_labels), prob.topology)
        out = solve(scaled, tol=1e-7)
        assert out.status == "feasible"
        assert out.residual <= 1e-7 * np.abs(scaled.gamma.matrix).max()
        assert verify_witness(scaled, out.witness, 1e-7)

    def test_ghz_violating_cm_infeasible(self):
        out = solve(ghz_problem(0.6), tol=1e-7, max_iter=3000)
        assert out.status == "infeasible"
        assert out.residual >= 1e-6

    def test_feasible_ghz_below_threshold(self):
        out = solve(ghz_problem(0.4))
        assert out.status == "feasible"

    def test_non_ncds_rejected(self):
        g = BlockCovarianceMatrix(np.eye(3), (1, 1, 1), ("A", "B", "C"))
        bad = NetworkTopology(("A", "B", "C"), (("A", "B"), ("A", "B")))
        with pytest.raises(ValueError, match="NCDS"):
            FeasibilityProblem(g, bad)

    def test_monotone_residual(self, rng):
        out = solve(ghz_problem(0.8), max_iter=2000)
        assert len(out.residual_history) == out.iterations
        prob, _, _ = btn_problem(rng)
        out = solve(prob)
        assert out.status == "feasible"
        h = out.residual_history
        assert len(h) == out.iterations
        assert (np.diff(h[10:]) <= 1e-12).all()

    def test_never_feasible_when_trace_norm_violated(self):
        for v in (0.55, 0.75, 0.95):
            prob = ghz_problem(v)
            assert not trace_norm_criterion(prob.gamma, prob.topology).passed
            out = solve(prob, max_iter=2000)
            assert out.status != "feasible"

    def test_cross_oracle_random_states(self, rng):
        # noisy GHZ-like pure states with sigma_z plus one random observable
        # per node: a CM the trace-norm criterion excludes is never feasible
        layout = SubsystemLayout((2, 2, 2), ("A", "B", "C"))
        sz = np.diag([1.0, -1.0])
        violated = 0
        for _ in range(40):
            vec = 0.2 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
            vec[0] += 1.0
            vec[7] += rng.uniform(0.5, 1.5)
            rho = mix_white_noise(pure_state(vec, layout), rng.uniform(0.4, 1.0))
            obs = {}
            for x in "ABC":
                h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                obs[x] = [sz, 0.3 * (h + h.conj().T)]
            prob = FeasibilityProblem(covariance_matrix(ObservableSet(obs), rho),
                                      triangle_topology())
            if not trace_norm_criterion(prob.gamma, prob.topology).passed:
                violated += 1
                out = solve(prob, max_iter=3000)
                assert out.status != "feasible"
        assert 5 <= violated <= 35

    def test_max_iter_must_be_positive(self):
        with pytest.raises(ValueError, match="max_iter"):
            solve(ghz_problem(0.8), max_iter=0)

    @pytest.mark.parametrize("tol", [0.0, -1e-7, float("nan")])
    def test_tolerance_must_be_positive(self, tol):
        with pytest.raises(ValueError, match="tolerance must be > 0"):
            solve(ghz_problem(0.3), tol=tol)


# the triangle on A, B, C and a node D that no source feeds
TRIANGLE_AND_D = NetworkTopology(("A", "B", "C", "D"), triangle_topology().sources)


class TestUnfedNode:
    """A node no source feeds is one summand of its own, holding its diagonal block."""

    def test_feasible_with_verified_witness(self, rng):
        prob = FeasibilityProblem(with_unfed_node(btn_problem(rng)[0].gamma, rng), TRIANGLE_AND_D)
        assert prob.summands[-1] == ("D",)
        out = solve(prob)
        assert out.status == "feasible"
        assert len(out.witness) == 4
        assert verify_witness(prob, out.witness)
        d = prob.gamma.node_slice("D")
        assert np.abs(out.witness[3][d, d] - prob.gamma.block("D", "D")).max() <= 1e-7

    def test_infeasible_with_verified_certificate(self, rng):
        prob = FeasibilityProblem(with_unfed_node(ghz_problem(0.8).gamma, rng), TRIANGLE_AND_D)
        out = solve(prob)
        assert out.status == "infeasible"
        assert out.certificate.matrix.shape == (prob.gamma.dim, prob.gamma.dim)
        assert verify_certificate(prob, out.certificate)

    def test_correlated_unfed_node_is_an_uncovered_pair(self):
        rho = mix_white_noise(ghz_state(4, 2), 0.3)
        g = covariance_matrix(named_observable_set("pauli-z", rho.layout), rho)
        out = solve(FeasibilityProblem(g, TRIANGLE_AND_D))
        assert (out.status, out.iterations, out.certificate.pair) == ("infeasible", 0, ("A", "D"))


def near_boundary_problem(state, seed, v):
    """``state`` mixed with white noise at visibility ``v``, with sigma_z plus one
    random observable per node (fixed by ``seed``), on the triangle."""
    rng = np.random.default_rng(seed)
    rho = mix_white_noise(state, v)
    obs = {}
    for x in "ABC":
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        obs[x] = [np.diag([1.0, -1.0]), 0.5 * (h + h.conj().T)]
    return FeasibilityProblem(covariance_matrix(ObservableSet(obs), rho), triangle_topology())


# 840 CMs around the GHZ3 threshold 1/2 and 210 around the W threshold 3/4.  An
# extrapolation regularised relative to the Gram matrix alone, not to ||f||^2,
# delays certificates on both sets (4 -> 8 or 16 iterations)
NEAR_GHZ3 = [(seed, v) for seed in range(40) for v in np.linspace(0.3, 0.7, 21)]
NEAR_W = [(seed, v) for seed in range(10) for v in np.linspace(0.6, 1.0, 21)]


class TestAnderson:
    """The accelerated solver against plain Dykstra (``conftest.plain_dykstra``)."""

    def test_random_btn_feasible_in_no_more_iterations(self):
        rng = np.random.default_rng(902)
        for _ in range(24):
            prob, _, _ = btn_problem(rng)
            out, ref = solve(prob), plain_dykstra(prob)
            assert out.status == ref.status == "feasible"
            assert verify_witness(prob, out.witness)
            assert out.iterations <= ref.iterations

    def test_ghz3_near_boundary_matches_plain_dykstra(self):
        for seed, v in NEAR_GHZ3:
            prob = near_boundary_problem(ghz_state(3, 2), seed, v)
            out, ref = solve(prob, max_iter=1000), plain_dykstra(prob, max_iter=1000)
            assert out.status == ref.status, (seed, v)
            if ref.certificate is not None:
                assert out.certificate.iteration <= ref.certificate.iteration, (seed, v)

    def test_w_near_boundary_certificates_no_later(self):
        # plain Dykstra converges slowly here: within 1000 iterations it leaves
        # some feasible CMs inconclusive, which the accelerated solver
        # resolves with a verified witness
        for seed, v in NEAR_W:
            prob = near_boundary_problem(w_state(), seed, v)
            out, ref = solve(prob, max_iter=1000), plain_dykstra(prob, max_iter=1000)
            assert (out.status == "infeasible") == (ref.status == "infeasible"), (seed, v)
            if ref.certificate is not None:
                assert out.certificate.iteration <= ref.certificate.iteration, (seed, v)
            if out.status != ref.status:
                assert out.status == "feasible", (seed, v)
            if out.status == "feasible":
                assert verify_witness(prob, out.witness), (seed, v)

    def test_plain_dykstra_residual_is_monotone(self, rng):
        # the accelerated residual need not fall monotonically and reaches the
        # target in about 12 iterations, so the monotone tail that
        # TestSolve.test_monotone_residual was written for is checked here
        prob, _, _ = btn_problem(rng)
        h = plain_dykstra(prob).residual_history
        assert len(h) > 30
        assert (np.diff(h[10:]) <= 1e-12).all()

    def test_first_iteration_certificate_is_plain_dykstras(self):
        for prob in (ghz_problem(0.8), w_problem(0.9)):
            out, ref = solve(prob), plain_dykstra(prob)
            assert out.iterations == ref.iterations == out.certificate.iteration == 1
            assert out.residual == ref.residual
            assert np.array_equal(out.certificate.matrix, ref.certificate.matrix)

    def test_psd_project_sees_only_symmetric_stacks(self, monkeypatch):
        seen = []

        def checked(m):
            seen.append(np.array_equal(m, np.swapaxes(m, -1, -2)))
            return psd_project(m)

        psd_project = feasibility.psd_project
        monkeypatch.setattr(feasibility, "psd_project", checked)
        prob, _, _ = btn_problem(np.random.default_rng(5))
        assert solve(prob).status == "feasible"
        assert solve(near_boundary_problem(w_state(), 0, 1.0), max_iter=300).iterations == 300
        assert len(seen) > 300 and all(seen)


class TestCapWithoutCertificate:
    @pytest.mark.parametrize("seed", [0, 2, 5])
    def test_near_boundary_w_is_inconclusive(self, seed, tmp_path):
        # pure W with sigma_z and one random observable per node passes the
        # trace-norm criterion; at 1000 iterations the residual is still
        # falling, with neither a witness nor a certificate: no exit 1
        from netcm.cli import main
        from netcm.covariance import save_cm

        save_cm(near_boundary_problem(w_state(), seed, 1.0).gamma, tmp_path / "cm.ncmx")
        out = tmp_path / "report.json"
        assert main(["feasibility", "--cm-file", str(tmp_path / "cm.ncmx"), "--max-iter", "1000",
                     "--output", str(out)]) == 2
        report = json.loads(out.read_text())
        assert report["status"] == "inconclusive"
        assert "certificate" not in report


class TestCertificate:
    def test_certifies_above_thresholds_within_eight_iterations(self):
        problems = [ghz_problem(v) for v in (0.501, 0.6, 0.8, 1.0)]
        problems += [w_problem(v) for v in (0.751, 0.8, 0.9, 1.0)]
        for prob in problems:
            out = solve(prob, max_iter=8)
            assert out.status == "infeasible"
            assert out.certificate.iteration <= 8
            assert out.witness is None
            assert verify_certificate(prob, out.certificate)
            cert = out.certificate
            assert cert.inner_product < -cert.epsilon * prob.gamma.trace() - cert.delta

    def test_never_certified_below_thresholds(self):
        problems = [ghz_problem(v) for v in (0.0, 0.3, 0.45, 0.499, 0.5)]
        problems += [w_problem(v) for v in (0.3, 0.7, 0.749)]
        for prob in problems:
            out = solve(prob)
            assert out.status == "feasible"
            assert out.certificate is None

    def test_random_btn_never_certified(self, rng):
        for _ in range(50):
            prob, _, _ = btn_problem(rng)
            out = solve(prob)
            assert out.status == "feasible"
            assert out.certificate is None

    def test_rejects_sign_flip(self):
        prob = ghz_problem(0.8)
        g = solve(prob).certificate.matrix
        assert verify_certificate(prob, InfeasibilityCertificate(g))
        assert not verify_certificate(prob, InfeasibilityCertificate(-g))

    def test_rejects_principal_block_lowered_beyond_eps(self):
        # H is orthogonal to Gamma on the rows of source (B, C), so G - H keeps
        # <G, Gamma> and lowers lambda_min of that principal submatrix
        prob = ghz_problem(0.8)
        g = solve(prob).certificate.matrix
        h = np.zeros_like(g)
        h[1, 1], h[2, 2] = 1.0, -1.0
        assert np.vdot(h, prob.gamma.matrix) == 0.0
        assert not verify_certificate(prob, InfeasibilityCertificate(g - h))

    def test_rejects_non_finite_zero_and_asymmetric_matrices(self):
        prob = ghz_problem(0.8)
        g = solve(prob).certificate.matrix
        assert not verify_certificate(prob, InfeasibilityCertificate(np.zeros_like(g)))
        for value in (np.nan, np.inf):
            bad = g.copy()
            bad[0, 0] = value
            assert not verify_certificate(prob, InfeasibilityCertificate(bad))
        # eigvalsh reads one triangle only, so an asymmetric G must not reach it
        bad = g.copy()
        bad[0, 1] -= 1.0
        assert not verify_certificate(prob, InfeasibilityCertificate(bad))

    def test_wrong_shape_raises(self):
        prob = ghz_problem(0.8)
        g = solve(prob).certificate.matrix
        for bad in (g[:2, :2], np.stack([g, g]), None):
            with pytest.raises(ValueError, match="shape"):
                verify_certificate(prob, InfeasibilityCertificate(bad))

    @pytest.mark.parametrize("v", [0.6, 0.9])
    def test_three_node_source_proved(self, v):
        prob = ghz4_three_node_source_problem(v)
        out = solve(prob)
        assert (out.status, out.iterations, out.certificate.iteration) == ("infeasible", 1, 1)
        assert verify_certificate(prob, out.certificate)

    def test_three_node_source_feasible_below_threshold(self):
        # the trace-norm criterion holds up to v = 4/9 on this network
        out = solve(ghz4_three_node_source_problem(0.4))
        assert out.status == "feasible"
        assert out.certificate is None

    @pytest.mark.parametrize("make", [lambda: ghz_problem(0.8),
                                      lambda: ghz4_three_node_source_problem(0.9)],
                             ids=["triangle", "three-node-source"])
    def test_never_certifies_a_decomposable_cm(self, make):
        # Sigma_k A_k A_k^T with A_k on summand k's rows decomposes by construction
        prob = make()
        cert = solve(prob).certificate
        g, n = prob.gamma, prob.gamma.dim
        rng = np.random.default_rng(7)
        rows = feasibility._summand_rows(prob)
        for _ in range(200):
            m = np.zeros((n, n))
            for ix in rows:
                a = rng.standard_normal((len(ix), rng.integers(1, len(ix) + 1)))
                m[np.ix_(ix, ix)] += a @ a.T
            other = FeasibilityProblem(BlockCovarianceMatrix(m, g.block_sizes, g.node_labels),
                                       prob.topology)
            assert not verify_certificate(other, cert)

    def test_uncovered_pair_certificate(self):
        rho = mix_white_noise(ghz_state(5, 2), 0.3)
        g = covariance_matrix(named_observable_set("pauli-z", rho.layout), rho)
        prob = FeasibilityProblem(g, line_topology(("A", "B", "C", "D", "E")))
        out = solve(prob)
        assert out.status == "infeasible"
        assert out.iterations == 0
        assert out.certificate.pair == ("A", "C")
        assert out.certificate.block_max_abs == pytest.approx(0.3)
        assert verify_certificate(prob, out.certificate)
        assert not verify_certificate(prob, InfeasibilityCertificate(pair=("A", "B")))


def from_full(stack, ts):
    """Full n x n summands as the solver's ``_Stack`` array, each restricted to its summand's rows."""
    z = np.zeros(stack.shape)
    for zk, t, ix in zip(z, ts, stack.index):
        zk[:len(ix), :len(ix)] = np.asarray(t, dtype=float)[np.ix_(ix, ix)]
    return z


def stacked_affine_project(ts, problem):
    """The solver's stacked projection onto the affine set, on full n x n summands."""
    stack = _Stack(problem)
    return list(stack.to_full(stack.affine(from_full(stack, ts))))


def loop_affine_project(ts, problem):
    """Block-by-block loop form of the affine projection, the reference for the stacked one."""
    gamma = problem.gamma
    sl = {x: gamma.node_slice(x) for x in gamma.node_labels}
    nodes = gamma.node_labels
    out = [np.array(t, dtype=float) for t in ts]
    for t, s in zip(out, problem.summands):
        for i, x in enumerate(nodes):
            for y in nodes[i + 1:]:
                blk = gamma.block(x, y) if x in s and y in s else 0.0
                t[sl[x], sl[y]] = blk
                t[sl[y], sl[x]] = np.transpose(blk) if isinstance(blk, np.ndarray) else 0.0
        for x in nodes:
            if x not in s:
                t[sl[x], sl[x]] = 0.0
    for x in nodes:
        carriers = [k for k, s in enumerate(problem.summands) if x in s]
        deficit = gamma.block(x, x) - sum(out[k][sl[x], sl[x]] for k in carriers)
        for k in carriers:
            out[k][sl[x], sl[x]] += deficit / len(carriers)
    return out


class TestAffineProjection:
    def test_matches_loop_reference(self, rng):
        prob, _, _ = btn_problem(rng)
        four = NetworkTopology(("A", "B", "C", "D"), (("A", "B", "C"), ("C", "D"), ("A", "D")))
        g4 = BlockCovarianceMatrix(random_density(7, rng).real, (2, 1, 3, 1), four.nodes)
        # node D of the last problem is fed by no source: its one-node
        # summand fixes no pair
        unfed = NetworkTopology(four.nodes, (("A", "B"), ("B", "C"), ("C", "A")))
        problems = [prob, FeasibilityProblem(g4, four), FeasibilityProblem(g4, unfed)]
        assert problems[-1].summands[-1] == ("D",)
        for pr in problems:
            n = pr.gamma.dim
            ts = [rng.standard_normal((n, n)) for _ in pr.summands]
            ts = [0.5 * (t + t.T) for t in ts]
            for a, b in zip(stacked_affine_project(ts, pr), loop_affine_project(ts, pr)):
                assert np.abs(a - b).max() <= 1e-12

    def test_idempotent(self, rng):
        prob, _, _ = btn_problem(rng)
        ts = [rng.standard_normal((48, 48)) for _ in range(3)]
        ts = [0.5 * (t + t.T) for t in ts]
        once = stacked_affine_project(ts, prob)
        twice = stacked_affine_project(once, prob)
        for a, b in zip(once, twice):
            assert np.abs(a - b).max() <= 1e-12

    def test_constraints_hold_after_projection(self, rng):
        prob, _, _ = btn_problem(rng)
        ts = stacked_affine_project([rng.standard_normal((48, 48)) for _ in range(3)], prob)
        sl = {x: prob.gamma.node_slice(x) for x in "ABC"}
        total = sum(t[sl["A"], sl["A"]] for t in ts)
        assert np.abs(total - prob.gamma.block("A", "A")).max() <= 1e-12
        # t_c (source ("A","B")) carries the AB block and nothing on C
        t_ab = ts[2]
        assert np.abs(t_ab[sl["A"], sl["B"]] - prob.gamma.block("A", "B")).max() <= 1e-12
        assert np.abs(t_ab[sl["C"], sl["C"]]).max() <= 1e-12


class TestVerifyWitness:
    def test_accepts_folded_decomposition(self, rng):
        prob, srcs, _ = btn_problem(rng)
        dec = btn_decompose(srcs)
        # parts ordered by the topology's source order: a={B,C}, b={C,A}, c={A,B}
        witness = witness_from_parts([dec.t_a, dec.t_b, dec.t_c], dec.r, prob)
        assert verify_witness(prob, witness, 1e-7)

    def test_rejects_negative_eigenvalue(self, rng):
        prob, _, _ = btn_problem(rng)
        out = solve(prob)
        bad = [t.copy() for t in out.witness]
        vals, vecs = np.linalg.eigh(bad[0])
        bad[0] -= 1e-3 * np.outer(vecs[:, -1], vecs[:, -1])
        bad[0] -= np.eye(48) * 1e-3
        assert not verify_witness(prob, bad, 1e-7)

    def test_rejects_perturbed_off_diagonal(self, rng):
        prob, _, _ = btn_problem(rng)
        out = solve(prob)
        bad = [t.copy() for t in out.witness]
        sl = prob.gamma.node_slice
        bad[2][sl("A"), sl("B")] += 0.01
        bad[2][sl("B"), sl("A")] += 0.01
        assert not verify_witness(prob, bad, 1e-7)

    def test_shape_mismatch(self, rng):
        prob, _, _ = btn_problem(rng)
        with pytest.raises(ValueError, match="summands"):
            verify_witness(prob, [np.eye(48)], 1e-7)


class TestExport:
    def test_manifest_and_files(self, tmp_path, rng):
        prob, _, _ = btn_problem(rng)
        out = solve(prob)
        manifest_path = export_witness(prob, out, tmp_path / "w")
        manifest = json.loads(manifest_path.read_text())
        assert manifest["status"] == "feasible"
        assert manifest["witness_files"] == ["witness_0.ncmx", "witness_1.ncmx", "witness_2.ncmx"]
        back = read_matrix(tmp_path / "w" / "witness_0.ncmx")
        assert np.abs(back - out.witness[0]).max() <= 1e-15
        assert "not a certificate" in manifest["note"]

    def test_certificate_files_verify(self, tmp_path):
        prob = ghz_problem(0.9)
        out = solve(prob)
        manifest = json.loads(export_witness(prob, out, tmp_path / "c").read_text())
        assert manifest["status"] == "infeasible"
        assert manifest["witness_files"] == []
        assert manifest["certificate_files"] == ["certificate.ncmx"]
        assert manifest["certificate"]["kind"] == "separating-hyperplane"
        back = read_matrix(tmp_path / "c" / "certificate.ncmx")
        assert np.abs(back.imag).max() == 0.0
        assert np.array_equal(back.real, out.certificate.matrix)
        assert verify_certificate(prob, InfeasibilityCertificate(back.real))

    def test_line_topology_problem(self, rng):
        # four-node line network: the summands chain the off-diagonal blocks
        from netcm.covariance import covariance_matrix
        from netcm.states import cluster4_state

        rho = cluster4_state()
        g = covariance_matrix(named_observable_set("cluster-set", rho.layout), rho)
        out = solve(FeasibilityProblem(g, line_topology(("A", "B", "C", "D"))))
        assert out.status == "feasible"
        assert verify_witness(FeasibilityProblem(g, line_topology(("A", "B", "C", "D"))),
                              out.witness, 1e-7)
