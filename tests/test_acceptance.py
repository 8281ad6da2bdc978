"""Acceptance suite: every headline claim at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s`` or in the
failure report) and asserts both the value and its runtime budget.
"""

import time

import numpy as np
import pytest

from netcm.covariance import covariance_matrix
from netcm.criteria import (
    btn_cm_residual,
    btn_decompose,
    ghz_fidelity_bound,
    WhiteNoiseScan,
    trace_norm_criterion,
    xi_report,
)
from netcm.feasibility import FeasibilityProblem, solve, verify_witness
from netcm.linalg import SubsystemLayout
from netcm.observables import (
    ObservableSet,
    full_product_set,
    named_observable_set,
    orthogonal_basis,
)
from netcm.states import (
    DensityOperator,
    btn_assemble,
    dicke_state,
    ghz_state,
    mix_white_noise,
    random_density,
    random_source,
    split_nodes,
    w_state,
)
from netcm.topology import line_topology, triangle_topology

from conftest import (
    apply_local_channels,
    apply_local_unitaries,
    convex_mix,
    embed,
    expectation,
    marginal,
    moments,
    orthogonal_from_unitary,
    product_state_cm,
    random_kraus_channel,
    random_unitary,
    recombine_cm,
    reduced_observable,
)

N_INSTANCES = 200


def announce(number, passed, text):
    print(f"ACCEPTANCE {number} [{'PASS' if passed else 'FAIL'}] {text}")
    assert passed, text


def ghz_threshold(parties, topology, tol=1e-6):
    """Trace-norm visibility threshold of the GHZ state with one sigma_z per party."""
    rho = ghz_state(parties, 2)
    return WhiteNoiseScan(rho, named_observable_set("pauli-z", rho.layout), "trace-norm",
                          topology).threshold(tol)


def test_acceptance_1_ghz3_threshold():
    start = time.perf_counter()
    thr = ghz_threshold(3, triangle_topology())
    elapsed = time.perf_counter() - start
    ok = abs(thr - 0.5) <= 1e-6 and elapsed < 1.0
    announce(1, ok, f"ghz3 trace-norm threshold {thr:.7f} (target 0.5 +- 1e-6), {elapsed:.2f} s")


def test_acceptance_2_w_threshold():
    start = time.perf_counter()
    rho = w_state()
    thr = WhiteNoiseScan(rho, named_observable_set("w-set", rho.layout),
                         "trace-norm", triangle_topology()).threshold(1e-6)
    elapsed = time.perf_counter() - start
    ok = abs(thr - 0.75) <= 1e-6 and elapsed < 1.0
    announce(2, ok, f"w-state threshold {thr:.7f} (target 0.75 +- 1e-6), {elapsed:.2f} s")


def test_acceptance_3_ghz_n_thresholds():
    start = time.perf_counter()
    results = {}
    for n in range(3, 7):
        topo = triangle_topology() if n == 3 else line_topology(tuple("ABCDEF"[:n]))
        results[n] = ghz_threshold(n, topo)
    elapsed = time.perf_counter() - start
    ok = all(abs(results[n] - 1.0 / (n - 1)) <= 1e-6 for n in results) and elapsed < 5.0
    detail = ", ".join(f"N={n}: {results[n]:.7f}" for n in results)
    announce(3, ok, f"ghz_N thresholds match 1/(N-1): {detail}, {elapsed:.2f} s")


def test_acceptance_3_ghz_n_thresholds_to_ten_parties():
    start = time.perf_counter()
    results = {n: ghz_threshold(n, line_topology(tuple("ABCDEFGHIJ"[:n]))) for n in range(7, 11)}
    elapsed = time.perf_counter() - start
    ok = all(abs(results[n] - 1.0 / (n - 1)) <= 1e-6 for n in results) and elapsed < 15.0
    detail = ", ".join(f"N={n}: {results[n]:.7f}" for n in results)
    announce(3, ok, f"ghz_N thresholds match 1/(N-1): {detail}, {elapsed:.2f} s")


def test_acceptance_3_ghz_n_thresholds_to_sixteen_parties():
    # the dense GHZ16 matrix would take 64 GiB; the state is held as its vector
    start = time.perf_counter()
    results = {n: ghz_threshold(n, line_topology(tuple("ABCDEFGHIJKLMNOP"[:n])))
               for n in range(3, 17)}
    elapsed = time.perf_counter() - start
    ok = all(abs(results[n] - 1.0 / (n - 1)) <= 1e-5 for n in results) and elapsed < 15.0
    detail = ", ".join(f"N={n}: {results[n]:.7f}" for n in results)
    announce(3, ok, f"ghz_N line thresholds match 1/(N-1): {detail}, {elapsed:.2f} s")


def _xi_exclusion_pattern(base):
    verdicts = {}
    for v in (0.0, 0.01, 0.1, 0.5, 1.0):
        rho = split_nodes(mix_white_noise(base, v), (2, 2))
        verdicts[v] = xi_report(rho).passed
    return verdicts


def test_acceptance_4_xi_on_two_level_ququart_ghz():
    start = time.perf_counter()
    verdicts = _xi_exclusion_pattern(ghz_state(3, 4, (0, 3)))
    elapsed = time.perf_counter() - start
    ok = verdicts[0.0] and not any(verdicts[v] for v in (0.01, 0.1, 0.5, 1.0)) and elapsed < 30.0
    announce(4, ok, f"xi PSD only at v=0 for ghz4(0,3): {verdicts}, {elapsed:.2f} s")


def test_acceptance_5_xi_on_four_level_ghz():
    start = time.perf_counter()
    verdicts = _xi_exclusion_pattern(ghz_state(3, 4, "full"))
    elapsed = time.perf_counter() - start
    ok = verdicts[0.0] and not any(verdicts[v] for v in (0.01, 0.1, 0.5, 1.0)) and elapsed < 30.0
    announce(5, ok, f"xi PSD only at v=0 for four-level ghz: {verdicts}, {elapsed:.2f} s")


def test_acceptance_6_dicke_exclusions():
    start = time.perf_counter()
    grid = [round(0.05 * i, 2) for i in range(1, 21)]
    failures = []
    for k in range(2, 8):
        base = dicke_state(k)
        for p in grid:
            rho = split_nodes(mix_white_noise(base, p), (2, 2))
            if xi_report(rho).passed:
                failures.append((k, p))
    # k = 1: excluded strictly inside (0, 1); the p = 1 endpoint is recorded
    base = dicke_state(1)
    for p in grid[:-1]:
        rho = split_nodes(mix_white_noise(base, p), (2, 2))
        if xi_report(rho).passed:
            failures.append((1, p))
    endpoint = xi_report(split_nodes(dicke_state(1), (2, 2)))
    _, residual = btn_cm_residual(split_nodes(dicke_state(1), (2, 2)))
    elapsed = time.perf_counter() - start
    # recorded endpoint behaviour: xi is PSD at p=1 for k=1, matching the
    # stated two-sided exception, while the marginal-closed-form residual
    # still excludes the pure state
    endpoint_ok = endpoint.passed and residual > 0.01
    ok = not failures and endpoint_ok and elapsed < 300.0
    announce(6, ok,
             f"dicke k=2..7 excluded on full grid, k=1 on (0,1); "
             f"k=1 endpoint: xi passed={endpoint.passed} (min eig {endpoint.lhs:.2e}), "
             f"pure-state residual {residual:.4f} > 0.01; {elapsed:.1f} s")


def test_acceptance_7_cluster_state_equality():
    from netcm.states import cluster4_state

    rho = cluster4_state()
    gamma = covariance_matrix(named_observable_set("cluster-set", rho.layout), rho)
    displayed = np.array([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]], dtype=float)
    report = trace_norm_criterion(gamma, line_topology(("A", "B", "C", "D")))
    ok = (np.abs(gamma.matrix - displayed).max() <= 1e-12
          and abs(report.lhs - report.rhs) <= 1e-10
          and report.passed)
    announce(7, ok,
             f"cluster-state CM reproduced, trace criterion equality margin "
             f"{abs(report.lhs - report.rhs):.2e} <= 1e-10")


def test_acceptance_8_ghz_fidelity_bound():
    start = time.perf_counter()
    bound = ghz_fidelity_bound(tol=1e-4)
    elapsed = time.perf_counter() - start
    target = 3.0 - np.sqrt(5.0)
    ok = target <= bound <= target + 1e-4 and elapsed < 120.0
    announce(8, ok, f"ghz fidelity bound {bound:.6f} (target {target:.6f} + [0, 1e-4]), {elapsed:.1f} s")


# -- criterion 9: theorem-forced property suite --------------------------------


class TestAcceptance9Properties:
    """Nine theorem-forced properties, 200 random instances each, zero failures."""

    timings = {}

    @classmethod
    def _record(cls, name, start):
        cls.timings[name] = time.perf_counter() - start

    def test_decomposition_sum_and_psd(self, rng):
        start = time.perf_counter()
        for _ in range(N_INSTANCES):
            srcs = [random_source(2, rng) for _ in range(3)]
            rho = btn_assemble(*srcs)
            obs = full_product_set(rho.layout)
            gamma = covariance_matrix(obs, rho)
            dec = btn_decompose(srcs)
            assert np.abs(dec.total() - gamma.matrix).max() <= 1e-9
            for part in dec.parts():
                assert np.linalg.eigvalsh(part)[0] >= -1e-8
        self._record("decomposition sum + PSD", start)

    def test_remainder_kronecker_identity(self, rng):
        # defect of the node-diagonal block equals the Kronecker product of
        # the complex single-factor CMs (real part taken after the product)
        start = time.perf_counter()
        basis = list(orthogonal_basis(2))
        for _ in range(N_INSTANCES):
            srcs = [random_source(2, rng) for _ in range(3)]
            rho = btn_assemble(*srcs)
            obs = full_product_set(rho.layout)
            gamma = covariance_matrix(obs, rho)
            dec = btn_decompose(srcs)
            sl = {x: slice(16 * i, 16 * (i + 1)) for i, x in enumerate("ABC")}
            for x, f1, f2 in (("A", "A1", "A2"), ("B", "B1", "B2"), ("C", "C1", "C2")):
                defect = (gamma.matrix[sl[x], sl[x]]
                          - dec.t_c[sl[x], sl[x]] - dec.t_b[sl[x], sl[x]] - dec.t_a[sl[x], sl[x]])
                _, c1 = moments(basis, marginal(rho, [f1]))
                _, c2 = moments(basis, marginal(rho, [f2]))
                assert np.abs(defect - np.kron(c1, c2).real).max() <= 1e-9
        self._record("remainder Kronecker identity", start)

    def test_rank_one_block_structures(self, rng):
        # node-diagonal source part is |a1><a1| x Gamma(A2); the cross block
        # factorizes into the pair CM scaled by both leftover Bloch vectors
        start = time.perf_counter()
        basis = list(orthogonal_basis(2))
        for _ in range(N_INSTANCES):
            srcs = [random_source(2, rng) for _ in range(3)]
            rho = btn_assemble(*srcs)
            obs = full_product_set(rho.layout)
            gamma = covariance_matrix(obs, rho)
            dec = btn_decompose(srcs)
            sl = {x: slice(16 * i, 16 * (i + 1)) for i, x in enumerate("ABC")}
            a1, _ = moments(basis, marginal(rho, ["A1"]))
            b2, _ = moments(basis, marginal(rho, ["B2"]))
            gamma_a2 = moments(basis, marginal(rho, ["A2"]))[1].real
            assert np.abs(dec.t_c[sl["A"], sl["A"]]
                          - np.kron(np.outer(a1, a1), gamma_a2)).max() <= 1e-10
            pair = marginal(rho, ["A2", "B1"])
            cross = np.zeros((4, 4))
            for i, gi in enumerate(basis):
                for j, gj in enumerate(basis):
                    cross[i, j] = (expectation(np.kron(gi, gj), pair)
                                   - np.trace(gi @ marginal(rho, ["A2"]).matrix).real
                                   * np.trace(gj @ marginal(rho, ["B1"]).matrix).real)
            want = np.einsum("a,bg,d->abgd", a1, cross, b2).reshape(16, 16)
            assert np.abs(gamma.block("A", "B") - want).max() <= 1e-10
        self._record("rank-one block structures", start)

    def test_reduced_observable_cross_block_identity(self, rng):
        # the off-diagonal block evaluated on the shared source state with
        # reduced observables equals the direct cross block
        start = time.perf_counter()
        for _ in range(N_INSTANCES):
            srcs = [random_source(2, rng) for _ in range(3)]
            rho = btn_assemble(*srcs)
            obs = full_product_set(rho.layout)
            gamma = covariance_matrix(obs, rho)
            marg_a1 = marginal(rho, ["A1"]).matrix
            marg_b2 = marginal(rho, ["B2"]).matrix
            marg_a2 = marginal(rho, ["A2"]).matrix
            marg_b1 = marginal(rho, ["B1"]).matrix
            pair = marginal(rho, ["A2", "B1"]).matrix
            a_red = [reduced_observable(m, (2, 2), marg_a1, 2) for m in obs.stacks["A"]]
            b_red = [reduced_observable(m, (2, 2), marg_b2, 1) for m in obs.stacks["B"]]
            block = np.zeros((16, 16))
            for m, am in enumerate(a_red):
                for n, bn in enumerate(b_red):
                    block[m, n] = (np.trace(np.kron(am, bn) @ pair).real
                                   - np.trace(am @ marg_a2).real * np.trace(bn @ marg_b1).real)
            assert np.abs(block - gamma.block("A", "B")).max() <= 1e-10
        self._record("reduced-observable cross block", start)

    def test_product_state_cm_closed_form(self, rng):
        start = time.perf_counter()
        for _ in range(N_INSTANCES):
            r1, r2 = random_density(2, rng), random_density(2, rng)
            layout = SubsystemLayout((2, 2), ("P1", "P2"), ("P", "P"))
            rho = DensityOperator(np.kron(r1, r2), layout)
            direct = covariance_matrix(full_product_set(layout), rho)
            closed = product_state_cm([(list(orthogonal_basis(2)), r1), (list(orthogonal_basis(2)), r2)])
            assert np.abs(closed.matrix - direct.matrix).max() <= 1e-9
        self._record("product-state CM closed form", start)

    def test_recombination_congruence(self, rng):
        start = time.perf_counter()
        layout = SubsystemLayout((2, 2), ("A", "B"))
        obs = ObservableSet({x: list(orthogonal_basis(2)) for x in "AB"})
        mats = [embed(m, x, layout) for x in "AB" for m in orthogonal_basis(2)]
        for _ in range(N_INSTANCES):
            rho = DensityOperator(random_density(4, rng), layout)
            gamma = covariance_matrix(obs, rho)
            c = rng.standard_normal((8, 8))
            recombined = [sum(c[i, j] * mats[i] for i in range(8)) for j in range(8)]
            means = [np.trace(m @ rho.matrix).real for m in recombined]
            direct = np.zeros((8, 8))
            for i in range(8):
                for j in range(i, 8):
                    sym = 0.5 * (recombined[i] @ recombined[j] + recombined[j] @ recombined[i])
                    direct[i, j] = direct[j, i] = (np.trace(sym @ rho.matrix).real
                                                   - means[i] * means[j])
            assert np.abs(recombine_cm(gamma, c).matrix - direct).max() <= 1e-9
        self._record("recombination congruence", start)

    def test_orthogonal_congruence_for_local_unitaries(self, rng):
        start = time.perf_counter()
        for _ in range(N_INSTANCES):
            srcs = [random_source(2, rng) for _ in range(3)]
            rho = btn_assemble(*srcs)
            obs = full_product_set(rho.layout)
            gamma = covariance_matrix(obs, rho)
            us = {x: random_unitary(4, rng) for x in "ABC"}
            gamma_u = covariance_matrix(obs, apply_local_unitaries(rho, us))
            o = np.zeros((48, 48))
            for i, x in enumerate("ABC"):
                basis = obs.stacks[x]  # the node's 16-element product basis
                gram = np.einsum("aij,bji->ab", basis, basis).real
                assert np.abs(gram - 4.0 * np.eye(16)).max() <= 1e-10
                o[16 * i:16 * (i + 1), 16 * i:16 * (i + 1)] = orthogonal_from_unitary(us[x], basis)
            assert np.abs(o @ gamma.matrix @ o.T - gamma_u.matrix).max() <= 1e-8
        self._record("orthogonal congruence", start)

    def test_cm_concavity_under_mixing(self, rng):
        start = time.perf_counter()
        layout = SubsystemLayout((2, 2), ("A", "B"))
        obs = ObservableSet({x: list(orthogonal_basis(2)) for x in "AB"})
        for _ in range(N_INSTANCES):
            states = [DensityOperator(random_density(4, rng), layout) for _ in range(3)]
            w = rng.random(3)
            w /= w.sum()
            diff = covariance_matrix(obs, convex_mix(states, w)).matrix - sum(
                wi * covariance_matrix(obs, s).matrix for wi, s in zip(w, states))
            assert np.linalg.eigvalsh(diff)[0] >= -1e-8
        self._record("CM concavity", start)

    def test_trace_norm_never_violated_by_channel_states(self, rng):
        start = time.perf_counter()
        for _ in range(N_INSTANCES):
            srcs = [random_source(2, rng) for _ in range(3)]
            rho = btn_assemble(*srcs)
            dims = {x: int(rng.integers(2, 5)) for x in "ABC"}
            chans = {
                x: random_kraus_channel(
                    4, dims[x], int(np.ceil(4 / dims[x])) + int(rng.integers(0, 3)), rng)
                for x in "ABC"
            }
            rho_c = apply_local_channels(rho, chans)
            obs = {x: [] for x in "ABC"}
            for x in "ABC":
                for _k in range(2):
                    g = rng.standard_normal((dims[x], dims[x])) + 1j * rng.standard_normal((dims[x], dims[x]))
                    obs[x].append(0.5 * (g + g.conj().T))
            gamma = covariance_matrix(ObservableSet(obs), rho_c)
            report = trace_norm_criterion(gamma, triangle_topology())
            assert report.margin >= -1e-8
        self._record("trace-norm necessity on channel states", start)

    def test_zz_total_runtime(self):
        total = sum(self.timings.values())
        lines = ", ".join(f"{k}: {v:.1f}s" for k, v in self.timings.items())
        ok = len(self.timings) == 9 and total < 600.0
        announce(9, ok, f"property suite ({N_INSTANCES} instances each) total {total:.1f} s [{lines}]")


def test_acceptance_10_feasibility_solver(rng):
    start = time.perf_counter()
    # 50 random triangle CMs: feasible with verified witnesses
    for _ in range(50):
        srcs = [random_source(2, rng) for _ in range(3)]
        rho = btn_assemble(*srcs)
        gamma = covariance_matrix(full_product_set(rho.layout), rho)
        problem = FeasibilityProblem(gamma, triangle_topology())
        outcome = solve(problem, tol=1e-7)
        assert outcome.status == "feasible"
        assert outcome.residual <= 1e-7
        assert verify_witness(problem, outcome.witness, 1e-7)
    # violating GHZ CMs: infeasible, with a verified certificate, at the stated visibilities
    statuses = {}
    for v in (0.6, 0.8, 1.0):
        rho = mix_white_noise(ghz_state(3, 2), v)
        gamma = covariance_matrix(named_observable_set("pauli-z", rho.layout), rho)
        outcome = solve(FeasibilityProblem(gamma, triangle_topology()), tol=1e-7)
        statuses[v] = outcome.status
        assert outcome.status == "infeasible"
    # no trace-norm-violating CM in the corpus is ever reported feasible
    corpus = []
    for v in (0.55, 0.7, 0.9):
        rho = mix_white_noise(ghz_state(3, 2), v)
        corpus.append((covariance_matrix(named_observable_set("pauli-z", rho.layout), rho),
                       triangle_topology()))
    rho = mix_white_noise(w_state(), 0.8)
    corpus.append((covariance_matrix(named_observable_set("w-set", rho.layout), rho),
                   triangle_topology()))
    rho = mix_white_noise(ghz_state(5, 2), 0.3)
    corpus.append((covariance_matrix(named_observable_set("pauli-z", rho.layout), rho),
                   line_topology(("A", "B", "C", "D", "E"))))
    for gamma, topo in corpus:
        assert not trace_norm_criterion(gamma, topo).passed
        outcome = solve(FeasibilityProblem(gamma, topo), tol=1e-7, max_iter=3000)
        assert outcome.status != "feasible"
    elapsed = time.perf_counter() - start
    ok = elapsed < 300.0
    announce(10, ok,
             f"feasibility: 50 random triangle CMs feasible + witnesses verified, "
             f"ghz statuses {statuses}, violating corpus never feasible, {elapsed:.1f} s")
