import ast
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qel import VERIFY_SEED, attacks, channel, verification
from qel.channel import ChannelScenario
from qel.detection import DetectionOutcome
from qel.infotheory import TwoStateEnsemble, fuchs_information, levitin_information, phi
from qel import oracle
from qel.optics import (KET_R, PHI_PLUS, SIGMA_X, SIGMA_Z, SIGNALS, STRATEGY_B_SIGNALS, basis_kets,
                        partial_trace, signal_ket)
from qel.oracle import (monte_carlo_protocol, numeric_two_state_info,
                        simulate_strategy_a, simulate_strategy_b)
from qel.verification import random_equal_determinant_ensemble


def pure(amplitudes) -> np.ndarray:
    v = np.asarray(amplitudes, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


SCEN = ChannelScenario.from_loss_db(0.1, 0.2, 5.0)


# -- measurement search ------------------------------------------------------

def test_numeric_info_orthogonal_pure_states():
    # The optimum, theta = 0, is a scan angle, where the outcome probabilities are exactly 0 and 1.
    assert numeric_two_state_info(pure([1, 0]), pure([0, 1])) == 1.0


def test_numeric_info_identical_states():
    rho = pure([1, 1j])
    assert numeric_two_state_info(rho, rho) == pytest.approx(0.0, abs=1e-12)


def test_numeric_info_matches_levitin_on_cloner_block():
    # the nonorthogonal pure pair left after projecting out the product block
    d = 0.1
    x = attacks.strategy_a_probe_overlap(d)
    rho0 = pure([1, 0])
    rho1 = pure([x, math.sqrt(1 - x * x)])
    expected = 0.5 * phi(math.sqrt(1 - x * x))
    assert numeric_two_state_info(rho0, rho1) == pytest.approx(expected, abs=1e-6)


def test_numeric_info_complex_states():
    rho0 = pure([1, 0.3 + 0.4j])
    rho1 = pure([1, -0.3 - 0.4j])
    got = numeric_two_state_info(rho0, rho1)
    ov = abs(np.trace(rho0 @ rho1))
    expected = 0.5 * phi(math.sqrt(1 - ov))
    assert got == pytest.approx(expected, abs=1e-6)


def test_numeric_info_collinear_bloch_vectors_fall_back_to_the_x_axis():
    # Bloch vectors (0, 0, 0.6) and (0, 0, -0.4) are collinear: both lie on the first axis.
    rho0 = np.diag([0.8, 0.2])
    rho1 = np.diag([0.3, 0.7])
    x, y = oracle._plane_coordinates(oracle._bloch_vector(rho0), oracle._bloch_vector(rho1))
    assert x == pytest.approx([0.6, -0.4], abs=1e-15)
    assert np.array_equal(y, [0.0, 0.0])

    def h2(q):
        return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)

    expected = h2(0.55) - (h2(0.8) + h2(0.3)) / 2.0
    assert numeric_two_state_info(rho0, rho1) == pytest.approx(expected, abs=1e-12)
    # nearly collinear: y1 = |r0 x r1|/|r0| keeps the 4e-10, which sqrt(|r1|^2 - x1^2) would cancel
    tilt = 1e-9
    x, y = oracle._plane_coordinates(np.array([0.0, 0.0, 0.6]), 0.4 * np.array([math.sin(tilt), 0.0, math.cos(tilt)]))
    assert x == pytest.approx([0.6, 0.4], abs=1e-15)
    assert y[1] == pytest.approx(0.4 * math.sin(tilt), rel=1e-12) and y[0] == 0.0
    # r0 = 0 puts r1 on the first axis
    r1 = oracle._bloch_vector(pure([1, 0.3j]))
    x, y = oracle._plane_coordinates(np.zeros(3), r1)
    assert x == pytest.approx([0.0, np.linalg.norm(r1)], abs=1e-15)
    assert np.array_equal(y, [0.0, 0.0])
    # both zero: every measurement gives two fair coins
    x, y = oracle._plane_coordinates(np.zeros(3), np.zeros(3))
    assert np.array_equal(x, [0.0, 0.0]) and np.array_equal(y, [0.0, 0.0])
    assert numeric_two_state_info(np.eye(2) / 2, np.eye(2) / 2) == 0.0


def _dense_scan_info(r0, r1, angles=200_000) -> tuple[float, float]:
    """(max, argmax) of the mutual information over angles equally spaced measurement directions.

    The directions span [0, pi) in the plane of the Bloch vectors, measured
    from r0 towards the part of r1 orthogonal to it.  Written apart from the
    oracle, with its own frame and entropy, as the reference of the search.
    """
    e1 = r0 / np.linalg.norm(r0)
    e2 = r1 - (r1 @ e1) * e1
    e2 = e2 / np.linalg.norm(e2)

    def h2(p):
        return -sum(t * np.log2(np.where(t > 0.0, t, 1.0)) for t in (p, 1.0 - p))

    best = (-math.inf, 0.0)
    for phi in np.array_split(np.arange(angles) * (math.pi / angles), 8):
        n = np.cos(phi)[:, None] * e1 + np.sin(phi)[:, None] * e2
        p0, p1 = np.clip((1.0 + n @ r0) / 2.0, 0.0, 1.0), np.clip((1.0 + n @ r1) / 2.0, 0.0, 1.0)
        info = h2((p0 + p1) / 2.0) - (h2(p0) + h2(p1)) / 2.0
        i = int(np.argmax(info))
        best = max(best, (float(info[i]), float(phi[i])))
    return best


def test_search_matches_a_dense_scan_on_pairs_with_unequal_determinants():
    # Mixed pairs of unequal purity, where Levitin's closed form does not
    # apply.  The last pair's optimum lies 0.0124 rad below pi, so the best
    # of the 96 scan angles is 0 and the zoom scans cross theta = 0.
    rng = np.random.default_rng(2027)
    r = rng.normal(size=(12, 2, 3))
    r *= rng.uniform(0.2, 1.0, size=(12, 2, 1)) / np.linalg.norm(r, axis=-1, keepdims=True)
    r = np.concatenate([r, [[[0.0, 0.0, 0.9], [0.5 * math.sin(0.05), 0.0, -0.5 * math.cos(0.05)]]]])
    states = (np.eye(2) + np.einsum("...k,kij->...ij", r, oracle._PAULIS)) / 2.0
    assert np.abs(np.diff(np.linalg.det(states).real, axis=-1)).min() > 5e-3
    search = oracle.numeric_two_state_info_stack(states[:, 0], states[:, 1])
    for i, (r0, r1) in enumerate(r):
        dense, at = _dense_scan_info(r0, r1)
        assert dense - 1e-15 <= search[i] <= dense + 1e-10, i
    assert math.pi - math.pi / 96 / 2 < at < math.pi


def test_numeric_info_agrees_with_levitin_on_random_equal_determinant_pairs():
    # one search over the 200 pairs, drawn in the order of the per-pair loop
    rng = np.random.default_rng(20240901)
    ensembles = [random_equal_determinant_ensemble(rng) for _ in range(200)]
    stack = TwoStateEnsemble(np.array([e.rho0 for e in ensembles]),
                             np.array([e.rho1 for e in ensembles]))
    numeric = oracle.numeric_two_state_info_stack(stack.rho0, stack.rho1)
    assert numeric.shape == (200,)
    assert np.max(np.abs(numeric - levitin_information(stack))) <= 1e-12


def test_stacked_search_matches_the_one_pair_search():
    # The 200 pairs of the levitin suite, then edge cases: identical states,
    # orthogonal pure states, collinear and vanishing Bloch vectors.  They run
    # in one stacked search.
    ens, _ = verification._levitin_ensembles(VERIFY_SEED)
    edge = [(pure([1, 1j]), pure([1, 1j])), (pure([1, 0]), pure([0, 1])),
            (np.diag([0.8, 0.2]), np.diag([0.3, 0.7])),
            (np.eye(2) / 2, np.eye(2) / 2),
            (np.eye(2) / 2, pure([1, 0.3j]))]
    rho0 = np.concatenate([ens.rho0, [np.asarray(a) for a, _ in edge]])
    rho1 = np.concatenate([ens.rho1, [np.asarray(b) for _, b in edge]])
    stacked = oracle.numeric_two_state_info_stack(rho0, rho1)
    one_pair = [numeric_two_state_info(a, b) for a, b in zip(rho0, rho1)]
    assert stacked.shape == (205,)
    assert np.max(np.abs(stacked - one_pair)) <= 1e-12
    assert stacked[200:203] == pytest.approx([0.0, 1.0, one_pair[202]], abs=1e-12)
    assert stacked[203] == 0.0
    # any leading shape: the same pairs as a (41, 5) stack
    grid = oracle.numeric_two_state_info_stack(rho0.reshape(41, 5, 2, 2), rho1.reshape(41, 5, 2, 2))
    assert np.max(np.abs(grid.ravel() - stacked)) <= 1e-12
    with pytest.raises(ValueError):
        oracle.numeric_two_state_info_stack(np.eye(3)[None] / 3, np.eye(3)[None] / 3)


def test_blockwise_search_on_a_stack_matches_each_probe_pair():
    # At gamma = 0 the inner block of both strategy-B probes is empty, a
    # block under the 1e-14 weight below which the search skips it.
    reports = oracle.simulate_strategy_b_grid(verification._GAMMA_GRID, eta_det=0.6, rng_seed=1)
    plus = np.array([rep.probe_plus for rep in reports])
    minus = np.array([rep.probe_minus for rep in reports])
    inner = np.stack(oracle._BLOCKS_B[1], -1)
    assert np.trace(inner.conj().T @ plus[0] @ inner).real < 1e-14
    stacked = oracle._blockwise_numeric_info(plus, minus, oracle._BLOCKS_B)
    each = [oracle._blockwise_numeric_info(p, m, oracle._BLOCKS_B) for p, m in zip(plus, minus)]
    assert np.max(np.abs(stacked - each)) <= 1e-12
    assert stacked == pytest.approx([rep.info_measurement_search for rep in reports], abs=1e-15)


def test_stacked_levitin_draws_reproduce_the_looped_ensembles():
    # The suite draws its 200 pairs and 10 rotations from one generator and
    # decomposes them as stacks.  Bit for bit, they are the pairs of looping
    # random_equal_determinant_ensemble with each rotation drawn after its
    # pair, and those are the per-matrix products of the previous code.
    def haar(rng):
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(z)
        return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))

    ens, rotated = verification._levitin_ensembles(VERIFY_SEED)
    looped, by_matrix = np.random.default_rng(VERIFY_SEED), np.random.default_rng(VERIFY_SEED)
    for i in range(200):
        pair = random_equal_determinant_ensemble(looped)
        lam = by_matrix.uniform(0.5, 1.0)
        diag = np.diag([lam, 1.0 - lam]).astype(complex)
        for k, u in enumerate((haar(by_matrix), haar(by_matrix))):
            assert np.array_equal(pair[k], u @ diag @ u.conj().T)
            assert np.array_equal(ens[k][i], pair[k])
        if i % 20 == 0:
            u = haar(looped)
            assert np.array_equal(u, haar(by_matrix))
            for k in (0, 1):
                assert np.array_equal(rotated[k][i // 20], u @ pair[k] @ u.conj().T)


def test_array_entropy_matches_the_scalar_one_with_zero_log_zero():
    def h2(q):
        return -sum(t * math.log2(t) for t in (q, 1.0 - q) if t > 0.0)

    q = np.array([0.0, 1.0, 1e-300, 0.25, 0.5, 0.9, 1.0 - 1e-16])
    got = oracle._h2_array(q)
    assert got[0] == 0.0 and got[1] == 0.0
    assert got == pytest.approx([h2(float(x)) for x in q], abs=1e-15)


def test_measurement_search_does_not_reference_the_closed_forms():
    # The search checks phi-based closed forms, so it must not borrow them:
    # walk the one-pair and the stacked search, the blockwise search over
    # the cloner probes, and every module function they reach.
    tree = ast.parse(Path(oracle.__file__).read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    forbidden = {"phi", "fuchs_information", "levitin_information", "infotheory"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("infotheory"):
            forbidden |= {alias.asname or alias.name for alias in node.names}
    entry_points = ["numeric_two_state_info", "numeric_two_state_info_stack", "_blockwise_numeric_info"]
    seen, todo = set(), list(entry_points)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Name):
                ident = node.id
            elif isinstance(node, ast.Attribute):
                ident = node.attr
            else:
                continue
            assert ident not in forbidden, f"{name} references {ident}"
            if ident in functions:
                todo.append(ident)
    assert {"_bloch_vector", "_plane_coordinates", "_mutual_information", "_h2_array"} <= seen


BLOCKS = [[np.eye(4)[0], np.eye(4)[1]], [np.eye(4)[2], np.eye(4)[3]]]


def test_blockwise_info_rejects_probes_with_unequal_block_weights():
    even = np.diag([0.5, 0.0, 0.5, 0.0])
    assert oracle._blockwise_numeric_info(even, np.diag([0.0, 0.5, 0.0, 0.5]),
                                          BLOCKS) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(RuntimeError, match="weights differ"):
        oracle._blockwise_numeric_info(even, np.diag([1.0, 0.0, 0.81, 0.0]) / 1.81, BLOCKS)


def test_blockwise_info_rejects_coherence_between_blocks():
    # Each probe splits its weight evenly over the two blocks, as above, but
    # as a superposition: the projection onto the blocks would drop the
    # off-block entries 1/2 without a word.
    with pytest.raises(RuntimeError, match="coherence between blocks"):
        oracle._blockwise_numeric_info(pure([1, 0, 1, 0]), pure([0, 1, 0, 1]), BLOCKS)
    # the bound is 1e-12 on the largest off-block entry of either probe
    rho = np.diag([0.5, 0.0, 0.5, 0.0]).astype(complex)
    other = np.diag([0.0, 0.5, 0.0, 0.5])
    rho[0, 2] = rho[2, 0] = 1e-13
    assert oracle._blockwise_numeric_info(rho, other, BLOCKS) == pytest.approx(1.0, abs=1e-9)
    rho[0, 2] = rho[2, 0] = 1e-11
    with pytest.raises(RuntimeError, match="coherence between blocks"):
        oracle._blockwise_numeric_info(other, rho, BLOCKS)


# -- strategy simulations ----------------------------------------------------

def test_simulate_strategy_a_at_zero_beta():
    report = simulate_strategy_a(0.0, eta_det=0.4, rng_seed=3)
    assert report.disturbance == pytest.approx(0.0, abs=1e-15)
    assert report.info_closed_form == 0.0
    assert report.info_measurement_search == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(report.probe_plus, np.outer(PHI_PLUS, PHI_PLUS.conj()), atol=1e-12)


def test_simulate_strategy_a_deltas_small():
    report = simulate_strategy_a(0.15, eta_det=0.25, rng_seed=7)
    assert report.disturbance == pytest.approx(2 * 0.15**2, abs=1e-12)
    assert report.deltas["probe_vs_closed_form"] <= 1e-9
    assert report.deltas["overlap_vs_closed_form"] <= 1e-9
    assert report.deltas["product_block_weight_vs_2d"] <= 1e-9
    assert report.deltas["information_vs_measurement_search"] <= 1e-6
    assert report.deltas["bob_singlet_weight"] <= 1e-12


def test_simulate_strategy_a_reproducible():
    a = simulate_strategy_a(0.2, eta_det=0.3, rng_seed=11)
    b = simulate_strategy_a(0.2, eta_det=0.3, rng_seed=11)
    assert a.deltas == b.deltas
    assert np.array_equal(a.probe_plus, b.probe_plus)


def test_simulate_strategy_b_at_zero_gamma():
    report = simulate_strategy_b(0.0, eta_det=0.4, rng_seed=5)
    assert report.disturbance == pytest.approx(0.0, abs=1e-12)
    m = oracle._in_basis(report.probe_plus, oracle._DIAG_KETS) * 16
    assert m[0, 0] == pytest.approx(8.0, abs=1e-9)
    assert m[0, 3] == pytest.approx(8.0, abs=1e-9)
    assert m[3, 3] == pytest.approx(8.0, abs=1e-9)
    assert m[1, 1] == pytest.approx(0.0, abs=1e-9)


def test_simulate_strategy_b_at_half_pi():
    report = simulate_strategy_b(math.pi / 2, eta_det=0.7, rng_seed=5)
    assert report.disturbance == pytest.approx(0.25, abs=1e-12)
    assert report.deltas["coefficients_vs_closed_form"] <= 1e-9
    assert report.deltas["information_vs_measurement_search"] <= 1e-6


@pytest.mark.parametrize("gamma", np.linspace(0.0, math.pi, 9))
def test_simulate_strategy_b_grid(gamma):
    report = simulate_strategy_b(float(gamma), eta_det=0.35, rng_seed=2)
    assert report.deltas["disturbance_vs_closed_form"] <= 1e-9
    assert report.deltas["coefficients_vs_closed_form"] <= 1e-9
    assert report.deltas["error_rate_spread"] <= 1e-10
    assert report.deltas["isometry_defect"] <= 1e-12


@pytest.mark.parametrize("grid_fn, one_fn, grid, eta_det", [
    (oracle.simulate_strategy_a_grid, simulate_strategy_a, verification._BETA_GRID, 0.3),
    (oracle.simulate_strategy_b_grid, simulate_strategy_b, verification._GAMMA_GRID, 0.4),
], ids=["strategy_a", "strategy_b"])
def test_grid_drive_gives_the_deltas_of_the_per_setting_wrappers(grid_fn, one_fn, grid, eta_det):
    reports = grid_fn(grid, eta_det=eta_det, rng_seed=5)
    assert len(reports) == len(grid)
    for i, (x, rep) in enumerate(zip(grid, reports)):
        one = one_fn(float(x), eta_det=eta_det, rng_seed=5 + i)
        assert one.deltas == rep.deltas
        assert (one.disturbance, one.info_measurement_search) == (rep.disturbance, rep.info_measurement_search)
        assert np.array_equal(one.probe_plus, rep.probe_plus)
        assert np.array_equal(one.probe_minus, rep.probe_minus)


def test_strategy_b_probes_do_not_depend_on_the_detector_efficiency():
    # Why one eta_det 0.6 pass of the angle grid serves probe_b_coefficients,
    # whose deltas read only the attacker's probes, as well as disturbance_maps.
    low, high = (oracle.simulate_strategy_b_grid(verification._GAMMA_GRID, eta_det=eta_det, rng_seed=VERIFY_SEED)
                 for eta_det in (0.4, 0.6))
    for a, b in zip(low, high, strict=True):
        assert np.array_equal(a.probe_plus, b.probe_plus) and np.array_equal(a.probe_minus, b.probe_minus)
        for key in ("coefficients_vs_closed_form", "probe_exchange_symmetry"):
            assert a.deltas[key] == b.deltas[key], key


#: Each report delta with the tolerance of the qel verify check that reads it:
#: the isometry suite, probe_a, probe_b_coefficients and disturbance_maps.
_VERIFY_TOLERANCES = {
    "isometry_defect": 1e-12, "bob_singlet_weight": 1e-12, "error_rate_spread": 1e-10,
    "probe_vs_closed_form": 1e-9, "overlap_vs_closed_form": 1e-9, "product_block_weight_vs_2d": 1e-9,
    "information_vs_measurement_search": 1e-6, "coefficients_vs_closed_form": 1e-9,
    "probe_exchange_symmetry": 1e-12, "disturbance_vs_closed_form": 1e-9,
}


@pytest.mark.parametrize("grid_fn, grid", [
    (oracle.simulate_strategy_a_grid, np.linspace(0.0, math.sqrt(1 / 8), 41)),
    (oracle.simulate_strategy_b_grid, np.linspace(0.0, math.pi, 41)),
], ids=["strategy_a", "strategy_b"])
def test_oracle_holds_over_each_machine_domain_ends_included(grid_fn, grid):
    # beta = sqrt(1/8) is the universal cloner's end, D = 1/4, where the phi+
    # component of the probes vanishes and sqrt(1 - 4D) is steepest
    for x, rep in zip(grid.tolist(), grid_fn(grid, eta_det=0.3, rng_seed=VERIFY_SEED), strict=True):
        for key, delta in rep.deltas.items():
            assert delta <= _VERIFY_TOLERANCES[key], (x, key, delta)


def _entropy(rho) -> float:
    p = np.linalg.eigvalsh(rho)
    p = p[p > 1e-15]
    return float(-np.sum(p * np.log2(p)))


def _holevo_chi(rho_plus, rho_minus) -> float:
    return _entropy((rho_plus + rho_minus) / 2.0) - (_entropy(rho_plus) + _entropy(rho_minus)) / 2.0


def test_strategy_informations_stay_below_the_holevo_bound_of_the_probe_pair():
    # The closed forms add up per-block informations; the Holevo quantity of
    # the full 4-dimensional simulated probe pair bounds any measurement and
    # knows nothing of the blocks.
    reports = oracle.simulate_strategy_a_grid(verification._BETA_GRID, eta_det=0.3, rng_seed=VERIFY_SEED)
    for rep in reports:
        chi = _holevo_chi(rep.probe_plus, rep.probe_minus)
        assert 0.0 < attacks.strategy_a_information(rep.disturbance) <= chi + 1e-12
        assert chi <= 1.0 + 1e-12
    grid = verification._GAMMA_GRID
    reports = oracle.simulate_strategy_b_grid(grid, eta_det=0.6, rng_seed=VERIFY_SEED)
    for gamma, rep in zip(grid, reports):
        chi = _holevo_chi(rep.probe_plus, rep.probe_minus)
        assert attacks.strategy_b_information(float(gamma)) <= chi + 1e-12
        assert chi <= 1.0 + 1e-12



# -- the PNS side: a signal (x) probe machine ----------------------------------

def _pns_machine(theta: float):
    """Bob's and Eve's qubit states for the four BB84 signals after U(theta) on signal (x) probe.

    U(theta) = exp(-i theta X(x)X/2) exp(-i theta Z(x)Z/2), the probe starting in |R>, the
    y eigenstate that the rotations between the BB84 signals leave alone.  XX and ZZ commute
    and square to the identity, so each factor is cos(theta/2) - i sin(theta/2) times it.
    """
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    u = (c * np.eye(4) - 1j * s * np.kron(SIGMA_X, SIGMA_X)) @ (c * np.eye(4) - 1j * s * np.kron(SIGMA_Z, SIGMA_Z))
    out = np.array([u @ np.kron(signal_ket(signal), KET_R) for signal in SIGNALS])
    rho = out[:, :, None] * out[:, None, :].conj()
    return partial_trace(rho, keep="a", dims=(2, 2)), partial_trace(rho, keep="b", dims=(2, 2))


def _pns_machine_information(disturbance: float) -> float:
    """Eve's measured information on the rectilinear signals at the machine's disturbance."""
    eve = _pns_machine(2.0 * math.asin(math.sqrt(disturbance)))[1]
    return numeric_two_state_info(eve[0], eve[1])


def test_pns_machine_gives_the_fuchs_information_in_both_bases():
    # The PNS process attacks each single photon with the optimal individual attack; this
    # machine builds it, and the measurement search reads the Fuchs information off its probes.
    for theta in np.linspace(0.0, math.pi / 2, 41).tolist():
        bob, eve = _pns_machine(theta)
        d = math.sin(theta / 2.0) ** 2
        for j, signal in enumerate(SIGNALS):
            wrong = basis_kets(signal.basis)[1 - signal.bit]
            assert abs((wrong.conj() @ bob[j] @ wrong).real - d) <= 1e-15, (theta, signal)
        for rho0, rho1 in (eve[:2], eve[2:]):  # the rectilinear pair, then the diagonal pair
            assert abs(numeric_two_state_info(rho0, rho1) - fuchs_information(d)) <= 1e-12, theta


def test_machines_on_both_sides_gain_inside_the_band_and_not_outside():
    # At 1e-5 in D either side of each gain_band edge, the cloning machine's measured
    # information minus the PNS side, p + (1 - p) times the PNS machine's, has the sign the
    # closed forms give: a gain inside the band and none outside.
    for eta_det in (0.052, 0.2, 0.5):
        p = attacks.matched_two_photon_fraction(eta_det)
        for strategy, simulate, setting in (("A", simulate_strategy_a, attacks.clone_a_params_for_disturbance),
                                            ("B", simulate_strategy_b, attacks.gamma_for_disturbance)):
            entry, exit_ = channel.gain_band(strategy, eta_det)
            for d, inside in ((entry - 1e-5, False), (entry + 1e-5, True),
                              (exit_ - 1e-5, True), (exit_ + 1e-5, False)):
                report = simulate(setting(d), eta_det=eta_det, rng_seed=VERIFY_SEED)
                assert abs(report.disturbance - d) <= 1e-9, (strategy, eta_det, d)
                pns = p + (1.0 - p) * _pns_machine_information(report.disturbance)
                gain = report.info_measurement_search - pns
                assert (gain > 1e-5) if inside else (gain < -1e-5), (strategy, eta_det, d, gain)

# -- per-pulse Monte Carlo ---------------------------------------------------

def test_monte_carlo_pns_never_double_clicks():
    stats = monte_carlo_protocol(SCEN, "PNS", 0.1, n_pulses=200_000, seed=42)
    assert stats.double_clicks_matched == 0
    assert stats.double_clicks_mismatched == 0


@pytest.mark.parametrize("attack, counts", [
    ("PNS", (200122, 100017, 4381, 0, 0)),
    ("CloneA", (200492, 99796, 9810, 2293, 4449)),
    ("CloneB", (200492, 99796, 9804, 2211, 4299)),
])
def test_monte_carlo_counts_are_pinned(attack, counts):
    # Exact counts of the seeded sampler; any change to the draws, their
    # order or the outcome and sifting rules moves them.
    stats = monte_carlo_protocol(SCEN, attack, 0.1, n_pulses=10**6, seed=20240901)
    assert (stats.raw_clicks, stats.sifted_bits, stats.sifted_errors,
            stats.double_clicks_matched, stats.double_clicks_mismatched) == counts


def test_monte_carlo_cloners_double_click_in_both_bases():
    for attack in ("CloneA", "CloneB"):
        stats = monte_carlo_protocol(SCEN, attack, 0.1, n_pulses=200_000, seed=42)
        assert stats.double_clicks_matched > 0
        assert stats.double_clicks_mismatched > 0
        assert stats.double_matched_rate > 5 * stats.double_matched_rate_se


def test_monte_carlo_raw_click_rate_matches_analytic():
    for attack in ("PNS", "CloneA", "CloneB"):
        stats = monte_carlo_protocol(SCEN, attack, 0.08, n_pulses=200_000, seed=9)
        dev = abs(stats.raw_click_rate - stats.expected_raw_click_rate)
        assert dev <= 3 * stats.raw_click_rate_se
        # matched rates: every process clicks at eta_det per pulse
        assert stats.expected_raw_click_rate == pytest.approx(SCEN.eta_det, abs=1e-12)


def test_monte_carlo_sifted_error_rates():
    # cloning processes show the full disturbance; the matched PNS process
    # dilutes it by the single-photon fraction 1-p
    d = 0.1
    stats_b = monte_carlo_protocol(SCEN, "CloneB", d, n_pulses=400_000, seed=13)
    assert _expected_rates("CloneB", d, SCEN.eta_det)[1] == pytest.approx(d, abs=1e-12)
    rate = stats_b.sifted_errors / stats_b.sifted_bits
    assert abs(rate - d) <= 4 * math.sqrt(rate * (1 - rate) / stats_b.sifted_bits)
    p = attacks.matched_two_photon_fraction(SCEN.eta_det)
    assert _expected_rates("PNS", d, SCEN.eta_det)[1] == pytest.approx((1 - p) * d, abs=1e-12)


def test_monte_carlo_seed_determinism():
    a = monte_carlo_protocol(SCEN, "CloneA", 0.1, n_pulses=50_000, seed=77)
    b = monte_carlo_protocol(SCEN, "CloneA", 0.1, n_pulses=50_000, seed=77)
    assert a == b
    c = monte_carlo_protocol(SCEN, "CloneA", 0.1, n_pulses=50_000, seed=78)
    assert a != c


def test_monte_carlo_convergence_rate():
    errs = []
    for n in (100_000, 200_000):
        stats = monte_carlo_protocol(SCEN, "CloneB", 0.1, n_pulses=n, seed=5)
        errs.append(stats.double_matched_rate_se)
    ratio = errs[0] / errs[1]
    assert abs(ratio - math.sqrt(2)) < 0.2 * math.sqrt(2)


def test_monte_carlo_argument_validation():
    with pytest.raises(ValueError):
        monte_carlo_protocol(SCEN, "Unknown", 0.1, n_pulses=10, seed=0)
    with pytest.raises(ValueError):
        monte_carlo_protocol(SCEN, "PNS", 0.1, n_pulses=0, seed=0)
    with pytest.raises(ValueError) as raised:
        monte_carlo_protocol(SCEN, "PNS", 0.6, n_pulses=10, seed=0)
    assert (type(raised.value), str(raised.value)) == (ValueError, "disturbance must lie in [0, 1/2], got 0.6")


@pytest.mark.parametrize("attack, top", [
    ("PNS", 0.5), ("CloneA", 0.25), ("CloneB", attacks.STRATEGY_B_MAX_DISTURBANCE)])
def test_monte_carlo_tables_are_nonnegative_rows_that_sum_to_one(attack, top):
    # The tally compares a uniform with three CDF entries and never caps the
    # outcome; that equals the four-entry count only if no CDF row decreases.
    for d in np.linspace(0.0, top, 21):
        for eta in (0.01, 0.05, 0.2, 0.6, 0.95, 1.0):
            table = oracle._attack_tables(attack, float(d), eta)
            assert table.shape == (2, 4, 2, len(DetectionOutcome))
            assert np.all(table >= 0.0), (d, eta)
            assert np.max(np.abs(table.sum(axis=-1) - 1.0)) <= 1e-12, (d, eta)


def test_monte_carlo_tally_rejects_a_negative_table_entry():
    table = oracle._attack_tables("PNS", 0.1, 0.2)
    table[1, 0, 0, DetectionOutcome.DOUBLE] = -0.25
    table[1, 0, 0, DetectionOutcome.VACUUM] += 0.25
    with pytest.raises(ValueError, match="negative"):
        oracle._tallies(100, 0.5, 0, [table])


def _expected_rates(attack, disturbance, eta):
    # Reference expectation: a hand loop over each signal's own bit and basis.
    table = oracle._attack_tables(attack, disturbance, eta)
    signals = STRATEGY_B_SIGNALS if attack == "CloneB" else SIGNALS
    bases = list(dict.fromkeys(s.basis for s in signals))
    p_two = attacks.matched_two_photon_fraction(eta)
    weights = np.full((2, 4, 2), 0.125)
    weights[0] *= 1.0 - p_two
    weights[1] *= p_two
    exp_click = float(np.sum(weights[..., None] * table[..., DetectionOutcome.CLICK0:]))
    exp_sift = exp_err = 0.0
    for t in (0, 1):
        for i, signal in enumerate(signals):
            j = bases.index(signal.basis)
            row = table[t, i, j]
            wrong_click = DetectionOutcome.CLICK1 if signal.bit == 0 else DetectionOutcome.CLICK0
            exp_sift += weights[t, i, j] * (row[DetectionOutcome.CLICK0] + row[DetectionOutcome.CLICK1]
                                            + row[DetectionOutcome.DOUBLE])
            exp_err += weights[t, i, j] * (row[wrong_click] + 0.5 * row[DetectionOutcome.DOUBLE])
    return exp_click, exp_err / exp_sift if exp_sift > 0 else 0.0


@pytest.mark.parametrize("eta_det", [0.01, 0.2, 0.6, 1.0])
@pytest.mark.parametrize("disturbance", [0.0, 0.01, 0.1, 0.25, 0.5])
@pytest.mark.parametrize("attack", ["PNS", "CloneA", "CloneB"])
def test_expected_rates_match_the_hand_written_sifting_loop(attack, disturbance, eta_det):
    scen = ChannelScenario.from_loss_db(0.1, eta_det, 5.0)
    if attack != "PNS" and disturbance == 0.5:
        # outside both cloners' disturbance range
        match = r"must lie in \[0, 1/4\]" if attack == "CloneA" else "no gamma"
        with pytest.raises(ValueError, match=match):
            monte_carlo_protocol(scen, attack, disturbance, n_pulses=20_000, seed=7)
        return
    stats = monte_carlo_protocol(scen, attack, disturbance, n_pulses=20_000, seed=7)
    assert abs(stats.expected_raw_click_rate - _expected_rates(attack, disturbance, eta_det)[0]) <= 1e-15


def _draw(n_pulses, p_two, seed):
    # Reference sampler: the five streams drawn whole from one generator.
    rng = np.random.default_rng(seed)
    is_two = rng.random(n_pulses) < p_two
    cell = rng.integers(0, 4, size=n_pulses)
    cell += is_two * 4
    cell *= 2
    cell += rng.integers(0, 2, size=n_pulses)
    return cell, rng.random(n_pulses), rng.integers(0, 2, size=n_pulses)


def _tally(draw, table):
    # Reference tally: the 128 counts of a whole draw under one outcome table.
    cell, u, double_bit = draw
    cdf = np.cumsum(table, axis=-1).reshape(16, 4)
    outcome = np.sum([u > cdf[cell, k] for k in range(DetectionOutcome.DOUBLE)], axis=0)
    return np.bincount((cell * 4 + outcome) * 2 + double_bit, minlength=128)


@pytest.fixture(scope="module")
def block_tables():
    # All three attacks at two detector efficiencies, plus strategy A at
    # eta_det 1, whose round-off negatives _attack_tables clips.
    tables = [oracle._attack_tables(attack, 0.1, eta)
              for attack in ("PNS", "CloneA", "CloneB") for eta in (0.2, 0.6)]
    return tables + [oracle._attack_tables("CloneA", 0.1, 1.0)]


_B = oracle._BLOCK


@pytest.mark.parametrize("p_two", [0.3, 0.55])
@pytest.mark.parametrize("seed", [0, 7, 42, 20240901])
@pytest.mark.parametrize("n_pulses", [1, 2, 3, 7, _B - 1, _B, _B + 1, 2 * _B + 1, 200_001])
def test_blockwise_tallies_equal_the_one_shot_draw(n_pulses, p_two, seed, block_tables):
    # Odd n puts the basis stream on the high half of a u64, and n around
    # the block size puts a partial block at the end.
    draw = _draw(n_pulses, p_two, seed)
    expected = np.array([_tally(draw, table) for table in block_tables])
    assert np.array_equal(oracle._tallies(n_pulses, p_two, seed, block_tables), expected)


@pytest.mark.parametrize("eta_det", [0.2, 0.6])
@pytest.mark.parametrize("n_pulses", [1, 7, 200_000])
@pytest.mark.parametrize("seed", [0, 7, 42])
def test_shared_draw_equals_separate_calls(seed, n_pulses, eta_det):
    scen = ChannelScenario.from_loss_db(0.1, eta_det, 5.0)
    separate = {name: monte_carlo_protocol(scen, name, 0.1, n_pulses=n_pulses, seed=seed)
                for name in ("PNS", "CloneA", "CloneB")}
    for names in (("CloneA", "CloneB"), ("PNS", "CloneA", "CloneB")):
        shared = oracle.monte_carlo_protocols(scen, names, 0.1, n_pulses=n_pulses, seed=seed)
        assert shared == tuple(separate[name] for name in names)


def test_shared_draw_counts_are_pinned():
    # Counts of one draw per attack; sharing the draw must not move them.
    stats = oracle.monte_carlo_protocols(SCEN, ("PNS", "CloneA", "CloneB"), 0.1, n_pulses=200_000, seed=7)
    assert [(s.raw_clicks, s.sifted_bits, s.sifted_errors, s.double_clicks_matched,
             s.double_clicks_mismatched) for s in stats] == [
        (39847, 20003, 860, 0, 0),
        (39846, 20017, 1988, 463, 870),
        (39846, 20017, 1978, 445, 841),
    ]


def _chi2_upper_tail(statistic: float, dof: int) -> float:
    """P(X > statistic) for X chi-squared on dof degrees of freedom, by Wilson and Hilferty's cube root."""
    s = 2.0 / (9.0 * dof)
    z = ((statistic / dof) ** (1.0 / 3.0) - (1.0 - s)) / math.sqrt(s)
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def test_monte_carlo_tallies_fit_their_tables():
    # Pearson's chi-squared of each attack's 128 counts against n times the entries' exact probabilities:
    # the pulse type's weight, 1/4 per signal, 1/2 per basis and per double-click bit, times the table
    # entry.  An entry that cannot occur (eta_det 1 has some) must count 0.  Each statistic is tested on
    # its own, though the attacks of one call share their draws; a correct sampler fails about once in 1e6.
    names, faults, call = ("PNS", "CloneA", "CloneB"), [], 0
    for eta_det, disturbance in [(0.2, 0.1), (0.6, 0.05), (1.0, 0.2)]:
        p_two = attacks.matched_two_photon_fraction(eta_det)
        tables = [oracle._attack_tables(attack, disturbance, eta_det) for attack in names]
        weight = np.array([1.0 - p_two, p_two])[:, None, None, None, None] / 16
        for n_pulses in (_B - 1, _B + 1, 2 * _B + 1, 200_001):
            call += 1
            counts = oracle._tallies(n_pulses, p_two, 20261022 + call, tables)
            for attack, table, count in zip(names, tables, counts):
                expected = n_pulses * np.broadcast_to(weight * table[..., None], (2, 4, 2, 4, 2)).ravel()
                possible = expected > 0.0
                statistic = float(np.sum((count[possible] - expected[possible]) ** 2 / expected[possible]))
                tail = _chi2_upper_tail(statistic, int(possible.sum()) - 1)
                if tail < 1e-6 or count[~possible].any() or count.sum() != n_pulses:
                    faults.append((eta_det, n_pulses, attack, statistic, tail, count[~possible].sum()))
    assert faults == []


def test_monte_carlo_memory_does_not_grow_with_the_pulse_count():
    # One whole draw of 2e6 pulses held about 65 MB; blocks hold about 2 MB.
    tracemalloc.start()
    try:
        oracle.monte_carlo_protocols(SCEN, ("CloneA", "CloneB"), 0.1, n_pulses=2_000_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


def test_double_click_suite_gives_the_benchmark_reference_deltas():
    reference = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "reference"
                            / "verify.json").read_text())
    expected = {check["name"]: check["delta"] for suite in reference["suites"]
                if suite["name"] == "double_click" for check in suite["checks"]}
    got = {check.name: check.delta for check in verification._suite_double_click(20240901, 10**6).checks}
    assert got.keys() == expected.keys()
    # the expectation's round-off moves this delta by about 5.5e-17; the rest are counts
    raw_rate = "pns_raw_click_rate_within_3_sigma"
    assert abs(got.pop(raw_rate) - expected.pop(raw_rate)) <= 1e-15
    assert got == expected
