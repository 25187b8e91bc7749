import ast
import math
from pathlib import Path

import numpy as np
import pytest

from qel import attacks
from qel.channel import ChannelScenario
from qel.infotheory import levitin_information, phi
from qel.linalg import Operator
from qel import oracle
from qel.oracle import (monte_carlo_protocol, numeric_two_state_info,
                        simulate_strategy_a, simulate_strategy_b)
from qel.verification import random_equal_determinant_ensemble


def pure(amplitudes) -> Operator:
    v = np.asarray(amplitudes, dtype=complex)
    v = v / np.linalg.norm(v)
    return Operator(np.outer(v, v.conj()))


SCEN = ChannelScenario.from_loss_db(0.1, 0.2, 5.0)


# -- measurement search ------------------------------------------------------

def test_numeric_info_orthogonal_pure_states():
    assert numeric_two_state_info(pure([1, 0]), pure([0, 1])) == pytest.approx(1.0, abs=1e-9)


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
    ov = abs(np.trace(rho0.entries @ rho1.entries))
    expected = 0.5 * phi(math.sqrt(1 - ov))
    assert got == pytest.approx(expected, abs=1e-6)


def test_numeric_info_collinear_bloch_vectors_fall_back_to_the_x_axis():
    # Bloch vectors (0, 0, 0.6) and (0, 0, -0.4): r0 + r1 is parallel to
    # r0 - r1 and so is the z axis, leaving x as the second frame vector.
    rho0 = Operator(np.diag([0.8, 0.2]))
    rho1 = Operator(np.diag([0.3, 0.7]))
    e1, e2 = oracle._plane_frame(oracle._bloch_vector(rho0.entries),
                                 oracle._bloch_vector(rho1.entries))
    assert np.array_equal(e1, [0.0, 0.0, 1.0])
    assert np.array_equal(e2, [1.0, 0.0, 0.0])

    def h2(q):
        return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)

    expected = h2(0.55) - (h2(0.8) + h2(0.3)) / 2.0
    assert numeric_two_state_info(rho0, rho1) == pytest.approx(expected, abs=1e-12)


def test_numeric_info_agrees_with_levitin_on_random_equal_determinant_pairs():
    rng = np.random.default_rng(20240901)
    worst = 0.0
    for _ in range(200):
        ens = random_equal_determinant_ensemble(rng)
        worst = max(worst, abs(numeric_two_state_info(ens.rho0, ens.rho1)
                               - levitin_information(ens)))
    assert worst <= 1e-12


def test_array_entropy_matches_the_scalar_one_with_zero_log_zero():
    q = np.array([0.0, 1.0, 1e-300, 0.25, 0.5, 0.9, 1.0 - 1e-16])
    got = oracle._h2_array(q)
    assert got[0] == 0.0 and got[1] == 0.0
    assert got == pytest.approx([oracle._h2(float(x)) for x in q], abs=1e-15)


def test_measurement_search_does_not_reference_the_closed_forms():
    # The search checks phi-based closed forms, so it must not borrow them:
    # walk numeric_two_state_info and every module function it reaches.
    tree = ast.parse(Path(oracle.__file__).read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    forbidden = {"phi", "fuchs_information", "levitin_information", "infotheory"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("infotheory"):
            forbidden |= {alias.asname or alias.name for alias in node.names}
    seen, todo = set(), ["numeric_two_state_info"]
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
    assert {"_bloch_vector", "_plane_frame", "_h2", "_h2_array"} <= seen


def test_blockwise_info_rejects_probes_with_unequal_block_weights():
    basis = np.eye(4)
    blocks = [[basis[0], basis[1]], [basis[2], basis[3]]]
    even = pure([1, 0, 1, 0])
    assert oracle._blockwise_numeric_info(even, pure([0, 1, 0, 1]), blocks) == pytest.approx(
        1.0, abs=1e-9)
    with pytest.raises(RuntimeError):
        oracle._blockwise_numeric_info(even, pure([1, 0, 0.9, 0]), blocks)


# -- strategy simulations ----------------------------------------------------

def test_simulate_strategy_a_at_zero_beta():
    report = simulate_strategy_a(0.0, eta_det=0.4, rng_seed=3)
    assert report.disturbance == pytest.approx(0.0, abs=1e-15)
    assert report.info_closed_form == 0.0
    assert report.info_measurement_search == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(report.probe_plus.entries, np.outer(attacks.PHI_PLUS, attacks.PHI_PLUS.conj()), atol=1e-12)


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
    assert np.array_equal(a.probe_plus.entries, b.probe_plus.entries)


def test_simulate_strategy_b_at_zero_gamma():
    report = simulate_strategy_b(0.0, eta_det=0.4, rng_seed=5)
    assert report.disturbance == pytest.approx(0.0, abs=1e-12)
    m = attacks.probe_matrix_in_diagonal_basis(report.probe_plus) * 16
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
    assert stats_b.expected_sifted_error_rate == pytest.approx(d, abs=1e-12)
    assert abs(stats_b.sifted_error_rate - d) <= 4 * stats_b.sifted_error_rate_se
    stats_p = monte_carlo_protocol(SCEN, "PNS", d, n_pulses=400_000, seed=13)
    p = attacks.matched_two_photon_fraction(SCEN.eta_det)
    assert stats_p.expected_sifted_error_rate == pytest.approx((1 - p) * d, abs=1e-12)


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


def test_monte_carlo_param_entry_points():
    via_d = monte_carlo_protocol(SCEN, "CloneB", 0.1, n_pulses=10_000, seed=3)
    gamma = attacks.gamma_for_disturbance(0.1)
    via_g = monte_carlo_protocol(SCEN, "CloneB", param=gamma, n_pulses=10_000, seed=3)
    assert via_d.sifted_errors == via_g.sifted_errors
    beta = attacks.clone_a_params_for_disturbance(0.1).beta
    via_b = monte_carlo_protocol(SCEN, "CloneA", param=beta, n_pulses=10_000, seed=3)
    assert via_b.disturbance == pytest.approx(0.1, abs=1e-9)


def test_monte_carlo_argument_validation():
    with pytest.raises(ValueError):
        monte_carlo_protocol(SCEN, "PNS", 0.1, param=0.2, n_pulses=10)
    with pytest.raises(ValueError):
        monte_carlo_protocol(SCEN, "PNS", param=0.2, n_pulses=10)
    with pytest.raises(ValueError):
        monte_carlo_protocol(SCEN, "Unknown", 0.1, n_pulses=10)
    with pytest.raises(ValueError):
        monte_carlo_protocol(SCEN, "PNS", 0.1, n_pulses=0)
