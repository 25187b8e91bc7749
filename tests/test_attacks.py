import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qel import attacks
from qel.attacks import (CloneAParams, CloneBParams,
                         clone_a_disturbance, clone_a_params_for_disturbance,
                         gamma_for_disturbance, information_curves,
                         matched_two_photon_fraction, pns_information,
                         pns_information_matched, strategy_a_information,
                         strategy_a_probe_overlap, strategy_a_probe_states,
                         strategy_a_unitary, strategy_b_coefficients,
                         strategy_b_disturbance, strategy_b_information,
                         strategy_b_probe_states, strategy_b_unitary)
from qel.infotheory import fuchs_information, phi
from qel.linalg import Operator, check_density, partial_trace
from qel.optics import SIGNALS, singlet_weight, symmetric_encode


# -- PNS ---------------------------------------------------------------------

def test_pns_information_limits():
    assert pns_information(0.3, 0.0) == pytest.approx(0.3, abs=1e-15)
    assert pns_information(1.0, 0.37) == pytest.approx(1.0, abs=1e-15)
    assert pns_information(0.0, 0.2) == pytest.approx(fuchs_information(0.2), abs=1e-15)


def test_matched_fraction_values():
    assert matched_two_photon_fraction(1.0) == pytest.approx(1.0, abs=1e-15)
    assert matched_two_photon_fraction(0.0) == pytest.approx(0.5, abs=1e-15)
    assert matched_two_photon_fraction(0.2) == pytest.approx(1.0 / 1.8, abs=1e-15)


def test_pns_matched_value_at_zero_disturbance():
    assert pns_information_matched(0.9, 0.0) == pytest.approx(1.0 / 1.1, abs=1e-14)
    assert pns_information_matched(1.0, 0.33) == pytest.approx(1.0, abs=1e-14)


@given(st.floats(0.0, 1.0), st.floats(0.0, 0.5))
@settings(max_examples=200)
def test_pns_matched_equals_composition(eta, d):
    # the matched fraction 1/(2-eta) substituted and rearranged by hand
    big_phi = phi(2.0 * math.sqrt(d * (1.0 - d)))
    rearranged = (1.0 + (1.0 - eta) * big_phi / 2.0) / (2.0 - eta)
    assert abs(pns_information_matched(eta, d) - rearranged) <= 1e-14


def test_pns_matched_monotonicity():
    etas = np.linspace(0.0, 1.0, 21)
    values = [pns_information_matched(e, 0.1) for e in etas]
    assert all(b > a for a, b in zip(values, values[1:]))
    ds = np.linspace(0.0, 0.5, 21)
    values = [pns_information_matched(0.4, d) for d in ds]
    assert all(b > a for a, b in zip(values, values[1:]))


# -- strategy A --------------------------------------------------------------

def test_strategy_a_unitary_no_disturbance_at_beta_zero():
    u = strategy_a_unitary(CloneAParams(beta=0.0)).entries
    for signal in SIGNALS:
        pair = symmetric_encode(signal).amplitudes
        out = u @ np.kron(pair, [1, 0, 0, 0])
        expected = np.kron(pair, attacks.PHI_PLUS.amplitudes)
        assert np.allclose(out, expected, atol=1e-12)


def test_strategy_a_unitary_norm_preservation():
    u = strategy_a_unitary(CloneAParams(beta=0.2)).entries
    for signal in SIGNALS:
        out = u @ np.kron(symmetric_encode(signal).amplitudes, [1, 0, 0, 0])
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-12


@given(st.floats(0.0, math.sqrt(1 / 8) * 0.999))
@settings(max_examples=25, deadline=None)
def test_strategy_a_bob_marginal_stays_symmetric(beta):
    u = strategy_a_unitary(CloneAParams(beta=beta)).entries
    for signal in SIGNALS[:2]:
        out = u @ np.kron(symmetric_encode(signal).amplitudes, [1, 0, 0, 0])
        rho = Operator(np.outer(out, out.conj()))
        bob = partial_trace(rho, keep="a", dims=(4, 4))
        assert singlet_weight(bob) <= 1e-12


def test_clone_a_params_validation():
    with pytest.raises(ValueError):
        CloneAParams(beta=0.4)
    assert CloneAParams(beta=0.0).alpha == 1.0


def test_strategy_a_probe_states_pure_at_zero():
    rho_p, rho_m = strategy_a_probe_states(0.0)
    expected = attacks.PHI_PLUS.density().entries
    assert np.allclose(rho_p.entries, expected, atol=1e-12)
    assert np.allclose(rho_m.entries, expected, atol=1e-12)


def test_strategy_a_probe_states_valid_densities():
    for d in (0.01, 0.1, 0.2, 0.25):
        rho_p, rho_m = strategy_a_probe_states(d)
        assert check_density(rho_p)
        assert check_density(rho_m)


def test_strategy_a_overlap_vanishes_at_one_sixth():
    assert strategy_a_probe_overlap(1 / 6) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("d", np.linspace(0.0, 0.24, 13))
def test_strategy_a_overlap_formula_vs_inner_product(d):
    if d == 0.0:
        return
    scale = 1 / math.sqrt(1 - 2 * d)
    vp = scale * (math.sqrt(1 - 4 * d) * attacks.PHI_PLUS.amplitudes
                  + math.sqrt(2 * d) * attacks.PSI_PLUS.amplitudes)
    vm = scale * (math.sqrt(1 - 4 * d) * attacks.PHI_PLUS.amplitudes
                  - math.sqrt(2 * d) * attacks.PSI_PLUS.amplitudes)
    direct = float(np.real(np.vdot(vp, vm)))
    assert abs(direct - strategy_a_probe_overlap(d)) <= 1e-12


def test_strategy_a_probe_states_domain():
    with pytest.raises(ValueError):
        strategy_a_probe_states(0.3)


def test_strategy_a_information_values():
    assert strategy_a_information(0.0) == 0.0
    assert strategy_a_information(0.25) == pytest.approx(0.5, abs=1e-15)
    # frozen from direct evaluation, cross-checked by the measurement search
    assert strategy_a_information(0.1) == pytest.approx(0.7163368778677841, abs=1e-14)
    with pytest.raises(ValueError):
        strategy_a_information(0.26)


def test_clone_a_disturbance_calibration():
    # the machine-level map comes out as 2 beta^2 without being assumed
    for beta in (0.0, 0.1, 0.25, 0.34):
        d = clone_a_disturbance(CloneAParams(beta=beta))
        assert d == pytest.approx(2 * beta**2, abs=1e-12)
    params = clone_a_params_for_disturbance(0.125)
    assert clone_a_disturbance(params) == pytest.approx(0.125, abs=1e-10)


# -- strategy B --------------------------------------------------------------

def test_strategy_b_unitary_gamma_zero_is_identity_channel():
    u = strategy_b_unitary(CloneBParams(gamma=0.0)).entries
    for vec in (np.array([1, 0, 0, 0]), np.array([0, 0, 0, 1]),
                np.array([0, 1, 1, 0]) / math.sqrt(2)):
        out = u @ np.kron(vec.astype(complex), [1, 0, 0, 0])
        expected = np.kron(vec, attacks.PHI_PLUS.amplitudes)
        assert np.allclose(out, expected, atol=1e-12)


def test_strategy_b_v_images_at_gamma_zero():
    images = attacks._v_images(0.0)
    assert np.allclose(images["00"], np.eye(8)[0])
    expected = np.zeros(8)
    expected[int("010", 2)] = expected[int("100", 2)] = 1 / math.sqrt(2)
    assert np.allclose(images["psi+"], expected)


def test_strategy_b_tilde_v_is_bit_flip_conjugate():
    # rebuild the machine from scratch using Vt = X^3 V X^2 and compare
    gamma = 0.73
    u = strategy_b_unitary(CloneBParams(gamma=gamma)).entries
    images = attacks._v_images(gamma)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    x3 = np.kron(np.kron(x, x), x)
    sym = {
        "00": np.array([1, 0, 0, 0], dtype=complex),
        "psi+": np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2),
        "11": np.array([0, 0, 0, 1], dtype=complex),
    }
    flipped = {"00": "11", "psi+": "psi+", "11": "00"}
    for key, vec in sym.items():
        out = u @ np.kron(vec, [1, 0, 0, 0])
        tilde = x3 @ images[flipped[key]]
        expected = (np.kron(images[key], [1.0, 0.0]) + np.kron(tilde, [0.0, 1.0])) / math.sqrt(2)
        assert np.allclose(out, expected, atol=1e-12)


def test_strategy_b_isometry_on_random_domain_vectors():
    rng = np.random.default_rng(5)
    u = strategy_b_unitary(CloneBParams(gamma=1.0)).entries
    for _ in range(20):
        amp = rng.normal(size=3) + 1j * rng.normal(size=3)
        vec = np.zeros(4, dtype=complex)
        vec[0], vec[3] = amp[0], amp[2]
        vec[1] = vec[2] = amp[1] / math.sqrt(2)
        vec /= np.linalg.norm(vec)
        out = u @ np.kron(vec, [1, 0, 0, 0])
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-12


def test_strategy_b_coefficients_at_zero():
    a, b, c, d, e, f = strategy_b_coefficients(0.0)
    assert (a, b, c) == pytest.approx((8.0, 8.0, 8.0), abs=1e-12)
    assert (d, e, f) == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)


def test_strategy_b_coefficients_at_half_pi():
    a, b, c, d, e, f = strategy_b_coefficients(math.pi / 2)
    r2 = 2 * math.sqrt(2)
    assert a == pytest.approx(5 + r2, abs=1e-12)
    assert c == pytest.approx(5 - r2, abs=1e-12)
    assert d == pytest.approx(3 + r2, abs=1e-12)
    assert f == pytest.approx(3 - r2, abs=1e-12)
    assert b == pytest.approx(-3.0, abs=1e-12)
    assert e == pytest.approx(-1.0, abs=1e-12)


def test_strategy_b_coefficients_reflection_identity():
    # c(gamma) equals a evaluated with the sign of the sin-odd terms flipped
    def a_at_minus_gamma(gamma):
        c, s = math.cos(-gamma), math.sin(-gamma)
        c2g, s2g = math.cos(2 * gamma), -math.sin(2 * gamma)
        r3 = math.sqrt(3 + c2g)
        rs = math.sqrt(1 + s * s)
        return (1 + 4 * s / r3 + 10 * s2g / (r3 * rs) + 2 * c / rs
                + c * c * (8 / (1 + c * c) + 1 / (1 + s * s))
                + 4 * s * s * (1 / (3 + c2g) + 1 / (1 + s * s)))

    for gamma in np.linspace(0.0, math.pi, 25):
        _, _, c_coef, _, _, _ = strategy_b_coefficients(float(gamma))
        assert c_coef == pytest.approx(a_at_minus_gamma(float(gamma)), abs=1e-11)


def test_strategy_b_trace_identity_on_grid():
    for gamma in np.linspace(0.0, math.pi, 40):
        a, _, c, d, _, f = strategy_b_coefficients(float(gamma))
        assert a + c + d + f == pytest.approx(16.0, abs=1e-12)


def test_strategy_b_probe_states_structure():
    rho_p, rho_m = strategy_b_probe_states(0.0)
    # at gamma = 0 both probes are the pure Bell state (|00>+|11>)/sqrt(2),
    # i.e. rank one inside the {|++>, |-->} block
    assert np.linalg.matrix_rank(rho_p.entries, tol=1e-10) == 1
    assert np.allclose(rho_p.entries, attacks.PHI_PLUS.density().entries, atol=1e-12)
    for gamma in np.linspace(0.0, math.pi, 15):
        rho_p, rho_m = strategy_b_probe_states(float(gamma))
        assert check_density(rho_p)
        assert check_density(rho_m)
        m_p = attacks.probe_matrix_in_diagonal_basis(rho_p)
        m_m = attacks.probe_matrix_in_diagonal_basis(rho_m)
        assert np.allclose(m_m, m_p[::-1, ::-1], atol=1e-12)  # a<->c, d<->f swap


def test_strategy_b_disturbance_values():
    assert strategy_b_disturbance(0.0) == pytest.approx(0.0, abs=1e-15)
    assert strategy_b_disturbance(math.pi / 2) == pytest.approx(0.25, abs=1e-15)
    grid = np.linspace(0.0, math.pi / 2, 50)
    values = [strategy_b_disturbance(g) for g in grid]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_strategy_b_information_values():
    assert strategy_b_information(0.0) == pytest.approx(0.0, abs=1e-12)
    assert strategy_b_information(math.pi / 2) == pytest.approx(0.4579238268224637, abs=1e-12)
    sup = max(strategy_b_information(float(g)) for g in np.linspace(0, math.pi, 301))
    assert sup < 1.0


def test_gamma_inversion_roundtrip():
    for d in np.linspace(0.0, 0.25, 26):
        gamma = gamma_for_disturbance(float(d))
        assert abs(strategy_b_disturbance(gamma) - d) <= 1e-10
    with pytest.raises(ValueError):
        gamma_for_disturbance(0.3)


def test_bisect_returns_an_endpoint_root():
    assert attacks.bisect(lambda x: x - 1.0, 1.0, 3.0, xtol=1e-12) == 1.0
    assert attacks.bisect(lambda x: x - 3.0, 1.0, 3.0, xtol=1e-12) == 3.0


def test_bisect_rejects_a_same_sign_bracket():
    with pytest.raises(ValueError):
        attacks.bisect(lambda x: x * x + 1.0, -1.0, 2.0, xtol=1e-12)


@pytest.mark.parametrize("xtol", [1e-3, 1e-9, 1e-13])
def test_bisect_finds_a_monotone_root_within_xtol(xtol):
    root = attacks.bisect(lambda x: math.exp(x) - 2.0, 0.0, 3.0, xtol=xtol)
    assert abs(root - math.log(2.0)) <= xtol


def test_bisect_compares_signs_of_tiny_values():
    # f(mid) * f(lo) underflows to zero here; the root must still be found
    root = attacks.bisect(lambda x: (x - 0.3) * 1e-200, 0.0, 1.0, xtol=1e-12)
    assert abs(root - 0.3) <= 1e-12
    with pytest.raises(ValueError):
        attacks.bisect(lambda x: 1e-200, 0.0, 1.0, xtol=1e-12)


def test_bisect_gives_up_after_100_steps():
    with pytest.raises(RuntimeError):
        attacks.bisect(lambda x: x - 1e-300, 0.0, 1.0, xtol=1e-310)


# -- curves ------------------------------------------------------------------

def test_curves_at_zero_disturbance():
    points = information_curves(0.2, [0.0])
    p = points[0]
    assert p.i_pns == pytest.approx(1 / 1.8, abs=1e-14)
    assert p.i_a == pytest.approx(0.0, abs=1e-12)
    assert p.i_b == pytest.approx(0.0, abs=1e-12)


def test_curves_domain_truncation():
    points = information_curves(0.5, [0.2, 0.25, 0.3, 0.5])
    assert points[0].i_a is not None and points[0].i_b is not None
    assert points[1].i_a is not None and points[1].i_b is not None
    assert points[2].i_a is None and points[2].i_b is None
    assert points[3].i_a is None and points[3].i_b is None


def test_curves_strategy_a_beats_pns_somewhere():
    points = information_curves(0.2)
    assert any(p.i_a is not None and p.i_a > p.i_pns for p in points)


def test_curves_cloning_info_is_eta_independent():
    grid = np.linspace(0.0, 0.5, 40)
    low = information_curves(0.1, grid)
    high = information_curves(0.9, grid)
    for a, b in zip(low, high):
        assert (a.i_a is None) == (b.i_a is None)
        assert (a.i_b is None) == (b.i_b is None)
        if a.i_a is not None:
            assert a.i_a == b.i_a
        if a.i_b is not None:
            assert a.i_b == b.i_b
        if a.disturbance < 0.5:  # both curves reach 1 exactly at D = 1/2
            assert a.i_pns != b.i_pns


def test_curves_default_grid_size():
    points = information_curves(0.3)
    assert len(points) == attacks.DEFAULT_CURVE_GRID_POINTS
    assert points[0].disturbance == 0.0
    assert points[-1].disturbance == 0.5
    for p in points:
        for value in (p.i_pns, p.i_a, p.i_b):
            assert value is None or 0.0 <= value <= 1.0


def test_curves_reject_bad_grid():
    with pytest.raises(ValueError):
        information_curves(0.2, [0.6])
