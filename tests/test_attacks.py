import functools
import math
import os
import random
import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qel import attacks
from qel.attacks import (clone_a_params_for_disturbance, gamma_for_disturbance,
                         information_curves, matched_two_photon_fraction,
                         pns_information, pns_information_matched,
                         strategy_a_information, strategy_a_probe_overlap,
                         strategy_a_probe_states, strategy_b_coefficients,
                         strategy_b_disturbance, strategy_b_information,
                         strategy_b_probe_matrices)
from qel.infotheory import DOMAIN_SLACK, fuchs_information, phi
from qel.optics import (KET_MINUS, KET_PLUS, PHI_PLUS, PSI_PLUS, SIGNALS, check_density, partial_trace,
                        singlet_weight, symmetric_encode)
# The machines live in the oracle, which checks the closed forms here against them.
from qel.oracle import simulate_strategy_a_grid, strategy_a_isometry, strategy_b_isometry


# -- PNS ---------------------------------------------------------------------

def test_pns_information_limits():
    assert pns_information(0.3, 0.0) == pytest.approx(0.3, abs=1e-15)
    assert pns_information(1.0, 0.37) == pytest.approx(1.0, abs=1e-15)
    assert pns_information(0.0, 0.2) == pytest.approx(fuchs_information(0.2), abs=1e-15)
    for p in (-0.1, 1.5):
        with pytest.raises(ValueError) as raised:
            pns_information(p, 0.1)
        assert (type(raised.value), str(raised.value)) == (ValueError, f"two-photon fraction must lie in [0, 1], got {p}")


def test_matched_fraction_values():
    assert matched_two_photon_fraction(1.0) == pytest.approx(1.0, abs=1e-15)
    assert matched_two_photon_fraction(5e-324) == pytest.approx(0.5, abs=1e-15)
    assert matched_two_photon_fraction(0.2) == pytest.approx(1.0 / 1.8, abs=1e-15)
    for eta in (0.0, -0.1, 1.5, math.nan):
        with pytest.raises(ValueError):
            matched_two_photon_fraction(eta)


def test_pns_matched_value_at_zero_disturbance():
    assert pns_information_matched(0.9, 0.0) == pytest.approx(1.0 / 1.1, abs=1e-14)
    assert pns_information_matched(1.0, 0.33) == pytest.approx(1.0, abs=1e-14)


@given(st.floats(0.0, 1.0, exclude_min=True), st.floats(0.0, 0.5))
@settings(max_examples=200)
def test_pns_matched_equals_composition(eta, d):
    # the matched fraction 1/(2-eta) substituted and rearranged by hand
    big_phi = phi(2.0 * math.sqrt(d * (1.0 - d)))
    rearranged = (1.0 + (1.0 - eta) * big_phi / 2.0) / (2.0 - eta)
    assert abs(pns_information_matched(eta, d) - rearranged) <= 1e-14


def test_pns_matched_monotonicity():
    etas = np.linspace(0.0, 1.0, 21)[1:]
    values = [pns_information_matched(e, 0.1) for e in etas]
    assert all(b > a for a, b in zip(values, values[1:]))
    ds = np.linspace(0.0, 0.5, 21)
    values = [pns_information_matched(0.4, d) for d in ds]
    assert all(b > a for a, b in zip(values, values[1:]))


# -- strategy A --------------------------------------------------------------

def test_strategy_a_unitary_no_disturbance_at_beta_zero():
    u = strategy_a_isometry(0.0)
    for signal in SIGNALS:
        pair = symmetric_encode(signal)
        out = u @ pair
        expected = np.kron(pair, PHI_PLUS)
        assert np.allclose(out, expected, atol=1e-12)


def test_strategy_a_unitary_norm_preservation():
    u = strategy_a_isometry(0.2)
    for signal in SIGNALS:
        out = u @ symmetric_encode(signal)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-12


@given(st.floats(0.0, math.sqrt(1 / 8) * 0.999))
@settings(max_examples=25, deadline=None)
def test_strategy_a_bob_marginal_stays_symmetric(beta):
    u = strategy_a_isometry(beta)
    for signal in SIGNALS[:2]:
        out = u @ symmetric_encode(signal)
        rho = np.outer(out, out.conj())
        bob = partial_trace(rho, keep="a", dims=(4, 4))
        assert singlet_weight(bob) <= 1e-12


def test_clone_a_params_validation():
    with pytest.raises(ValueError):
        strategy_a_isometry(0.4)
    for gamma in (-0.1, 3.2):
        with pytest.raises(ValueError):
            strategy_b_isometry(gamma)
    # beta = 0 is the alpha = 1 machine: every signal column is |s>|phi+>
    u = strategy_a_isometry(0.0)
    for col_signal in range(4):
        assert np.array_equal(u[:, col_signal], np.kron(np.eye(4)[col_signal], PHI_PLUS))


def test_strategy_a_probe_states_pure_at_zero():
    rho_p, rho_m = strategy_a_probe_states(0.0)
    expected = np.outer(PHI_PLUS, PHI_PLUS.conj())
    assert np.allclose(rho_p, expected, atol=1e-12)
    assert np.allclose(rho_m, expected, atol=1e-12)


def test_strategy_a_probe_states_valid_densities():
    for d in (0.01, 0.1, 0.2, 0.25):
        rho_p, rho_m = strategy_a_probe_states(d)
        assert check_density(rho_p)
        assert check_density(rho_m)


def test_strategy_a_overlap_vanishes_at_one_sixth():
    assert strategy_a_probe_overlap(1 / 6) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("d", np.append(np.linspace(0.0, 0.24, 13), 0.25))
def test_strategy_a_overlap_formula_vs_inner_product(d):
    # the closed form's sign follows these kets, those of strategy_a_probe_states
    scale = 1 / math.sqrt(1 - 2 * d)
    vp = scale * (math.sqrt(1 - 4 * d) * PHI_PLUS
                  + math.sqrt(2 * d) * PSI_PLUS)
    vm = scale * (math.sqrt(1 - 4 * d) * PHI_PLUS
                  - math.sqrt(2 * d) * PSI_PLUS)
    direct = float(np.real(np.vdot(vp, vm)))
    assert abs(direct - strategy_a_probe_overlap(d)) <= 1e-12


def test_strategy_a_probe_states_at_one_quarter_are_the_psi_plus_projectors():
    # sqrt(1 - 4D) is 0 and sqrt(2D) / sqrt(1 - 2D) is 1.0 at D = 1/4, so the
    # general formula gives psi+ and -psi+ bit for bit
    rho_p, rho_m = strategy_a_probe_states(0.25)
    for rho, product, ket in ((rho_p, np.kron(KET_MINUS, KET_PLUS), PSI_PLUS),
                              (rho_m, np.kron(KET_PLUS, KET_MINUS), -PSI_PLUS)):
        assert np.array_equal(rho, 0.5 * np.outer(product, product.conj()) + 0.5 * np.outer(ket, ket.conj()))


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
    # the machine-level map, measured by the oracle, comes out as 2 beta^2 without being assumed
    betas = [0.0, 0.1, 0.25, 0.34, clone_a_params_for_disturbance(0.125)]
    reports = simulate_strategy_a_grid(betas, eta_det=0.5, rng_seed=1)
    for beta, rep in zip(betas[:4], reports):
        assert rep.disturbance == pytest.approx(2 * beta**2, abs=1e-12)
    assert reports[-1].disturbance == pytest.approx(0.125, abs=1e-10)


# -- strategy B --------------------------------------------------------------

def test_strategy_b_unitary_gamma_zero_is_identity_channel():
    u = strategy_b_isometry(0.0)
    for vec in (np.array([1, 0, 0, 0]), np.array([0, 0, 0, 1]),
                np.array([0, 1, 1, 0]) / math.sqrt(2)):
        out = u @ vec.astype(complex)
        expected = np.kron(vec, PHI_PLUS)
        assert np.allclose(out, expected, atol=1e-12)


def _images_under_v(gamma):
    """V's images of |00>, |psi+> and |11> on |000>..|111>, from the formulas of strategy_b_isometry."""
    c, s = math.cos(gamma), math.sin(gamma)
    ket = {bits: np.eye(8)[int(bits, 2)] for bits in ("000", "001", "010", "011", "100", "101", "110")}
    return {"00": ket["000"],
            "psi+": (s * ket["001"] + c * ket["010"] + c * ket["100"]) / math.sqrt(1 + c * c),
            "11": (s * ket["011"] + s * ket["101"] + c * ket["110"]) / math.sqrt(1 + s * s)}


def test_strategy_b_v_images_at_gamma_zero():
    # at gamma = 0, V keeps |00> and sends |psi+> to the receiver pair's |psi+>
    images = _images_under_v(0.0)
    assert np.array_equal(images["00"], np.eye(8)[0])
    expected = np.zeros(8)
    expected[int("010", 2)] = expected[int("100", 2)] = 1 / math.sqrt(2)
    assert np.allclose(images["psi+"], expected)


def test_strategy_b_tilde_v_is_bit_flip_conjugate():
    # rebuild the machine from its formulas using Vt = X^3 V X^2 and compare
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    x3 = np.kron(np.kron(x, x), x)
    sym = {
        "00": np.array([1, 0, 0, 0], dtype=complex),
        "psi+": np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2),
        "11": np.array([0, 0, 0, 1], dtype=complex),
    }
    flipped = {"00": "11", "psi+": "psi+", "11": "00"}
    for gamma in (0.0, 0.73):
        u = strategy_b_isometry(gamma)
        images = _images_under_v(gamma)
        for key, vec in sym.items():
            tilde = x3 @ images[flipped[key]]
            expected = (np.kron(images[key], [1.0, 0.0]) + np.kron(tilde, [0.0, 1.0])) / math.sqrt(2)
            assert np.allclose(u @ vec, expected, atol=1e-12), (gamma, key)


def test_strategy_b_isometry_on_random_domain_vectors():
    rng = np.random.default_rng(5)
    u = strategy_b_isometry(1.0)
    for _ in range(20):
        amp = rng.normal(size=3) + 1j * rng.normal(size=3)
        vec = np.zeros(4, dtype=complex)
        vec[0], vec[3] = amp[0], amp[2]
        vec[1] = vec[2] = amp[1] / math.sqrt(2)
        vec /= np.linalg.norm(vec)
        out = u @ vec
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


def test_strategy_b_block_weight_a_plus_c_never_vanishes():
    # strategy_b_information divides by a + c unguarded; its minimum is 8, at gamma = pi
    gammas = np.linspace(0.0, math.pi + DOMAIN_SLACK, 20_001).tolist()
    weights = [a + c for a, _, c, *_ in map(attacks.strategy_b_coefficients, gammas)]
    assert min(weights) >= 8.0 - 1e-12


def test_strategy_b_probe_matrices_structure():
    m_p, _ = strategy_b_probe_matrices(0.0)
    # at gamma = 0 both probes are the pure Bell state (|00>+|11>)/sqrt(2)
    # = (|++>+|-->)/sqrt(2), i.e. rank one inside the {|++>, |-->} block
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2)
    assert np.linalg.matrix_rank(m_p, tol=1e-10) == 1
    assert np.allclose(m_p / 16.0, np.outer(bell, bell), atol=1e-12)
    for gamma in np.linspace(0.0, math.pi, 15):
        m_p, m_m = strategy_b_probe_matrices(float(gamma))
        assert check_density(m_p / 16.0)
        assert check_density(m_m / 16.0)
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


def test_strategy_b_information_is_the_phi_formula_of_all_six_coefficients():
    # strategy_b_information skips the off-diagonal b and e; its diagonal coefficients must
    # still be the public ones, bit for bit
    rng = random.Random(20240901)
    gammas = [0.0, math.pi / 2, math.pi] + [rng.uniform(0.0, math.pi) for _ in range(5000)]
    for gamma in gammas:
        a, b, c, d, e, f = strategy_b_coefficients(gamma)
        assert b is not None and e is not None
        expected = (a + c) * phi((a - c) / (a + c)) / 32.0
        if d + f > 1e-300:
            expected += (d + f) * phi((d - f) / (d + f)) / 32.0
        assert strategy_b_information(gamma).hex() == expected.hex(), gamma


def test_gamma_inversion_roundtrip():
    for d in np.linspace(0.0, 0.25, 26):
        gamma = gamma_for_disturbance(float(d))
        assert abs(strategy_b_disturbance(gamma) - d) <= 1e-10
    with pytest.raises(ValueError):
        gamma_for_disturbance(0.3)
    for bad in (0.3, -1e-9, math.nan):
        with pytest.raises(ValueError):
            gamma_for_disturbance(np.array([0.1, bad, 0.2]))
    assert gamma_for_disturbance(np.array([])).shape == (0,)


# bisect and _itp_root keep one bracket contract (attacks._bracket); each test holds both to it
ROOT_FINDERS = (attacks.bisect, attacks._itp_root)


def test_bisect_returns_an_endpoint_root():
    for root in ROOT_FINDERS:
        # an end where f vanishes is returned as it is, also when the other end shares its sign
        assert root(lambda x: x - 0.25, 0.25, 1.0, 1e-6) == 0.25
        assert root(lambda x: x - 1.0, 0.25, 1.0, 1e-6) == 1.0
        assert root(lambda x: (x - 0.25) ** 2, 0.25, 1.0, 1e-6) == 0.25
        assert root(lambda x: (x - 1.0) ** 2, 0.25, 1.0, 1e-6) == 1.0
        # a root found exactly is returned at once, after the two ends and one point between
        calls = []

        def f(x):
            calls.append(x)
            return 0.5 - x
        assert root(f, 0.0, 1.0, 1e-6) == 0.5 and calls == [0.0, 1.0, 0.5], root


def test_bisect_rejects_a_same_sign_bracket():
    for root in ROOT_FINDERS:
        for same_sign in (0.25, -0.25, 1e-200):
            with pytest.raises(ValueError, match="different signs"):
                root(lambda x: same_sign, -1.0, 2.0, 1e-6)


def test_bisect_compares_signs_of_tiny_values():
    # f rising or falling across the bracket; the signs are normalised, not multiplied, so
    # tiny values of both signs still bracket, where f(mid) * f(lo) would underflow to 0
    for root in ROOT_FINDERS:
        for scale in (1.0, -1.0, 1e-200, -1e-200):
            assert abs(root(lambda x: scale * (x - 1.0 / 3.0), 0.0, 1.0, 1e-9) - 1.0 / 3.0) <= 1e-9
            assert abs(root(lambda x: scale * (math.exp(x) - 2.0), 0.0, 3.0, 1e-9) - math.log(2.0)) <= 1e-9


@pytest.mark.parametrize("xtol", [1e-3, 1e-9, 1e-13])
def test_bisect_finds_a_monotone_root_within_xtol(xtol):
    root = attacks.bisect(lambda x: math.exp(x) - 2.0, 0.0, 3.0, xtol=xtol)
    assert abs(root - math.log(2.0)) <= xtol


def test_bisect_gives_up_after_100_steps():
    with pytest.raises(RuntimeError):
        attacks.bisect(lambda x: x - 1e-300, 0.0, 1.0, xtol=1e-310)


def test_itp_root_gives_up_after_n_max_steps():
    # a tolerance below the float spacing cannot be met: n_max steps, then RuntimeError
    calls = []

    def step(x):
        calls.append(x)
        return math.copysign(1.0, x - 1.0 / 3.0)
    n_max = math.ceil(math.log2(1.0 / 2e-20)) + 1
    with pytest.raises(RuntimeError, match=f"did not converge in {n_max} steps"):
        attacks._itp_root(step, 0.0, 1.0, 1e-20)
    assert len(calls) == n_max + 2


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


def test_strategy_b_disturbance_array_is_bit_equal_to_the_float_path():
    gammas = np.linspace(0.0, math.pi, 1001)
    assert np.array_equal(_bits(strategy_b_disturbance(gammas)),
                          _bits([strategy_b_disturbance(g) for g in gammas.tolist()]))
    with pytest.raises(ValueError):
        strategy_b_disturbance(np.array([0.1, -0.1]))
    with pytest.raises(ValueError):
        strategy_b_disturbance(np.array([0.1, math.nan]))


def test_strategy_b_disturbance_float_branch_checks_its_domain_and_matches_the_array_bits():
    # floats and numpy float scalars go to math before any array test: the same domain check
    # and the same bits as the array branch
    for bad in (-0.1, math.pi + 1e-9, math.nan):
        for gamma in (bad, np.float64(bad)):
            with pytest.raises(ValueError, match=r"gamma must lie in \[0, pi\]"):
                strategy_b_disturbance(gamma)
    assert DOMAIN_SLACK == 1e-12
    for gamma in (math.pi + 5e-13, np.float64(math.pi + 5e-13)):
        assert strategy_b_disturbance(gamma) == pytest.approx(0.5, abs=1e-12)
    gammas = np.linspace(0.0, math.pi, 1001)
    floats = [strategy_b_disturbance(g) for g in gammas.tolist()]
    scalars = [strategy_b_disturbance(g) for g in gammas]
    assert all(type(g) is np.float64 for g in gammas) and all(type(d) is float for d in scalars)
    assert np.array_equal(_bits(floats), _bits(scalars))
    assert np.array_equal(_bits(floats), _bits(strategy_b_disturbance(gammas)))


# -- closed forms on arrays --------------------------------------------------

def _array_forms():
    """(name, function, domain, float edges, values outside) of each closed form that takes an array."""
    s = DOMAIN_SLACK
    d_edges, d_outside = [0.0, -0.0, 5e-324, 0.25, 0.25 + s, 0.5], [-1e-300, math.nextafter(0.5, 1.0)]
    return (
        ("phi", phi, (-1.0, 1.0), [1.0, -1.0, 1.0 + s, -1.0 - s, 0.0, -0.0], [1.0 + 2 * s, -1.0 - 2 * s]),
        ("fuchs", fuchs_information, (0.0, 0.5), d_edges, d_outside),
        ("pns at eta_det 1", functools.partial(pns_information_matched, 1.0), (0.0, 0.5), d_edges, d_outside),
        ("pns at eta_det 0.052", functools.partial(pns_information_matched, 0.052), (0.0, 0.5), d_edges,
         d_outside),
        ("A", strategy_a_information, (0.0, 0.25), [0.0, -0.0, 5e-324, 1 / 6, 0.25, 0.25 + s],
         [0.25 + 2 * s, -1e-300]),
    )


def test_array_closed_forms_are_bit_equal_to_the_float_path():
    rng = np.random.default_rng(20240901)
    for name, fn, (lo, hi), edges, _ in _array_forms():
        xs = np.array(edges + rng.uniform(lo, hi, 100_000).tolist())
        got = fn(xs)
        assert type(got) is np.ndarray and got.shape == xs.shape, name
        assert np.array_equal(_bits(got), _bits([fn(x) for x in xs.tolist()])), name
        assert all(type(fn(x)) is float for x in edges), name


def _array_domain_checks():
    """(name, function, values inside, values outside) of each function that checks an array's domain."""
    s = DOMAIN_SLACK
    g_edges, g_outside = [0.0, -0.0, math.pi, math.pi + s], [-1e-300, math.pi + 2 * s]
    b_edges, b_outside = [0.0, -0.0, math.sqrt(1 / 8), -math.sqrt(1 / 8)], [0.5, -0.5]
    return [(name, fn, edges, outside) for name, fn, _, edges, outside in _array_forms()] + [
        ("D(gamma)", strategy_b_disturbance, g_edges, g_outside),
        ("B isometry", strategy_b_isometry, g_edges, g_outside),
        ("A isometry", strategy_a_isometry, b_edges, b_outside),
    ]


def test_array_closed_forms_name_the_first_value_outside_their_domain():
    for name, fn, edges, outside in _array_domain_checks():
        bads = [math.nan] + outside
        for i, bad in enumerate(bads):
            with pytest.raises(ValueError) as expected:
                fn(bad)
            later = bads[i + 1:] + bads[:i]  # outside too, but named only when first
            for xs in (np.array(edges + [bad] + later), np.array([bad] + later + edges)):
                with pytest.raises(ValueError) as got:
                    fn(xs)
                assert str(got.value) == str(expected.value) and "\n" not in str(got.value), name


# -- D(gamma) inversion by a certified replay of bisect ----------------------

def _bisect_float_inversion(d: float) -> float:
    """The float branch of gamma_for_disturbance as a plain bisect on the checked D, every step evaluated."""
    top = attacks.STRATEGY_B_MAX_DISTURBANCE
    if d <= 0.0:
        return 0.0
    if d >= top:
        return math.pi / 2
    return float(attacks.bisect(lambda g: strategy_b_disturbance(g) - d, 0.0, math.pi / 2, xtol=1e-13))


def _default_grid() -> list[float]:
    """The disturbances of `qel info-curves` and of information_curves at their defaults."""
    return attacks.linear_grid(0.0, 0.5, attacks.DEFAULT_CURVE_GRID_POINTS, "disturbance")


def _replay_disturbances() -> list[float]:
    """10,000 seeded uniforms, 1,000 below 1e-6, tiny and near-top specials, and the curve grid."""
    top = attacks.STRATEGY_B_MAX_DISTURBANCE
    rng = random.Random(20261019)
    ds = [rng.uniform(0.0, top) for _ in range(10_000)] + [rng.uniform(0.0, 1e-6) for _ in range(1_000)]
    ds += [5e-324, 1e-300] + [10.0**-k for k in range(1, 296)]
    ds += [top * (1.0 - 10.0**-k) for k in range(1, 17)] + [math.nextafter(top, 0.0), 0.0, top]
    return ds + [d for d in _default_grid() if d <= top]


def test_float_inversion_replay_is_bit_equal_to_a_plain_bisect():
    ds = _replay_disturbances()
    assert len(ds) > 11_000
    got = [gamma_for_disturbance(d) for d in ds]
    assert all(type(g) is float for g in got)
    assert _bits(got).tolist() == _bits([_bisect_float_inversion(d) for d in ds]).tolist()


def test_array_bisect_and_inversion_are_bit_equal_to_the_float_path(monkeypatch):
    # the array replay against the float replay, which the test above pins to a plain bisect
    top = attacks.STRATEGY_B_MAX_DISTURBANCE
    ds = np.array(_replay_disturbances())
    gammas = gamma_for_disturbance(ds)
    assert gammas.shape == ds.shape
    assert np.array_equal(_bits(gammas), _bits([gamma_for_disturbance(d) for d in ds.tolist()]))
    assert gamma_for_disturbance(np.array([])).shape == (0,)
    for d in (0.0, 0.1, 5e-324, top, top + DOMAIN_SLACK):
        gamma = gamma_for_disturbance(np.array(d))
        assert gamma.shape == () and _bits(gamma) == _bits(gamma_for_disturbance(d))
    # past the top by up to DOMAIN_SLACK, mixed with interior values in two dimensions
    past_top = [top + DOMAIN_SLACK * k / 4 for k in range(1, 5)]
    mixed = np.array(past_top + ds[:8].tolist()).reshape(3, 4)
    assert np.array_equal(_bits(gamma_for_disturbance(mixed)),
                          _bits([[gamma_for_disturbance(d) for d in row] for row in mixed.tolist()]))
    assert gamma_for_disturbance(mixed)[0].tolist() == [math.pi / 2] * 4
    # alone, an element often meets no midpoint inside its bracket before bisect's last step
    singles = [gamma_for_disturbance(np.array([d]))[0] for d in ds[-200:]]
    assert np.array_equal(_bits(singles), _bits(gammas[-200:]))
    # the angles rest on the certified bracket alone: with a slope 100 times too steep or
    # too shallow, and so a step that much too short or too long, the Newton steps end off
    # the root and only the widening certifies it, below the root for some disturbances
    # and above it for others
    newton, some = attacks._strategy_b_newton, slice(None, None, 100)

    def scaled_newton(k):
        def scaled(xp, g, d):
            step, slope = newton(xp, g, d)
            return step / k, k * slope
        return scaled

    for factor in (100.0, 0.01):
        monkeypatch.setattr(attacks, "_strategy_b_newton", scaled_newton(factor))
        assert np.array_equal(_bits(gamma_for_disturbance(ds[some])), _bits(gammas[some]))
        assert np.array_equal(_bits([gamma_for_disturbance(d) for d in ds[some].tolist()]),
                              _bits(gammas[some]))
        # alone, an element's unevaluated midpoints rest on its own widened bracket
        singles = [gamma_for_disturbance(np.array([d]))[0] for d in ds[some][::4]]
        assert np.array_equal(_bits(singles), _bits(gammas[some][::4]))


def test_both_replays_stop_by_the_44th_halving_at_the_extreme_disturbances():
    # both replays halve a step that starts at pi/2 and stop once it is below 1e-13 +
    # 4 eps mid, so they need no cap on their passes
    assert (math.pi / 2) * 2**-44 < 1e-13
    top = attacks.STRATEGY_B_MAX_DISTURBANCE
    ds = [5e-324, 1e-300, 1e-13, math.nextafter(top, 0.0)]
    gammas = [attacks._replay_inversion(d) for d in ds]
    from_array = attacks._replay_inversion_array(np, np.array(ds))
    assert _bits(from_array).tolist() == _bits(gammas).tolist()
    for d, gamma in zip(ds, gammas):
        assert abs(strategy_b_disturbance(gamma) - d) <= attacks.D_INVERSION_TOL, d


def _taylor_cos_sin(x: Decimal) -> tuple[Decimal, Decimal]:
    """cos x and sin x of a Decimal x in [0, 2] by their Taylor series, at the context's precision."""
    cos = sin = Decimal(0)
    term, n = Decimal(1), 0
    while term > Decimal("1e-70"):
        if n % 4 == 0:
            cos += term
        elif n % 4 == 1:
            sin += term
        elif n % 4 == 2:
            cos -= term
        else:
            sin -= term
        n += 1
        term = term * x / n
    return cos, sin


def test_float_d_error_is_within_a_quarter_of_the_replay_margin():
    # the replay skips a midpoint outside its bracket only because D is monotone and its
    # float error stays below half the margin; here it is checked against 50 digits
    rng = random.Random(20261020)
    gammas = [0.0, math.pi / 2] + [rng.uniform(0.0, math.pi / 2) for _ in range(2_000)]
    # the array replay rests on numpy's D in the same way
    array_d = attacks._strategy_b_d(np, np.array(gammas)).tolist()
    worst = worst_array = 0.0
    with localcontext() as ctx:
        ctx.prec = 50
        for gamma, from_array in zip(gammas, array_d):
            c, s = _taylor_cos_sin(Decimal(gamma))
            ref = (1 - (c + 1 / (1 + s * s).sqrt()) / (2 * (1 + c * c)).sqrt()) / 2
            worst = max(worst, abs(float(Decimal(attacks._strategy_b_d(math, gamma)) - ref)))
            worst_array = max(worst_array, abs(float(Decimal(from_array) - ref)))
    assert worst <= attacks._REPLAY_MARGIN / 4
    assert worst_array <= attacks._REPLAY_MARGIN / 4


def test_float_inversion_evaluates_d_a_few_times_and_the_checked_d_at_least_twice(monkeypatch):
    calls = {"formula": 0, "newton": 0, "checked": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    # the checked D calls the formula through the module, so "formula" counts every evaluation
    monkeypatch.setattr(attacks, "_strategy_b_d", counted("formula", attacks._strategy_b_d))
    monkeypatch.setattr(attacks, "_strategy_b_newton", counted("newton", attacks._strategy_b_newton))
    monkeypatch.setattr(attacks, "strategy_b_disturbance",
                        counted("checked", attacks.strategy_b_disturbance))
    top = attacks.STRATEGY_B_MAX_DISTURBANCE
    rng = random.Random(20261021)
    evaluations = []
    for d in (rng.uniform(0.0, top) for _ in range(1_000)):
        calls.update(formula=0, newton=0, checked=0)
        gamma_for_disturbance(d)
        assert calls["checked"] >= 2
        evaluations.append(calls["formula"] + calls["newton"])
    # one formula or Newton-helper call per evaluation: 7.84 on average here, 11 at most
    assert sum(evaluations) / len(evaluations) <= 8


def test_array_inversion_evaluates_d_on_the_whole_array_a_few_times(monkeypatch):
    # a plain bisection evaluates D on the whole array 47 times; the replay's formula and
    # Newton-helper calls, the final check's included, stay under one bound at either size
    # (17 and 20 here); the count rises slowly with the size, as a midpoint falls inside
    # some element's bracket earlier
    calls = []

    def counted(fn):
        def wrapper(xp, gamma, *d):
            calls.append(np.size(gamma))
            return fn(xp, gamma, *d)
        return wrapper

    monkeypatch.setattr(attacks, "_strategy_b_d", counted(attacks._strategy_b_d))
    monkeypatch.setattr(attacks, "_strategy_b_newton", counted(attacks._strategy_b_newton))
    top = attacks.STRATEGY_B_MAX_DISTURBANCE
    grid = np.array([d for d in _default_grid() if d <= top])
    seeded = np.random.default_rng(20261022).uniform(0.0, top, 10_000)
    for ds in (grid, seeded):
        calls.clear()
        gamma_for_disturbance(ds)
        # every call takes the whole array, less the grid's D = 0 outside the replay
        assert min(calls) >= ds.size - 1
        assert len(calls) <= 21


# -- cloning information -----------------------------------------------------

def test_cloning_information_reach_edges():
    # a point up to DOMAIN_SLACK past a strategy's edge reads the edge value, a point further out None
    top = attacks.STRATEGY_B_MAX_DISTURBANCE
    for strategy, edge, at_zero, at_edge in (
            ("A", 0.25, strategy_a_information(0.0), strategy_a_information(0.25)),
            ("B", top, strategy_b_information(0.0), strategy_b_information(math.pi / 2))):
        ds = [0.0, edge, edge + 5e-13, edge + 1e-11, 0.5, math.inf]
        assert attacks.cloning_information(strategy, ds) == [at_zero, at_edge, at_edge, None, None, None]
    assert strategy_a_information(0.25) == 0.5


@pytest.mark.parametrize("strategy", ["A", "B"])
def test_cloning_information_rejects_bad_input(strategy):
    assert attacks.cloning_information(strategy, []) == []
    for bad in (math.nan, -1e-300):
        with pytest.raises(ValueError) as excinfo:
            attacks.cloning_information(strategy, [0.1, bad])
        assert str(excinfo.value) == f"disturbance must be nonnegative, got {bad}"
    with pytest.raises(ValueError) as excinfo:
        attacks.cloning_information("C", [0.1])
    assert str(excinfo.value) == "strategy must be 'A' or 'B', got 'C'"


def test_cloning_information_array_and_float_angle_paths_are_bit_equal(monkeypatch):
    # numpy is loaded here: two or more reachable points take one array inversion,
    # a single point one float inversion
    kinds = []
    real_gamma = attacks.gamma_for_disturbance

    def gamma(d):
        kinds.append("array" if isinstance(d, np.ndarray) else "float")
        return real_gamma(d)

    monkeypatch.setattr(attacks, "gamma_for_disturbance", gamma)
    top = attacks.STRATEGY_B_MAX_DISTURBANCE
    rng = random.Random(20240901)
    ds = [0.0, 5e-324, top, math.nextafter(top, 0.0), top + 5e-13, 0.3] \
        + [rng.uniform(0.0, top) for _ in range(300)]
    together = attacks.cloning_information("B", ds)
    assert kinds == ["array"]
    one_by_one = [attacks.cloning_information("B", [d])[0] for d in ds]
    assert kinds.count("float") == len(ds) - 1  # 0.3 is out of reach and inverts nothing
    assert [x is None for x in together] == [x is None for x in one_by_one] \
        == [d > top + DOMAIN_SLACK for d in ds]
    assert np.array_equal(_bits([x for x in together if x is not None]),
                          _bits([x for x in one_by_one if x is not None]))


_FLOAT_FORM_PROBE = """
import math, random
from qel import attacks


def outcome(call):
    try:
        return repr(call())
    except ValueError as exc:
        return f"ValueError: {exc}"


rng = random.Random(20261023)
DS = [rng.uniform(0.0, 0.3) for _ in range(10_000)]
for edge in (0.25, attacks.STRATEGY_B_MAX_DISTURBANCE):
    DS += [edge, edge + 5e-13, edge + 1e-11]
DS += [0.5, math.inf, -1.0, math.nan]
FORMS = {s: [(outcome(lambda: attacks.cloning_information(s, d)),
              outcome(lambda: attacks.cloning_information(s, [d])[0])) for d in DS] for s in "AB"}
"""


def test_cloning_information_float_form_is_the_one_point_list_form():
    # the float form against a one-point list, in a fresh interpreter without numpy and here
    # with it (repr round-trips a float, so equal reprs are equal bits), and against the
    # array path of the whole list here
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    probe = _FLOAT_FORM_PROBE + "import sys\nprint(repr(FORMS))\nprint('numpy' in sys.modules)\n"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=env, check=True, timeout=60)
    without_numpy, numpy_loaded = result.stdout.splitlines()
    assert numpy_loaded == "False" and "numpy" in sys.modules
    here = {}
    exec(_FLOAT_FORM_PROBE, here)
    assert repr(here["FORMS"]) == without_numpy
    for strategy, forms in here["FORMS"].items():
        assert all(float_form == one_point for float_form, one_point in forms)
        assert forms[-2:] == [("ValueError: disturbance must be nonnegative, got -1.0",) * 2,
                              ("ValueError: disturbance must be nonnegative, got nan",) * 2]
        reachable = [info for info, _ in forms[:-2] if info != "None"]
        assert 8_000 < len(reachable) < 10_000
        together = attacks.cloning_information(strategy, here["DS"][:-2])
        assert repr(together) == f"[{', '.join(info for info, _ in forms[:-2])}]"


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


def test_curves_invert_the_grid_once_and_evaluate_strategy_b_per_point(monkeypatch):
    # the traced benchmark checks one strategy_b_information call per reachable point; the PNS
    # curve and strategy A's are one array call each
    calls = {"inversion": 0, "information": 0, "pns": 0, "A": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name, attr in (("inversion", "gamma_for_disturbance"), ("information", "strategy_b_information"),
                       ("pns", "pns_information_matched"), ("A", "strategy_a_information")):
        monkeypatch.setattr(attacks, attr, counted(name, getattr(attacks, attr)))
    points = information_curves(0.2)
    assert calls == {"inversion": 1, "information": 250, "pns": 1, "A": 1}
    assert sum(p.i_b is not None for p in points) == 250
    assert sum(p.i_a is not None for p in points) == 250
    assert all(type(value) is float for p in points for value in p if value is not None)


def _seeded_curve_grids():
    """(eta_det, grid) cases: 20 seeded grids with odd step counts, the CLI's default grid, then edge grids."""
    rng = random.Random(20240901)
    cases = []
    for _ in range(20):
        eta_det = rng.choice([1.0, rng.uniform(0.01, 1.0)])
        lo = rng.choice([0.0, rng.uniform(0.0, 0.3)])
        hi = rng.choice([0.5, rng.uniform(lo + 0.01, 0.5)])
        steps = 2 * rng.randrange(1, 60) + 1
        step = (hi - lo) / (steps - 1)
        cases.append((eta_det, [lo + i * step for i in range(steps)]))
    # the points of `qel info-curves --eta-det 0.052`, whose JSON output carries them in full
    cases.append((0.052, _default_grid()))
    top = attacks.STRATEGY_B_MAX_DISTURBANCE
    cases.append((0.2, [0.0, 5e-324, top, math.nextafter(top, 0.0), top + DOMAIN_SLACK / 2,
                        top + DOMAIN_SLACK, 0.5]))
    cases.append((0.7, [top + 2 * DOMAIN_SLACK, 0.3, 0.5]))  # no strategy-B point reachable
    return cases


def test_curves_without_numpy_are_bit_equal_to_the_array_path():
    # a fresh interpreter never loads numpy and takes the float path; this one
    # has numpy loaded and takes the array path
    cases = _seeded_curve_grids()
    probe = ("import sys\nfrom qel import attacks\n"
             f"for eta, grid in {cases!r}:\n"
             "    for point in attacks.information_curves(eta, grid):\n"
             "        print(repr(point))\n"
             "print('numpy' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=env, check=True, timeout=60)
    *float_path, numpy_loaded = result.stdout.splitlines()
    assert numpy_loaded == "False" and "numpy" in sys.modules
    array_path = [repr(p) for eta, grid in cases for p in information_curves(eta, grid)]
    assert len(float_path) == len(array_path)
    assert next(((f, a) for f, a in zip(float_path, array_path) if f != a), None) is None
    assert sum(p.i_b is None for p in information_curves(*cases[-1])) == 3
    assert sum(p.i_b is None for p in information_curves(*cases[-2])) == 1


def test_default_grid_loads_no_numpy_and_is_bit_equal_to_linspace():
    probe = ("import sys\nfrom qel import attacks\n"
             "points = attacks.information_curves(0.2)\n"
             "print(repr([p.disturbance for p in points]))\n"
             "print('numpy' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=env, check=True, timeout=60)
    grid, numpy_loaded = result.stdout.splitlines()
    assert numpy_loaded == "False"
    linspace = np.linspace(0.0, 0.5, attacks.DEFAULT_CURVE_GRID_POINTS)
    assert grid == repr(linspace.tolist())
    assert np.array_equal(_bits(_default_grid()), _bits(linspace))


def test_curve_point_is_an_immutable_named_record():
    point = attacks.AttackCurvePoint(0.1, 0.6, 0.2, None)
    assert point == attacks.AttackCurvePoint(disturbance=0.1, i_pns=0.6, i_a=0.2, i_b=None)
    assert (point.disturbance, point.i_pns, point.i_a, point.i_b) == (0.1, 0.6, 0.2, None)
    assert repr(point) == "AttackCurvePoint(disturbance=0.1, i_pns=0.6, i_a=0.2, i_b=None)"
    with pytest.raises(AttributeError):
        point.i_a = 0.3
    with pytest.raises(AttributeError):
        point.other = 0.3


def test_curves_reject_bad_grid():
    with pytest.raises(ValueError):
        information_curves(0.2, [0.6])
