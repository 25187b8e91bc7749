import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qel import optics
from qel.optics import (SIGNALS, Basis, Bb84Signal, basis_kets, check_density, fock_from_symmetric,
                        partial_trace, signal_ket, singlet_weight, symmetric_encode)

HADAMARD = np.array([[1, 1], [1, -1]]) / math.sqrt(2)


def density(ket) -> np.ndarray:
    return np.outer(ket, np.conj(ket))


def test_signal_kets():
    assert np.allclose(signal_ket(Bb84Signal(Basis.RECTILINEAR, 0)), [1, 0])
    assert np.allclose(signal_ket(Bb84Signal(Basis.RECTILINEAR, 1)), [0, 1])
    plus = signal_ket(Bb84Signal(Basis.DIAGONAL, 0))
    assert np.allclose(plus, [1 / math.sqrt(2), 1 / math.sqrt(2)])


def test_kets_are_read_only_complex_vectors():
    kets = [optics.KET_0, optics.KET_1, optics.KET_PLUS, optics.KET_MINUS,
            optics.PHI_PLUS, optics.PHI_MINUS, optics.PSI_PLUS, optics.PSI_MINUS,
            optics.KET_R, optics.KET_L]
    kets += [symmetric_encode(signal) for signal in SIGNALS]
    for ket in kets:
        assert ket.ndim == 1 and ket.dtype == complex
        assert abs(np.linalg.norm(ket) - 1.0) <= 1e-15
        with pytest.raises(ValueError):
            ket[0] = 0.0


def test_signal_orthogonality_within_basis():
    for basis in Basis:
        b0, b1 = basis_kets(basis)
        assert abs(np.vdot(b0, b1)) < 1e-15


def test_strategy_b_signals_are_equatorial_and_mutually_unbiased():
    # the phase-covariant machine is covariant about the z axis only
    for signal in optics.STRATEGY_B_SIGNALS:
        ket = signal_ket(signal)
        assert abs(np.vdot(ket, optics.SIGMA_Z @ ket)) <= 1e-15
    diagonal, circular = basis_kets(Basis.DIAGONAL), basis_kets(Basis.CIRCULAR)
    for b in diagonal:
        for b_prime in circular:
            assert abs(np.vdot(b, b_prime)) ** 2 == pytest.approx(0.5, abs=1e-15)
    assert {s.basis for s in optics.STRATEGY_B_SIGNALS} == {Basis.DIAGONAL, Basis.CIRCULAR}
    assert len(set(optics.STRATEGY_B_SIGNALS)) == 4


def test_exactly_four_signals():
    assert len(SIGNALS) == 4
    assert len(set(SIGNALS)) == 4
    with pytest.raises(ValueError):
        Bb84Signal(Basis.RECTILINEAR, 2)


def test_bb84_signal_checks_its_bit_through_every_constructor():
    signal = Bb84Signal(Basis.DIAGONAL, 0)
    assert signal == (Basis.DIAGONAL, 0)
    assert signal._replace(bit=1) == SIGNALS[3]
    for make in (lambda: Bb84Signal(Basis.DIAGONAL, 2), lambda: Bb84Signal._make((Basis.DIAGONAL, 2)),
                 lambda: signal._replace(bit=2)):
        with pytest.raises(ValueError, match="bit must be 0 or 1, got 2"):
            make()
    with pytest.raises(AttributeError):
        signal.bit = 1


@pytest.mark.parametrize("signals", [SIGNALS, optics.STRATEGY_B_SIGNALS])
def test_signal_i_carries_bit_i_mod_2_in_basis_i_div_2(signals):
    # The Monte Carlo's sifting masks read each signal's bit and basis from its index.
    bases = list(dict.fromkeys(s.basis for s in signals))
    assert len(bases) == 2
    assert [(s.bit, bases.index(s.basis)) for s in signals] == [(i % 2, i // 2) for i in range(4)]


def test_symmetric_encode_values():
    enc = symmetric_encode(Bb84Signal(Basis.RECTILINEAR, 0))
    assert np.allclose(enc, [1, 0, 0, 0])
    enc = symmetric_encode(Bb84Signal(Basis.DIAGONAL, 0))
    assert np.allclose(enc, [0.5, 0.5, 0.5, 0.5])


def test_symmetric_encode_has_no_singlet_component():
    for signal in SIGNALS:
        assert singlet_weight(density(symmetric_encode(signal))) < 1e-30


def test_fock_rectilinear_cases():
    occ = fock_from_symmetric(density([1, 0, 0, 0]), Basis.RECTILINEAR)
    assert occ[(2, 0)] == pytest.approx(1.0, abs=1e-15)
    occ = fock_from_symmetric(density(symmetric_encode(Bb84Signal(Basis.DIAGONAL, 0))),
                              Basis.RECTILINEAR)
    assert occ[(2, 0)] == pytest.approx(0.25, abs=1e-12)
    assert occ[(1, 1)] == pytest.approx(0.5, abs=1e-12)
    assert occ[(0, 2)] == pytest.approx(0.25, abs=1e-12)
    occ = fock_from_symmetric(density(np.array([0, 1, 1, 0]) / math.sqrt(2)), Basis.RECTILINEAR)
    assert occ[(1, 1)] == pytest.approx(1.0, abs=1e-12)


def test_fock_of_a_mixture_is_the_mixture_of_focks():
    rho_0 = density(symmetric_encode(Bb84Signal(Basis.DIAGONAL, 1)))
    rho_1 = density(symmetric_encode(Bb84Signal(Basis.RECTILINEAR, 1)))
    mixed = fock_from_symmetric(0.3 * rho_0 + 0.7 * rho_1,
                                Basis.RECTILINEAR)
    occ_0 = fock_from_symmetric(rho_0, Basis.RECTILINEAR)
    occ_1 = fock_from_symmetric(rho_1, Basis.RECTILINEAR)
    assert occ_0 == pytest.approx({(2, 0): 0.25, (1, 1): 0.5, (0, 2): 0.25}, abs=1e-12)
    for occ in mixed:
        assert mixed[occ] == pytest.approx(0.3 * occ_0[occ] + 0.7 * occ_1[occ], abs=1e-12)


def test_own_basis_occupation_is_two_zero():
    for signal in SIGNALS:
        occ = fock_from_symmetric(density(symmetric_encode(signal)), signal.basis)
        target = (2, 0) if signal.bit == 0 else (0, 2)
        assert occ[target] == pytest.approx(1.0, abs=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_fock_distribution_normalized_and_basis_covariant(seed):
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=3) + 1j * rng.normal(size=3)
    vec = np.zeros(4, dtype=complex)
    vec[0], vec[3] = amp[0], amp[2]
    vec[1] = vec[2] = amp[1] / math.sqrt(2)
    vec /= np.linalg.norm(vec)
    occ = fock_from_symmetric(density(vec), Basis.RECTILINEAR)
    assert abs(sum(occ.values()) - 1.0) < 1e-12
    # rotating rectilinear <-> diagonal and swapping the basis tag is a no-op
    rotated = density(np.kron(HADAMARD, HADAMARD) @ vec)
    occ_rot = fock_from_symmetric(rotated, Basis.DIAGONAL)
    for key in occ:
        assert occ[key] == pytest.approx(occ_rot[key], abs=1e-12)


def test_fock_rejects_antisymmetric_component():
    with pytest.raises(ValueError):
        fock_from_symmetric(density(optics.PSI_MINUS), Basis.RECTILINEAR)


def test_fock_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        fock_from_symmetric(density([1, 0]), Basis.RECTILINEAR)


def test_singlet_weight_of_operator():
    rho = np.eye(4) / 4
    assert singlet_weight(rho) == pytest.approx(0.25, abs=1e-12)


def random_density(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = z @ z.conj().T
    return m / np.trace(m)


def test_partial_trace_product_state():
    rng = np.random.default_rng(7)
    rho_a = random_density(rng, 3)
    rho_b = random_density(rng, 4)
    joint = np.kron(rho_a, rho_b)
    back = partial_trace(joint, keep="a", dims=(3, 4))
    assert np.max(np.abs(back - rho_a)) <= 1e-12
    back_b = partial_trace(joint, keep="b", dims=(3, 4))
    assert np.max(np.abs(back_b - rho_b)) <= 1e-12


def test_partial_trace_bell_state():
    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    rho = np.outer(bell, bell)
    for keep in ("a", "b"):
        red = partial_trace(rho, keep=keep, dims=(2, 2))
        assert np.allclose(red, np.eye(2) / 2, atol=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_partial_trace_preserves_trace(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, 4)
    red = partial_trace(rho, keep="a", dims=(2, 2))
    assert abs(np.trace(red) - 1.0) <= 1e-12
    assert check_density(red)


def test_partial_trace_dimension_mismatch():
    rho = random_density(np.random.default_rng(0), 4)
    with pytest.raises(ValueError):
        partial_trace(rho, keep="a", dims=(3, 2))
    with pytest.raises(ValueError):
        partial_trace(rho, keep="c", dims=(2, 2))
    with pytest.raises(ValueError) as raised:
        partial_trace(rho, keep="a", dims=(0, 4))
    assert (type(raised.value), str(raised.value)) == (ValueError, "subsystem dimensions must be positive")


def test_check_density_accepts_maximally_mixed():
    assert check_density(np.eye(2) / 2)


def test_check_density_rejects_negative_eigenvalue():
    assert not check_density(np.diag([1.0, -1e-3]))


def test_check_density_rejects_nonhermitian_and_traceless():
    assert not check_density(np.array([[0.5, 0.3], [0.1, 0.5]]))
    assert not check_density(np.eye(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_check_density_rejects_nonfinite_entries(bad):
    # eigvalsh of [[nan, 0], [0, 1]] is [0, -0], and NaN fails every tolerance comparison
    assert not check_density(np.array([[bad, 0.0], [0.0, 1.0]]))
    assert not check_density(np.array([[0.5, bad], [np.conj(bad), 0.5]]))
    stack = np.array([np.eye(2) / 2, [[bad, 0.0], [0.0, 1.0]]])
    assert check_density(stack[0]) and not check_density(stack)


def test_check_density_on_cloner_probe_states():
    # probes constructed from the machine itself
    from qel.oracle import simulate_strategy_a

    report = simulate_strategy_a(beta=np.sqrt(0.05), eta_det=0.5, rng_seed=1)
    assert abs(report.disturbance - 0.1) < 1e-12
    assert check_density(report.probe_plus)
    assert check_density(report.probe_minus)
