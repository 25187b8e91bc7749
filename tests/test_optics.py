import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qel.linalg import Ket, Operator
from qel.optics import (SIGNALS, Basis, Bb84Signal, basis_kets, fock_from_symmetric,
                        signal_ket, singlet_weight, symmetric_encode)

HADAMARD = np.array([[1, 1], [1, -1]]) / math.sqrt(2)


def test_signal_kets():
    assert np.allclose(signal_ket(Bb84Signal(Basis.RECTILINEAR, 0)).amplitudes, [1, 0])
    assert np.allclose(signal_ket(Bb84Signal(Basis.RECTILINEAR, 1)).amplitudes, [0, 1])
    plus = signal_ket(Bb84Signal(Basis.DIAGONAL, 0))
    assert np.allclose(plus.amplitudes, [1 / math.sqrt(2), 1 / math.sqrt(2)])


def test_signal_orthogonality_within_basis():
    for basis in Basis:
        b0, b1 = basis_kets(basis)
        assert abs(b0.overlap(b1)) < 1e-15


def test_exactly_four_signals():
    assert len(SIGNALS) == 4
    assert len(set(SIGNALS)) == 4
    with pytest.raises(ValueError):
        Bb84Signal(Basis.RECTILINEAR, 2)


def test_symmetric_encode_values():
    enc = symmetric_encode(Bb84Signal(Basis.RECTILINEAR, 0))
    assert np.allclose(enc.amplitudes, [1, 0, 0, 0])
    enc = symmetric_encode(Bb84Signal(Basis.DIAGONAL, 0))
    assert np.allclose(enc.amplitudes, [0.5, 0.5, 0.5, 0.5])


def test_symmetric_encode_has_no_singlet_component():
    for signal in SIGNALS:
        assert singlet_weight(symmetric_encode(signal)) < 1e-30


def test_fock_rectilinear_cases():
    occ = fock_from_symmetric(Ket([1, 0, 0, 0]), Basis.RECTILINEAR)
    assert occ[(2, 0)] == pytest.approx(1.0, abs=1e-15)
    occ = fock_from_symmetric(symmetric_encode(Bb84Signal(Basis.DIAGONAL, 0)), Basis.RECTILINEAR)
    assert occ[(2, 0)] == pytest.approx(0.25, abs=1e-12)
    assert occ[(1, 1)] == pytest.approx(0.5, abs=1e-12)
    assert occ[(0, 2)] == pytest.approx(0.25, abs=1e-12)
    occ = fock_from_symmetric(Ket(np.array([0, 1, 1, 0]) / math.sqrt(2)), Basis.RECTILINEAR)
    assert occ[(1, 1)] == pytest.approx(1.0, abs=1e-12)


def test_fock_from_density_operator_matches_ket():
    ket = symmetric_encode(Bb84Signal(Basis.DIAGONAL, 1))
    from_ket = fock_from_symmetric(ket, Basis.RECTILINEAR)
    from_rho = fock_from_symmetric(ket.density(), Basis.RECTILINEAR)
    for occ in from_ket:
        assert from_ket[occ] == pytest.approx(from_rho[occ], abs=1e-12)


def test_own_basis_occupation_is_two_zero():
    for signal in SIGNALS:
        occ = fock_from_symmetric(symmetric_encode(signal), signal.basis)
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
    state = Ket(vec)
    occ = fock_from_symmetric(state, Basis.RECTILINEAR)
    assert abs(sum(occ.values()) - 1.0) < 1e-12
    # rotating rectilinear <-> diagonal and swapping the basis tag is a no-op
    rotated = Ket(np.kron(HADAMARD, HADAMARD) @ vec)
    occ_rot = fock_from_symmetric(rotated, Basis.DIAGONAL)
    for key in occ:
        assert occ[key] == pytest.approx(occ_rot[key], abs=1e-12)


def test_fock_rejects_antisymmetric_component():
    singlet = Ket(np.array([0, 1, -1, 0]) / math.sqrt(2))
    with pytest.raises(ValueError):
        fock_from_symmetric(singlet, Basis.RECTILINEAR)


def test_fock_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        fock_from_symmetric(Ket([1, 0]), Basis.RECTILINEAR)
    with pytest.raises(TypeError):
        fock_from_symmetric([1, 0, 0, 0], Basis.RECTILINEAR)


def test_singlet_weight_of_operator():
    rho = Operator(np.eye(4) / 4)
    assert singlet_weight(rho) == pytest.approx(0.25, abs=1e-12)
