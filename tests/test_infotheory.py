import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qel.infotheory import TwoStateEnsemble, fuchs_information, levitin_information, phi
from qel.linalg import Operator


def pure(amplitudes) -> Operator:
    v = np.asarray(amplitudes, dtype=complex)
    v = v / np.linalg.norm(v)
    return Operator(np.outer(v, v.conj()))


def test_phi_endpoints_exact():
    assert phi(0.0) == 0.0
    assert phi(1.0) == 2.0
    assert phi(-1.0) == 2.0


def test_phi_frozen_value():
    # direct evaluation of the definition: 1.5 log2 1.5 + 0.5 log2 0.5
    assert phi(0.5) == pytest.approx(0.37744375108173434, abs=1e-15)


@given(st.floats(-1.0, 1.0))
@settings(max_examples=100)
def test_phi_even(x):
    assert phi(x) == pytest.approx(phi(-x), abs=1e-12)


def test_phi_convex_on_grid():
    xs = np.linspace(-0.99, 0.99, 199)
    h = xs[1] - xs[0]
    for x in xs[1:-1]:
        second = (phi(x + h) - 2 * phi(x) + phi(x - h)) / h**2
        assert second > 0.0


def test_phi_domain_handling():
    with pytest.raises(ValueError):
        phi(1.001)
    # values inside the rounding slack are clamped
    assert phi(1.0 + 5e-13) == 2.0


def test_fuchs_endpoints_exact():
    assert fuchs_information(0.0) == 0.0
    assert fuchs_information(0.5) == 1.0


def test_fuchs_frozen_value():
    assert fuchs_information(0.1) == pytest.approx(0.2780719051126377, abs=1e-15)


def test_fuchs_monotone():
    grid = np.linspace(0.0, 0.5, 101)
    values = [fuchs_information(d) for d in grid]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_fuchs_rejects_out_of_range():
    for bad in (-0.01, 0.51):
        with pytest.raises(ValueError):
            fuchs_information(bad)


def test_levitin_identical_pure_states():
    ens = TwoStateEnsemble(pure([1, 0]), pure([1, 0]))
    assert levitin_information(ens) == pytest.approx(0.0, abs=1e-12)


def test_levitin_orthogonal_pure_states():
    ens = TwoStateEnsemble(pure([1, 0]), pure([0, 1]))
    assert levitin_information(ens) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("x", [0.0, 0.2, 0.5, 1 / 3, 0.9])
def test_levitin_pure_states_with_overlap(x):
    # states (1, 0) and (x, sqrt(1-x^2)) have overlap x, zero determinant
    ens = TwoStateEnsemble(pure([1, 0]), pure([x, math.sqrt(1 - x * x)]))
    expected = 0.5 * phi(math.sqrt(1 - x * x))
    assert levitin_information(ens) == pytest.approx(expected, abs=1e-12)


def test_levitin_rejects_unequal_determinants():
    rho0 = Operator(np.diag([0.9, 0.1]))
    rho1 = Operator(np.diag([0.5, 0.5]))
    with pytest.raises(ValueError):
        levitin_information(TwoStateEnsemble(rho0, rho1))


def test_levitin_requires_qubits():
    rho = Operator(np.eye(3) / 3)
    with pytest.raises(ValueError):
        levitin_information(TwoStateEnsemble(rho, rho))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_levitin_unitary_invariance(seed):
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.5, 1.0)
    diag = np.diag([lam, 1 - lam]).astype(complex)

    def haar():
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(z)
        return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))

    u0, u1, u = haar(), haar(), haar()
    rho0 = Operator(u0 @ diag @ u0.conj().T)
    rho1 = Operator(u1 @ diag @ u1.conj().T)
    base = levitin_information(TwoStateEnsemble(rho0, rho1))
    rotated = TwoStateEnsemble(Operator(u @ rho0.entries @ u.conj().T),
                               Operator(u @ rho1.entries @ u.conj().T))
    assert levitin_information(rotated) == pytest.approx(base, abs=1e-12)


@pytest.mark.parametrize("d", [0.01, 0.05, 0.1, 0.2, 0.24])
def test_blockwise_reproduces_universal_cloner_information(d):
    # weight 2D perfectly distinguishing, weight 1-2D pure pair of overlap
    # (1-6D)/(1-2D); must equal the closed-form strategy A information
    from qel.attacks import strategy_a_information, strategy_a_probe_overlap

    x = strategy_a_probe_overlap(d)
    ens = TwoStateEnsemble(pure([1, 0]), pure([x, math.sqrt(1 - x * x)]))
    total = 2 * d + (1 - 2 * d) * levitin_information(ens)
    assert total == pytest.approx(strategy_a_information(d), abs=1e-12)
