import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qel.infotheory import (DOMAIN_SLACK, TwoStateEnsemble, fuchs_information,
                             levitin_information, phi)


def pure(amplitudes) -> np.ndarray:
    v = np.asarray(amplitudes, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_phi_rejects_nan_and_inf(bad):
    # NaN fails every comparison, so a check written as abs(x) > 1 let it through as phi = 2
    with pytest.raises(ValueError) as excinfo:
        phi(bad)
    assert str(excinfo.value) == f"phi argument must lie in [-1, 1], got {bad}"


def _phi_loop(x):
    """Phi as one loop over 1 + x and 1 - x, skipping a vanishing term: the reference."""
    if not abs(x) <= 1.0 + DOMAIN_SLACK:
        raise ValueError(f"phi argument must lie in [-1, 1], got {x}")
    x = min(1.0, max(-1.0, x))
    out = 0.0
    for t in (1.0 + x, 1.0 - x):
        if t > 0.0:
            out += t * math.log2(t)
    return out


def test_phi_is_bit_equal_to_the_loop_form():
    tiny = sys.float_info.min
    specials = [0.0, -0.0, 1.0, -1.0, math.nextafter(1.0, 0.0), math.nextafter(-1.0, 0.0),
                1.0 + 5e-13, -1.0 - 5e-13, 5e-324, -5e-324, tiny, -tiny,
                math.nextafter(tiny, 0.0), -math.nextafter(tiny, 0.0), 1e-17, -1e-17]
    xs = specials + np.random.default_rng(23).uniform(-1.0, 1.0, 10_000).tolist()
    assert [phi(x).hex() for x in xs] == [_phi_loop(x).hex() for x in xs]
    for bad in (math.nan, 1.0 + 2e-12, -1.0 - 2e-12):
        with pytest.raises(ValueError) as expected:
            _phi_loop(bad)
        with pytest.raises(ValueError) as got:
            phi(bad)
        assert str(got.value) == str(expected.value)


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


def test_ensemble_is_an_immutable_named_record():
    rho0, rho1 = pure([1, 0]), pure([0, 1])
    ens = TwoStateEnsemble(rho0, rho1)
    assert ens.rho0 is rho0 and ens.rho1 is rho1
    by_name = TwoStateEnsemble(rho0=rho0, rho1=rho1)
    assert tuple(by_name) == (rho0, rho1)
    with pytest.raises(AttributeError):
        ens.rho0 = rho1
    with pytest.raises(AttributeError):
        ens.weight = 0.5
    with pytest.raises(ValueError) as excinfo:
        TwoStateEnsemble(rho0, np.eye(3) / 3)
    assert str(excinfo.value) == "ensemble states must share a dimension"
    not_density = np.diag([0.9, 0.2])
    with pytest.raises(ValueError) as excinfo:
        TwoStateEnsemble(not_density, rho1)
    assert str(excinfo.value) == "rho0 is not a valid density operator"
    with pytest.raises(ValueError) as excinfo:
        TwoStateEnsemble(rho0, not_density)
    assert str(excinfo.value) == "rho1 is not a valid density operator"
    with pytest.raises(ValueError, match="rho1 is not a valid"):
        ens._replace(rho1=not_density)
    with pytest.raises(ValueError, match="rho1 is not a valid"):
        TwoStateEnsemble._make((rho0, not_density))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_ensemble_and_levitin_reject_a_nonfinite_state(bad):
    rho = np.array([[bad, 0.0], [0.0, 1.0]])
    for rho0, rho1, name in ((rho, pure([1, 0]), "rho0"), (pure([1, 0]), rho, "rho1")):
        with pytest.raises(ValueError) as excinfo:
            TwoStateEnsemble(rho0, rho1)
        assert str(excinfo.value) == f"{name} is not a valid density operator"


def test_levitin_rejects_a_nan_state_that_skipped_the_ensemble_checks():
    # it used to return 1.0: the NaN reached phi, which read it as a unit argument
    unchecked = tuple.__new__(TwoStateEnsemble, (np.array([[math.nan, 0.0], [0.0, 1.0]]), pure([1, 0])))
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="phi argument must lie in"):
        levitin_information(unchecked)


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
    rho0 = np.diag([0.9, 0.1])
    rho1 = np.diag([0.5, 0.5])
    with pytest.raises(ValueError):
        levitin_information(TwoStateEnsemble(rho0, rho1))


def test_levitin_requires_qubits():
    rho = np.eye(3) / 3
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
    rho0 = u0 @ diag @ u0.conj().T
    rho1 = u1 @ diag @ u1.conj().T
    base = levitin_information(TwoStateEnsemble(rho0, rho1))
    rotated = TwoStateEnsemble(u @ rho0 @ u.conj().T, u @ rho1 @ u.conj().T)
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


def test_levitin_keeps_the_shape_of_a_stack_with_several_stack_axes():
    # two (2, 3, 2, 2) stacks of states give a (2, 3) array, each entry the information of
    # its own pair; one ensemble gives a float
    from qel.verification import random_equal_determinant_ensemble

    rng = np.random.default_rng(20240901)
    pairs = [random_equal_determinant_ensemble(rng) for _ in range(6)]
    stack = TwoStateEnsemble(*(np.array([p[k] for p in pairs]).reshape(2, 3, 2, 2) for k in (0, 1)))
    info = levitin_information(stack)
    assert isinstance(info, np.ndarray) and info.shape == (2, 3)
    singles = [levitin_information(p) for p in pairs]
    assert all(type(v) is float for v in singles)
    assert info.ravel().tolist() == singles
    assert levitin_information(TwoStateEnsemble(stack.rho0[1], stack.rho1[1])).tolist() == singles[3:]
