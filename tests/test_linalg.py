import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qel.linalg import Operator, check_density, partial_trace


def random_density(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = z @ z.conj().T
    return Operator(m / np.trace(m))


def test_partial_trace_product_state():
    rng = np.random.default_rng(7)
    rho_a = random_density(rng, 3)
    rho_b = random_density(rng, 4)
    joint = Operator(np.kron(rho_a.entries, rho_b.entries))
    back = partial_trace(joint, keep="a", dims=(3, 4))
    assert np.max(np.abs(back.entries - rho_a.entries)) <= 1e-12
    back_b = partial_trace(joint, keep="b", dims=(3, 4))
    assert np.max(np.abs(back_b.entries - rho_b.entries)) <= 1e-12


def test_partial_trace_bell_state():
    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    rho = Operator(np.outer(bell, bell))
    for keep in ("a", "b"):
        red = partial_trace(rho, keep=keep, dims=(2, 2))
        assert np.allclose(red.entries, np.eye(2) / 2, atol=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_partial_trace_preserves_trace(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, 4)
    red = partial_trace(rho, keep="a", dims=(2, 2))
    assert abs(np.trace(red.entries) - 1.0) <= 1e-12
    assert check_density(red)


def test_partial_trace_dimension_mismatch():
    rho = random_density(np.random.default_rng(0), 4)
    with pytest.raises(ValueError):
        partial_trace(rho, keep="a", dims=(3, 2))
    with pytest.raises(ValueError):
        partial_trace(rho, keep="c", dims=(2, 2))


def test_check_density_accepts_maximally_mixed():
    assert check_density(Operator(np.eye(2) / 2))


def test_check_density_rejects_negative_eigenvalue():
    assert not check_density(Operator(np.diag([1.0, -1e-3])))


def test_check_density_rejects_nonhermitian_and_traceless():
    assert not check_density(Operator([[0.5, 0.3], [0.1, 0.5]]))
    assert not check_density(Operator(np.eye(2)))


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


def test_operator_requires_square():
    with pytest.raises(ValueError):
        Operator(np.zeros((2, 3)))
