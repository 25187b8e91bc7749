import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qel.detection import (DetectionOutcome, DetectorModel, conditional_error_rate,
                           outcome_distribution, outcome_probabilities, povm_elements)
from qel.optics import Basis, Bb84Signal, fock_from_symmetric, symmetric_encode


def density(ket) -> np.ndarray:
    return np.outer(ket, ket.conj())


def test_detector_model_validation():
    with pytest.raises(ValueError):
        DetectorModel(eta_det=1.2)
    with pytest.raises(ValueError):
        DetectorModel(eta_det=0.5, cutoff=1)


def test_detector_model_checks_its_fields_through_every_constructor():
    model = DetectorModel(eta_det=0.3, cutoff=4)
    assert model == (0.3, 4) and DetectorModel(0.3).cutoff == 10
    assert model._replace(cutoff=5) == DetectorModel(0.3, 5)
    for fields, message in (((1.2, 4), "eta_det must lie in"), ((0.3, 1), "cutoff must be at least 2")):
        with pytest.raises(ValueError, match=message):
            DetectorModel(*fields)
        with pytest.raises(ValueError, match=message):
            DetectorModel._make(fields)
        with pytest.raises(ValueError, match=message):
            model._replace(**dict(zip(DetectorModel._fields, fields)))
    with pytest.raises(AttributeError):
        model.eta_det = 0.5


def test_povm_entries_are_read_only_complex_matrices():
    for element in povm_elements(DetectorModel(eta_det=0.3, cutoff=4)).values():
        assert element.entries.shape == (25, 25) and element.entries.dtype == complex
        with pytest.raises(ValueError):
            element.entries[0, 0] = 0.0


def test_povm_vacuum_element_ideal_detector():
    model = DetectorModel(eta_det=1.0, cutoff=3)
    elements = povm_elements(model)
    vac = elements[DetectionOutcome.VACUUM].entries
    expected = np.zeros_like(vac)
    expected[0, 0] = 1.0  # only |0,0> survives
    assert np.array_equal(vac, expected)


def test_povm_double_element_entries():
    eta = 0.37
    model = DetectorModel(eta_det=eta, cutoff=3)
    dbl = povm_elements(model)[DetectionOutcome.DOUBLE].entries
    k = model.cutoff + 1
    assert dbl[1 * k + 1, 1 * k + 1] == pytest.approx(eta**2, abs=1e-15)
    assert dbl[2 * k + 0, 2 * k + 0] == pytest.approx(0.0, abs=1e-15)


@given(st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_povm_completeness(eta):
    model = DetectorModel(eta_det=eta, cutoff=4)
    elements = povm_elements(model)
    total = sum(e.entries for e in elements.values())
    assert np.max(np.abs(total - np.eye(total.shape[0]))) <= 1e-12


def test_povm_elements_psd_and_diagonal():
    model = DetectorModel(eta_det=0.3, cutoff=3)
    for element in povm_elements(model).values():
        m = element.entries
        assert np.max(np.abs(m - np.diag(np.diag(m)))) == 0.0
        assert np.min(np.real(np.diag(m))) >= 0.0


def test_single_photon_distribution():
    eta = 0.2
    dist = outcome_distribution({(1, 0): 1.0}, eta)
    assert dist[DetectionOutcome.VACUUM] == pytest.approx(1 - eta, abs=1e-15)
    assert dist[DetectionOutcome.CLICK0] == pytest.approx(eta, abs=1e-15)
    assert dist[DetectionOutcome.CLICK1] == 0.0
    assert dist[DetectionOutcome.DOUBLE] == 0.0


def test_single_photon_never_double_clicks():
    for occ in ((1, 0), (0, 1)):
        dist = outcome_distribution({occ: 1.0}, 0.9)
        assert dist[DetectionOutcome.DOUBLE] == 0.0


def test_forwarded_diagonal_state_double_click_rate():
    eta = 0.6
    state = symmetric_encode(Bb84Signal(Basis.DIAGONAL, 0))
    dist = outcome_distribution(fock_from_symmetric(density(state), Basis.RECTILINEAR), eta)
    assert dist[DetectionOutcome.DOUBLE] == pytest.approx(0.5 * eta**2, abs=1e-12)


def test_two_photon_same_mode_distribution():
    eta = 0.35
    nb = 1 - eta
    state = symmetric_encode(Bb84Signal(Basis.RECTILINEAR, 0))
    dist = outcome_distribution(fock_from_symmetric(density(state), Basis.RECTILINEAR), eta)
    assert dist[DetectionOutcome.DOUBLE] == 0.0
    assert dist[DetectionOutcome.CLICK0] == pytest.approx(1 - nb**2, abs=1e-12)


def test_outcome_distribution_sums_to_one():
    dist = outcome_distribution({(2, 1): 0.5, (0, 3): 0.25, (1, 1): 0.25}, 0.42)
    assert abs(dist.sum() - 1.0) < 1e-12


def test_outcome_distribution_rejects_efficiency_above_one():
    with pytest.raises(ValueError):
        outcome_distribution({(1, 0): 1.0}, 1.2)


@pytest.mark.parametrize("call, message", [
    (lambda: outcome_distribution({(1, 0): 0.5}, 0.5), "occupation probabilities sum to 0.5, expected 1"),
    (lambda: outcome_distribution({(1, 0): 1.5, (0, 1): -0.5}, 0.5), "negative occupation probability -0.5 for (0, 1)"),
    (lambda: conditional_error_rate(np.eye(3) / 3, Basis.RECTILINEAR, 0.0),
     "conditional error rate undefined at zero efficiency"),
], ids=["sum", "negative", "zero-efficiency"])
def test_invalid_occupations_and_zero_efficiency_raise_their_exact_messages(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert (type(raised.value), str(raised.value)) == (ValueError, message)


@given(st.integers(0, 2**32 - 1), st.floats(0.05, 0.95))
@settings(max_examples=30, deadline=None)
def test_outcome_distribution_affine_in_mixtures(seed, lam):
    rng = np.random.default_rng(seed)
    eta = float(rng.uniform(0.05, 1.0))
    occ_a = {(1, 0): 0.3, (1, 1): 0.7}
    occ_b = {(0, 2): 0.6, (2, 0): 0.4}
    mixed = {}
    for occ in set(occ_a) | set(occ_b):
        mixed[occ] = lam * occ_a.get(occ, 0.0) + (1 - lam) * occ_b.get(occ, 0.0)
    d_mixed = outcome_distribution(mixed, eta)
    d_a = outcome_distribution(occ_a, eta)
    d_b = outcome_distribution(occ_b, eta)
    for outcome in DetectionOutcome:
        expect = lam * d_a[outcome] + (1 - lam) * d_b[outcome]
        assert d_mixed[outcome] == pytest.approx(expect, abs=1e-12)


def test_outcome_probabilities_complete_for_any_occupation():
    for n in range(4):
        for m in range(4):
            probs = outcome_probabilities(n, m, 0.77)
            assert abs(probs.sum() - 1.0) < 1e-12


def test_conditional_error_rate_is_eta_independent():
    state = symmetric_encode(Bb84Signal(Basis.DIAGONAL, 0))
    rates = [conditional_error_rate(density(state), Basis.RECTILINEAR, eta) for eta in (0.1, 0.5, 0.9)]
    assert max(rates) - min(rates) < 1e-12
    # (1/4, 1/2, 1/4) occupations give error 1/2 * 1/2 + 1/4 = 1/2
    assert rates[0] == pytest.approx(0.5, abs=1e-12)


def test_outcome_distribution_on_a_stack_matches_each_element():
    rng = np.random.default_rng(11)
    raw = rng.uniform(size=(3, 5, 3))
    weights = raw / raw.sum(-1, keepdims=True)
    occupations = ((2, 0), (1, 1), (0, 3))
    stacked = outcome_distribution(dict(zip(occupations, np.moveaxis(weights, -1, 0))), 0.41)
    assert stacked.shape == (3, 5, len(DetectionOutcome))
    for idx in np.ndindex(weights.shape[:-1]):
        one = outcome_distribution(dict(zip(occupations, weights[idx])), 0.41)
        assert np.array_equal(stacked[idx], one)
    # the last axis follows DetectionOutcome, checked on |2, 1>
    nb = 1 - 0.41
    dist = outcome_distribution({(2, 1): 1.0}, 0.41)
    assert [outcome.value for outcome in DetectionOutcome] == [0, 1, 2, 3]
    expected = [nb**3, (1 - nb**2) * nb, (1 - nb) * nb**2, (1 - nb**2) * (1 - nb)]
    assert dist.tolist() == pytest.approx(expected, abs=1e-15)


def test_conditional_error_rate_for_bit_one_on_a_stack():
    rng = np.random.default_rng(5)
    amp = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
    kets = np.stack([amp[:, 0], amp[:, 1] / np.sqrt(2), amp[:, 1] / np.sqrt(2), amp[:, 2]], -1)
    kets /= np.linalg.norm(kets, axis=-1, keepdims=True)
    rhos = kets[:, :, None] * kets[:, None, :].conj()
    for basis in (Basis.RECTILINEAR, Basis.DIAGONAL):
        stacked = conditional_error_rate(rhos, basis, 0.3, correct_bit=1)
        assert stacked.shape == (6,)
        for rho, rate in zip(rhos, stacked):
            assert rate == conditional_error_rate(rho, basis, 0.3, correct_bit=1)
    # a bit-1 signal forwarded in its own basis is never wrong; read as bit 0 it always is
    state = density(symmetric_encode(Bb84Signal(Basis.DIAGONAL, 1)))
    assert conditional_error_rate(state, Basis.DIAGONAL, 0.3, correct_bit=1) == pytest.approx(0.0, abs=1e-12)
    assert conditional_error_rate(state, Basis.DIAGONAL, 0.3, correct_bit=0) == pytest.approx(1.0, abs=1e-12)
