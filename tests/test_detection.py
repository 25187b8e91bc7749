import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qel import oracle
from qel.detection import (DetectionOutcome, DetectorModel, outcome_distribution, outcome_probabilities,
                           povm_elements)
from qel.optics import (PSI_MINUS, SIGMA_X, SIGNALS, STRATEGY_B_SIGNALS, Basis, Bb84Signal, fock_from_symmetric,
                        symmetric_encode)


def density(ket) -> np.ndarray:
    return np.outer(ket, ket.conj())


def forwarding(m) -> np.ndarray:
    """The (..., 16, 4) attack isometry that applies m to the signal and leaves the probe in |00>."""
    return np.kron(m, np.eye(4)[:, :1])


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
    (lambda: oracle._drive(forwarding(np.eye(4))[None], SIGNALS, 0.0, 0),
     "sifted error rate undefined at zero efficiency"),
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


def test_drive_error_rates_are_eta_independent():
    # Two photons click with probability 1 - (1-eta)^2 whatever their occupation split, so the
    # sifted error rate of a two-photon receiver state does not depend on eta_det.
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    basis_change = forwarding(np.kron(hadamard, hadamard))[None]
    for us, signals in ((basis_change, SIGNALS),
                        (oracle.strategy_a_isometry([0.0, 0.1, 0.2, np.sqrt(1 / 8)]), SIGNALS),
                        (oracle.strategy_b_isometry([0.0, 0.7, 1.5, np.pi]), STRATEGY_B_SIGNALS)):
        rates = np.stack([oracle._drive(us, signals, eta, 0)[0] for eta in (0.1, 0.5, 0.9, 1.0)])
        assert np.max(np.ptp(rates, axis=0)) <= 1e-15
    # the basis change gives every signal (1/4, 1/2, 1/4) occupations: error 1/2 * 1/2 + 1/4 = 1/2
    rates = oracle._drive(basis_change, SIGNALS, 0.1, 0)[0]
    assert np.max(np.abs(rates - 0.5)) <= 1e-12


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


def test_drive_error_rates_for_bit_one_on_a_stack():
    # random unitaries of the symmetric subspace, which keep the receiver states free of singlet weight
    rng = np.random.default_rng(5)
    sym = np.stack([[1, 0, 0, 0], [0, 1, 1, 0] / np.sqrt(2), [0, 0, 0, 1]], -1)
    q = np.linalg.qr(rng.normal(size=(6, 3, 3)) + 1j * rng.normal(size=(6, 3, 3)))[0]
    us = forwarding(sym @ q @ sym.T + density(PSI_MINUS))
    for signals in (SIGNALS, STRATEGY_B_SIGNALS):
        stacked = oracle._drive(us, signals, 0.3, 0)[0]
        assert stacked.shape == (6, 4)
        for i in range(6):
            assert np.array_equal(stacked[i], oracle._drive(us[i:i + 1], signals, 0.3, i)[0][0])
    # signals (H0, H1, +0, +1): a bit-1 signal forwarded in its own basis is never wrong, and the
    # bit flip on both photons, which fixes the diagonal signals, makes every rectilinear one wrong
    flips = forwarding(np.stack([np.eye(4), np.kron(SIGMA_X, SIGMA_X)]))
    rates = oracle._drive(flips, SIGNALS, 0.3, 0)[0]
    assert np.max(np.abs(rates - [[0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]])) <= 1e-12
