"""Receiver model: inefficient threshold detectors behind a polarizing splitter.

Each analyzer consists of a polarizing beam splitter and two threshold
detectors of efficiency eta_det, modeled as a beam splitter of transmittance
eta_det in front of an ideal detector.  For a basis beta, with |n,m> the
state carrying n photons in the bit-0 mode and m in the orthogonal mode, the
four-outcome POVM is diagonal in the occupation states:

    no click      eta_bar^(n+m)
    click 0       (1 - eta_bar^n) eta_bar^m
    click 1       (1 - eta_bar^m) eta_bar^n
    double click  (1 - eta_bar^n)(1 - eta_bar^m)

with eta_bar = 1 - eta_det.  Dark counts are excluded: they are independent
of the signal, so the analysis operates on the reduced channel error rate
after the dark-count contribution has been subtracted.

Double clicks are never discarded: sifting assigns them a uniformly random
bit, which is what makes them contribute error 1/2.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .linalg import Ket, Operator
from .optics import Basis, fock_from_symmetric


@dataclass(frozen=True)
class DetectorModel:
    """Detection efficiency plus the photon-number cutoff for Fock truncation."""

    eta_det: float
    cutoff: int = 10

    def __post_init__(self):
        if not 0.0 <= self.eta_det <= 1.0:
            raise ValueError(f"eta_det must lie in [0, 1], got {self.eta_det}")
        if self.cutoff < 2:
            raise ValueError(f"cutoff must be at least 2, got {self.cutoff}")


class DetectionOutcome(enum.Enum):
    VACUUM = "vacuum"
    CLICK0 = "click0"
    CLICK1 = "click1"
    DOUBLE = "double"


def outcome_probabilities(n: int, m: int, eta_det: float) -> dict[DetectionOutcome, float]:
    """Four-outcome distribution for the occupation |n, m>."""
    nb = 1.0 - eta_det
    pn = nb**n
    pm = nb**m
    return {
        DetectionOutcome.VACUUM: pn * pm,
        DetectionOutcome.CLICK0: (1.0 - pn) * pm,
        DetectionOutcome.CLICK1: (1.0 - pm) * pn,
        DetectionOutcome.DOUBLE: (1.0 - pn) * (1.0 - pm),
    }


def povm_elements(basis: Basis, model: DetectorModel) -> dict[DetectionOutcome, Operator]:
    """The four POVM elements on the truncated two-mode Fock space.

    Occupations are ordered |n, m> -> n * (cutoff + 1) + m with n counting
    photons in the bit-0 mode of `basis`.  All four elements are diagonal in
    that ordering and sum to the identity.
    """
    if not isinstance(basis, Basis):
        raise TypeError(f"expected Basis, got {type(basis).__name__}")
    k = model.cutoff + 1
    diags = {outcome: np.zeros(k * k) for outcome in DetectionOutcome}
    for n in range(k):
        for m in range(k):
            idx = n * k + m
            for outcome, p in outcome_probabilities(n, m, model.eta_det).items():
                diags[outcome][idx] = p
    return {outcome: Operator(np.diag(d).astype(complex)) for outcome, d in diags.items()}


def outcome_distribution(signal_input, basis, model: DetectorModel) -> dict[DetectionOutcome, float]:
    """Distribution over detector outcomes for an arriving signal.

    Args:
        signal_input: either an occupation distribution, as a mapping from
            (n, m) photon occupations to probabilities, or a two-photon state
            (dim-4 Ket or density Operator) which is first projected onto the
            occupation states of the measurement basis.
        basis: measurement basis (Basis value or explicit ket pair).
        model: detector model.
    """
    if isinstance(signal_input, dict):
        occupations = signal_input
        total = sum(occupations.values())
        if occupations and abs(total - 1.0) > 1e-9:
            raise ValueError(f"occupation probabilities sum to {total}, expected 1")
    elif isinstance(signal_input, (Ket, Operator)):
        occupations = fock_from_symmetric(signal_input, basis)
    else:
        raise TypeError(f"unsupported input type {type(signal_input).__name__}")
    out = {outcome: 0.0 for outcome in DetectionOutcome}
    for (n, m), w in occupations.items():
        if w < -1e-12:
            raise ValueError(f"negative occupation probability {w} for {(n, m)}")
        for outcome, p in outcome_probabilities(n, m, model.eta_det).items():
            out[outcome] += w * p
    return out


def conditional_error_rate(state, basis, eta_det: float, correct_bit: int = 0) -> float:
    """Sifted error probability of a two-photon state, given a click.

    Wrong-detector clicks count as errors and double clicks contribute 1/2.
    For total photon number two the click probability is 1 - (1-eta)^2
    regardless of the occupation split, which makes this quantity independent
    of eta_det; the explicit model is kept for cross-checks.
    """
    if eta_det <= 0.0:
        raise ValueError("conditional error rate undefined at zero efficiency")
    model = DetectorModel(eta_det=eta_det, cutoff=2)
    dist = outcome_distribution(state, basis, model)
    p_click = 1.0 - dist[DetectionOutcome.VACUUM]
    wrong = DetectionOutcome.CLICK1 if correct_bit == 0 else DetectionOutcome.CLICK0
    p_err = dist[wrong] + 0.5 * dist[DetectionOutcome.DOUBLE]
    return p_err / p_click
