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

Double clicks are never discarded: sifting, which oracle states once, assigns
them a uniformly random bit, which is what makes them contribute error 1/2.
"""
from __future__ import annotations

import enum
from collections import namedtuple

import numpy as np

from . import _checked_record
from .optics import _freeze


class DetectorModel(_checked_record("DetectorModel", "eta_det cutoff")):
    """Detection efficiency plus the photon-number cutoff of povm_elements, as an immutable named tuple."""

    __slots__ = ()

    def __new__(cls, eta_det: float, cutoff: int = 10):
        if not 0.0 <= eta_det <= 1.0:
            raise ValueError(f"eta_det must lie in [0, 1], got {eta_det}")
        if cutoff < 2:
            raise ValueError(f"cutoff must be at least 2, got {cutoff}")
        return super().__new__(cls, eta_det, cutoff)


class PovmElement(namedtuple("PovmElement", "entries")):
    """One POVM element, as a named tuple of its matrix."""

    __slots__ = ()


class DetectionOutcome(enum.IntEnum):
    """The four outcomes; each value is the index along the last axis of an outcome distribution."""

    VACUUM = 0
    CLICK0 = 1
    CLICK1 = 2
    DOUBLE = 3


def outcome_probabilities(n, m, eta_det: float) -> np.ndarray:
    """Four-outcome distribution for the occupation |n, m>, or (..., 4) for equal-shape occupation arrays."""
    nb = 1.0 - eta_det
    pn = nb**n
    pm = nb**m
    return np.stack([pn * pm, (1.0 - pn) * pm, (1.0 - pm) * pn, (1.0 - pn) * (1.0 - pm)], -1)


def povm_elements(model: DetectorModel) -> dict[DetectionOutcome, PovmElement]:
    """The four POVM elements on the truncated two-mode Fock space.

    Occupations are ordered |n, m> -> n * (cutoff + 1) + m with n counting
    photons in the bit-0 mode of the measurement basis; in that ordering the
    elements are the same for every basis.  All four are diagonal and sum to
    the identity; each is a PovmElement whose .entries is a read-only
    complex matrix.
    """
    k = model.cutoff + 1
    probs = outcome_probabilities(*np.divmod(np.arange(k * k), k), model.eta_det)
    return {outcome: PovmElement(_freeze(np.diag(probs[:, outcome]))) for outcome in DetectionOutcome}


def outcome_distribution(occupations: dict, eta_det: float) -> np.ndarray:
    """Distribution over detector outcomes for an arriving signal.

    Args:
        occupations: mapping from (n, m) photon occupations of the measurement
            basis to probabilities, or to equal-shape arrays of them; n counts
            photons in the bit-0 mode.
        eta_det: detection efficiency in [0, 1].

    Returns:
        The (..., 4) array of outcome probabilities, indexed by DetectionOutcome
        along its last axis.
    """
    if not 0.0 <= eta_det <= 1.0:
        raise ValueError(f"eta_det must lie in [0, 1], got {eta_det}")
    total = sum(occupations.values())
    if occupations and np.any(np.abs(total - 1.0) > 1e-9):
        raise ValueError(f"occupation probabilities sum to {total}, expected 1")
    out = np.zeros(len(DetectionOutcome))
    for (n, m), w in occupations.items():
        if np.any(w < -1e-12):
            raise ValueError(f"negative occupation probability {w} for {(n, m)}")
        out = out + np.asarray(w)[..., None] * outcome_probabilities(n, m, eta_det)
    return out

