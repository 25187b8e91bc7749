"""BB84 signal states and their two-photon encoding.

The sender encodes each bit in one of two mutually unbiased polarization
bases.  Two-photon pulses carry both photons in the same polarization, so
they live in the three-dimensional symmetric subspace of two qubits,
spanned by |00>, (|01>+|10>)/sqrt(2) and |11>.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .linalg import Ket, Operator

SINGLET_TOL = 1e-9


class Basis(enum.Enum):
    RECTILINEAR = "rectilinear"
    DIAGONAL = "diagonal"


@dataclass(frozen=True)
class Bb84Signal:
    """One of the four BB84 polarization signals: a basis tag plus a bit."""

    basis: Basis
    bit: int

    def __post_init__(self):
        if self.bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {self.bit}")


SIGNALS = (
    Bb84Signal(Basis.RECTILINEAR, 0),
    Bb84Signal(Basis.RECTILINEAR, 1),
    Bb84Signal(Basis.DIAGONAL, 0),
    Bb84Signal(Basis.DIAGONAL, 1),
)

KET_0 = Ket(np.array([1.0, 0.0]))
KET_1 = Ket(np.array([0.0, 1.0]))
KET_PLUS = Ket(np.array([1.0, 1.0]) / math.sqrt(2))
KET_MINUS = Ket(np.array([1.0, -1.0]) / math.sqrt(2))

#: Antisymmetric two-qubit singlet (|01> - |10>)/sqrt(2); basis independent
#: up to phase, used to test membership in the symmetric subspace.
SINGLET = Ket(np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2))

_BASIS_KETS = {
    Basis.RECTILINEAR: (KET_0, KET_1),
    Basis.DIAGONAL: (KET_PLUS, KET_MINUS),
}


def basis_kets(basis: Basis) -> tuple[Ket, Ket]:
    """The (bit 0, bit 1) single-qubit kets of a polarization basis."""
    return _BASIS_KETS[basis]


def signal_ket(signal: Bb84Signal) -> Ket:
    """Single-photon polarization ket of a BB84 signal.

    Rectilinear states are |0>, |1>; diagonal states are
    |+-> = (|0> +- |1>)/sqrt(2).
    """
    return basis_kets(signal.basis)[signal.bit]


def singlet_weight(state) -> float:
    """Probability weight on the antisymmetric singlet component."""
    if isinstance(state, Ket):
        return abs(state.overlap(SINGLET)) ** 2
    if isinstance(state, Operator):
        return abs(state.expectation(SINGLET))
    raise TypeError(f"expected Ket or Operator, got {type(state).__name__}")


def symmetric_encode(signal: Bb84Signal) -> Ket:
    """Two-photon encoding of a signal: both photons in the same polarization."""
    k = signal_ket(signal).amplitudes
    return Ket(np.kron(k, k))


def _symmetric_occupation_kets(b0: Ket, b1: Ket) -> dict[tuple[int, int], np.ndarray]:
    """Symmetrized two-qubit kets for occupations (2,0), (1,1), (0,2).

    The first occupation index counts photons in the bit-0 mode b0.
    """
    a0, a1 = b0.amplitudes, b1.amplitudes
    return {
        (2, 0): np.kron(a0, a0),
        (1, 1): (np.kron(a0, a1) + np.kron(a1, a0)) / math.sqrt(2),
        (0, 2): np.kron(a1, a1),
    }


def fock_from_symmetric(state, basis) -> dict[tuple[int, int], float]:
    """Occupation distribution of a two-photon state in a polarization basis.

    Projects onto the symmetrized basis states |b0 b0>, (|b0 b1>+|b1 b0>)/sqrt(2)
    and |b1 b1>, returning probabilities for the occupations (2,0), (1,1), (0,2)
    where the first index counts photons in the bit-0 mode.

    Args:
        state: dim-4 Ket or density Operator in the symmetric subspace.
        basis: a Basis value, or an explicit (Ket, Ket) mode pair.
    """
    if isinstance(basis, Basis):
        b0, b1 = basis_kets(basis)
    else:
        b0, b1 = basis
    if singlet_weight(state) > SINGLET_TOL:
        raise ValueError("state has antisymmetric (singlet) component above tolerance")
    kets = _symmetric_occupation_kets(b0, b1)
    out: dict[tuple[int, int], float] = {}
    if isinstance(state, Ket):
        if state.dim != 4:
            raise ValueError(f"expected a two-qubit state, got dim {state.dim}")
        for occ, v in kets.items():
            out[occ] = float(abs(np.vdot(v, state.amplitudes)) ** 2)
    elif isinstance(state, Operator):
        if state.dim != 4:
            raise ValueError(f"expected a two-qubit operator, got dim {state.dim}")
        for occ, v in kets.items():
            out[occ] = float(np.real(np.vdot(v, state.entries @ v)))
    else:
        raise TypeError(f"expected Ket or Operator, got {type(state).__name__}")
    return out
