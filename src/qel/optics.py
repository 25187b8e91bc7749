"""BB84 signal states and their two-photon encoding.

The sender encodes each bit in one of two mutually unbiased polarization
bases.  Two-photon pulses carry both photons in the same polarization, so
they live in the three-dimensional symmetric subspace of two qubits,
spanned by |00>, (|01>+|10>)/sqrt(2) and |11>.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import Operator, _freeze

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

KET_0 = _freeze([1.0, 0.0])
KET_1 = _freeze([0.0, 1.0])
KET_PLUS = _freeze(np.array([1.0, 1.0]) / math.sqrt(2))
KET_MINUS = _freeze(np.array([1.0, -1.0]) / math.sqrt(2))

#: Antisymmetric two-qubit singlet (|01> - |10>)/sqrt(2); basis independent
#: up to phase, used to test membership in the symmetric subspace.
SINGLET = _freeze(np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2))

_BASIS_KETS = {
    Basis.RECTILINEAR: (KET_0, KET_1),
    Basis.DIAGONAL: (KET_PLUS, KET_MINUS),
}


def basis_kets(basis: Basis) -> tuple[np.ndarray, np.ndarray]:
    """The (bit 0, bit 1) single-qubit kets of a polarization basis."""
    return _BASIS_KETS[basis]


def signal_ket(signal: Bb84Signal) -> np.ndarray:
    """Single-photon polarization ket of a BB84 signal.

    Rectilinear states are |0>, |1>; diagonal states are
    |+-> = (|0> +- |1>)/sqrt(2).
    """
    return basis_kets(signal.basis)[signal.bit]


def singlet_weight(rho: Operator) -> float:
    """Probability weight <singlet| rho |singlet> of a two-qubit density operator."""
    return abs(complex(np.vdot(SINGLET, rho.entries @ SINGLET)))


def symmetric_encode(signal: Bb84Signal) -> np.ndarray:
    """Two-photon encoding of a signal: both photons in the same polarization."""
    k = signal_ket(signal)
    return _freeze(np.kron(k, k))


@functools.lru_cache(maxsize=8)
def _symmetric_occupation_kets(b0_bytes: bytes, b1_bytes: bytes) -> tuple[tuple[tuple[int, int], np.ndarray], ...]:
    """Symmetrized two-qubit kets for occupations (2,0), (1,1), (0,2).

    Takes the raw bytes of the complex (bit 0, bit 1) kets, so each basis is
    built once and then served from the cache.  The first occupation index
    counts photons in the bit-0 mode b0.
    """
    b0 = np.frombuffer(b0_bytes, dtype=complex)
    b1 = np.frombuffer(b1_bytes, dtype=complex)
    return (
        ((2, 0), _freeze(np.kron(b0, b0))),
        ((1, 1), _freeze((np.kron(b0, b1) + np.kron(b1, b0)) / math.sqrt(2))),
        ((0, 2), _freeze(np.kron(b1, b1))),
    )


def fock_from_symmetric(rho: Operator, basis) -> dict[tuple[int, int], float]:
    """Occupation distribution of a two-photon state in a polarization basis.

    Projects onto the symmetrized basis states |b0 b0>, (|b0 b1>+|b1 b0>)/sqrt(2)
    and |b1 b1>, returning probabilities for the occupations (2,0), (1,1), (0,2)
    where the first index counts photons in the bit-0 mode.

    Args:
        rho: dim-4 density operator in the symmetric subspace.
        basis: a Basis value, or an explicit (bit 0, bit 1) ket pair.
    """
    if isinstance(basis, Basis):
        b0, b1 = basis_kets(basis)
    else:
        b0, b1 = basis
    if rho.dim != 4:
        raise ValueError(f"expected a two-qubit operator, got dim {rho.dim}")
    if singlet_weight(rho) > SINGLET_TOL:
        raise ValueError("state has antisymmetric (singlet) component above tolerance")
    m = rho.entries
    kets = _symmetric_occupation_kets(np.asarray(b0, dtype=complex).tobytes(),
                                      np.asarray(b1, dtype=complex).tobytes())
    return {occ: float(np.real(np.vdot(v, m @ v))) for occ, v in kets}
