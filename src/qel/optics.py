"""BB84 signal states and their two-photon encoding.

The sender encodes each bit in one of two mutually unbiased polarization
bases: rectilinear and diagonal for the PNS process and strategy A, diagonal
and circular for strategy B.  Two-photon pulses carry both photons in the
same polarization, so they live in the three-dimensional symmetric subspace
of two qubits, spanned by |00>, (|01>+|10>)/sqrt(2) and |11>.

Kets are read-only 1-D complex arrays and operators are square complex
arrays or (..., d, d) stacks of them.
"""
from __future__ import annotations

import enum
import functools
import math

import numpy as np

from . import _checked_record

SINGLET_TOL = 1e-9
HERMITICITY_TOL = 1e-9


def _freeze(arr) -> np.ndarray:
    """Read-only complex copy of an array."""
    out = np.array(arr, dtype=complex)
    out.setflags(write=False)
    return out


def partial_trace(rho, keep: str, dims: tuple[int, int]) -> np.ndarray:
    """Trace out one factor of a bipartite operator on H_A (x) H_B.

    Args:
        rho: operator on the product space, dimension d_A * d_B, or a stack
            of them, which gives the stack of results.
        keep: "a" to return the operator on H_A, "b" for H_B.
        dims: (d_A, d_B).
    """
    d_a, d_b = dims
    if d_a <= 0 or d_b <= 0:
        raise ValueError("subsystem dimensions must be positive")
    m = np.asarray(rho)
    if m.shape[-2:] != (d_a * d_b, d_a * d_b):
        raise ValueError(f"operator dimension {m.shape[-1]} does not equal {d_a} * {d_b}")
    r = m.reshape(m.shape[:-2] + (d_a, d_b, d_a, d_b))
    if keep == "a":
        return np.einsum("...ijkj->...ik", r)
    if keep == "b":
        return np.einsum("...ijik->...jk", r)
    raise ValueError(f"keep must be 'a' or 'b', got {keep!r}")


def check_density(op) -> bool:
    """True iff op, or every operator in a stack, is finite, Hermitian, positive semidefinite and unit trace.

    Each condition holds within HERMITICITY_TOL.
    """
    m = np.asarray(op)
    if not np.all(np.isfinite(m)):  # NaN fails every comparison below
        return False
    if np.max(np.abs(m - np.swapaxes(m, -1, -2).conj())) > HERMITICITY_TOL:
        return False
    if np.max(np.abs(np.trace(m, axis1=-2, axis2=-1) - 1.0)) > HERMITICITY_TOL:
        return False
    eigs = np.linalg.eigvalsh((m + np.swapaxes(m, -1, -2).conj()) / 2)
    return bool(eigs.min() >= -HERMITICITY_TOL)


class Basis(enum.Enum):
    RECTILINEAR = "rectilinear"
    DIAGONAL = "diagonal"
    CIRCULAR = "circular"


class Bb84Signal(_checked_record("Bb84Signal", "basis bit")):
    """One of the four BB84 polarization signals: a basis tag plus a bit, as an immutable named tuple."""

    __slots__ = ()

    def __new__(cls, basis: Basis, bit: int):
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit}")
        return super().__new__(cls, basis, bit)


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
KET_R = _freeze(np.array([1.0, 1.0j]) / math.sqrt(2))
KET_L = _freeze(np.array([1.0, -1.0j]) / math.sqrt(2))

# Bell states, computational ordering |00>, |01>, |10>, |11>.
PHI_PLUS = _freeze(np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2))
PHI_MINUS = _freeze(np.array([1.0, 0.0, 0.0, -1.0]) / math.sqrt(2))
PSI_PLUS = _freeze(np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2))
#: The antisymmetric singlet (|01> - |10>)/sqrt(2); basis independent up to
#: phase, used to test membership in the symmetric subspace.
PSI_MINUS = _freeze(np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2))

#: Pauli matrices.
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_I2 = np.eye(2, dtype=complex)

#: BB84 signals for strategy B.  The phase-covariant machine is covariant
#: under rotations about the z axis only, so the protocol's two mutually
#: unbiased bases must both lie on the equator of the Bloch sphere: the
#: diagonal and circular bases.  (A universal machine, strategy A, is frame
#: independent and works with any pair.)
STRATEGY_B_SIGNALS = tuple(Bb84Signal(basis, bit)
                           for basis in (Basis.DIAGONAL, Basis.CIRCULAR) for bit in (0, 1))

_BASIS_KETS = {
    Basis.RECTILINEAR: (KET_0, KET_1),
    Basis.DIAGONAL: (KET_PLUS, KET_MINUS),
    Basis.CIRCULAR: (KET_R, KET_L),
}


def basis_kets(basis: Basis) -> tuple[np.ndarray, np.ndarray]:
    """The (bit 0, bit 1) single-qubit kets of a polarization basis."""
    return _BASIS_KETS[basis]


def signal_ket(signal: Bb84Signal) -> np.ndarray:
    """Single-photon polarization ket of a BB84 signal.

    Rectilinear states are |0>, |1>; diagonal states are
    |+-> = (|0> +- |1>)/sqrt(2); circular states are
    |R>, |L> = (|0> +- i|1>)/sqrt(2).
    """
    return basis_kets(signal.basis)[signal.bit]


def singlet_weight(rho):
    """Probability weight <singlet| rho |singlet> of a two-qubit density operator, or of each in a stack."""
    return np.abs(PSI_MINUS.conj() @ (np.asarray(rho) @ PSI_MINUS)[..., None])[..., 0]


@functools.cache
def symmetric_encode(signal: Bb84Signal) -> np.ndarray:
    """Two-photon encoding of a signal, built once: both photons in the same polarization."""
    k = signal_ket(signal)
    return _freeze(np.kron(k, k))


@functools.cache
def _symmetric_occupation_kets(basis: Basis) -> tuple[tuple[tuple[int, int], np.ndarray], ...]:
    """Symmetrized two-qubit kets for occupations (2,0), (1,1), (0,2).

    Built once per basis.  The first occupation index counts photons in the
    bit-0 mode b0.
    """
    b0, b1 = basis_kets(basis)
    return (
        ((2, 0), _freeze(np.kron(b0, b0))),
        ((1, 1), _freeze((np.kron(b0, b1) + np.kron(b1, b0)) / math.sqrt(2))),
        ((0, 2), _freeze(np.kron(b1, b1))),
    )


def fock_from_symmetric(rho, basis: Basis) -> dict:
    """Occupation distribution of a two-photon state in a polarization basis.

    Projects onto the symmetrized basis states |b0 b0>, (|b0 b1>+|b1 b0>)/sqrt(2)
    and |b1 b1>, returning probabilities for the occupations (2,0), (1,1), (0,2)
    where the first index counts photons in the bit-0 mode.

    Args:
        rho: dim-4 density operator in the symmetric subspace, or a stack of
            them, which gives a stack of probabilities per occupation.
        basis: the measurement basis, rectilinear, diagonal or circular; its
            (bit 0, bit 1) kets are basis_kets(basis).
    """
    m = np.asarray(rho)
    if m.shape[-2:] != (4, 4):
        raise ValueError(f"expected a two-qubit operator, got dim {m.shape[-1]}")
    if np.max(singlet_weight(m)) > SINGLET_TOL:
        raise ValueError("state has antisymmetric (singlet) component above tolerance")
    kets = _symmetric_occupation_kets(basis)
    return {occ: np.real(v.conj() @ (m @ v)[..., None])[..., 0] for occ, v in kets}
