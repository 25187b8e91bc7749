"""Minimal dense complex linear algebra for small Hilbert spaces.

Kets are read-only 1-D complex numpy arrays and operators are immutable
wrappers around square ones.  Everything here is sized for dimensions up to
a few tens (four qubits in practice), so dense double-precision storage is
used throughout.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-9


def _freeze(arr) -> np.ndarray:
    """Read-only complex copy of an array."""
    out = np.array(arr, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Operator:
    """Square complex matrix with explicit dimension."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise ValueError(f"operator must be a nonempty square matrix, got shape {arr.shape}")
        object.__setattr__(self, "entries", _freeze(arr))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def partial_trace(rho: Operator, keep: str, dims: tuple[int, int]) -> Operator:
    """Trace out one factor of a bipartite operator on H_A (x) H_B.

    Args:
        rho: operator on the product space, dimension d_A * d_B.
        keep: "a" to return the operator on H_A, "b" for H_B.
        dims: (d_A, d_B).
    """
    d_a, d_b = dims
    if d_a <= 0 or d_b <= 0:
        raise ValueError("subsystem dimensions must be positive")
    if rho.dim != d_a * d_b:
        raise ValueError(f"operator dimension {rho.dim} does not equal {d_a} * {d_b}")
    r = rho.entries.reshape(d_a, d_b, d_a, d_b)
    if keep == "a":
        return Operator(np.einsum("ijkj->ik", r))
    if keep == "b":
        return Operator(np.einsum("ijik->jk", r))
    raise ValueError(f"keep must be 'a' or 'b', got {keep!r}")


def check_density(op: Operator, tol: float = HERMITICITY_TOL) -> bool:
    """True iff op is Hermitian, positive semidefinite and unit trace within tol."""
    m = op.entries
    if np.max(np.abs(m - m.conj().T)) > tol:
        return False
    if abs(np.trace(m) - 1.0) > tol:
        return False
    eigs = np.linalg.eigvalsh((m + m.conj().T) / 2)
    return bool(eigs.min() >= -tol)
