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
    """Immutable square complex matrix; np.asarray(op) gives its entries."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise ValueError(f"operator must be a nonempty square matrix, got shape {arr.shape}")
        object.__setattr__(self, "entries", _freeze(arr))

    def __array__(self, dtype=None, copy=None):
        return np.array(self.entries, dtype=dtype, copy=copy)


def partial_trace(rho, keep: str, dims: tuple[int, int]):
    """Trace out one factor of a bipartite operator on H_A (x) H_B.

    Args:
        rho: operator on the product space, dimension d_A * d_B; an Operator
            gives an Operator, an array stack of them the stack of results.
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
        out = np.einsum("...ijkj->...ik", r)
    elif keep == "b":
        out = np.einsum("...ijik->...jk", r)
    else:
        raise ValueError(f"keep must be 'a' or 'b', got {keep!r}")
    return Operator(out) if isinstance(rho, Operator) else out


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
