"""Scalar information quantities for two-state discrimination.

Everything is expressed through

    Phi(x) = (1 + x) log2(1 + x) + (1 - x) log2(1 - x),

with the convention 0 log 0 = 0 at the endpoints, so Phi(0) = 0 and
Phi(+-1) = 2.  Phi is even and convex on [-1, 1].
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import Operator, check_density

_DOMAIN_SLACK = 1e-12
DETERMINANT_TOL = 1e-9


def phi(x: float) -> float:
    """(1+x)log2(1+x) + (1-x)log2(1-x) with 0 log 0 = 0."""
    if abs(x) > 1.0 + _DOMAIN_SLACK:
        raise ValueError(f"phi argument must lie in [-1, 1], got {x}")
    x = min(1.0, max(-1.0, x))
    out = 0.0
    for t in (1.0 + x, 1.0 - x):
        if t > 0.0:
            out += t * math.log2(t)
    return out


def fuchs_information(disturbance: float) -> float:
    """Eavesdropper information of the optimal individual single-photon attack.

    For the symmetric attack that turns each qubit rho into
    (1-2D) rho + D*identity, the attacker's maximal Shannon information at
    disturbance D is Phi(2 sqrt(D(1-D)))/2, increasing from 0 at D=0 to 1 at
    D=1/2.
    """
    if not 0.0 <= disturbance <= 0.5:
        raise ValueError(f"disturbance must lie in [0, 1/2], got {disturbance}")
    return 0.5 * phi(2.0 * math.sqrt(disturbance * (1.0 - disturbance)))


@dataclass(frozen=True)
class TwoStateEnsemble:
    """Two equiprobable states of equal dimension."""

    rho0: Operator
    rho1: Operator

    def __post_init__(self):
        if self.rho0.dim != self.rho1.dim:
            raise ValueError("ensemble states must share a dimension")
        for name, rho in (("rho0", self.rho0), ("rho1", self.rho1)):
            if not check_density(rho):
                raise ValueError(f"{name} is not a valid density operator")


def levitin_information(ensemble: TwoStateEnsemble) -> float:
    """Accessible information of two equiprobable qubit states with equal determinants.

    With r = tr(rho0 rho1) and d = det(rho0) = det(rho1), the maximum mutual
    information extractable by a measurement is Phi(sqrt(1 - r - 2d))/2.  The
    equal-determinant precondition (equal Bloch-vector lengths) is enforced
    rather than silently ignored because the closed form is only valid there.
    """
    rho0, rho1 = ensemble.rho0, ensemble.rho1
    if rho0.dim != 2:
        raise ValueError(f"closed form applies to qubit ensembles, got dim {rho0.dim}")
    d0 = float(np.real(np.linalg.det(rho0.entries)))
    d1 = float(np.real(np.linalg.det(rho1.entries)))
    if abs(d0 - d1) > DETERMINANT_TOL:
        raise ValueError(f"determinants differ beyond tolerance: {d0} vs {d1}")
    r = float(np.real(np.trace(rho0.entries @ rho1.entries)))
    arg_sq = 1.0 - r - 2.0 * d0
    arg_sq = max(0.0, min(1.0, arg_sq))
    return 0.5 * phi(math.sqrt(arg_sq))

