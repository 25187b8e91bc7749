"""Scalar information quantities for two-state discrimination.

Everything is expressed through

    Phi(x) = (1 + x) log2(1 + x) + (1 - x) log2(1 - x),

with the convention 0 log 0 = 0 at the endpoints, so Phi(0) = 0 and
Phi(+-1) = 2.  Phi is even and convex on [-1, 1].

Phi and the Fuchs information work on math floats and load no numpy; the
qubit-ensemble quantities import numpy when they are called.
"""
from __future__ import annotations

import math
from collections import namedtuple

#: Rounding slack allowed past the closed end of a parameter domain.
DOMAIN_SLACK = 1e-12
DETERMINANT_TOL = 1e-9


def phi(x: float) -> float:
    """(1+x)log2(1+x) + (1-x)log2(1-x) with 0 log 0 = 0.

    x may exceed [-1, 1] by DOMAIN_SLACK, and every x with |x| >= 1 gives
    Phi(+-1) = 2 exactly; inside, both terms are evaluated directly, since
    1 + x and 1 - x are then positive.
    """
    if not abs(x) <= 1.0 + DOMAIN_SLACK:  # NaN fails this too
        raise ValueError(f"phi argument must lie in [-1, 1], got {x}")
    if not -1.0 < x < 1.0:
        return 2.0
    return (1.0 + x) * math.log2(1.0 + x) + (1.0 - x) * math.log2(1.0 - x)


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


class TwoStateEnsemble(namedtuple("TwoStateEnsemble", "rho0 rho1")):
    """Two equiprobable states of equal dimension, as an immutable named tuple.

    The states are square arrays.  Two equal-shape stacks of them form a
    stack of ensembles, pair i being (rho0[i], rho1[i]).
    """

    __slots__ = ()

    def __new__(cls, rho0, rho1):
        import numpy as np

        from .optics import check_density

        if np.shape(rho0) != np.shape(rho1):
            raise ValueError("ensemble states must share a dimension")
        for name, rho in (("rho0", rho0), ("rho1", rho1)):
            if not check_density(rho):
                raise ValueError(f"{name} is not a valid density operator")
        return super().__new__(cls, rho0, rho1)

    @classmethod
    def _make(cls, iterable) -> "TwoStateEnsemble":
        # namedtuple's _make, which _replace also calls, would skip the checks
        return cls(*iterable)


def levitin_information(ensemble: TwoStateEnsemble):
    """Accessible information of two equiprobable qubit states with equal determinants.

    With r = tr(rho0 rho1) and d = det(rho0) = det(rho1), the maximum mutual
    information extractable by a measurement is Phi(sqrt(1 - r - 2d))/2.  The
    equal-determinant precondition (equal Bloch-vector lengths) is enforced
    rather than silently ignored because the closed form is only valid there.
    A stack of ensembles gives the array of their informations.
    """
    import numpy as np

    rho0, rho1 = np.asarray(ensemble.rho0), np.asarray(ensemble.rho1)
    if rho0.shape[-2:] != (2, 2):
        raise ValueError(f"closed form applies to qubit ensembles, got dim {rho0.shape[-1]}")
    d0 = np.real(np.linalg.det(rho0))
    d1 = np.real(np.linalg.det(rho1))
    if np.max(np.abs(d0 - d1)) > DETERMINANT_TOL:
        raise ValueError(f"determinants differ beyond tolerance: {d0} vs {d1}")
    r = np.real(np.trace(rho0 @ rho1, axis1=-2, axis2=-1))
    arg_sq = np.minimum(1.0, np.maximum(0.0, 1.0 - r - 2.0 * d0))
    info = [0.5 * phi(math.sqrt(a)) for a in np.ravel(arg_sq).tolist()]
    return info[0] if arg_sq.ndim == 0 else np.array(info)
