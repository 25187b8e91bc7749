"""Information quantities for two-state discrimination.

Everything is expressed through

    Phi(x) = (1 + x) log2(1 + x) + (1 - x) log2(1 - x),

with the convention 0 log 0 = 0 at the endpoints, so Phi(0) = 0 and
Phi(+-1) = 2.  Phi is even and convex on [-1, 1].

Phi and the Fuchs information take a float, evaluated with math, or a numpy
array, evaluated element by element and bit-equal to the float results:
numpy's arithmetic and sqrt round as Python's do, and log2 maps math.log2
over the elements, since np.log2 is not bit-equal to it.  Importing this
module loads no numpy; the qubit-ensemble quantities import it when they
are called.
"""
from __future__ import annotations

import functools
import math
import sys
from types import SimpleNamespace

from . import _checked_record

#: Rounding slack allowed past the closed end of a parameter domain.
DOMAIN_SLACK = 1e-12
DETERMINANT_TOL = 1e-9

#: The functions the closed forms call on a number.
_FLOAT_MATH = SimpleNamespace(sqrt=math.sqrt, log2=math.log2, minimum=min)


def _numpy_if_array(x):
    """The numpy module when x is a numpy array, else None.

    numpy is looked up, not imported: no array exists before numpy is
    loaded, so a float caller never pays for the import.
    """
    np = sys.modules.get("numpy")
    return np if np is not None and isinstance(x, np.ndarray) else None


@functools.cache
def _array_math():
    """The functions the closed forms call on a float array, each bit-equal to _FLOAT_MATH's per element."""
    np = sys.modules["numpy"]

    def log2(x):
        return np.fromiter(map(math.log2, x.ravel().tolist()), float, x.size).reshape(x.shape)

    return SimpleNamespace(sqrt=np.sqrt, log2=log2, minimum=np.minimum, where=np.where)


def _math_for(x, lo: float, hi: float, message: str):
    """_FLOAT_MATH for a number in [lo, hi], _array_math() for a numpy array of them.

    Anything else raises ValueError(f"{message}, got {v}"), v being the
    number or the array's first element outside [lo, hi]; NaN is outside.
    """
    np = None if isinstance(x, float) else _numpy_if_array(x)
    if np is None:
        if not lo <= x <= hi:
            raise ValueError(f"{message}, got {x}")
        return _FLOAT_MATH
    outside = ~((lo <= x) & (x <= hi))
    if outside.any():
        raise ValueError(f"{message}, got {x[outside][0]}")
    return _array_math()


def phi(x):
    """(1+x)log2(1+x) + (1-x)log2(1-x) with 0 log 0 = 0.

    x may exceed [-1, 1] by DOMAIN_SLACK, and every x with |x| >= 1 gives
    Phi(+-1) = 2 exactly; inside, both terms are evaluated directly, since
    1 + x and 1 - x are then positive.  A numpy array gives the array of
    values, each bit-equal to the float result.
    """
    if isinstance(x, float) and -1.0 < x < 1.0:  # the hot case goes straight to the formula
        return _phi(_FLOAT_MATH, x)
    xp = _math_for(x, -1.0 - DOMAIN_SLACK, 1.0 + DOMAIN_SLACK, "phi argument must lie in [-1, 1]")
    if xp is _FLOAT_MATH:
        return _phi(xp, x) if -1.0 < x < 1.0 else 2.0
    inside = (-1.0 < x) & (x < 1.0)
    return xp.where(inside, _phi(xp, xp.where(inside, x, 0.0)), 2.0)


def _phi(xp, x):
    """Phi inside (-1, 1), evaluated with xp (_FLOAT_MATH or _array_math()), unchecked."""
    return (1.0 + x) * xp.log2(1.0 + x) + (1.0 - x) * xp.log2(1.0 - x)


def fuchs_information(disturbance):
    """Eavesdropper information of the optimal individual single-photon attack.

    For the symmetric attack that turns each qubit rho into
    (1-2D) rho + D*identity, the attacker's maximal Shannon information at
    disturbance D is Phi(2 sqrt(D(1-D)))/2, increasing from 0 at D=0 to 1 at
    D=1/2.  A numpy array of disturbances gives the array of informations,
    each bit-equal to the float result.
    """
    if isinstance(disturbance, float) and 0.0 <= disturbance <= 0.5:  # the hot case skips _math_for's call
        xp = _FLOAT_MATH
    else:
        xp = _math_for(disturbance, 0.0, 0.5, "disturbance must lie in [0, 1/2]")
    return 0.5 * phi(2.0 * xp.sqrt(disturbance * (1.0 - disturbance)))


class TwoStateEnsemble(_checked_record("TwoStateEnsemble", "rho0 rho1")):
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


def levitin_information(ensemble: TwoStateEnsemble):
    """Accessible information of two equiprobable qubit states with equal determinants.

    With r = tr(rho0 rho1) and d = det(rho0) = det(rho1), the maximum mutual
    information extractable by a measurement is Phi(sqrt(1 - r - 2d))/2.  The
    equal-determinant precondition (equal Bloch-vector lengths) is enforced
    rather than silently ignored because the closed form is only valid there.
    A stack of ensembles gives the array of their informations, shaped like
    the stack; one ensemble gives a float.
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
    info = 0.5 * phi(np.sqrt(np.atleast_1d(arg_sq)))
    return float(info[0]) if arg_sq.ndim == 0 else info
