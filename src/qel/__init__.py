"""Security analysis of BB84 with weak coherent pulses and inefficient detectors.

The package compares the photon-number-splitting process against two
eavesdropping processes built on 2->3 cloning machines (a universal
asymmetric cloner and a phase-covariant cloner) under the constraint that
the attacker can touch only the quantum channel, never the receiver's
detectors.  It provides the closed-form information-versus-disturbance
curves, the observed-error-rate bookkeeping that connects them to channel
loss, and an independent simulation oracle that rederives every closed form
from the explicit unitaries.

The public names below load their module on first access (PEP 562), so
``import qel`` loads neither numpy nor any submodule.
"""
import importlib
from collections import namedtuple

__version__ = "0.1.0"

#: Suite seed and Monte Carlo pulse count of ``qel verify``; kept here so the
#: command line reads them without loading the numpy-based verification.
VERIFY_SEED = 20240901
VERIFY_PULSES = 10**6


def _checked_record(typename: str, field_names: str):
    """A named tuple base for a record whose ``__new__`` checks or converts its fields.

    namedtuple's own ``_make``, which ``_replace`` also calls, builds the
    tuple directly; this one calls the subclass, so no path skips its checks.
    """
    base = namedtuple(typename, field_names)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


_EXPORTS = {
    "AttackCurvePoint": "attacks",
    "Basis": "optics",
    "Bb84Signal": "optics",
    "ChannelScenario": "channel",
    "InvalidRegimeError": "channel",
    "eta_t_bounds": "channel",
    "fuchs_information": "infotheory",
    "information_curves": "attacks",
    "levitin_information": "infotheory",
    "matched_two_photon_fraction": "attacks",
    "phi": "infotheory",
    "pns_information": "attacks",
    "pns_information_matched": "attacks",
    "strategy_a_information": "attacks",
    "strategy_b_disturbance": "attacks",
    "strategy_b_information": "attacks",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
