"""Security analysis of BB84 with weak coherent pulses and inefficient detectors.

The package compares the photon-number-splitting process against two
eavesdropping processes built on 2->3 cloning machines (a universal
asymmetric cloner and a phase-covariant cloner) under the constraint that
the attacker can touch only the quantum channel, never the receiver's
detectors.  It provides the closed-form information-versus-disturbance
curves, the observed-error-rate bookkeeping that connects them to channel
loss, and an independent simulation oracle that rederives every closed form
from the explicit unitaries.
"""

from .attacks import (
    AttackCurvePoint,
    CloneAParams,
    CloneBParams,
    information_curves,
    matched_two_photon_fraction,
    pns_information,
    pns_information_matched,
    strategy_a_information,
    strategy_b_disturbance,
    strategy_b_information,
)
from .channel import ChannelScenario, InvalidRegimeError, crossover_loss, eta_t_bounds
from .infotheory import fuchs_information, levitin_information, phi
from .optics import Basis, Bb84Signal

__version__ = "0.1.0"

__all__ = [
    "AttackCurvePoint",
    "Basis",
    "Bb84Signal",
    "ChannelScenario",
    "CloneAParams",
    "CloneBParams",
    "InvalidRegimeError",
    "crossover_loss",
    "eta_t_bounds",
    "fuchs_information",
    "information_curves",
    "levitin_information",
    "matched_two_photon_fraction",
    "phi",
    "pns_information",
    "pns_information_matched",
    "strategy_a_information",
    "strategy_b_disturbance",
    "strategy_b_information",
    "__version__",
]
