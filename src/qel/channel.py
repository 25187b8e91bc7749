"""Observed error rate versus disturbance under the matched PNS attack.

The eavesdropper splits every multi-photon pulse and forwards the remainder
over a lossless line, so a pulse of n >= 2 photons is detected with
probability 1 - (1-eta_det)^(n-1) independent of the original channel.  The
expected click rate of the undisturbed lossy channel, 1 - exp(-mu eta_det
eta_t), fixes how many single-photon signals the attacker must pass through
untouched; only those carry errors, which dilutes the disturbance D down to
the observed error rate e by the factor P_single / P_expected.

The analysis window in channel transmission: the attack must be able to
reproduce the expected click rate using at most all single photons (upper
bound on eta_t) while the multi-photon clicks alone must not already exceed
it (lower bound on eta_t, below which plain splitting stays optimal).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import attacks

#: Photon-number truncation for all series; Poisson tail < 1e-40 for mu <= 1.
PHOTON_CUTOFF = 40

CROSSOVER_DB_TOL = 0.01
_SCAN_DB_STEP = 0.05


class InvalidRegimeError(ValueError):
    """Scenario outside the transmission window where the comparison is defined."""


def loss_db_from_eta_t(eta_t: float) -> float:
    if not 0.0 < eta_t <= 1.0:
        raise ValueError(f"transmission must lie in (0, 1], got {eta_t}")
    return -10.0 * math.log10(eta_t)


def eta_t_from_loss_db(loss_db: float) -> float:
    if loss_db < 0.0:
        raise ValueError(f"loss must be nonnegative, got {loss_db} dB")
    return 10.0 ** (-loss_db / 10.0)


@dataclass(frozen=True)
class ChannelScenario:
    """Source mean photon number, detector efficiency and channel transmission."""

    mu: float
    eta_det: float
    eta_t: float

    def __post_init__(self):
        if self.mu <= 0.0:
            raise ValueError(f"mean photon number must be positive, got {self.mu}")
        if not 0.0 < self.eta_det <= 1.0:
            raise ValueError(f"eta_det must lie in (0, 1], got {self.eta_det}")
        if not 0.0 < self.eta_t <= 1.0:
            raise ValueError(f"eta_t must lie in (0, 1], got {self.eta_t}")

    @classmethod
    def from_loss_db(cls, mu: float, eta_det: float, loss_db: float) -> "ChannelScenario":
        return cls(mu=mu, eta_det=eta_det, eta_t=eta_t_from_loss_db(loss_db))

    @property
    def loss_db(self) -> float:
        return loss_db_from_eta_t(self.eta_t)


def p_arr_multi(mu: float, eta_det: float, cutoff: int = PHOTON_CUTOFF) -> float:
    """Probability that a pulse is split and still detected.

    sum_{n>=2} P(n, mu) [1 - (1-eta_det)^(n-1)], truncated at cutoff with a
    Poisson tail below mu^(cutoff+1)/(cutoff+1)!.
    """
    if mu < 0.0:
        raise ValueError(f"mean photon number must be nonnegative, got {mu}")
    if not 0.0 <= eta_det <= 1.0:
        raise ValueError(f"eta_det must lie in [0, 1], got {eta_det}")
    log_eta_bar = math.log1p(-eta_det) if eta_det < 1.0 else -math.inf
    total = 0.0
    p_n = math.exp(-mu)  # P(0, mu)
    for n in range(1, cutoff + 1):
        p_n = p_n * mu / n
        if n >= 2:
            # 1 - eta_bar^(n-1), evaluated without cancellation
            total += p_n * (-math.expm1((n - 1) * log_eta_bar))
    return total


def p_exp(mu: float, eta_det: float, eta_t: float) -> float:
    """Expected click rate of the unattacked lossy channel, 1 - exp(-mu eta eta_t)."""
    if mu < 0.0:
        raise ValueError(f"mean photon number must be nonnegative, got {mu}")
    if not 0.0 <= eta_det <= 1.0 or not 0.0 <= eta_t <= 1.0:
        raise ValueError("efficiencies must lie in [0, 1]")
    return -math.expm1(-mu * eta_det * eta_t)


def p_arr_single(mu: float, eta_det: float, eta_t: float) -> float:
    """Single-photon contribution to the raw key, P_expected - P_multi.

    Negative values mean the multi-photon clicks alone exceed the expected
    rate, i.e. the scenario sits outside the analysis window; the valid
    transmission range is reported by eta_t_bounds(mu, eta_det).
    """
    single = p_exp(mu, eta_det, eta_t) - p_arr_multi(mu, eta_det)
    if single < 0.0:
        raise InvalidRegimeError(
            f"multi-photon arrivals exceed the expected click rate at eta_t={eta_t}; "
            f"plain photon-number splitting remains optimal there "
            f"(valid window from eta_t_bounds({mu}, {eta_det}))")
    return single


def error_disturbance_ratio(scenario: ChannelScenario) -> float:
    """Dilution factor e / D = P_single / P_expected for the scenario."""
    pe = p_exp(scenario.mu, scenario.eta_det, scenario.eta_t)
    if pe == 0.0:
        raise InvalidRegimeError(f"no clicks are expected at eta_t={scenario.eta_t}")
    return p_arr_single(scenario.mu, scenario.eta_det, scenario.eta_t) / pe


def observed_error_from_disturbance(scenario: ChannelScenario, disturbance: float) -> float:
    """Observed sifted-key error rate for a given disturbance.

    Multi-photon pulses are forwarded unchanged and carry no error, so
    e = (P_single / P_expected) D <= D.
    """
    if not 0.0 <= disturbance <= 0.5:
        raise ValueError(f"disturbance must lie in [0, 1/2], got {disturbance}")
    return error_disturbance_ratio(scenario) * disturbance


def observed_error_closed_form(scenario: ChannelScenario, disturbance: float) -> float:
    """Closed form of the same map with the photon series summed analytically.

    Written with expm1 to stay accurate at small click rates:
    e/D = exp(x - mu) [expm1(mu(1-eta)) - (1-eta) expm1(mu - x)]
          / [(1-eta) expm1(x)],  x = mu eta_det eta_t.
    """
    if not 0.0 <= disturbance <= 0.5:
        raise ValueError(f"disturbance must lie in [0, 1/2], got {disturbance}")
    mu, eta, eta_t = scenario.mu, scenario.eta_det, scenario.eta_t
    if eta >= 1.0:
        # No vacuum contribution from splitting; the series form handles this
        # limit directly.
        return observed_error_from_disturbance(scenario, disturbance)
    x = mu * eta * eta_t
    ratio = math.exp(x - mu) * (math.expm1(mu * (1.0 - eta)) - (1.0 - eta) * math.expm1(mu - x)) \
        / ((1.0 - eta) * math.expm1(x))
    return ratio * disturbance


def disturbance_for_error(scenario: ChannelScenario, observed_error: float) -> float:
    """Disturbance required to produce a given observed error rate."""
    if observed_error < 0.0:
        raise ValueError(f"observed error rate must be nonnegative, got {observed_error}")
    ratio = error_disturbance_ratio(scenario)
    if ratio <= 0.0:
        raise InvalidRegimeError("no single-photon signals reach the receiver in this scenario")
    disturbance = observed_error / ratio
    if disturbance > 0.5 + 1e-12:
        raise InvalidRegimeError(
            f"observed error {observed_error} would require disturbance {disturbance} > 1/2")
    return min(disturbance, 0.5)


@dataclass(frozen=True)
class TransmissionWindow:
    """Valid eta_t range for the matched comparison, with dB equivalents.

    loss_db_lower corresponds to eta_t_upper and vice versa.  An empty window
    means plain photon-number splitting stays optimal for every transmission.
    """

    eta_t_lower: float
    eta_t_upper: float

    @property
    def empty(self) -> bool:
        return self.eta_t_lower >= self.eta_t_upper

    @property
    def loss_db_lower(self) -> float:
        return loss_db_from_eta_t(self.eta_t_upper)

    @property
    def loss_db_upper(self) -> float:
        return loss_db_from_eta_t(self.eta_t_lower)

    def contains_eta_t(self, eta_t: float) -> bool:
        return self.eta_t_lower < eta_t <= self.eta_t_upper


def eta_t_bounds(mu: float, eta_det: float, cutoff: int = PHOTON_CUTOFF) -> TransmissionWindow:
    """Transmission window in which the matched comparison applies.

    Upper bound: the expected click rate must be coverable by attacking every
    multi-photon pulse, P_exp <= eta_det P(1, mu) + P_multi.  Lower bound:
    the expected rate must exceed the multi-photon arrivals, P_exp > P_multi.
    Both conditions invert in closed form through eta_t = -ln(1 - P)/(mu eta).
    """
    if mu <= 0.0:
        raise ValueError(f"mean photon number must be positive, got {mu}")
    if not 0.0 < eta_det <= 1.0:
        raise ValueError(f"eta_det must lie in (0, 1], got {eta_det}")
    if mu * eta_det == 0.0:
        raise ValueError(f"mu * eta_det underflows to zero for mu={mu}, eta_det={eta_det}")
    p_multi = p_arr_multi(mu, eta_det, cutoff)
    p1_detected = eta_det * mu * math.exp(-mu)

    def eta_t_at_click_rate(target: float) -> float:
        if target >= 1.0:
            return math.inf
        return -math.log1p(-target) / (mu * eta_det)

    upper = min(1.0, eta_t_at_click_rate(p1_detected + p_multi))
    lower = eta_t_at_click_rate(p_multi)
    if lower >= 1.0:
        lower = 1.0  # window empty: multi-photon clicks exceed any expected rate
    return TransmissionWindow(eta_t_lower=lower, eta_t_upper=upper)


def _strategy_information(strategy: str, disturbance: float):
    """Cloning information at a disturbance, or None outside the reachable range."""
    if strategy == "A":
        if disturbance > 0.25:
            return None
        return attacks.strategy_a_information(disturbance)
    if strategy == "B":
        if disturbance > attacks.STRATEGY_B_MAX_DISTURBANCE:
            return None
        return attacks.strategy_b_information(attacks.gamma_for_disturbance(disturbance))
    raise ValueError(f"strategy must be 'A' or 'B', got {strategy!r}")


def crossover_loss(mu: float, eta_det: float, observed_error: float, strategy: str,
                   cutoff: int = PHOTON_CUTOFF):
    """Smallest channel loss at which a cloning strategy beats the matched PNS process.

    At fixed observed error rate, increasing loss raises the disturbance that
    the attack must have caused; the cloning informations eventually overtake
    the PNS information.  Returns the crossover loss in dB, the window's lower
    edge when the strategy already wins there, or None when it never wins
    inside the window.  Located by scan plus bisection to well below 0.01 dB.

    The scan samples the window every 0.05 dB, so a winning interval narrower
    than one step can be missed, and only the first sign change of the gain
    is refined: a later crossing back to the PNS process is not reported.
    """
    if observed_error < 0.0:
        raise ValueError(f"observed error rate must be nonnegative, got {observed_error}")
    window = eta_t_bounds(mu, eta_det, cutoff)
    if window.empty:
        raise InvalidRegimeError(
            f"transmission window is empty for mu={mu}, eta_det={eta_det}")

    reachable = [0]

    def gain(loss_db: float) -> float:
        scen = ChannelScenario.from_loss_db(mu, eta_det, loss_db)
        try:
            d = disturbance_for_error(scen, observed_error)
        except InvalidRegimeError:
            return -math.inf
        reachable[0] += 1
        info = _strategy_information(strategy, d)
        if info is None:
            return -math.inf
        return info - attacks.pns_information_matched(eta_det, d)

    lo = window.loss_db_lower + 1e-9
    hi = window.loss_db_upper - 1e-9
    if hi <= lo:
        return None
    grid = np.arange(lo, hi, _SCAN_DB_STEP)
    grid = np.append(grid, hi)
    gains = [gain(loss) for loss in grid]
    if reachable[0] == 0:
        raise InvalidRegimeError(
            f"observed error {observed_error} requires a disturbance above 1/2 "
            f"everywhere inside the transmission window")
    winning = [i for i, g in enumerate(gains) if g > 0.0]
    if not winning:
        return None
    first = winning[0]
    if first == 0:
        return float(window.loss_db_lower)
    left, right = grid[first - 1], grid[first]
    if not math.isfinite(gains[first - 1]):
        return float(right)
    cross = attacks.bisect(gain, left, right, xtol=CROSSOVER_DB_TOL / 5.0)
    return float(cross)


def crossover_loss_best(mu: float, eta_det: float, observed_error: float,
                        cutoff: int = PHOTON_CUTOFF) -> dict:
    """Crossover losses for both cloning strategies and the earlier of the two."""
    out = {}
    for strategy in ("A", "B"):
        out[strategy] = crossover_loss(mu, eta_det, observed_error, strategy, cutoff)
    candidates = [(loss, s) for s, loss in out.items() if loss is not None]
    if candidates:
        best_loss, best_strategy = min(candidates)
        out["best"] = best_loss
        out["best_strategy"] = best_strategy
    else:
        out["best"] = None
        out["best_strategy"] = None
    return out
