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

import bisect
import functools
import itertools
import math
import sys
from collections import namedtuple

from . import _checked_record, attacks

CROSSOVER_DB_TOL = 0.01
_SCAN_DB_STEP = 0.05
_BAND_XTOL = 1e-6
_BAND_GAIN_SLACK = 1e-8


class InvalidRegimeError(ValueError):
    """Scenario outside the transmission window where the comparison is defined."""


def loss_db_from_eta_t(eta_t: float) -> float:
    if not 0.0 < eta_t <= 1.0:
        raise ValueError(f"transmission must lie in (0, 1], got {eta_t}")
    return 0.0 - 10.0 * math.log10(eta_t)  # +0.0, not -0.0, at eta_t = 1


def eta_t_from_loss_db(loss_db: float) -> float:
    if not loss_db >= 0.0:
        raise ValueError(f"loss must be nonnegative, got {loss_db} dB")
    eta_t = 10.0 ** (-loss_db / 10.0)
    if eta_t == 0.0:
        raise ValueError(f"loss must be below about 3236 dB, where the transmission underflows to 0, got {loss_db} dB")
    return eta_t


class ChannelScenario(_checked_record("ChannelScenario", "mu eta_det eta_t")):
    """Source mean photon number, detector efficiency and channel transmission.

    An immutable named tuple: it unpacks, and compares equal to a plain
    tuple of its fields.
    """

    __slots__ = ()

    def __new__(cls, mu: float, eta_det: float, eta_t: float):
        if not mu > 0.0:
            raise ValueError(f"mean photon number must be positive, got {mu}")
        if not 0.0 < eta_det <= 1.0:
            raise ValueError(f"eta_det must lie in (0, 1], got {eta_det}")
        if not 0.0 < eta_t <= 1.0:
            raise ValueError(f"eta_t must lie in (0, 1], got {eta_t}")
        return super().__new__(cls, mu, eta_det, eta_t)

    @classmethod
    def from_loss_db(cls, mu: float, eta_det: float, loss_db: float) -> "ChannelScenario":
        return cls(mu=mu, eta_det=eta_det, eta_t=eta_t_from_loss_db(loss_db))


@functools.lru_cache(maxsize=8, typed=True)
def p_arr_multi(mu: float, eta_det: float) -> float:
    """Probability that a pulse is split and still detected.

    sum_{n>=2} P(n, mu) [1 - (1-eta_det)^(n-1)], summed to convergence.  mu
    must keep exp(-mu) a normal float (mu up to about 708): beyond that
    P(0, mu) loses digits or vanishes, and the sum would run over about mu
    terms.  Cached, because a grid or a crossover search asks for the same
    (mu, eta_det) at every loss it visits.
    """
    if not mu >= 0.0:
        raise ValueError(f"mean photon number must be nonnegative, got {mu}")
    if not math.exp(-mu) >= sys.float_info.min:
        raise ValueError(f"mean photon number must be at most about 708, where exp(-mu) "
                         f"stops being a normal float, got {mu}")
    if not 0.0 <= eta_det <= 1.0:
        raise ValueError(f"eta_det must lie in [0, 1], got {eta_det}")
    log_eta_bar = _log_eta_bar(eta_det)
    # 1 - eta_bar^(n-1), evaluated without cancellation
    return _multi_photon_series(mu, lambda n: -math.expm1((n - 1) * log_eta_bar))


def _log_eta_bar(eta_det: float) -> float:
    return math.log1p(-eta_det) if eta_det < 1.0 else -math.inf


def _multi_photon_series(mu: float, weight) -> float:
    """sum_{n>=2} P(n, mu) weight(n) for weights in [0, 1].

    Summed term by term until a term past the Poisson peak (n > mu + 1) no
    longer changes the total; later terms are smaller still.
    """
    total = 0.0
    p_n = math.exp(-mu) * mu  # P(1, mu)
    for n in itertools.count(2):
        p_n = p_n * mu / n
        term = p_n * weight(n)
        if n > mu + 1.0 and total + term == total:
            return total
        total += term


def p_exp(mu: float, eta_det: float, eta_t: float) -> float:
    """Expected click rate of the unattacked lossy channel, 1 - exp(-mu eta eta_t)."""
    if not mu >= 0.0:
        raise ValueError(f"mean photon number must be nonnegative, got {mu}")
    if not 0.0 <= eta_det <= 1.0 or not 0.0 <= eta_t <= 1.0:
        raise ValueError("efficiencies must lie in [0, 1]")
    return -math.expm1(-mu * eta_det * eta_t)


def error_disturbance_ratio(scenario: ChannelScenario) -> float:
    """Dilution factor e / D = P_single / P_expected for the scenario.

    P_single = P_expected - P_multi is the single-photon contribution to the
    raw key.  A negative one means the multi-photon clicks alone exceed the
    expected rate, i.e. the scenario sits outside the analysis window
    reported by eta_t_bounds(mu, eta_det), and raises InvalidRegimeError.
    """
    mu, eta_det, eta_t = scenario.mu, scenario.eta_det, scenario.eta_t
    pe = p_exp(mu, eta_det, eta_t)
    if pe == 0.0:
        raise InvalidRegimeError(f"no clicks are expected at eta_t={eta_t}")
    single = pe - p_arr_multi(mu, eta_det)
    if single < 0.0:
        raise InvalidRegimeError(
            f"multi-photon arrivals exceed the expected click rate at eta_t={eta_t}; "
            f"plain photon-number splitting remains optimal there "
            f"(valid window from eta_t_bounds({mu}, {eta_det}))")
    return single / pe


def observed_error_from_disturbance(scenario: ChannelScenario, disturbance: float) -> float:
    """Observed sifted-key error rate for a given disturbance.

    Multi-photon pulses are forwarded unchanged and carry no error, so
    e = (P_single / P_expected) D <= D.
    """
    if not 0.0 <= disturbance <= 0.5:
        raise ValueError(f"disturbance must lie in [0, 1/2], got {disturbance}")
    return error_disturbance_ratio(scenario) * disturbance


def _expm1_minus_identity(z: float) -> float:
    """E(z) = expm1(z) - z, summed as its Taylor series z^2/2! + z^3/3! + ... for |z| < 1/2."""
    if abs(z) >= 0.5:
        return math.expm1(z) - z
    term = total = 0.5 * z * z
    k = 2
    while True:
        k += 1
        term *= z / k
        if total + term == total:
            return total
        total += term


def observed_error_closed_form(scenario: ChannelScenario, disturbance: float) -> float:
    """Closed form of the same map with the photon series summed analytically.

    With x = mu eta_det eta_t and E(z) = expm1(z) - z,

        e/D = exp(-mu) [x + E(mu(1-eta))/(1-eta) - E(mu-x)] / (-expm1(-x)).

    The linear terms mu of expm1(mu(1-eta))/(1-eta) and expm1(mu-x) cancel
    exactly, so only x and the two quadratic-and-higher remainders E are
    summed; E is evaluated as its series for small arguments, where
    expm1(z) - z would lose digits.  At eta = 1, E(mu(1-eta))/(1-eta) takes
    its limit 0, since E(z) ~ z^2/2.
    """
    if not 0.0 <= disturbance <= 0.5:
        raise ValueError(f"disturbance must lie in [0, 1/2], got {disturbance}")
    mu, eta, eta_t = scenario.mu, scenario.eta_det, scenario.eta_t
    x = mu * eta * eta_t
    split = _expm1_minus_identity(mu * (1.0 - eta)) / (1.0 - eta) if eta < 1.0 else 0.0
    bracket = (x + split) - _expm1_minus_identity(mu - x)
    ratio = math.exp(-mu) * bracket / -math.expm1(-x)
    return ratio * disturbance


def disturbance_for_error(scenario: ChannelScenario, observed_error: float) -> float:
    """Disturbance required to produce a given observed error rate."""
    if not observed_error >= 0.0:
        raise ValueError(f"observed error rate must be nonnegative, got {observed_error}")
    ratio = error_disturbance_ratio(scenario)
    if ratio <= 0.0:
        raise InvalidRegimeError("no single-photon signals reach the receiver in this scenario")
    disturbance = observed_error / ratio
    if disturbance > 0.5 + 1e-12:
        raise InvalidRegimeError(
            f"observed error {observed_error} would require disturbance {disturbance} > 1/2")
    return min(disturbance, 0.5)


class TransmissionWindow(namedtuple("TransmissionWindow", "eta_t_lower eta_t_upper")):
    """Valid eta_t range for the matched comparison, with dB equivalents.

    loss_db_lower corresponds to eta_t_upper and vice versa.  An empty window
    means plain photon-number splitting stays optimal for every transmission.
    An immutable named tuple, like ChannelScenario.
    """

    __slots__ = ()

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


def eta_t_bounds(mu: float, eta_det: float) -> TransmissionWindow:
    """Transmission window in which the matched comparison applies.

    Upper bound: the expected click rate must be coverable by attacking every
    multi-photon pulse, P_exp <= eta_det P(1, mu) + P_multi.  Lower bound:
    the expected rate must exceed the multi-photon arrivals, P_exp > P_multi.
    Both conditions invert in closed form through eta_t = -ln(1 - P)/(mu eta).
    Term by term P_multi is below the click rate at eta_t = 1, so the lower
    edge stays below 1; an empty window is one with lower == upper.

    A rate P of at least 1/2 is stored next to 1 and has lost the digits of
    1 - P, so there 1 - P is summed as its own positive series instead: the
    undetected pulses P(0, mu) + P(1, mu) [1 - eta_det for the upper bound]
    + sum_{n>=2} P(n, mu) (1-eta_det)^(n-1).  A P_multi below the normal
    floats (mu below about 5e-154 at eta_det 0.2) is a ValueError.
    """
    if not mu > 0.0:
        raise ValueError(f"mean photon number must be positive, got {mu}")
    if not 0.0 < eta_det <= 1.0:
        raise ValueError(f"eta_det must lie in (0, 1], got {eta_det}")
    p_multi = p_arr_multi(mu, eta_det)
    if not p_multi >= sys.float_info.min:
        # also catches mu * eta_det underflowing to zero, as P_multi <= mu^2 eta_det / 2
        raise ValueError(f"the multi-photon click probability underflows for mu={mu}, "
                         f"eta_det={eta_det}; the lower window edge would lose its digits")
    p1_detected = eta_det * mu * math.exp(-mu)

    def eta_t_at_click_rate(target: float, undetected_below_two: float) -> float:
        if target < 0.5:
            return -math.log1p(-target) / (mu * eta_det)
        log_eta_bar = _log_eta_bar(eta_det)
        undetected = undetected_below_two + _multi_photon_series(
            mu, lambda n: math.exp((n - 1) * log_eta_bar))
        return -math.log(undetected) / (mu * eta_det)

    p0, p1 = math.exp(-mu), mu * math.exp(-mu)
    upper = min(1.0, eta_t_at_click_rate(p1_detected + p_multi, p0 + (1.0 - eta_det) * p1))
    lower = eta_t_at_click_rate(p_multi, p0 + p1)
    return TransmissionWindow(eta_t_lower=lower, eta_t_upper=upper)


def _scan_grid(lo: float, hi: float) -> list[float]:
    """Losses from lo every 0.05 dB up to below hi, then hi itself.

    The floats of np.append(np.arange(lo, hi, 0.05), hi): numpy fills an
    arange as lo + i * ((lo + 0.05) - lo), and the plainer lo + i * 0.05
    differs in the last bit for most brackets, which moves the refined
    crossover.
    """
    step = (lo + _SCAN_DB_STEP) - lo
    return [lo + i * step for i in range(math.ceil((hi - lo) / _SCAN_DB_STEP))] + [hi]


def gain_band(strategy: str, eta_det: float):
    """Disturbances (entry, exit) between which a cloning strategy beats the matched PNS process.

    The gain G_s(D) = I_s(D) - I_PNS(eta_det, D) does not depend on mu, on
    the observed error or on the loss.  It is negative at D = 0 and at the
    end of the strategy's reach and rises to one maximum in between, so it
    is positive on at most one band of disturbances.  A is searched in D on
    [0, 1/4]; B in its angle gamma on [0, pi/2], with the disturbance
    strategy_b_disturbance(gamma), so no angle is inverted.  A
    golden-section search for the maximum stops at the first point where
    G > -1e-8, and one ITP root find (attacks._itp_root) on each side of
    that point finds the edges of G > -1e-8 to 1e-6 in D or gamma, in about
    8 gain evaluations each; each edge is then moved out by twice that.  So
    the band holds every disturbance at which the gain is positive, also
    where round-off in an inverted angle moves the gain, and its edges lie
    within about 3e-6 of the sign changes of G.  None when the search ends
    within 1e-6 of the maximum without such a point; the slack of 1e-8
    covers the distance of the maximum found from the true one.
    Both edges are located here; the crossover search (crossover_loss_best)
    locates the exit only when it meets a grid point that does not gain.
    """
    band = _band_search(strategy, eta_det)
    if band is None:
        return None
    entry, band_exit = band
    return entry, band_exit()


def _band_search(strategy: str, eta_det: float):
    """(entry, band_exit) of gain_band, or None where the strategy never gains.

    The searches run on the gain plus _BAND_GAIN_SLACK, in D for A and in
    gamma for B.  The sum is positive exactly where the gain exceeds
    -_BAND_GAIN_SLACK: rounding never flips the sign of a sum, and near 0
    the sum is exact.  attacks._golden_section_search and the
    attacks._itp_root of the entry, on [0, inside], run here; each call of
    band_exit() finds the exit on [inside, top] and returns it.
    """
    if strategy == "A":
        top, info, disturbance = 0.25, attacks.strategy_a_information, lambda d: d
    elif strategy == "B":
        top, info, disturbance = math.pi / 2, attacks.strategy_b_information, attacks.strategy_b_disturbance
    else:
        raise ValueError(f"strategy must be 'A' or 'B', got {strategy!r}")

    def gain(x):
        return info(x) - attacks.pns_information_matched(eta_det, disturbance(x)) + _BAND_GAIN_SLACK

    inside, gain_inside = attacks._golden_section_search(gain, 0.0, top, _BAND_XTOL)
    if not gain_inside > 0.0:
        return None

    def band_exit():
        return disturbance(min(top, attacks._itp_root(gain, inside, top, _BAND_XTOL) + 2.0 * _BAND_XTOL))

    entry = max(0.0, attacks._itp_root(gain, 0.0, inside, _BAND_XTOL) - 2.0 * _BAND_XTOL)
    return disturbance(entry), band_exit


def crossover_loss_best(mu: float, eta_det: float, observed_error: float) -> dict:
    """Smallest channel loss at which each cloning strategy beats the matched PNS process.

    At fixed observed error rate, increasing loss raises the disturbance that
    the attack must have caused; the cloning informations eventually overtake
    the PNS information.  Returns a dict whose "A" and "B" entries hold the
    crossover loss in dB of each strategy, the window's lower edge when it
    already wins there, or None when it never wins inside the window; "best"
    and "best_strategy" give the earlier of the two.  Each is located to
    well below 0.01 dB.

    Each result is the one a full scan of the 0.05 dB grid of _scan_grid
    gives: the first grid point where the cloning information exceeds the
    PNS information, refined by bisection against the point before it.  So
    a winning interval narrower than one step can be missed, and a later
    crossing back to the PNS process is not reported.

    The results are found without the scan.  The disturbance never falls as
    the loss grows, and each strategy gains only on its band of disturbances
    (gain_band).  A binary search over the grid finds the first point at or
    past the band entry, and the gains decide from there: step down while
    the point before also gains, step up while the point does not gain and
    lies inside the band, and give None once the grid has passed the band
    exit, which is the scan's miss of a band narrower than one step.  The
    gains and the lower-edge and refining rules are those of the scan, so
    every result is bit-equal to the scan's.  The band edges are ITP roots
    (attacks._itp_root) and only decide where to look; the refinement is the
    scan's bisection (attacks.bisect), whose midpoints fix the result.  Disturbances and gains are
    kept by loss, so each is computed once, the refinement's grid ends
    included, and the PNS information only where a gain is read.
    """
    if not observed_error >= 0.0:
        raise ValueError(f"observed error rate must be nonnegative, got {observed_error}")
    window = eta_t_bounds(mu, eta_det)
    if window.empty:
        raise InvalidRegimeError(f"transmission window is empty for mu={mu}, eta_det={eta_det}")

    @functools.cache
    def disturbance(loss_db: float) -> float:
        """The disturbance at a loss, inf where the error is unattainable."""
        try:
            return disturbance_for_error(
                ChannelScenario.from_loss_db(mu, eta_det, loss_db), observed_error)
        except InvalidRegimeError:
            return math.inf

    @functools.cache
    def gain(strategy: str, loss_db: float) -> float:
        """Cloning minus PNS information at a loss, -inf where either is missing."""
        d = disturbance(loss_db)
        info = None if d == math.inf else attacks.cloning_information(strategy, [d])[0]
        return -math.inf if info is None else info - attacks.pns_information_matched(eta_det, d)

    def crossover(strategy: str):
        band = _band_search(strategy, eta_det)
        if band is None:
            return None
        entry, band_exit = band
        first = bisect.bisect_left(grid, entry, key=disturbance)
        while first > 0 and gain(strategy, grid[first - 1]) > 0.0:
            first -= 1
        exit_ = None
        while first < len(grid) and gain(strategy, grid[first]) <= 0.0:
            if exit_ is None:
                exit_ = band_exit()
            if disturbance(grid[first]) > exit_:
                return None
            first += 1
        if first == len(grid):
            return None
        if first == 0:
            return float(window.loss_db_lower)
        return float(attacks.bisect(lambda x: gain(strategy, x), grid[first - 1], grid[first],
                                    xtol=CROSSOVER_DB_TOL / 5.0))

    lo, hi = window.loss_db_lower + 1e-9, window.loss_db_upper - 1e-9
    if hi <= lo:
        out = {"A": None, "B": None}
    else:
        grid = _scan_grid(lo, hi)
        # the first grid point has the smallest disturbance
        if disturbance(grid[0]) == math.inf:
            raise InvalidRegimeError(
                f"observed error {observed_error} requires a disturbance above 1/2 "
                f"everywhere inside the transmission window")
        out = {"A": crossover("A"), "B": crossover("B")}
    out["best"], out["best_strategy"] = min(
        ((loss, s) for s, loss in out.items() if loss is not None), default=(None, None))
    return out
